"""Order check of a plan document that does not use `affsched`.

Schedules are evaluated with plain Python ints straight from the nest and
plan documents, so a defect in the program's own evaluator or validator
cannot hide a violation here.
"""

from __future__ import annotations

import itertools


def _matvec(rows, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in rows]


def _box_points(domain: dict, n_vals):
    ranges = []
    for pair in domain["box"]:
        lo = sum(c * n for c, n in zip(pair["lower"]["coeffs"], n_vals)) + pair["lower"]["const"]
        hi = sum(c * n for c, n in zip(pair["upper"]["coeffs"], n_vals)) + pair["upper"]["const"]
        ranges.append(range(lo, hi + 1))
    return itertools.product(*ranges)


def order_violations(nest_doc: dict, plan_doc: dict, n_vals) -> list[tuple]:
    """Dependence pairs whose source does not strictly precede its target.

    Operations are ordered lexicographically by (schedule vector, textual
    order), the schedule vector being all rows of T J + B N + a, processor
    rows first, as the procedure's legality columns order them.  `in`
    dependences are skipped.  Returns (dependence index, source point,
    target point) per violation.
    """
    order = {s["id"]: s["order"] for s in nest_doc["statements"]}

    def stamp(sid, point):
        st = plan_doc["statements"][sid]
        vec = [
            t + p + a
            for t, p, a in zip(_matvec(st["T"], point), _matvec(st["B"], n_vals), st["a"])
        ]
        return (vec, order[sid])

    bad = []
    for di, dep in enumerate(nest_doc["dependences"]):
        if dep["kind"] == "in":
            continue
        for point in _box_points(dep["domain"], n_vals):
            src = [
                j + p - s
                for j, p, s in zip(
                    _matvec(dep["Phi"], point), _matvec(dep["Psi"], n_vals), dep["phi"]
                )
            ]
            if not stamp(dep["source"], src) < stamp(dep["target"], point):
                bad.append((di, tuple(src), point))
    return bad
