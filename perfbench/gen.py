"""Seeded generator of multi-statement nest documents.

Emits plain JSON-ready dicts in the `load_nest` wire format, so the program
under test receives only the generated documents.  Nothing here imports
`affsched`.
"""

from __future__ import annotations

import random


def _bound(coeff: int, const: int) -> dict:
    return {"coeffs": [coeff], "const": const}


def _box(ranges) -> dict:
    """Box domain from per-dimension ((lo_coeff, lo_const), (hi_coeff, hi_const))."""
    return {
        "box": [
            {"lower": _bound(*lo), "upper": _bound(*hi)} for lo, hi in ranges
        ]
    }


def _identity(d: int) -> list[list[int]]:
    return [[int(i == j) for j in range(d)] for i in range(d)]


FULL = ((0, 1), (1, 0))  # 1 <= x <= N


def _clipped(off: int):
    """Range of j in [1, N] such that j + off also lies in [1, N]."""
    if off > 0:
        return ((0, 1), (1, -off))
    if off < 0:
        return ((0, 1 - off), (1, 0))
    return FULL


def draw_offsets(k: int, d: int, rng: random.Random) -> list[list[int]]:
    """k read offsets for `chain`, each entry drawn from {-1, 0, 1}."""
    return [[rng.choice((-1, 0, 1)) for _ in range(d)] for _ in range(k)]


def chain(offsets: list[list[int]]) -> dict:
    """Statements S_1..S_k of depth d in sequence; S_s writes A_s[J] and reads
    A_{s-1}[J + o_s], where o_s = offsets[s - 1].

    Each statement runs its whole box before the next starts, so every read
    of A_{s-1} (s >= 2) is a flow dependence on S_{s-1}, with its domain
    clipped to the points whose source J + o_s stays inside the box.
    """
    k, d = len(offsets), len(offsets[0])
    eye = _identity(d)
    zero_g = [[0] for _ in range(d)]
    statements, accesses, dependences = [], [], []
    for s, off in enumerate(offsets, start=1):
        sid = f"S{s}"
        statements.append({"id": sid, "depth": d, "domain": _box([FULL] * d), "order": s})
        accesses.append({"array": f"A{s}", "statement": sid, "slot": 1, "kind": "write",
                         "F": eye, "G": zero_g, "f": [0] * d})
        accesses.append({"array": f"A{s - 1}", "statement": sid, "slot": 2, "kind": "read",
                         "F": eye, "G": zero_g, "f": off})
        if s >= 2:
            dependences.append({
                "source": f"S{s - 1}", "target": sid, "kind": "flow",
                "Phi": eye, "Psi": zero_g, "phi": [-o for o in off],
                "domain": _box([_clipped(o) for o in off]),
                "produced_by": {"array": f"A{s - 1}", "slot": 2},
            })
    return {
        "params": [{"name": "N", "min": 2}],
        "statements": statements,
        "arrays": [{"id": f"A{s}", "dim": d} for s in range(k + 1)],
        "accesses": accesses,
        "dependences": dependences,
    }


def jacobi2() -> dict:
    """Two-statement time-stepped 1-D Jacobi, with its flow dependences.

        for t in 1..N:
          for i in 2..N-1:  S1: B[i] = A[i-1] + A[i] + A[i+1]
          for i in 2..N-1:  S2: A[i] = B[i]

    Only the value flow is listed (as if A and B were expanded per time
    step), so legality rests on the flow dependences alone; `phi` gives
    source = J - phi.
    """
    eye = _identity(2)
    zero_g = [[0], [0]]
    t_late = ((0, 2), (1, 0))  # 2 <= t <= N
    i_all = ((0, 2), (1, -1))  # 2 <= i <= N-1
    reads_a = [(2, -1), (3, 0), (4, 1)]  # (slot, offset) of S1's reads of A

    def flow(src, tgt, phi, dom, array, slot):
        return {"source": src, "target": tgt, "kind": "flow", "Phi": eye, "Psi": zero_g,
                "phi": phi, "domain": _box(dom), "produced_by": {"array": array, "slot": slot}}

    deps = [flow("S1", "S2", [0, 0], [FULL, i_all], "B", 2)]
    for slot, off in reads_a:
        # S1(t, i) reads A[i + off], written by S2(t - 1, i + off) when that is interior
        i_dom = ((0, max(2, 2 - off)), (1, min(-1, -1 - off)))
        deps.append(flow("S2", "S1", [1, -off], [t_late, i_dom], "A", slot))
    accesses = [
        {"array": "B", "statement": "S1", "slot": 1, "kind": "write",
         "F": [[0, 1]], "G": [[0]], "f": [0]},
        *({"array": "A", "statement": "S1", "slot": slot, "kind": "read",
           "F": [[0, 1]], "G": [[0]], "f": [off]} for slot, off in reads_a),
        {"array": "A", "statement": "S2", "slot": 1, "kind": "write",
         "F": [[0, 1]], "G": [[0]], "f": [0]},
        {"array": "B", "statement": "S2", "slot": 2, "kind": "read",
         "F": [[0, 1]], "G": [[0]], "f": [0]},
    ]
    return {
        "params": [{"name": "N", "min": 4}],
        "statements": [
            {"id": "S1", "depth": 2, "domain": _box([FULL, i_all]), "order": 1},
            {"id": "S2", "depth": 2, "domain": _box([FULL, i_all]), "order": 2},
        ],
        "arrays": [{"id": "A", "dim": 1}, {"id": "B", "dim": 1}],
        "accesses": accesses,
        "dependences": deps,
    }
