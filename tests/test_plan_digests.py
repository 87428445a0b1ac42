"""Pinned plans and reports: the sha256 of each case's documents.

A solver change that must not move any plan (a faster search, a tighter
bound) is checked against `tests/data/plan_digests.json` rather than
against a second checkout.  `tests/data/report_digests.json` pins, per
case, the plan's communication report and its validation reports at
N^(0)+2 and N^(0)+4, so a change to `comm_report` or `validate` that moves
a byte of their output fails here too.  `tests/data/search_counts.json` pins,
per case, the (nodes, passes, objective) of each recursion's search, so a
change meant to leave the search alone (a cheaper set-up, fewer columns)
cannot move it unnoticed.  Each solved plan, stripped of its diagnostics
and warnings, must read back through `plan_from_doc` as the same document.
Rewrite the files only for a deliberate change, from a checkout whose
plans, reports and searches are the intended ones:

    PYTHONPATH=src python tests/test_plan_digests.py --write

It prints, per file, the ids of the cases whose pins changed, and how many
cases' recursion objectives changed.
"""

import hashlib
import json
import pathlib
import sys
from fractions import Fraction

import pytest

from affsched import procedure
from affsched.comm import comm_report
from affsched.nest import load_nest
from affsched.procedure import WeightConfig, plan_from_doc, plan_to_doc, run_procedure
from affsched.solver import SolverConfig
from affsched.validation import validate
from conftest import fixture_doc, perfbench_module

DATA = pathlib.Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "plan_digests.json"
REPORT_DIGESTS = DATA / "report_digests.json"
SEARCH_COUNTS = DATA / "search_counts.json"

FIXTURES = ("vecadd", "chain", "stencil", "addmat", "matvec", "matmul", "chain23", "chain42")

WEIGHTINGS = {
    "W1": {"legality": Fraction(3)},
    "W2": {"align-F": Fraction(2, 3), "align-G": Fraction(8), "align-f": Fraction(4),
           "space": Fraction(8, 3)},
    "W3": {"align-F": Fraction(1), "align-G": Fraction(5, 2), "legality": Fraction(6),
           "space": Fraction(4)},
    "W4": {"legality": Fraction(1, 2), "indep": Fraction(3), "align-f": Fraction(5, 2)},
}

# chain(3,2) r=1 offsets and weightings on which a search without objective
# caps ran for minutes
FOUND_CHAINS = (
    ([[1, 1], [-1, 1], [-1, -1]], "W2"),
    ([[1, -1], [0, 1], [1, 0]], "W3"),
)


def _depth(doc):
    return max(s["depth"] for s in doc["statements"])


def cases():
    """case id -> (nest document, r, weight overrides, coefficient bound)."""
    gen = perfbench_module("gen")
    workloads = perfbench_module("workloads")
    docs = {name: fixture_doc(name) for name in FIXTURES}
    docs["jacobi2"] = gen.jacobi2()
    out = {}
    for name, doc in docs.items():
        for r in range(_depth(doc)):
            out[f"{name} r={r}"] = (doc, r, {}, 2)
    # every weighting at bounds 1 and 2 on the single-statement fixtures,
    # chain23 and jacobi2
    for wname, overrides in WEIGHTINGS.items():
        for name in FIXTURES[:-1] + ("jacobi2",):
            for r in range(_depth(docs[name])):
                for bound in (1, 2):
                    out[f"{name} r={r} {wname} bound={bound}"] = (docs[name], r, overrides, bound)
    for seed in range(3):
        inst = next(i for i in workloads.multistmt_known_failures(seed) if i.id == "chain(4,2) r=1")
        out[f"chain(4,2) r=1 seed={seed}"] = (json.loads(inst.text), 1, {}, 2)
    for offsets, wname in FOUND_CHAINS:
        out[f"chain(3,2) r=1 {offsets} {wname}"] = (gen.chain(offsets), 1, WEIGHTINGS[wname], 2)
    return out


def _sha(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def digests(doc, r, overrides, bound):
    """The sha256 of the plan document, per report name that of the report,
    the [nodes, passes, objective] of each recursion's search, and the plan
    document."""
    nest = load_nest(doc)
    searches = []
    solve = procedure.solve

    def counting(system, cfg):
        sol = solve(system, cfg)
        searches.append([sol.nodes, sol.passes, str(sol.objective)])
        return sol

    procedure.solve = counting
    try:
        plan = run_procedure(nest, r_space=r,
                             weights=WeightConfig.with_overrides(overrides),
                             solver_cfg=SolverConfig(coeff_bound=bound))
    finally:
        procedure.solve = solve
    reports = {"comm_report": _sha(comm_report(plan, nest))}
    for k in (2, 4):
        n_vals = [m + k for m in nest.outer_vars.minima]
        reports[f"validate N0+{k}"] = _sha(validate(nest, plan, n_vals).to_doc())
    plan_doc = plan_to_doc(plan)
    return _sha(plan_doc), reports, searches, plan_doc


def all_digests():
    """(case id -> plan digest, case id -> report digests, case id -> search
    counts, case id -> plan document) over every case."""
    plans, reports, searches, docs = {}, {}, {}, {}
    for cid, case in cases().items():
        plans[cid], reports[cid], searches[cid], docs[cid] = digests(*case)
    return plans, reports, searches, docs


def _changed(got, pinned):
    assert sorted(got) == sorted(pinned)
    return [cid for cid in got if got[cid] != pinned[cid]]


@pytest.fixture(scope="module")
def computed():
    return all_digests()


def test_plans_match_pinned_digests(computed):
    assert _changed(computed[0], json.loads(DIGESTS.read_text())) == []


def test_reports_match_pinned_digests(computed):
    assert _changed(computed[1], json.loads(REPORT_DIGESTS.read_text())) == []


def test_searches_match_pinned_counts(computed):
    assert _changed(computed[2], json.loads(SEARCH_COUNTS.read_text())) == []


def test_transforms_replay_to_the_solved_plan(computed):
    # a plan is its transforms: without its diagnostics and warnings, each
    # solved plan reads back as the same document
    solved = computed[3]
    differ = []
    for cid, (doc, *_) in cases().items():
        given = {k: v for k, v in solved[cid].items() if k not in ("diagnostics", "warnings")}
        if plan_to_doc(plan_from_doc(given, load_nest(doc))) != solved[cid]:
            differ.append(cid)
    assert differ == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_plan_digests.py --write")
    DATA.mkdir(exist_ok=True)
    for path, pinned in zip((DIGESTS, REPORT_DIGESTS, SEARCH_COUNTS), all_digests()[:3]):
        old = json.loads(path.read_text()) if path.exists() else {}
        changed = sorted(cid for cid in pinned if old.get(cid) != pinned[cid])
        print(f"{path.name}: {len(changed)} of {len(pinned)} cases changed")
        for cid in changed:
            print(f"  {cid}")
        if path == SEARCH_COUNTS:
            moved = [cid for cid in pinned
                     if [o for *_, o in old.get(cid, [])] != [o for *_, o in pinned[cid]]]
            print(f"{path.name}: objectives changed in {len(moved)} of {len(pinned)} cases")
        path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
