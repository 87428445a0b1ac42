"""Pinned plans: the sha256 of each case's plan document.

A solver change that must not move any plan (a faster search, a tighter
bound) is checked against `tests/data/plan_digests.json` rather than
against a second checkout.  Rewrite the file only for a deliberate plan
change, from a checkout whose plans are the intended ones:

    PYTHONPATH=src python tests/test_plan_digests.py --write
"""

import hashlib
import json
import pathlib
import sys
from fractions import Fraction

from affsched.nest import load_nest
from affsched.procedure import WeightConfig, plan_to_doc, run_procedure
from affsched.solver import SolverConfig
from conftest import fixture_doc, perfbench_module

DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "plan_digests.json"

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


def digest(doc, r, overrides, bound):
    plan = run_procedure(load_nest(doc), r_space=r,
                         weights=WeightConfig.with_overrides(overrides),
                         solver_cfg=SolverConfig(coeff_bound=bound))
    return hashlib.sha256(json.dumps(plan_to_doc(plan), sort_keys=True).encode()).hexdigest()


def test_plans_match_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    computed = {cid: digest(*case) for cid, case in cases().items()}
    assert sorted(computed) == sorted(pinned)
    changed = [cid for cid in computed if computed[cid] != pinned[cid]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_plan_digests.py --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({cid: digest(*c) for cid, c in cases().items()},
                                  indent=1, sort_keys=True) + "\n")
