"""Metamorphic checks of the exact search over the pinned cases and the
generated chains.

A relation between two runs holds whatever bounds and cuts the search
uses, so a cut that drops an optimum under one run but not under the other
fails it, even where no exhaustive oracle can afford the system.
"""

import copy
import dataclasses
import random
from fractions import Fraction

from affsched import procedure
from affsched.nest import load_nest
from affsched.procedure import WeightConfig, plan_to_doc, run_procedure
from affsched.solver import SolverConfig
from affsched.validation import validate
from conftest import perfbench_module
from test_plan_digests import cases
from test_procedure import GENERATED_CHAINS

SCALE = Fraction(3, 7)


def _run(monkeypatch, doc, r, weights, bound):
    """The plan document of one run and the (nodes, passes) of each recursion's search."""
    searches = []
    solve = procedure.solve

    def counting(system, cfg):
        sol = solve(system, cfg)
        searches.append((sol.nodes, sol.passes))
        return sol

    with monkeypatch.context() as m:
        m.setattr(procedure, "solve", counting)
        plan = run_procedure(load_nest(doc), r_space=r, weights=weights,
                             solver_cfg=SolverConfig(coeff_bound=bound))
    return plan_to_doc(plan), searches


def _objectives(plan_doc):
    """Pop the weights and every recursion's objective from `plan_doc`; the objectives."""
    del plan_doc["weights"]
    return [Fraction(*d.pop("objective")) for d in plan_doc["diagnostics"]]


def test_weight_scaling(monkeypatch):
    # scaling every family weight by one rational scales every objective by
    # it and changes nothing else: not the plan, not the nodes or passes
    moved = []
    for cid, (doc, r, overrides, bound) in cases().items():
        weights = WeightConfig.with_overrides(overrides)
        scaled = WeightConfig(**{f.name: getattr(weights, f.name) * SCALE
                                 for f in dataclasses.fields(weights)})
        plan, searches = _run(monkeypatch, doc, r, weights, bound)
        plan_s, searches_s = _run(monkeypatch, doc, r, scaled, bound)
        objectives, objectives_s = _objectives(plan), _objectives(plan_s)
        if (plan_s, searches_s) != (plan, searches) or \
                objectives_s != [o * SCALE for o in objectives]:
            moved.append(cid)
    assert moved == []


def _shuffled(doc, seed):
    """`doc` with its statements and arrays each listed in a seeded random
    order other than their own, where a list has more than one entry."""
    rng = random.Random(seed)
    out = dict(doc)
    for key in ("statements", "arrays"):
        items = out[key]
        while out[key] == items and len(items) > 1:
            out[key] = rng.sample(items, len(items))
    return out


def _plan_and_verdict(doc, r, overrides, bound):
    """The plan document, and whether the plan validates at N^(0)+2."""
    nest = load_nest(doc)
    plan = run_procedure(nest, r_space=r, weights=WeightConfig.with_overrides(overrides),
                         solver_cfg=SolverConfig(coeff_bound=bound))
    n_vals = [m + 2 for m in nest.outer_vars.minima]
    return plan_to_doc(plan), validate(nest, plan, n_vals).passed


def _objectives_and_verdict(doc, r, overrides, bound):
    """Every recursion's objective, and whether the plan validates at N^(0)+2."""
    plan, passed = _plan_and_verdict(doc, r, overrides, bound)
    return [d["objective"] for d in plan["diagnostics"]], passed


def _pinned_and_generated():
    """`cases()` and every `GENERATED_CHAINS` entry at bound 2, by id."""
    gen = perfbench_module("gen")
    runs = cases()
    for k, d, seed, r in GENERATED_CHAINS:
        doc = gen.chain(gen.draw_offsets(k, d, random.Random(seed)))
        runs[f"chain({k},{d}) S={seed} r={r}"] = (doc, r, {}, 2)
    return runs


def test_permutation():
    # listing the statements and arrays in another order reorders the layout
    # and so the search, which may then meet another optimal vector first,
    # but each recursion's optimum and the plan's verdict stay the same
    moved = []
    for cid, (doc, r, overrides, bound) in _pinned_and_generated().items():
        expected = _objectives_and_verdict(doc, r, overrides, bound)
        for seed in (1, 2):
            if _objectives_and_verdict(_shuffled(doc, seed), r, overrides, bound) != expected:
                moved.append(f"{cid} seed={seed}")
    assert moved == []


def _renamed(doc):
    """`doc` with every statement and array id renamed, each kind's ids in
    the reverse of their sorted order; and the renaming."""
    rename = {}
    for key, prefix in (("statements", "Q"), ("arrays", "P")):
        ids = sorted(item["id"] for item in doc[key])
        rename.update({old: f"{prefix}{len(ids) - i:02d}" for i, old in enumerate(ids)})
    out = copy.deepcopy(doc)
    for item in out["statements"] + out["arrays"]:
        item["id"] = rename[item["id"]]
    for acc in out["accesses"]:
        acc["array"], acc["statement"] = rename[acc["array"]], rename[acc["statement"]]
    for dep in out.get("dependences", []):
        dep["source"], dep["target"] = rename[dep["source"]], rename[dep["target"]]
        if dep.get("produced_by") is not None:
            dep["produced_by"]["array"] = rename[dep["produced_by"]["array"]]
    return out, rename


def test_renaming():
    # ids only name things: renamed statements and arrays get the same
    # transforms, objectives, slacks and verdict under the renaming, even
    # where the renaming reverses the ids' sorted order
    moved = []
    for cid, (doc, r, overrides, bound) in _pinned_and_generated().items():
        renamed, rename = _renamed(doc)
        assert len(rename) == len(doc["statements"]) + len(doc["arrays"])  # ids all distinct
        plan, passed = _plan_and_verdict(doc, r, overrides, bound)
        expected = (
            {rename[sid]: st for sid, st in plan["statements"].items()},
            {rename[aid]: al for aid, al in plan["arrays"].items()},
            [(d["objective"],
              {".".join(rename.get(p, p) for p in label.split(".")): v
               for label, v in d["slacks"].items()})
             for d in plan["diagnostics"]],
            passed,
        )
        plan, passed = _plan_and_verdict(renamed, r, overrides, bound)
        got = (plan["statements"], plan["arrays"],
               [(d["objective"], d["slacks"]) for d in plan["diagnostics"]], passed)
        if got != expected:
            moved.append(cid)
    assert moved == []
