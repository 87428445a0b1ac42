"""Metamorphic checks of the exact search over the pinned cases.

A relation between two runs holds whatever bounds and cuts the search
uses, so a cut that drops an optimum under one run but not under the other
fails it, even where no exhaustive oracle can afford the system.
"""

import dataclasses
from fractions import Fraction

from affsched import procedure
from affsched.nest import load_nest
from affsched.procedure import WeightConfig, plan_to_doc, run_procedure
from affsched.solver import SolverConfig
from test_plan_digests import cases

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
