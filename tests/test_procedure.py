"""Recursive procedure: frozen fixture plans, drop rules, serialization."""

import dataclasses
import logging
import random
import re
from fractions import Fraction

import pytest

from affsched import procedure
from affsched.constraints import (
    build_alignment_columns,
    build_legality_columns,
    build_space_locality_columns,
)
from affsched.nest import load_nest
from affsched.procedure import (
    ArrayAllocation,
    ProcedureError,
    StatementTransform,
    WeightConfig,
    placement_of,
    plan_from_doc,
    plan_to_doc,
    run_procedure,
    schedule_of,
)
from affsched.solver import SolverConfig
from affsched.validation import validate
from conftest import (
    FIXTURE_NAMES,
    fixture_doc,
    fixture_nest,
    fixture_plan,
    perfbench_module,
    reversal_doc,
)


class TestFrozenPlans:
    """Expected transforms, computed once by hand and pinned."""

    def test_vecadd(self):
        plan = fixture_plan("vecadd")
        assert plan.statements["S1"].schedule == ((1,),)
        assert [d.objective for d in plan.diagnostics] == [0]

    def test_chain(self):
        plan = fixture_plan("chain")
        assert plan.statements["S1"].schedule == ((1,),)
        assert [d.objective for d in plan.diagnostics] == [2]

    def test_stencil(self):
        plan = fixture_plan("stencil")
        assert plan.statements["S1"].schedule == ((1, 0), (0, 1))
        assert plan.arrays["u"].placement == ((1, 0),)
        assert [d.objective for d in plan.diagnostics] == [68, 4]

    def test_addmat(self):
        plan = fixture_plan("addmat")
        assert [d.objective for d in plan.diagnostics] == [0, 0]
        for aid in ("a", "b", "c"):
            assert plan.arrays[aid].placement == ((1, 0),)

    def test_matvec(self):
        plan = fixture_plan("matvec")
        assert plan.statements["S1"].schedule == ((1, 0), (0, 1))
        assert plan.arrays["y"].placement == ((1,),)
        assert plan.arrays["A"].placement == ((1, 0),)
        assert plan.arrays["x"].placement == ((0,),)
        assert [d.objective for d in plan.diagnostics] == [80, 8]

    def test_matmul(self):
        plan = fixture_plan("matmul")
        assert plan.statements["S1"].schedule == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
        assert plan.arrays["C"].placement == ((1, 0),)
        assert plan.arrays["A"].placement == ((1, 0),)
        assert plan.arrays["B"].placement == ((0, 0),)
        assert [d.objective for d in plan.diagnostics] == [98, 8, 32]

    def test_chain23(self):
        # two depth-3 statements: pins which witness/sign choice wins a tie
        # across statements
        plan = fixture_plan("chain23", 1)
        for sid in ("S1", "S2"):
            assert plan.statements[sid].schedule == (
                (0, 1, 0), (1, 0, 0), (0, 0, 1)
            )
            assert plan.statements[sid].param == ((0,), (0,), (0,))
        for aid in ("A0", "A1", "A2"):
            assert plan.arrays[aid].placement == ((0, 1, 0),)
        assert [d.objective for d in plan.diagnostics] == [0, 0, 0]
        assert [d.witnesses for d in plan.diagnostics] == [
            {sid: (s, 1) for sid in ("S1", "S2")}
            for s in ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        ]

    def test_chain42(self):
        # four depth-2 statements: the widest layout run end to end
        plan = fixture_plan("chain42", 1)
        for sid, const in (("S1", (0, 0)), ("S2", (1, -1)), ("S3", (0, -1)), ("S4", (-1, -2))):
            assert plan.statements[sid].schedule == ((1, 0), (0, 1))
            assert plan.statements[sid].param == ((0,), (0,))
            assert tuple(plan.statements[sid].const) == const
        for aid, const in (("A0", 0), ("A1", 0), ("A2", 1), ("A3", 0), ("A4", -1)):
            assert plan.arrays[aid].placement == ((1, 0),)
            assert tuple(plan.arrays[aid].const) == (const,)
        assert [d.objective for d in plan.diagnostics] == [0, 0]
        assert [d.witnesses for d in plan.diagnostics] == [
            {sid: (s, 1) for sid in ("S1", "S2", "S3", "S4")} for s in ((1, 0), (0, 1))
        ]
        assert validate(fixture_nest("chain42"), plan, [6]).passed

    def test_determinism(self):
        a = plan_to_doc(run_procedure(fixture_nest("matmul"), r_space=1))
        b = plan_to_doc(run_procedure(fixture_nest("matmul"), r_space=1))
        assert a == b


# generated chains, (statements, depth, seed of their offsets, r): every
# recursion's optimum is 0, and a search that kept hunting ties past its
# first optimal vector took seconds on them or ran out of time
GENERATED_CHAINS = [(5, 3, 5, 1), (16, 2, 16, 1), (6, 3, 63, 1), (6, 3, 63, 2),
                    (3, 4, 34, 1), (6, 3, 6, 1), (4, 4, 44, 1), (6, 4, 64, 1)]


class TestGeneratedChains:
    @pytest.mark.parametrize("k,d,seed,r", GENERATED_CHAINS,
                             ids=[f"chain({k},{d}) S={s} r={r}" for k, d, s, r in GENERATED_CHAINS])
    def test_solves_fast_and_validates(self, monkeypatch, k, d, seed, r):
        gen = perfbench_module("gen")
        nest = load_nest(gen.chain(gen.draw_offsets(k, d, random.Random(seed))))
        searches = []
        solve = procedure.solve

        def counting(system, cfg):
            sol = solve(system, cfg)
            searches.append((sol.objective, sol.nodes))
            return sol

        monkeypatch.setattr(procedure, "solve", counting)
        plan = run_procedure(nest, r_space=r, solver_cfg=SolverConfig(time_limit=20))
        # node counts are deterministic
        assert [obj for obj, _ in searches] == [0] * d
        assert max(nodes for _, nodes in searches) < 1000
        for n in (6, 8):
            assert validate(nest, plan, [n]).passed

    def test_chain_8_3_seed_83(self, monkeypatch):
        # the one search of about 10**5 nodes the tests run: its recursions'
        # node counts, passes and objectives are pinned
        gen = perfbench_module("gen")
        nest = load_nest(gen.chain(gen.draw_offsets(8, 3, random.Random(83))))
        searches = []
        solve = procedure.solve

        def counting(system, cfg):
            sol = solve(system, cfg)
            searches.append((sol.nodes, sol.passes, sol.objective))
            return sol

        monkeypatch.setattr(procedure, "solve", counting)
        plan = run_procedure(nest, r_space=1, solver_cfg=SolverConfig(time_limit=20))
        assert searches == [(88, 1, 0), (98258, 1, 0), (52, 1, 0)]
        for n in (6, 8):
            assert validate(nest, plan, [n]).passed


class TestSearchEvents:
    def test_debug_event_per_recursion(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="affsched"):
            plan = run_procedure(fixture_nest("stencil"), r_space=1)
        events = [r.getMessage() for r in caplog.records if r.name == "affsched"]
        assert len(events) == len(plan.diagnostics) == 2
        assert events[0].startswith("recursion 1: objective 68 after ")
        # a single statement's legality columns imply no further rows
        assert events[0].endswith(
            f"nodes, 10 rows (0 implied), witnesses {plan.diagnostics[0].witnesses}")
        # recursion 1 fails under caps 0, 4, 8, 16 and 32; the least bound
        # cut under cap 32 is the optimum
        assert events[0].startswith("recursion 1: objective 68 after 6 passes (final cap 68), ")

    def test_jacobi2_implied_rows(self, caplog):
        # each sweep's legality columns end at a shared variable with opposite
        # signs; the rows they imply cut recursion 1 from 663 nodes to 66 and
        # recursion 2 from 344 to 216
        with caplog.at_level(logging.DEBUG, logger="affsched"):
            run_procedure(load_nest(perfbench_module("gen").jacobi2()), r_space=1)
        events = [r.getMessage() for r in caplog.records if r.name == "affsched"]
        assert [e.split(", ")[1:3] for e in events] == [
            ["66 nodes", "89 rows (36 implied)"],
            ["216 nodes", "66 rows (36 implied)"],
        ]


class TestDropRules:
    def test_matmul_flow_drop_at_second_recursion(self):
        plan = fixture_plan("matmul")
        diags = plan.diagnostics
        # active during the spatial recursion, dropped by the first time
        # recursion whose constant columns all reach 1
        assert 0 in diags[0].active_dependences
        assert diags[0].dropped_dependences == []
        assert diags[1].dropped_dependences == [0]
        assert 0 not in diags[2].active_dependences

    def test_matmul_indep_drops(self):
        plan = fixture_plan("matmul")
        diags = plan.diagnostics
        # B operand separated immediately, A operand only at the last level
        assert diags[0].dropped_in_dependences == [2]
        assert diags[1].dropped_in_dependences == []
        assert diags[2].dropped_in_dependences == [1]

    def test_active_sets_monotone(self):
        for name in ("stencil", "matvec", "matmul"):
            plan = fixture_plan(name)
            prev = None
            for d in plan.diagnostics:
                active = set(d.active_dependences) | set(d.active_in_dependences)
                if prev is not None:
                    assert active <= prev
                prev = set(d.active_dependences) - set(d.dropped_dependences)
                prev |= set(d.active_in_dependences) - set(d.dropped_in_dependences)

    def test_indep_dropped_on_spatial_level(self):
        # matvec separates the operand already on the spatial level
        assert fixture_plan("matvec").diagnostics[0].dropped_in_dependences == [2]


class TestRankAndErrors:
    @pytest.mark.parametrize(
        "name,r", [("vecadd", 0), ("chain", 0), ("stencil", 1), ("addmat", 1),
                   ("matvec", 1), ("matmul", 1), ("matmul", 2)]
    )
    def test_full_rank(self, name, r):
        from affsched.algebra import rank

        plan = fixture_plan(name, r)
        nest = fixture_nest(name)
        for s in nest.statements:
            assert rank(plan.statements[s.id].schedule) == s.depth

    def test_r_out_of_range(self):
        with pytest.raises(ValueError, match="spatial dimension"):
            run_procedure(fixture_nest("vecadd"), r_space=1)
        with pytest.raises(ValueError, match="spatial dimension"):
            run_procedure(fixture_nest("matmul"), r_space=-1)

    def test_infeasible_recursion(self):
        with pytest.raises(ProcedureError, match=re.escape(
            "recursion 1 infeasible (active dependences [0], in-dependences [])"
        )):
            run_procedure(load_nest(reversal_doc()), r_space=0)

    def test_rank_deficient_schedule_refused(self, monkeypatch):
        # with no rank witnesses nothing forces a schedule row to be nonzero
        monkeypatch.setattr(procedure, "rank_witnesses", lambda *args: {})
        with pytest.raises(ProcedureError, match=re.escape(
            "statement 'S1': final schedule rank 0 < depth 2"
        )):
            run_procedure(fixture_nest("stencil"), r_space=1)

    def test_matmul_two_spatial_dims(self):
        plan = fixture_plan("matmul", 2)
        assert plan.r_space == 2
        for al in plan.arrays.values():
            assert len(al.placement) == 2

    def test_lex_equal_warning(self):
        doc = fixture_doc("chain")
        doc["dependences"].append(
            {
                "source": "S1",
                "target": "S1",
                "kind": "flow",
                "Phi": [[1]],
                "Psi": [[0]],
                "phi": [0],
                "domain": doc["statements"][0]["domain"],
                "produced_by": None,
            }
        )
        plan = run_procedure(load_nest(doc), r_space=0)
        assert any("equal time vectors" in w for w in plan.warnings)
        assert fixture_plan("chain").warnings == []

    def test_tie_warning_says_which_way_textual_order_runs(self):
        # jacobi2 r=0 ties dep #3 (S2 -> S1) at every level, and S2 comes
        # textually after S1, so validate finds that dependence reversed
        nest = load_nest(perfbench_module("gen").jacobi2())
        plan = run_procedure(nest, r_space=0)
        assert plan.warnings == [
            "dependence #3 (S2->S1, flow) is scheduled with equal time vectors at every "
            "level; textual order runs it backwards"
        ]
        assert {v[0] for v in validate(nest, plan, [6]).legality_violations} == {(3,)}
        # chain23's tied S1 -> S2 flow runs in textual order
        assert fixture_plan("chain23", 1).warnings == [
            "dependence #0 (S1->S2, flow) is scheduled with equal time vectors at every "
            "level; correctness relies on textual order"
        ]


class TestRowLocality:
    def test_rank_zero_truncation_adds_no_columns(self):
        # R[0][j] reads a single row whatever the schedule, so it has no
        # row-locality target and contributes no space columns
        doc = fixture_doc("stencil")
        doc["arrays"].append({"id": "R", "dim": 2})
        doc["accesses"].append(
            {"array": "R", "statement": "S1", "slot": 9, "kind": "read",
             "F": [[0, 0], [0, 1]], "G": [[0], [0]], "f": [0, 0]}
        )
        plan = run_procedure(load_nest(doc), r_space=1)
        labels = {label for d in plan.diagnostics for label in d.slacks}
        assert not any(label.startswith("space.R.") for label in labels)
        assert [d.objective for d in plan.diagnostics] == [74, 4]
        assert plan.statements["S1"].schedule == ((0, 1), (1, 0))


class TestWeights:
    def test_override_scales_objective(self):
        plan = run_procedure(
            fixture_nest("chain"),
            r_space=0,
            weights=WeightConfig.with_overrides({"legality": Fraction(3)}),
        )
        assert plan.diagnostics[0].objective == 6

    def test_fractional_weights(self):
        plan = run_procedure(
            fixture_nest("chain"),
            r_space=0,
            weights=WeightConfig.with_overrides({"legality": Fraction(1, 2)}),
        )
        assert plan.diagnostics[0].objective == 1

    def test_bad_override(self):
        with pytest.raises(ValueError, match="unknown weight"):
            WeightConfig.with_overrides({"bogus": Fraction(1)})
        with pytest.raises(ValueError, match="positive"):
            WeightConfig.with_overrides({"legality": Fraction(0)})

    def test_doc_round_trip(self):
        w = WeightConfig.with_overrides({"align-F": Fraction(7, 2)})
        assert WeightConfig.from_doc(w.to_doc()) == w

    @pytest.mark.parametrize("offsets,overrides", [
        ([[1, 1], [-1, 1], [-1, -1]],
         {"align-F": Fraction(2, 3), "align-G": Fraction(8), "align-f": Fraction(4),
          "space": Fraction(8, 3)}),
        ([[1, -1], [0, 1], [1, 0]],
         {"align-F": Fraction(1), "align-G": Fraction(5, 2), "legality": Fraction(6),
          "space": Fraction(4)}),
    ])
    def test_weighted_chain_reaches_zero(self, offsets, overrides):
        # an open-ended search stays on incumbents far above 0 for minutes on
        # these weightings; the first pass, under cap 0, finds the optimum
        nest = load_nest(perfbench_module("gen").chain(offsets))
        plan = run_procedure(nest, r_space=1, weights=WeightConfig.with_overrides(overrides),
                             solver_cfg=SolverConfig(coeff_bound=2, time_limit=30))
        assert [d.objective for d in plan.diagnostics] == [0, 0]
        assert validate(nest, plan, [6]).passed


class TestEvaluation:
    def test_schedule_of_matches_plan_arithmetic(self):
        plan = fixture_plan("stencil")
        nest = fixture_nest("stencil")
        st = StatementTransform(((1, 2), (0, -1)), ((3,), (0,)), (5, -2))
        plan = dataclasses.replace(plan, statements={"S1": st})
        # T (2, 3) + B (4,) + a = (2 + 6 + 12 + 5, -3 + 0 - 2)
        assert schedule_of(plan, nest, "S1", [2, 3], [4]) == (25, -5)

    def test_schedule_of_rejects_outside_points(self):
        plan = fixture_plan("stencil")
        nest = fixture_nest("stencil")
        with pytest.raises(ValueError, match="outside"):
            schedule_of(plan, nest, "S1", [0, 1], [4])
        with pytest.raises(ValueError, match="entries"):
            schedule_of(plan, nest, "S1", [1], [4])
        with pytest.raises(ValueError, match="2 parameter values"):
            schedule_of(plan, nest, "S1", [1, 1], [4, 5])

    def test_placement_of(self):
        plan = fixture_plan("matvec")
        al = ArrayAllocation(((2, -1),), ((1,),), (3,))
        plan = dataclasses.replace(plan, arrays={**plan.arrays, "A": al})
        # H (2, 3) + Z (4,) + y = (4 - 3 + 4 + 3,)
        assert placement_of(plan, "A", [2, 3], [4]) == (8,)
        with pytest.raises(ValueError, match="dimension"):
            placement_of(plan, "A", [2], [4])
        with pytest.raises(ValueError, match="0 parameter values for 1 outer variables"):
            placement_of(plan, "A", [2, 3], [])

    def test_placement_empty_without_spatial_dims(self):
        plan = fixture_plan("chain")
        assert len(placement_of(plan, "x", [3], [4])) == 0


def _every_fixture_r():
    for name in FIXTURE_NAMES + ("chain23",):
        depth = max(s["depth"] for s in fixture_doc(name)["statements"])
        yield from ((name, r) for r in range(depth))


def _reference_columns(nest, layout, xs, r_space, weights, deps, in_deps, space):
    """One recursion's columns, every family rebuilt from the column builders."""
    columns = []
    for i in deps:
        columns += build_legality_columns(nest.dependences[i], i, nest, layout, weights.legality)
    for i in in_deps:
        columns += build_legality_columns(nest.dependences[i], i, nest, layout, weights.indep)
    if len(xs) + 1 <= r_space:
        for acc in nest.accesses:
            columns += build_alignment_columns(
                acc, nest, layout, weights.align_f_mat, weights.align_g_mat, weights.align_offset
            )
    for acc in space:
        columns += build_space_locality_columns(acc, layout, weights.space)
    return columns


class TestColumnTable:
    """Each run builds its columns once; every recursion selects from them."""

    @pytest.mark.parametrize(
        "name, r",
        [*_every_fixture_r(), ("chain42", 1), ("jacobi2", 0), ("jacobi2", 1)],
        ids=str,
    )
    def test_recursions_select_the_rebuilt_columns(self, name, r, monkeypatch):
        doc = perfbench_module("gen").jacobi2() if name == "jacobi2" else fixture_doc(name)
        nest = load_nest(doc)
        build = procedure.build_recursion_system
        calls = []

        def recording(nest, layout, xs, r_space, weights, deps, in_deps, space, table):
            system = build(nest, layout, xs, r_space, weights, deps, in_deps, space, table)
            # the bookkeeping sets change after the call: keep them as they were
            args = (nest, layout, list(xs), r_space, weights,
                    list(deps), list(in_deps), list(space))
            calls.append((args, system))
            return system

        monkeypatch.setattr(procedure, "build_recursion_system", recording)
        run_procedure(nest, r_space=r)
        assert len(calls) == nest.max_depth
        for args, system in calls:
            reference = _reference_columns(*args)
            assert len(system.columns) == len(reference)
            for got, want in zip(system.columns, reference):
                assert got == want

    def test_each_dependence_built_once_per_run(self, monkeypatch):
        build = procedure.build_legality_columns
        built = []

        def counting(dep, i, *args):
            built.append(i)
            return build(dep, i, *args)

        monkeypatch.setattr(procedure, "build_legality_columns", counting)
        plan = run_procedure(fixture_nest("matmul"), r_space=1)
        # the three recursions hold 3, 2 and 1 active dependences
        active = [d.active_dependences + d.active_in_dependences for d in plan.diagnostics]
        assert active == [[0, 1, 2], [0, 1], [1]]
        assert built == [0, 1, 2]


class TestSerialization:
    @pytest.mark.parametrize("name", ["chain", "stencil", "matmul"])
    def test_plan_doc_round_trip(self, name):
        plan = fixture_plan(name)
        doc = plan_to_doc(plan)
        again = plan_from_doc(doc, fixture_nest(name))
        assert plan_to_doc(again) == doc

    @pytest.mark.parametrize("name,r", list(_every_fixture_r()))
    def test_round_trip_gives_equal_plan(self, name, r):
        # empty matrices (H and Z at r=0) keep the widths the nest gives them
        plan = fixture_plan(name, r)
        assert plan_from_doc(plan_to_doc(plan), fixture_nest(name)) == plan

    @pytest.mark.parametrize("drop", [("r_space",), ("statements", "S1", "T"),
                                      ("arrays", "u", "y"), ("diagnostics", 0, "xi")])
    def test_missing_field_rejected(self, drop):
        doc = plan_to_doc(fixture_plan("stencil"))
        *path, last = drop
        target = doc
        for key in path:
            target = target[key]
        del target[last]
        # a diagnostics entry is not read but compared with the replay's
        match = r"xi \(none\), its transforms give 1" if drop[0] == "diagnostics" else "misses field"
        with pytest.raises(ValueError, match=match):
            plan_from_doc(doc, fixture_nest("stencil"))

    def test_width_disagreeing_with_nest_rejected(self):
        doc = plan_to_doc(fixture_plan("stencil"))
        doc["arrays"]["u"]["H"] = [[1]]
        with pytest.raises(ValueError, match="array 'u', field 'H'"):
            plan_from_doc(doc, fixture_nest("stencil"))
        doc = plan_to_doc(fixture_plan("stencil"))
        doc["statements"]["S1"]["B"] = [[0, 0], [0, 0]]
        with pytest.raises(ValueError, match="statement 'S1', field 'B'"):
            plan_from_doc(doc, fixture_nest("stencil"))

    @pytest.mark.parametrize("path,value,match", [
        (("r_space",), "1", "r_space '1' is not an int"),
        (("r_space",), 2, r"r_space 2 is not an int in \[0, 2\)"),
        (("r_space",), True, "r_space True is not an int"),
        (("statements", "S1", "a"), [0], "field 'a': 1 entries, expected 2"),
        (("statements", "S1", "T"), [[1, 0]], "field 'T': 1 rows, expected 2"),
        (("statements", "S1", "B"), [[0]], "field 'B': 1 rows, expected 2"),
        (("arrays", "u", "H"), [[1, 0], [0, 1]], "field 'H': 2 rows, expected 1"),
        (("arrays", "u", "Z"), [], "field 'Z': 0 rows, expected 1"),
        (("arrays", "u", "y"), [0, 0], "field 'y': 2 entries, expected 1"),
        (("weights", "space"), [1, 0], "weight 'space' has denominator 0"),
        (("diagnostics", 0, "objective"), [1, 0],
         r"plan diagnostics #0: objective \[1, 0\], its transforms give \[68, 1\]"),
        # non-integers are rejected, not truncated into another plan
        (("statements", "S1", "a"), [1.5, 0], "field 'a': entry 1.5 is not an int"),
        (("statements", "S1", "a"), [True, 0], "field 'a': entry True is not an int"),
        (("arrays", "u", "H"), [[1, 0.0]], "field 'H': entry 0.0 is not an int"),
        (("weights", "space"), [2.5, 1], "field 'space': entry 2.5 is not an int"),
        # fields of the wrong JSON type
        (("statements", "S1", "T"), 5, "field 'T' must be a list, got int"),
        (("statements", "S1", "T"), [[1, 0], 0], "field 'T': row 1 is 0, expected 2x2"),
        (("statements", "S1", "a"), 5, "field 'a' must be a list, got int"),
        (("weights", "space"), 5, "field 'space' must be a list, got int"),
        (("weights",), [1], "field 'weights' must be an object, got list"),
        (("statements",), ["S1"], "field 'statements' must be an object, got list"),
        (("warnings",), 3, "field 'warnings' must be a list, got int"),
        (("diagnostics",), 3, "field 'diagnostics' must be a list, got int"),
        (("diagnostics", 0, "objective"), 3,
         r"plan diagnostics #0: objective 3, its transforms give \[68, 1\]"),
        (("diagnostics", 0, "witnesses"), [1],
         r'plan diagnostics #0: witnesses \[1\], its transforms give {"S1": '),
        (("diagnostics", 0, "active_space_accesses"), [1],
         r"plan diagnostics #0: active_space_accesses \[1\], its transforms give \[\]"),
        # diagnostics are compared with the replay's as JSON text, so a
        # non-integer differs from the integer it equals in Python
        (("diagnostics", 0, "slacks", "dep0.v0"), 0.5,
         "plan diagnostics #0: slacks dep0.v0 0.5, its transforms give 1"),
        (("diagnostics", 0, "slacks", "dep0.v0"), "1",
         'plan diagnostics #0: slacks dep0.v0 "1", its transforms give 1'),
        (("diagnostics", 0, "witnesses", "S1", "sign"), "x",
         'plan diagnostics #0: witnesses S1 sign "x", its transforms give 1'),
        (("diagnostics", 0, "witnesses", "S1", "sign"), 1.0,
         "plan diagnostics #0: witnesses S1 sign 1.0, its transforms give 1"),
        (("diagnostics", 0, "witnesses", "S1", "s"), [0.5, 1],
         r"plan diagnostics #0: witnesses S1 s \[0.5, 1\], its transforms give \[1, 0\]"),
        (("diagnostics", 0, "active_dependences"), [0, "1"],
         r'plan diagnostics #0: active_dependences \[0, "1"\], its transforms give \[0, 1\]'),
        (("diagnostics", 0, "active_in_dependences"), [True],
         r"plan diagnostics #0: active_in_dependences \[true\], its transforms give \[\]"),
        (("diagnostics", 0, "dropped_dependences"), [1.0],
         r"plan diagnostics #0: dropped_dependences \[1.0\], its transforms give \[\]"),
        (("diagnostics", 0, "dropped_in_dependences"), [None],
         r"plan diagnostics #0: dropped_in_dependences \[null\], its transforms give \[\]"),
        # diagnostics of the wrong JSON type
        (("diagnostics", 0, "slacks"), [1],
         r'plan diagnostics #0: slacks \[1\], its transforms give {"align-F.u.S1.q1.0": 0, '),
        (("diagnostics", 0, "witnesses", "S1", "s"), 1,
         r"plan diagnostics #0: witnesses S1 s 1, its transforms give \[1, 0\]"),
        (("diagnostics", 0, "dropped_dependences"), 0,
         r"plan diagnostics #0: dropped_dependences 0, its transforms give \[\]"),
        # diagnostics out of range
        (("diagnostics", 0, "witnesses", "S1", "sign"), 5,
         "plan diagnostics #0: witnesses S1 sign 5, its transforms give 1"),
        (("diagnostics", 0, "witnesses", "S1", "sign"), 0,
         "plan diagnostics #0: witnesses S1 sign 0, its transforms give 1"),
        (("diagnostics", 0, "witnesses", "S1", "s"), [1, 0, 7],
         r"plan diagnostics #0: witnesses S1 s \[1, 0, 7\], its transforms give \[1, 0\]"),
        (("diagnostics", 0, "witnesses", "S9"), {"s": [1, 0], "sign": 1},
         r'plan diagnostics #0: witnesses S9 {"s": \[1, 0\], "sign": 1}, its transforms give \(none\)'),
        (("diagnostics", 0, "active_dependences"), [-3, 99],
         r"plan diagnostics #0: active_dependences \[-3, 99\], its transforms give \[0, 1\]"),
        (("diagnostics", 0, "dropped_dependences"), [2],
         r"plan diagnostics #0: dropped_dependences \[2\], its transforms give \[\]"),
        (("diagnostics", 0, "active_in_dependences"), [0],
         r"plan diagnostics #0: active_in_dependences \[0\], its transforms give \[\]"),
        # entries that are not what their field names
        (("warnings",), [1, 2], "field 'warnings': 2 entries, its transforms give 0"),
        (("diagnostics", 0, "active_space_accesses"), [["Q", "S9", 7, 8]],
         r'plan diagnostics #0: active_space_accesses \[\["Q", "S9", 7, 8\]\], its transforms give \[\]'),
        (("diagnostics", 0, "active_space_accesses"), [[1]],
         r"plan diagnostics #0: active_space_accesses \[\[1\]\], its transforms give \[\]"),
        (("diagnostics", 0, "xi"), -4, "plan diagnostics #0: xi -4, its transforms give 1"),
        # the second recursion repeats the first one's xi
        (("diagnostics", 1, "xi"), 1, "plan diagnostics #1: xi 1, its transforms give 2"),
        # a family left out would read back at its default weight
        (("weights",), {"indep": [4, 1], "align-F": [64, 1], "align-G": [64, 1],
                        "align-f": [64, 1], "space": [2, 1]},
         "plan weights misses field 'legality'"),
        (("weights",), {}, "plan weights misses field 'legality'"),
        # a weight the plan itself gets wrong is named as the plan's
        (("weights", "speed"), [1, 1], "plan weights, field 'speed' names no weight family"),
        (("weights", "legality"), [-1, 1],
         "plan weights, field 'legality': -1 is not strictly positive"),
        # a slot that equals an access's int slot without being an int
        (("diagnostics", 0, "active_space_accesses"), [["u", "S1", 1.0]],
         r'plan diagnostics #0: active_space_accesses \[\["u", "S1", 1.0\]\], its transforms give \[\]'),
        (("diagnostics", 0, "active_space_accesses"), [["u", "S1", True]],
         r'plan diagnostics #0: active_space_accesses \[\["u", "S1", true\]\], its transforms give \[\]'),
        # values that equal the replay's in Python but not as JSON text
        (("diagnostics", 0, "witnesses", "S1", "sign"), True,
         "plan diagnostics #0: witnesses S1 sign true, its transforms give 1"),
        (("diagnostics", 0, "slacks", "dep0.v0"), 1.0,
         "plan diagnostics #0: slacks dep0.v0 1.0, its transforms give 1"),
        (("diagnostics", 1, "objective"), [4.0, 1],
         r"plan diagnostics #1: objective \[4.0, 1\], its transforms give \[4, 1\]"),
    ])
    def test_shape_disagreeing_with_nest_or_r_space_rejected(self, path, value, match):
        # a short vector would otherwise broadcast over the rows it lacks
        doc = plan_to_doc(fixture_plan("stencil"))
        *path, last = path
        target = doc
        for key in path:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError, match=match):
            plan_from_doc(doc, fixture_nest("stencil"))

    def test_diagnostics_one_per_recursion_or_none(self):
        # stencil has depth 2: a third entry would read back as a third
        # recursion, a lone first entry as the whole procedure, and no
        # entry as no recursion
        nest = fixture_nest("stencil")
        solved = plan_to_doc(fixture_plan("stencil"))
        doc = dict(solved)
        first, second = doc["diagnostics"]
        for diags in ([first, second, {**second, "xi": 3}], [first], []):
            doc["diagnostics"] = diags
            with pytest.raises(ValueError, match=f"field 'diagnostics': {len(diags)} entries, "
                                                 "its transforms give 2"):
                plan_from_doc(doc, nest)
        # an omitted list reads back as the one the transforms give
        del doc["diagnostics"]
        assert plan_to_doc(plan_from_doc(doc, nest)) == solved

    def test_warnings_are_the_replays(self):
        # chain23 r=1 ties its one dependence at every level
        nest = fixture_nest("chain23")
        doc = plan_to_doc(fixture_plan("chain23", 1))
        (warning,) = doc["warnings"]
        doc["warnings"] = ["anything"]
        with pytest.raises(ValueError, match=re.escape(
                f'plan warnings #0: "anything", its transforms give "{warning}"')):
            plan_from_doc(doc, nest)
        del doc["warnings"]
        assert plan_from_doc(doc, nest).warnings == [warning]

    def test_plan_of_another_nest_rejected(self):
        with pytest.raises(ValueError, match="not the nest's"):
            plan_from_doc(plan_to_doc(fixture_plan("chain23", 1)), fixture_nest("matmul"))

    def test_doc_uses_wire_field_names(self):
        doc = plan_to_doc(fixture_plan("stencil"))
        st = doc["statements"]["S1"]
        assert set(st) == {"T", "B", "a"}
        al = doc["arrays"]["u"]
        assert set(al) == {"H", "Z", "y"}
