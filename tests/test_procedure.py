"""Recursive procedure: frozen fixture plans, drop rules, serialization."""

from fractions import Fraction

import pytest

from affsched.nest import load_nest
from affsched.procedure import (
    ProcedureError,
    WeightConfig,
    placement_of,
    plan_from_doc,
    plan_to_doc,
    run_procedure,
    schedule_of,
)
from conftest import fixture_doc, fixture_nest, fixture_plan


class TestFrozenPlans:
    """Expected transforms, computed once by hand and pinned."""

    def test_vecadd(self):
        plan = fixture_plan("vecadd")
        assert plan.statements["S1"].schedule.rows == ((1,),)
        assert [d.objective for d in plan.diagnostics] == [0]

    def test_chain(self):
        plan = fixture_plan("chain")
        assert plan.statements["S1"].schedule.rows == ((1,),)
        assert [d.objective for d in plan.diagnostics] == [2]

    def test_stencil(self):
        plan = fixture_plan("stencil")
        assert plan.statements["S1"].schedule.rows == ((1, 0), (0, 1))
        assert plan.arrays["u"].placement.rows == ((1, 0),)
        assert [d.objective for d in plan.diagnostics] == [68, 4]

    def test_addmat(self):
        plan = fixture_plan("addmat")
        assert [d.objective for d in plan.diagnostics] == [0, 0]
        for aid in ("a", "b", "c"):
            assert plan.arrays[aid].placement.rows == ((1, 0),)

    def test_matvec(self):
        plan = fixture_plan("matvec")
        assert plan.statements["S1"].schedule.rows == ((1, 0), (0, 1))
        assert plan.arrays["y"].placement.rows == ((1,),)
        assert plan.arrays["A"].placement.rows == ((1, 0),)
        assert plan.arrays["x"].placement.rows == ((0,),)
        assert [d.objective for d in plan.diagnostics] == [80, 8]

    def test_matmul(self):
        plan = fixture_plan("matmul")
        assert plan.statements["S1"].schedule.rows == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
        assert plan.arrays["C"].placement.rows == ((1, 0),)
        assert plan.arrays["A"].placement.rows == ((1, 0),)
        assert plan.arrays["B"].placement.rows == ((0, 0),)
        assert [d.objective for d in plan.diagnostics] == [98, 8, 32]

    def test_chain23(self):
        # two depth-3 statements: pins which witness/sign choice wins a tie
        # across statements
        plan = fixture_plan("chain23", 1)
        for sid in ("S1", "S2"):
            assert plan.statements[sid].schedule.rows == (
                (-2, 1, 0), (-2, 2, 0), (-2, -2, 1)
            )
        for aid in ("A0", "A1", "A2"):
            assert plan.arrays[aid].placement.rows == ((-2, 1, 0),)
        assert [d.objective for d in plan.diagnostics] == [0, 0, 0]
        assert [d.witnesses for d in plan.diagnostics] == [
            {sid: (s, 1) for sid in ("S1", "S2")}
            for s in ((0, 1, 0), (1, 2, 0), (0, 0, 1))
        ]

    def test_determinism(self):
        a = plan_to_doc(run_procedure(fixture_nest("matmul"), r_space=1))
        b = plan_to_doc(run_procedure(fixture_nest("matmul"), r_space=1))
        assert a == b


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

    def test_guard_keeps_indep_during_spatial_recursions(self):
        guarded = run_procedure(fixture_nest("matvec"), r_space=1, guard_indep_drop=True)
        assert guarded.diagnostics[0].dropped_in_dependences == []
        # the unguarded run separates the operand on the spatial level
        assert fixture_plan("matvec").diagnostics[0].dropped_in_dependences == [2]
        # schedules agree either way
        assert guarded.statements["S1"].schedule.rows == (
            fixture_plan("matvec").statements["S1"].schedule.rows
        )


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
        with pytest.raises(ProcedureError, match="spatial dimension"):
            run_procedure(fixture_nest("vecadd"), r_space=1)
        with pytest.raises(ProcedureError, match="spatial dimension"):
            run_procedure(fixture_nest("matmul"), r_space=-1)

    def test_matmul_two_spatial_dims(self):
        plan = fixture_plan("matmul", 2)
        assert plan.r_space == 2
        for al in plan.arrays.values():
            assert al.placement.nrows == 2

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
        assert plan.statements["S1"].schedule.rows == ((0, 1), (1, 0))


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


class TestEvaluation:
    def test_schedule_of_matches_plan_arithmetic(self):
        plan = fixture_plan("stencil")
        nest = fixture_nest("stencil")
        st = plan.statements["S1"]
        point, n = [2, 3], [4]
        expect = st.schedule.matvec(point) + st.param.matvec(n) + st.const
        assert schedule_of(plan, nest, "S1", point, n) == expect

    def test_schedule_of_rejects_outside_points(self):
        plan = fixture_plan("stencil")
        nest = fixture_nest("stencil")
        with pytest.raises(ValueError, match="outside"):
            schedule_of(plan, nest, "S1", [0, 1], [4])
        with pytest.raises(ValueError, match="entries"):
            schedule_of(plan, nest, "S1", [1], [4])

    def test_placement_of(self):
        plan = fixture_plan("matvec")
        al = plan.arrays["A"]
        expect = al.placement.matvec([2, 3]) + al.param.matvec([4]) + al.const
        assert placement_of(plan, "A", [2, 3], [4]) == expect
        with pytest.raises(ValueError, match="dimension"):
            placement_of(plan, "A", [2], [4])

    def test_placement_empty_without_spatial_dims(self):
        plan = fixture_plan("chain")
        assert len(placement_of(plan, "x", [3], [4])) == 0


class TestSerialization:
    @pytest.mark.parametrize("name", ["chain", "stencil", "matmul"])
    def test_plan_doc_round_trip(self, name):
        plan = fixture_plan(name)
        doc = plan_to_doc(plan)
        again = plan_from_doc(doc)
        assert plan_to_doc(again) == doc

    def test_doc_uses_wire_field_names(self):
        doc = plan_to_doc(fixture_plan("stencil"))
        st = doc["statements"]["S1"]
        assert set(st) == {"T", "B", "a"}
        al = doc["arrays"]["u"]
        assert set(al) == {"H", "Z", "y"}
