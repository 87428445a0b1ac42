"""Branch-and-bound solver: optimality, determinism, verification."""

from fractions import Fraction

import pytest

from affsched import procedure
from affsched.algebra import IntVector
from affsched.constraints import (
    ABS,
    GEQ0,
    ConstraintColumn,
    ConstraintSystem,
    ExtendedLayout,
    RankWitness,
)
from affsched.solver import (
    InfeasibleError,
    SolverConfig,
    SolverTimeout,
    solve,
    verify,
)
from affsched.validation import brute_force_minimum, first_recursion_system
from conftest import fixture_nest


def _layout(name):
    return ExtendedLayout.for_nest(fixture_nest(name))


class TestBasicSolves:
    def test_vecadd_objective_zero(self):
        system = first_recursion_system(fixture_nest("vecadd"), r_space=0)
        sol = solve(system)
        assert sol.objective == 0
        lay = system.layout
        assert tuple(lay.tau_block(sol.x, "S1")) == (1,)

    def test_chain_objective_two(self):
        # the flow dependence needs tau = 1, and both vertex columns then
        # carry slack 1 at unit weight
        system = first_recursion_system(fixture_nest("chain"), r_space=0)
        sol = solve(system)
        assert sol.objective == 2
        lay = system.layout
        assert tuple(lay.tau_block(sol.x, "S1")) == (1,)

    def test_witness_satisfied(self):
        system = first_recursion_system(fixture_nest("stencil"), r_space=1)
        sol = solve(system)
        assert set(sol.witness_used) == {"S1"}
        s, sign = sol.witness_used["S1"]
        tau = system.layout.tau_block(sol.x, "S1")
        assert sign * tau.dot(s) >= 1

    def test_unused_variables_pinned_to_zero(self):
        system = first_recursion_system(fixture_nest("vecadd"), r_space=0)
        sol = solve(system)
        lay = system.layout
        # allocation coefficients never appear at recursion 1 with r = 0
        for aid in ("a", "b", "c"):
            assert lay.eta_block(sol.x, aid).is_zero()
            assert lay.z_block(sol.x, aid).is_zero()
            assert lay.y_value(sol.x, aid) == 0


class TestDeterminism:
    @pytest.mark.parametrize("name,r", [("chain", 0), ("stencil", 1), ("matvec", 1)])
    def test_repeat_solves_identical(self, name, r):
        system = first_recursion_system(fixture_nest(name), r_space=r)
        a = solve(system)
        b = solve(system)
        assert a.x == b.x
        assert a.objective == b.objective
        assert a.witness_used == b.witness_used


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("name,r", [("vecadd", 0), ("chain", 0), ("stencil", 1)])
    def test_same_objective(self, name, r):
        system = first_recursion_system(fixture_nest(name), r_space=r)
        sol = solve(system, SolverConfig(coeff_bound=1))
        assert sol.objective == brute_force_minimum(system, bound=1)
        assert verify(sol, system).ok

    def test_later_recursion(self, monkeypatch):
        # stencil r=1, recursion 2: the dependences strictly satisfied by the
        # spatial row are dropped and the witness comes from its kernel
        systems = []

        def recording_solve(system, cfg=None):
            systems.append(system)
            return solve(system, cfg)

        monkeypatch.setattr(procedure, "solve", recording_solve)
        procedure.run_procedure(fixture_nest("stencil"), r_space=1)
        system = systems[1]
        sol = solve(system, SolverConfig(coeff_bound=1))
        assert sol.objective == brute_force_minimum(system, bound=1)
        assert verify(sol, system).ok


class TestConstructedSystems:
    def _system(self, columns, witnesses=None):
        lay = _layout("vecadd")
        return ConstraintSystem(lay, columns, witnesses or {})

    def _column(self, lay, index, coeff, sense, weight=Fraction(1)):
        coeffs = [0] * lay.size
        coeffs[index] = coeff
        return ConstraintColumn(tuple(coeffs), sense, "legality-const", ("dep", 0),
                                f"c{index}", weight)

    def test_infeasible_when_witness_conflicts(self):
        lay = _layout("vecadd")
        t = lay.tau_offset("S1")
        cols = [
            self._column(lay, t, 1, GEQ0),
            self._column(lay, t, -1, GEQ0),
        ]
        s_tilde = [0] * lay.size
        s_tilde[t] = 1
        wit = {"S1": [RankWitness("S1", IntVector((1,)), tuple(s_tilde))]}
        with pytest.raises(InfeasibleError):
            solve(self._system(cols, wit))

    def test_abs_slack_minimized(self):
        lay = _layout("vecadd")
        t = lay.tau_offset("S1")
        a = lay.a_offset("S1")
        # forcing tau = 1 via a witness, with an abs column tying a to -tau
        coeffs = [0] * lay.size
        coeffs[t] = 1
        coeffs[a] = 1
        cols = [ConstraintColumn(tuple(coeffs), ABS, "align-f", ("acc", ("c", "S1", 1)),
                                 "tie", Fraction(5))]
        s_tilde = [0] * lay.size
        s_tilde[t] = 1
        from affsched.algebra import IntVector

        wit = {"S1": [RankWitness("S1", IntVector((1,)), tuple(s_tilde))]}
        sol = solve(self._system(cols, wit))
        assert sol.objective == 0
        assert sol.x[a] == -sol.x[t]

    def test_fractional_weights_exact(self):
        lay = _layout("vecadd")
        t = lay.tau_offset("S1")
        cols = [self._column(lay, t, 1, GEQ0, Fraction(1, 3))]
        s_tilde = [0] * lay.size
        s_tilde[t] = 1
        from affsched.algebra import IntVector

        wit = {"S1": [RankWitness("S1", IntVector((1,)), tuple(s_tilde))]}
        sol = solve(self._system(cols, wit))
        assert sol.objective == Fraction(1, 3)


class TestVerify:
    def test_clean_solution_verifies(self):
        system = first_recursion_system(fixture_nest("chain"), r_space=0)
        sol = solve(system)
        assert verify(sol, system).ok

    def test_corrupted_vector_detected(self):
        system = first_recursion_system(fixture_nest("chain"), r_space=0)
        sol = solve(system)
        lay = system.layout
        bad = list(sol.x)
        bad[lay.tau_offset("S1")] = -1
        sol.x = tuple(bad)
        rep = verify(sol, system)
        assert not rep.ok
        assert any("< 0" in v or "slack" in v for v in rep.violations)

    def test_corrupted_objective_detected(self):
        system = first_recursion_system(fixture_nest("chain"), r_space=0)
        sol = solve(system)
        sol.objective += 1
        rep = verify(sol, system)
        assert any("objective" in v for v in rep.violations)

    def test_missing_witness_detected(self):
        system = first_recursion_system(fixture_nest("chain"), r_space=0)
        sol = solve(system)
        sol.witness_used = {}
        rep = verify(sol, system)
        assert any("no witness" in v for v in rep.violations)


class TestConfig:
    def test_bad_bound(self):
        with pytest.raises(ValueError):
            SolverConfig(coeff_bound=0)

    def test_time_limit(self):
        system = first_recursion_system(fixture_nest("matmul"), r_space=1)
        with pytest.raises(SolverTimeout):
            solve(system, SolverConfig(coeff_bound=2, time_limit=1e-9))
