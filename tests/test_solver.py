"""Branch-and-bound solver: optimality, determinism, verification."""

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affsched import procedure, solver
from affsched.algebra import dot
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
    Solution,
    SolverConfig,
    SolverTimeout,
    _Search,
    solve,
)
from affsched.validation import brute_force_minimum, first_recursion_system
from conftest import fixture_nest


@dataclass
class VerifyReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify(solution: Solution, system: ConstraintSystem) -> VerifyReport:
    """Re-evaluate every column exactly, independent of the search path."""
    rep = VerifyReport()
    x = solution.x
    obj = Fraction(0)
    for col in system.columns:
        v = col.value(x)
        if col.sense == GEQ0 and v < 0:
            rep.violations.append(f"column {col.label}: value {v} < 0")
        slack = abs(v) if col.sense == ABS else v
        obj += col.weight * slack
        if solution.slacks.get(col.label) != slack:
            rep.violations.append(
                f"column {col.label}: recorded slack {solution.slacks.get(col.label)} != {slack}"
            )
    for sid, (s, sign) in solution.witness_used.items():
        cands = system.witnesses.get(sid, [])
        match = next((w for w in cands if w.s == s), None)
        if match is None:
            rep.violations.append(f"statement {sid}: witness not among candidates")
            continue
        v = sum(c * xv for c, xv in zip(match.s_tilde, x))
        if sign * v < 1:
            rep.violations.append(f"statement {sid}: witness product {v} violates sign {sign}")
    for sid in system.witnesses:
        if sid not in solution.witness_used:
            rep.violations.append(f"statement {sid}: no witness recorded")
    if obj != solution.objective:
        rep.violations.append(f"objective mismatch: recorded {solution.objective}, actual {obj}")
    return rep


def first_least(system: ConstraintSystem, bound: int):
    """(objective, x) of the first vector of least objective, or None when
    no vector in the box is feasible.

    The used variables, those in some column's terms or some witness's s~,
    run in layout order through the values 0, 1, -1, ..., bound, -bound,
    the first variable slowest; every other entry is 0.  Exhaustive, in
    numpy chunks, and sharing no code with the search.
    """
    used = sorted({i for col in system.columns for i, _ in col.terms}
                  | {i for cands in system.witnesses.values() for w in cands
                     for i, c in enumerate(w.s_tilde) if c})
    values = [0] + [v for m in range(1, bound + 1) for v in (m, -m)]
    scale = lcm(*[col.weight.denominator for col in system.columns])
    coeff = np.array([[col.coeffs[i] for col in system.columns] for i in used],
                     dtype=np.int64).reshape(len(used), len(system.columns))
    weights = np.array([int(col.weight * scale) for col in system.columns], dtype=np.int64)
    is_geq = np.array([col.sense == GEQ0 for col in system.columns], dtype=bool)
    witness_mats = [np.array([[w.s_tilde[i] for w in cands] for i in used], dtype=np.int64)
                    for cands in system.witnesses.values()]
    tail = min(len(used), 10)
    x = np.array(list(itertools.product(values, repeat=tail)),
                 dtype=np.int64).reshape(len(values) ** tail, tail)
    x = np.hstack([np.zeros((len(x), len(used) - tail), dtype=np.int64), x])
    best = None
    for prefix in itertools.product(values, repeat=len(used) - tail):
        x[:, :len(prefix)] = prefix
        slack = x @ coeff
        feasible = (slack[:, is_geq] >= 0).all(axis=1)
        for smat in witness_mats:
            feasible &= (np.abs(x @ smat) >= 1).any(axis=1)
        if not feasible.any():
            continue
        objective = np.where(is_geq, slack, np.abs(slack)) @ weights
        # argmin returns the first of equal minima
        first = np.flatnonzero(feasible)[np.argmin(objective[feasible])]
        if best is None or objective[first] < best[0]:
            best = int(objective[first]), x[first].tolist()
    if best is None:
        return None
    full = [0] * system.layout.size
    for i, v in zip(used, best[1]):
        full[i] = v
    return Fraction(best[0], scale), tuple(full)


def _layout(name):
    return ExtendedLayout.for_nest(fixture_nest(name))


def _recursion_systems(monkeypatch, nest, r_space):
    """The system of every recursion of `run_procedure`, in order."""
    systems = []

    def recording_solve(system, cfg=None):
        systems.append(system)
        return solve(system, cfg)

    monkeypatch.setattr(procedure, "solve", recording_solve)
    procedure.run_procedure(nest, r_space=r_space)
    return systems


def _fresh_passes(system, bound):
    """solve's cap sequence with a fresh search per pass:
    (passes, cap of the last pass, nodes over all passes), or None when the
    box holds no feasible vector."""
    cap, passes, nodes = 0, 0, 0
    while True:
        search = _Search(system, bound, None)
        search.run(cap)
        passes += 1
        nodes += search.nodes
        if search.best_x is not None:
            return passes, Fraction(cap, search.scale), nodes
        if search.over_cap is None:
            return None
        cap = max(search.over_cap, 2 * cap)


class TestBasicSolves:
    def test_vecadd_objective_zero(self):
        system = first_recursion_system(fixture_nest("vecadd"), r_space=0)
        sol = solve(system)
        assert sol.objective == 0
        lay = system.layout
        assert tuple(lay.block(sol.x, "tau", "S1")) == (1,)

    def test_chain_objective_two(self):
        # the flow dependence needs tau = 1, and both vertex columns then
        # carry slack 1 at unit weight
        system = first_recursion_system(fixture_nest("chain"), r_space=0)
        sol = solve(system)
        assert sol.objective == 2
        lay = system.layout
        assert tuple(lay.block(sol.x, "tau", "S1")) == (1,)

    def test_witness_satisfied(self):
        system = first_recursion_system(fixture_nest("stencil"), r_space=1)
        sol = solve(system)
        assert set(sol.witness_used) == {"S1"}
        s, sign = sol.witness_used["S1"]
        tau = system.layout.block(sol.x, "tau", "S1")
        assert sign * dot(tau, s) >= 1

    def test_unused_variables_pinned_to_zero(self):
        system = first_recursion_system(fixture_nest("vecadd"), r_space=0)
        sol = solve(system)
        lay = system.layout
        # allocation coefficients never appear at recursion 1 with r = 0
        for aid in ("a", "b", "c"):
            assert not any(lay.block(sol.x, "eta", aid))
            assert not any(lay.block(sol.x, "z", aid))
            assert sol.x[lay.offset("y", aid)] == 0


class TestDeterminism:
    @pytest.mark.parametrize("name,r", [("chain", 0), ("stencil", 1), ("matvec", 1)])
    def test_repeat_solves_identical(self, name, r):
        system = first_recursion_system(fixture_nest(name), r_space=r)
        a = solve(system)
        b = solve(system)
        assert a.x == b.x
        assert a.objective == b.objective
        assert a.witness_used == b.witness_used

    def test_node_count_repeats(self):
        system = first_recursion_system(fixture_nest("chain23"), r_space=1)
        a = solve(system)
        b = solve(system)
        assert a.nodes == b.nodes > 0
        assert a.passes == b.passes >= 1


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("name,r", [("vecadd", 0), ("chain", 0), ("stencil", 1)])
    def test_same_objective(self, name, r):
        system = first_recursion_system(fixture_nest(name), r_space=r)
        sol = solve(system, SolverConfig(coeff_bound=1))
        assert sol.objective == brute_force_minimum(system, bound=1)
        assert (sol.objective, sol.x) == first_least(system, 1)
        assert verify(sol, system).ok

    def test_later_recursion(self, monkeypatch):
        # stencil r=1, recursion 2: the dependences strictly satisfied by the
        # spatial row are dropped and the witness comes from its kernel
        system = _recursion_systems(monkeypatch, fixture_nest("stencil"), 1)[1]
        sol = solve(system, SolverConfig(coeff_bound=1))
        assert sol.objective == brute_force_minimum(system, bound=1)
        assert (sol.objective, sol.x) == first_least(system, 1)
        assert verify(sol, system).ok


def _draw_layout(draw):
    """A layout of at most 14 entries, with the statement depths: at most
    one array, and a parameter only sometimes, because the oracle costs
    3**size."""
    depths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    dims = draw(st.lists(st.integers(1, 2), max_size=1))
    lay = ExtendedLayout(
        tuple(f"S{i}" for i in range(len(depths))),
        tuple(f"A{i}" for i in range(len(dims))),
        tuple(depths),
        tuple(dims),
        draw(st.sampled_from((0, 0, 1))),
    )
    if lay.size > 14:
        return draw(st.nothing())
    return lay, depths


def _draw_witnesses(draw, lay, depths):
    """1-3 witness candidates per statement, in its schedule block."""
    witnesses = {}
    for sid, depth in zip(lay.statement_ids, depths):
        vec = st.lists(st.integers(-2, 2), min_size=depth, max_size=depth).filter(any)
        start, stop = lay.spans["tau", sid]
        cands = []
        for s in draw(st.lists(vec, min_size=1, max_size=3, unique_by=tuple)):
            s_tilde = [0] * lay.size
            s_tilde[start:stop] = s
            cands.append(RankWitness(tuple(s), tuple(s_tilde)))
        witnesses[sid] = cands
    return witnesses


@st.composite
def _random_systems(draw):
    """A system on a layout of at most 14 entries: mixed GEQ0/ABS columns
    with coefficients in [-3, 3], fractional weights, and 1-3 witness
    candidates per statement.  Column entries lean towards the schedule
    blocks, where the witnesses live, so that some systems are infeasible."""
    lay, depths = _draw_layout(draw)
    index = st.one_of(st.integers(0, sum(depths) - 1), st.integers(0, lay.size - 1))
    columns = []
    for i in range(draw(st.integers(1, 10))):
        coeffs = [0] * lay.size
        for k, c in draw(st.lists(st.tuples(index, st.integers(-3, 3)), min_size=1, max_size=3)):
            coeffs[k] = c
        weight = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
        sense = draw(st.sampled_from((GEQ0, ABS)))
        columns.append(ConstraintColumn(tuple(coeffs), sense, "f", f"c{i}", weight))
    return ConstraintSystem(lay, columns, _draw_witnesses(draw, lay, depths))


@st.composite
def _paired_systems(draw):
    """Like `_random_systems`, but drawn in groups of 2-3 columns of one
    sense that end at the same entry with equal |coefficient| there and
    random signs, so that the search pairs columns of every kind: ABS,
    GEQ0 sums (opposite signs) and GEQ0 differences (equal signs)."""
    lay, depths = _draw_layout(draw)
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        last = draw(st.integers(1, lay.size - 1))
        size = draw(st.integers(1, 3))
        sense = draw(st.sampled_from((GEQ0, ABS)))
        for _ in range(draw(st.integers(2, 3))):
            coeffs = [0] * lay.size
            coeffs[last] = size * draw(st.sampled_from((1, -1)))
            for k, c in draw(st.lists(st.tuples(st.integers(0, last - 1), st.integers(-3, 3)),
                                      min_size=1, max_size=3)):
                coeffs[k] = c
            weight = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
            i = len(columns)
            columns.append(ConstraintColumn(tuple(coeffs), sense, "f", f"c{i}", weight))
    return ConstraintSystem(lay, columns, _draw_witnesses(draw, lay, depths))


@st.composite
def _opposed_systems(draw):
    """Like `_paired_systems`, but with groups of 2-3 GEQ0 columns that end
    at the same entry with |coefficient| 1-3 there and both signs present,
    so that the search adds the rows each opposite two imply, plus 0-2 ABS
    columns anywhere."""
    lay, depths = _draw_layout(draw)
    columns = []

    def add(coeffs, sense):
        weight = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
        columns.append(ConstraintColumn(tuple(coeffs), sense, "f", f"c{len(columns)}", weight))

    for _ in range(draw(st.integers(1, 3))):
        last = draw(st.integers(1, lay.size - 1))
        signs = [1, -1] + draw(st.lists(st.sampled_from((1, -1)), max_size=1))
        for sign in signs:
            coeffs = [0] * lay.size
            coeffs[last] = sign * draw(st.integers(1, 3))
            for k, c in draw(st.lists(st.tuples(st.integers(0, last - 1), st.integers(-3, 3)),
                                      min_size=1, max_size=3)):
                coeffs[k] = c
            add(coeffs, GEQ0)
    for _ in range(draw(st.integers(0, 2))):
        coeffs = [0] * lay.size
        for k, c in draw(st.lists(st.tuples(st.integers(0, lay.size - 1), st.integers(-3, 3)),
                                  min_size=1, max_size=3)):
            coeffs[k] = c
        add(coeffs, ABS)
    return ConstraintSystem(lay, columns, _draw_witnesses(draw, lay, depths))


def _pair_kinds(system):
    """The kinds of the pairs that the search bounds together."""
    search = _Search(system, 1, None)
    geq = {ri: g for cols in search.columns_at for ri, _, g, *_ in cols}
    kinds = set()
    for pairs in search.pairs_at:
        # at the variable the pair cancels, a sum's coefficients are opposite
        for a, ca, _, _, _, cb, _, _, _, cc, *_ in pairs:
            if ca and not cc:
                kinds.add("ABS" if not geq[a] else "GEQ0 sum" if ca == -cb else "GEQ0 difference")
    return kinds


# derandomized: every run checks the same 40 systems
_forty_systems = settings(max_examples=40, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


class TestRandomSystems:
    @_forty_systems
    @given(_random_systems())
    def test_solver_matches_oracle(self, system):
        try:
            expected = brute_force_minimum(system, bound=1)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve(system, SolverConfig(coeff_bound=1))
            assert first_least(system, 1) is None
            return
        sol = solve(system, SolverConfig(coeff_bound=1))
        assert sol.objective == expected
        assert (sol.objective, sol.x) == first_least(system, 1)
        assert verify(sol, system).ok

    @_forty_systems
    @given(_random_systems())
    def test_capped_passes_match_one_uncapped_pass(self, system):
        # a single pass under a cap no objective reaches is the plain
        # branch and bound; the capped passes must return its winner
        for bound in (1, 2):
            reference = _Search(system, bound, None)
            reference.run(1 << 40)
            if reference.best_x is None:
                with pytest.raises(InfeasibleError):
                    solve(system, SolverConfig(coeff_bound=bound))
                continue
            expected = reference.solution()
            sol = solve(system, SolverConfig(coeff_bound=bound))
            assert sol.x == expected.x
            assert sol.witness_used == expected.witness_used
            assert sol.objective == expected.objective


    @_forty_systems
    @given(_random_systems())
    def test_split_columns_search_alike(self, system):
        # every column split into copies weighted w/3 and 2w/3, the second
        # negated when ABS: the copies have the first one's slack at every x,
        # so the search merges them back and enters the same nodes
        split = []
        for col in system.columns:
            sign = -1 if col.sense == ABS else 1
            split.append(replace(col, weight=col.weight / 3))
            split.append(replace(col, coeffs=tuple(sign * c for c in col.coeffs),
                                 label=col.label + "'", weight=col.weight * 2 / 3))
        twin = ConstraintSystem(system.layout, split, system.witnesses)
        for bound in (1, 2):
            cfg = SolverConfig(coeff_bound=bound)
            try:
                expected = solve(system, cfg)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve(twin, cfg)
                continue
            sol = solve(twin, cfg)
            assert sol.x == expected.x
            assert sol.witness_used == expected.witness_used
            assert sol.objective == expected.objective
            assert (sol.nodes, sol.passes) == (expected.nodes, expected.passes)

    @_forty_systems
    @given(_random_systems())
    def test_reused_search_matches_fresh_passes(self, system):
        # a pass keeps nothing from the one before it but its counters, so
        # one search run pass after pass enters exactly the nodes of fresh ones
        for bound in (1, 2):
            fresh = _fresh_passes(system, bound)
            if fresh is None:
                with pytest.raises(InfeasibleError):
                    solve(system, SolverConfig(coeff_bound=bound))
                continue
            passes, cap, nodes = fresh
            sol = solve(system, SolverConfig(coeff_bound=bound))
            assert (sol.passes, sol.cap) == (passes, cap)
            assert sol.nodes == nodes


class TestPairedSystems:
    # the checks of TestRandomSystems, on 40 systems whose columns pair up

    @_forty_systems
    @given(_paired_systems())
    def test_solver_matches_oracle(self, system):
        TestRandomSystems.test_solver_matches_oracle.hypothesis.inner_test(self, system)

    @_forty_systems
    @given(_paired_systems())
    def test_capped_passes_match_one_uncapped_pass(self, system):
        TestRandomSystems.test_capped_passes_match_one_uncapped_pass.hypothesis.inner_test(
            self, system)

    def test_draws_every_kind_of_pair(self):
        kinds = set()

        @_forty_systems
        @given(_paired_systems())
        def collect(system):
            kinds.update(_pair_kinds(system))

        collect()
        assert kinds == {"ABS", "GEQ0 sum", "GEQ0 difference"}


class TestImpliedRows:
    def test_solver_matches_oracles(self):
        # the rows implied by opposite GEQ0 columns only cut vectors those
        # columns rule out: the first least vector is the exhaustive one's
        implied = []

        @_forty_systems
        @given(_opposed_systems())
        def check(system):
            implied.append(_Search(system, 1, None).implied)
            TestRandomSystems.test_solver_matches_oracle.hypothesis.inner_test(self, system)

        check()
        assert sum(n > 0 for n in implied) >= len(implied) // 2


class TestConstructedSystems:
    def _system(self, columns, witnesses=None):
        lay = _layout("vecadd")
        return ConstraintSystem(lay, columns, witnesses or {})

    def _column(self, lay, index, coeff, sense, weight=Fraction(1)):
        coeffs = [0] * lay.size
        coeffs[index] = coeff
        return ConstraintColumn(tuple(coeffs), sense, "legality-const", f"c{index}", weight)

    def test_infeasible_when_witness_conflicts(self):
        lay = _layout("vecadd")
        t = lay.offset("tau", "S1")
        cols = [
            self._column(lay, t, 1, GEQ0),
            self._column(lay, t, -1, GEQ0),
        ]
        s_tilde = [0] * lay.size
        s_tilde[t] = 1
        wit = {"S1": [RankWitness((1,), tuple(s_tilde))]}
        with pytest.raises(InfeasibleError):
            solve(self._system(cols, wit))

    def test_abs_slack_minimized(self):
        lay = _layout("vecadd")
        t = lay.offset("tau", "S1")
        a = lay.offset("a", "S1")
        # forcing tau = 1 via a witness, with an abs column tying a to -tau
        coeffs = [0] * lay.size
        coeffs[t] = 1
        coeffs[a] = 1
        cols = [ConstraintColumn(tuple(coeffs), ABS, "align-f", "tie", Fraction(5))]
        s_tilde = [0] * lay.size
        s_tilde[t] = 1

        wit = {"S1": [RankWitness((1,), tuple(s_tilde))]}
        sol = solve(self._system(cols, wit))
        assert sol.objective == 0
        assert sol.x[a] == -sol.x[t]

    def _pair_system(self, sense, a, b, weights):
        """Columns a and b over x0 (tau, with a witness x0 >= 1 first) and x1
        (the constant a of S1), given as their (x0, x1) coefficients."""
        lay = _layout("vecadd")
        x0, x1 = lay.offset("tau", "S1"), lay.offset("a", "S1")
        cols = []
        for name, (c0, c1), w in zip("ab", (a, b), weights):
            coeffs = [0] * lay.size
            coeffs[x0], coeffs[x1] = c0, c1
            cols.append(ConstraintColumn(tuple(coeffs), sense, "align-f", name, Fraction(w)))
        s_tilde = [0] * lay.size
        s_tilde[x0] = 1
        wit = {"S1": [RankWitness((1,), tuple(s_tilde))]}
        return self._system(cols, wit), x0, x1

    def test_pair_bound_before_its_last_variable(self):
        # |x0 + x1| + |-x0 + x1| >= |2 x0|: once x0 = 1 is fixed, the bound is
        # at least 2m with m = min(3, 5), although x1 is still free and each
        # column's interval alone contains 0
        system, x0, x1 = self._pair_system(ABS, (1, 1), (-1, 1), (3, 5))
        assert _pair_kinds(system) == {"ABS"}
        search = _Search(system, 2, None)
        bounds = {}
        dfs = search.dfs

        def recording_dfs(k=0, lb=0):
            bounds[tuple(search.assign[:k])] = lb
            return dfs(k, lb)

        search.dfs = recording_dfs
        search.run(1 << 40)
        assert bounds[(1,)] >= 2 * 3
        sol = search.solution()
        assert sol.objective == 6
        assert (sol.x[x0], sol.x[x1]) == (1, 1)

    def test_implied_row_cuts_before_its_parents_last_variable(self):
        # x1 - x0 >= 0 and -2 x1 - x0 >= 0 do not pair (|1| != |-2| at x1)
        # but imply 2 (x1 - x0) + (-2 x1 - x0) = -3 x0 >= 0.  Under x0 = 1
        # each column alone still has room (x1 = 1, x1 = -1), only the implied
        # row is below zero, so the prefix (1,) is never entered
        system, x0, x1 = self._pair_system(GEQ0, (-1, 1), (-1, -2), (1, 1))
        assert _pair_kinds(system) == set()
        search = _Search(system, 2, None)
        assert search.implied == 1
        entered = set()
        dfs = search.dfs

        def recording_dfs(k=0, lb=0):
            entered.add(tuple(search.assign[:k]))
            return dfs(k, lb)

        search.dfs = recording_dfs
        search.run(1 << 40)
        assert (1,) not in entered and (-1,) in entered
        sol = search.solution()
        assert sol.objective == 2
        assert (sol.x[x0], sol.x[x1]) == (-1, 0)

    def test_negative_difference_of_paired_geq0_columns(self):
        # x0 + x1 >= 0 and 2 x0 + x1 >= 0 pair through their difference -x0,
        # which is negative at the optimum x0 = 1, x1 = -1 (objective 5*0 +
        # 1*1); a dead check on the difference would leave only x0 = -1,
        # x1 = 2 (objective 5)
        system, x0, x1 = self._pair_system(GEQ0, (1, 1), (2, 1), (5, 1))
        assert _pair_kinds(system) == {"GEQ0 difference"}
        for bound in (1, 2):
            sol = solve(system, SolverConfig(coeff_bound=bound))
            assert sol.objective == 1
            assert (sol.x[x0], sol.x[x1]) == (1, -1)

    def test_fractional_weights_exact(self):
        lay = _layout("vecadd")
        t = lay.offset("tau", "S1")
        cols = [self._column(lay, t, 1, GEQ0, Fraction(1, 3))]
        s_tilde = [0] * lay.size
        s_tilde[t] = 1

        wit = {"S1": [RankWitness((1,), tuple(s_tilde))]}
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
        bad[lay.offset("tau", "S1")] = -1
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

    @pytest.mark.parametrize("bound", [2.0, 1.5, True, Fraction(2)], ids=repr)
    def test_non_int_bound(self, bound):
        # a float bound would fail deep in the value order, and True would run
        # as bound 1
        with pytest.raises(TypeError, match=r"^coeff_bound .* is not an int$"):
            SolverConfig(coeff_bound=bound)

    @pytest.mark.parametrize("limit", [True, False], ids=repr)
    def test_bool_time_limit(self, limit):
        # bool is an int subclass: True would run as a 1-second budget
        with pytest.raises(TypeError, match=r"^time_limit .* is not a number of seconds$"):
            SolverConfig(time_limit=limit)

    @pytest.mark.parametrize("limit", [float("nan"), 0, -1])
    def test_bad_time_limit(self, limit):
        with pytest.raises(ValueError, match="time_limit must be > 0"):
            SolverConfig(time_limit=limit)

    def test_time_limit(self):
        system = first_recursion_system(fixture_nest("matmul"), r_space=1)
        with pytest.raises(SolverTimeout) as exc:
            solve(system, SolverConfig(coeff_bound=2, time_limit=1e-9))
        assert str(exc.value).endswith("nodes in pass 1 under objective cap 0")

    def test_time_limit_reports_proven_bound(self, monkeypatch):
        # stencil r=1 at bound 6 fails under caps 0, 4, 8, 16 and 32 within
        # 751 nodes; a clock that ticks once per reading runs out at the
        # second deadline check, node 1025, in the pass under cap 64
        ticks = iter(range(100))
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        system = first_recursion_system(fixture_nest("stencil"), r_space=1)
        with pytest.raises(SolverTimeout) as exc:
            solve(system, SolverConfig(coeff_bound=6, time_limit=1.5))
        assert str(exc.value) == (
            "solver time limit exceeded after 1025 nodes in pass 6 under objective cap 64; "
            "no solution with objective <= 32"
        )
