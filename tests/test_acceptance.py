"""Acceptance suite: one test per acceptance criterion.

Each test prints a single `criterion N ...: PASS` or `... FAIL` line (visible
with `pytest -s`, or on failure) in addition to the normal pytest outcome.
"""

import contextlib
import itertools
import random
import time

from affsched.algebra import dot, integer_kernel_basis, rank
from affsched.constraints import ExtendedLayout, build_legality_columns
from affsched.solver import SolverConfig, solve
from affsched.validation import (
    brute_force_best_alignment,
    enumerate_domain,
    first_recursion_system,
    validate,
)
from conftest import (
    DEFAULT_R, access_of, broadcast_finding, fixture_nest, fixture_plan, index_at, source_point,
)
from test_algebra import rank_oracle


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS")


LEGALITY_FIXTURES = ("vecadd", "chain", "stencil", "matvec", "matmul")


def test_criterion_1_legality_suite():
    with criterion(1, "legality at two parameter settings, under 10 s"):
        start = time.monotonic()
        for name in LEGALITY_FIXTURES:
            nest = fixture_nest(name)
            plan = fixture_plan(name)
            minima = tuple(nest.outer_vars.minima)
            for delta in (2, 4):
                report = validate(nest, plan, [m + delta for m in minima])
                assert report.legality_violations == [], (name, delta)
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"legality suite took {elapsed:.1f} s"


def test_criterion_2_rank_suite():
    with criterion(2, "full schedule rank for every statement, exact"):
        cases = [(name, DEFAULT_R[name]) for name in LEGALITY_FIXTURES]
        cases += [("addmat", 1), ("matmul", 2)]
        for name, r in cases:
            nest = fixture_nest(name)
            plan = fixture_plan(name, r)
            for s in nest.statements:
                t_mat = plan.statements[s.id].schedule
                assert rank(t_mat) == s.depth
                # independent fraction-elimination oracle agrees
                assert rank_oracle(t_mat) == s.depth


def test_criterion_3_communication_free_reproduction():
    with criterion(3, "elementwise add is communication-free, exact"):
        plan = fixture_plan("addmat", 1)
        for diag in plan.diagnostics:
            align = {
                lab: v
                for lab, v in diag.slacks.items()
                if lab.startswith("align-")
            }
            assert all(v == 0 for v in align.values())
        report = validate(fixture_nest("addmat"), plan, [5])
        assert report.comm_count == 0


def test_criterion_4_solver_optimality_vs_oracle():
    with criterion(4, "solver equals exhaustive oracle, under 60 s"):
        start = time.monotonic()
        for name, r in (("vecadd", 0), ("chain", 0), ("stencil", 1)):
            nest = fixture_nest(name)
            system = first_recursion_system(nest, r)
            assert system.layout.size <= 14
            sol = solve(system, SolverConfig(coeff_bound=1))
            oracle = brute_force_best_alignment(nest, r, bound=1)
            assert sol.objective == oracle, name
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"oracle comparison took {elapsed:.1f} s"


def test_criterion_5_strict_satisfaction_drop_rule():
    with criterion(5, "flow dependence dropped exactly when strictly satisfied"):
        nest = fixture_nest("matmul")
        plan = fixture_plan("matmul", 1)
        layout = ExtendedLayout.for_nest(nest)
        dep = nest.dependences[0]
        assert dep.kind == "flow"
        cols = [
            c
            for c in build_legality_columns(dep, 0, nest, layout)
            if c.family == "legality-const"
        ]
        st = plan.statements["S1"]
        first_strict = None
        for xi in range(plan.r_space + 1, len(st.schedule) + 1):
            x = [0] * layout.size
            tau = st.schedule[xi - 1]
            off = layout.offset("tau", "S1")
            for i, v in enumerate(tau):
                x[off + i] = v
            for i, v in enumerate(st.param[xi - 1]):
                x[layout.offset("b", "S1") + i] = v
            x[layout.offset("a", "S1")] = st.const[xi - 1]
            if all(c.value(x) >= 1 for c in cols):
                first_strict = xi
                break
        assert first_strict == 2
        diags = plan.diagnostics
        assert diags[first_strict - 1].dropped_dependences == [0]
        for d in diags[first_strict:]:
            assert 0 not in d.active_dependences


def test_criterion_6_row_locality():
    with criterion(6, "row locality metric 1 for zeroed locality columns"):
        nest = fixture_nest("matmul")
        plan = fixture_plan("matmul", 1)
        report = validate(nest, plan, [4])
        assert set(report.row_locality) == {
            ("C", "S1", 1),
            ("C", "S1", 2),
            ("A", "S1", 1),
            ("B", "S1", 1),
        }
        for key, info in report.row_locality.items():
            assert info["metric"] == 1, key


def test_criterion_7_broadcast():
    with criterion(7, "broadcast detection with negative variants"):
        import dataclasses

        nest = fixture_nest("matmul")
        plan = fixture_plan("matmul", 1)
        finding = broadcast_finding(plan, nest, ("B", "S1", 1))
        assert finding["eligible"]
        kernel = finding["kernel_basis"]

        # kernel conditions on the time rows hold exactly
        st = plan.statements["S1"]
        for tau in st.schedule[plan.r_space:]:
            for u in kernel:
                assert dot(tau, u) == 0

        # enumeration at N=3: every consumer of an element reads it at one
        # identical time vector
        from affsched.procedure import schedule_of

        acc = access_of(nest, ("B", "S1", 1))
        by_elem = {}
        for point in enumerate_domain(nest.statements[0].domain, [3]):
            elem = tuple(index_at(acc, point, [3]))
            t = tuple(schedule_of(plan, nest, "S1", point, [3]))[plan.r_space:]
            by_elem.setdefault(elem, set()).add(t)
        assert all(len(times) == 1 for times in by_elem.values())
        report = validate(nest, plan, [3])
        assert report.broadcast_checks[("B", "S1", 1)]["passed"]

        # negative variants flip to ineligible with the right labels
        def with_schedule(p, rows):
            sts = dict(p.statements)
            sts["S1"] = dataclasses.replace(sts["S1"], schedule=rows)
            return dataclasses.replace(p, statements=sts)

        f = broadcast_finding(fixture_plan("stencil", 1), fixture_nest("stencil"), ("u", "S1", 2))
        assert (f["eligible"], f["failed_condition"]) == (False, "degenerate")

        f = broadcast_finding(
            with_schedule(plan, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
            nest,
            ("B", "S1", 1),
        )
        assert (f["eligible"], f["failed_condition"]) == (False, "time-variance")

        mv_nest = fixture_nest("matvec")
        f = broadcast_finding(
            with_schedule(fixture_plan("matvec", 1), [[0, 1], [1, 0]]),
            mv_nest,
            ("y", "S1", 2),
        )
        assert (f["eligible"], f["failed_condition"]) == (False, "flow-kernel")


def test_criterion_8_constraint_soundness():
    with criterion(8, "vertex feasibility implies pointwise legality"):
        rng = random.Random(481516)
        nest = fixture_nest("stencil")
        layout = ExtendedLayout.for_nest(nest)
        cols = []
        for i, dep in enumerate(nest.dependences):
            cols.extend(build_legality_columns(dep, i, nest, layout))
        feasible = 0
        trials = 0
        while feasible < 100 and trials < 10**6:
            trials += 1
            x = [rng.randint(-2, 2) for _ in range(layout.size)]
            if any(c.value(x) < 0 for c in cols):
                continue
            feasible += 1
            tau = layout.block(x, "tau", "S1")
            b = layout.block(x, "b", "S1")
            a = x[layout.offset("a", "S1")]
            for n in (3, 5):
                for dep in nest.dependences:
                    for pt in enumerate_domain(dep.domain, [n]):
                        src = source_point(dep, pt, [n])
                        diff = (dot(tau, pt) + dot(b, [n]) + a) - (
                            dot(tau, src) + dot(b, [n]) + a
                        )
                        assert diff >= 0, (tuple(x), n, tuple(pt))
        assert feasible == 100


def test_criterion_9_kernel_rank_algebra():
    with criterion(9, "kernel and rank agree with brute-force oracles"):
        rng = random.Random(20260824)
        pool = list(itertools.product((-1, 0, 1), repeat=9))
        for flat in rng.sample(pool, min(10**4, len(pool))):
            rows = [flat[0:3], flat[3:6], flat[6:9]]
            r = rank(rows)
            assert r == rank_oracle(rows)
            basis = integer_kernel_basis(rows, 3)
            assert len(basis) == 3 - r
            for v in basis:
                assert not any(dot(row, v) for row in rows)
