"""Brute-force validation and the exhaustive solver oracle."""

import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsched.algebra import rank
from affsched.cli import EXIT_INPUT, main
from affsched.comm import comm_report
from affsched.nest import EnumerationError, load_nest
from affsched.procedure import (
    WeightConfig,
    initial_sets,
    placement_of,
    plan_from_doc,
    run_procedure,
    schedule_of,
)
from affsched import validation
from affsched.validation import (
    ValidationReport,
    brute_force_best_alignment,
    claimed_locality_depth,
    validate,
)
from conftest import (
    FIXTURE_NAMES,
    fixture_doc,
    fixture_nest,
    fixture_plan,
    index_at,
    source_point,
)


def _with_schedule(plan, sid, rows):
    st = plan.statements[sid]
    statements = dict(plan.statements)
    statements[sid] = dataclasses.replace(st, schedule=tuple(map(tuple, rows)))
    return dataclasses.replace(plan, statements=statements)


class TestLegality:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_plans_pass(self, name):
        nest = fixture_nest(name)
        report = validate(nest, fixture_plan(name), [4])
        assert report.passed
        assert report.legality_violations == []
        assert report.rank_failures == []

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("n", [4, 6])
    def test_multi_statement_plans_pass(self, r, n):
        nest = fixture_nest("chain23")
        report = validate(nest, fixture_plan("chain23", r), [n])
        assert report.passed
        assert report.legality_violations == []
        # every S1 -> S2 flow pair (the (N-1) x N x (N-1) dependence box)
        # ties at every level and falls back on textual order
        assert len(report.lex_equal_warnings) == (n - 1) * n * (n - 1)
        assert {w[0] for w in report.lex_equal_warnings} == {(0,)}

    def test_reversed_schedule_caught(self):
        nest = fixture_nest("chain")
        bad = _with_schedule(fixture_plan("chain"), "S1", [[-1]])
        report = validate(nest, bad, [4])
        assert not report.passed
        assert report.legality_violations

    def test_rank_failure_caught(self):
        nest = fixture_nest("stencil")
        bad = _with_schedule(fixture_plan("stencil"), "S1", [[1, 0], [2, 0]])
        report = validate(nest, bad, [3])
        assert report.rank_failures
        assert not report.passed

    def test_lex_equal_flagged(self):
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
        nest = load_nest(doc)
        report = validate(nest, run_procedure(nest, r_space=0), [4])
        assert report.lex_equal_warnings
        # equality is a warning, not a violation
        assert report.legality_violations == []

    @staticmethod
    def _producer_consumer(first):
        """S1 writes x[i], S2 reads it; `first` is the textually first one."""
        box = fixture_doc("chain")["statements"][0]["domain"]
        doc = {
            "params": [{"name": "N", "min": 2}],
            "statements": [
                {"id": sid, "depth": 1, "domain": box, "order": 1 if sid == first else 2}
                for sid in ("S1", "S2")
            ],
            "arrays": [{"id": "x", "dim": 1}, {"id": "y", "dim": 1}],
            "accesses": [
                {"array": "x", "statement": "S1", "slot": 1, "kind": "write",
                 "F": [[1]], "G": [[0]], "f": [0]},
                {"array": "y", "statement": "S2", "slot": 1, "kind": "write",
                 "F": [[1]], "G": [[0]], "f": [0]},
                {"array": "x", "statement": "S2", "slot": 2, "kind": "read",
                 "F": [[1]], "G": [[0]], "f": [0]},
            ],
            "dependences": [
                {"source": "S1", "target": "S2", "kind": "flow", "Phi": [[1]],
                 "Psi": [[0]], "phi": [0], "domain": box,
                 "produced_by": {"array": "x", "slot": 2}},
            ],
        }
        nest = load_nest(doc)
        # both statements at time i: every flow pair has equal vectors
        plan = plan_from_doc(
            {
                "r_space": 0,
                "statements": {
                    sid: {"T": [[1]], "B": [[0]], "a": [0]} for sid in ("S1", "S2")
                },
                "arrays": {aid: {"H": [], "Z": [], "y": []} for aid in ("x", "y")},
                "weights": WeightConfig().to_doc(),
            },
            nest,
        )
        return nest, plan

    def test_equal_vectors_follow_textual_order(self):
        nest, plan = self._producer_consumer(first="S1")
        report = validate(nest, plan, [4])
        assert report.passed
        assert report.legality_violations == []
        assert len(report.lex_equal_warnings) == 4

    def test_equal_vectors_against_textual_order_fail(self):
        nest, plan = self._producer_consumer(first="S2")
        report = validate(nest, plan, [4])
        assert not report.passed
        assert len(report.legality_violations) == 4
        assert report.lex_equal_warnings == []

    def test_dependence_leaving_the_domain_raises(self):
        # the dependence box 2..2N-2 fits the statement's 1..N only at N = 2
        doc = fixture_doc("chain")
        doc["dependences"][0]["domain"]["box"][0]["upper"] = {"coeffs": [2], "const": -2}
        nest = load_nest(doc)
        with pytest.raises(ValueError, match=r"point \(5,\) outside domain of 'S1'"):
            validate(nest, fixture_plan("chain"), [4])

    def test_params_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="minima"):
            validate(fixture_nest("chain"), fixture_plan("chain"), [1])

    @pytest.mark.parametrize("n_vals", [[6.7], ["7"], [6.0]], ids=repr)
    def test_non_integer_params_rejected(self, n_vals):
        # a size that is not an integer is not truncated to one
        with pytest.raises(TypeError):
            validate(fixture_nest("stencil"), fixture_plan("stencil", 1), n_vals)

    def test_numpy_int_params_accepted(self):
        # numpy ints are ints: validated as the Python ints they stand for
        nest, plan = fixture_nest("stencil"), fixture_plan("stencil", 1)
        report = validate(nest, plan, [np.int64(6)])
        assert report.n_vals == (6,) and type(report.n_vals[0]) is int
        assert report.to_doc() == validate(nest, plan, [6]).to_doc()

    @pytest.mark.parametrize("n_vals, match", [
        ([6, 7], r"2 parameter values \(6, 7\) for the 1 parameters \('N',\)"),
        ([], r"0 parameter values \(\) for the 1 parameters \('N',\)"),
        ([True], r"value True of parameter 'N' is not an int"),
    ], ids=repr)
    def test_wrong_params_rejected(self, n_vals, match):
        # checked before any product: a bool is not read as N = 1, and a
        # count that differs from the nest's does not fail deep in a matvec
        with pytest.raises(ValueError, match=match):
            validate(fixture_nest("stencil"), fixture_plan("stencil", 1), n_vals)


class TestCommunicationCounts:
    def test_communication_free(self):
        assert validate(fixture_nest("addmat"), fixture_plan("addmat"), [5]).comm_count == 0
        assert validate(fixture_nest("vecadd"), fixture_plan("vecadd"), [5]).comm_count == 0

    def test_stencil_counts(self):
        report = validate(fixture_nest("stencil"), fixture_plan("stencil"), [4])
        # only the offset read crosses processors: one transfer per iteration
        assert report.comm_by_access[("u", "S1", 2)] == 16
        assert report.comm_by_access[("u", "S1", 3)] == 0

    def test_matmul_counts(self):
        report = validate(fixture_nest("matmul"), fixture_plan("matmul"), [4])
        assert report.comm_by_access[("C", "S1", 2)] == 0
        assert report.comm_by_access[("A", "S1", 1)] == 0
        # every B element reaches every processor row once
        assert report.comm_by_access[("B", "S1", 1)] == 64
        assert report.reuse_histogram

    def test_matmul_counts_at_n40(self):
        # 64,000 operations; every B element reaches every processor row once
        report = validate(fixture_nest("matmul"), fixture_plan("matmul", 1), [40])
        assert report.passed
        assert report.comm_count == 40**3

    def test_misplaced_array_costs(self):
        plan = fixture_plan("addmat")
        arrays = dict(plan.arrays)
        arrays["a"] = dataclasses.replace(arrays["a"], placement=((0, 1),))
        bad = dataclasses.replace(plan, arrays=arrays)
        report = validate(fixture_nest("addmat"), bad, [4])
        assert report.comm_by_access[("a", "S1", 1)] > 0


class TestRowLocality:
    def test_matmul_depths_and_metric(self):
        report = validate(fixture_nest("matmul"), fixture_plan("matmul"), [4])
        depths = {k: v["claimed_depth"] for k, v in report.row_locality.items()}
        assert depths[("C", "S1", 1)] == 1
        assert depths[("A", "S1", 1)] == 1
        assert depths[("B", "S1", 1)] == 2
        assert all(v["metric"] == 1 for v in report.row_locality.values())

    def test_claimed_depth_none_for_1d(self):
        nest = fixture_nest("chain")
        acc = nest.access(("x", "S1", 2))
        assert claimed_locality_depth(fixture_plan("chain"), acc) is None

    def test_degraded_locality_reflected_in_depth(self):
        # with the column index scheduled first, C stops being row-confined
        # at the first level; the claim honestly moves to level 2 and the
        # enumeration still certifies it there
        nest = fixture_nest("matmul")
        shuffled = _with_schedule(
            fixture_plan("matmul"), "S1", [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )
        acc = nest.access(("C", "S1", 1))
        assert claimed_locality_depth(fixture_plan("matmul"), acc) == 1
        assert claimed_locality_depth(shuffled, acc) == 2
        report = validate(nest, shuffled, [3])
        assert report.row_locality[("C", "S1", 1)]["metric"] == 1

    @pytest.mark.parametrize(
        "name, r",
        [(name, r) for name in FIXTURE_NAMES + ("chain23", "chain42")
         for r in range(fixture_nest(name).max_depth)],
    )
    def test_procedure_and_validator_read_one_rule(self, name, r):
        # an access keeps its locality columns after recursion xi exactly when
        # it has a rule and the validator's claimed depth lies beyond xi
        nest, plan = fixture_nest(name), fixture_plan(name, r)
        ruled = initial_sets(nest)[2]
        for acc in nest.accesses:
            depth = claimed_locality_depth(plan, acc)
            for d in plan.diagnostics:
                active = acc.key in ruled and (depth is None or d.xi < depth)
                assert (acc.key in d.active_space_accesses) == active


class TestBroadcastChecks:
    def test_matmul_confirmed(self):
        report = validate(fixture_nest("matmul"), fixture_plan("matmul"), [3])
        checks = report.broadcast_checks[("B", "S1", 1)]
        assert checks == {
            "time_uniform": True,
            "nondegenerate": True,
            "single_writer_ok": True,
            "passed": True,
        }

    def test_matvec_confirmed(self):
        report = validate(fixture_nest("matvec"), fixture_plan("matvec"), [3])
        assert report.broadcast_checks[("x", "S1", 1)]["passed"]

    @staticmethod
    def _written_broadcast(overwrite):
        """S1 writes x, then S2 broadcasts x[j] along i into y[i][j].

        With `overwrite`, every S1 iteration writes x[1] instead of x[i].
        """
        line = {"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [1], "const": 0}}
        one = {"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [0], "const": 1}}
        dep = (
            {"Phi": [[0, 0]], "Psi": [[1]], "domain": {"box": [line, one]}}
            if overwrite
            else {"Phi": [[0, 1]], "Psi": [[0]], "domain": {"box": [line, line]}}
        )
        doc = {
            "params": [{"name": "N", "min": 2}],
            "statements": [
                {"id": "S1", "depth": 1, "domain": {"box": [line]}, "order": 1},
                {"id": "S2", "depth": 2, "domain": {"box": [line, line]}, "order": 2},
            ],
            "arrays": [{"id": "x", "dim": 1}, {"id": "y", "dim": 2}],
            "accesses": [
                {"array": "x", "statement": "S1", "slot": 1, "kind": "write",
                 "F": [[0]] if overwrite else [[1]], "G": [[0]],
                 "f": [1] if overwrite else [0]},
                {"array": "y", "statement": "S2", "slot": 1, "kind": "write",
                 "F": [[1, 0], [0, 1]], "G": [[0], [0]], "f": [0, 0]},
                {"array": "x", "statement": "S2", "slot": 2, "kind": "read",
                 "F": [[0, 1]], "G": [[0]], "f": [0]},
            ],
            "dependences": [
                {"source": "S1", "target": "S2", "kind": "flow", "phi": [0],
                 "produced_by": {"array": "x", "slot": 2}, **dep},
            ],
        }
        nest = load_nest(doc)
        # S1 runs on processor 0 at time i; S2 on processor i at time N + j
        plan = plan_from_doc(
            {
                "r_space": 1,
                "statements": {
                    "S1": {"T": [[0], [1]], "B": [[0], [0]], "a": [0, 0]},
                    "S2": {"T": [[1, 0], [0, 1]], "B": [[0], [1]], "a": [0, 0]},
                },
                "arrays": {
                    "x": {"H": [[1]], "Z": [[0]], "y": [0]},
                    "y": {"H": [[1, 0]], "Z": [[0]], "y": [0]},
                },
                "weights": WeightConfig().to_doc(),
            },
            nest,
        )
        return nest, plan

    def test_single_producer_per_element(self):
        nest, plan = self._written_broadcast(overwrite=False)
        report = validate(nest, plan, [4])
        assert report.broadcast_checks[("x", "S2", 2)] == {
            "time_uniform": True,
            "nondegenerate": True,
            "single_writer_ok": True,
            "passed": True,
        }
        assert report.passed

    def test_element_written_twice_before_broadcast(self):
        nest, plan = self._written_broadcast(overwrite=True)
        report = validate(nest, plan, [4])
        check = report.broadcast_checks[("x", "S2", 2)]
        assert check["time_uniform"] and check["nondegenerate"]
        assert check["single_writer_ok"] is False
        assert check["passed"] is False
        assert report.legality_violations == []
        assert not report.passed

    @staticmethod
    def _one_row_broadcast():
        """S1 over i = 1 only reads x[j] into y[i][j]: a broadcast along i
        whose every read leaves the domain when moved along i."""
        line = {"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [1], "const": 0}}
        one = {"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [0], "const": 1}}
        doc = {
            "params": [{"name": "N", "min": 2}],
            "statements": [{"id": "S1", "depth": 2, "domain": {"box": [one, line]}, "order": 1}],
            "arrays": [{"id": "x", "dim": 1}, {"id": "y", "dim": 2}],
            "accesses": [
                {"array": "y", "statement": "S1", "slot": 1, "kind": "write",
                 "F": [[1, 0], [0, 1]], "G": [[0], [0]], "f": [0, 0]},
                {"array": "x", "statement": "S1", "slot": 2, "kind": "read",
                 "F": [[0, 1]], "G": [[0]], "f": [0]},
            ],
            "dependences": [],
        }
        nest = load_nest(doc)
        plan = plan_from_doc(
            {
                "r_space": 1,
                "statements": {"S1": {"T": [[1, 0], [0, 1]], "B": [[0], [0]], "a": [0, 0]}},
                "arrays": {
                    "x": {"H": [[0]], "Z": [[0]], "y": [0]},
                    "y": {"H": [[1, 0]], "Z": [[0]], "y": [0]},
                },
                "weights": WeightConfig().to_doc(),
            },
            nest,
        )
        return nest, plan

    def test_claimed_broadcast_read_at_two_times_fails(self, monkeypatch):
        # matmul reads A[i][k] along j at different times; claim a broadcast anyway
        claim = {"access": ["A", "S1", 1], "eligible": True, "kernel_basis": [[0, 1, 0]]}
        monkeypatch.setattr(validation, "comm_report", lambda plan, nest: {"broadcasts": [claim]})
        report = validate(fixture_nest("matmul"), fixture_plan("matmul"), [3])
        check = report.broadcast_checks[("A", "S1", 1)]
        assert check["time_uniform"] is False
        assert check["passed"] is False

    def test_one_row_domain_is_degenerate(self):
        nest, plan = self._one_row_broadcast()
        check = validate(nest, plan, [4]).broadcast_checks[("x", "S1", 2)]
        assert check["time_uniform"] and check["single_writer_ok"]
        assert check["nondegenerate"] is False
        assert check["passed"] is False


class TestOracle:
    def test_matches_solver_documented_values(self):
        assert brute_force_best_alignment(fixture_nest("vecadd"), 0, bound=1) == 0
        assert brute_force_best_alignment(fixture_nest("chain"), 0, bound=1) == 2
        assert brute_force_best_alignment(fixture_nest("stencil"), 1, bound=1) == 68

    def test_cap_on_large_systems(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_best_alignment(fixture_nest("matmul"), 1, bound=1)

    def test_fractional_weights(self):
        from affsched.procedure import WeightConfig

        w = WeightConfig.with_overrides({"legality": Fraction(1, 2)})
        assert brute_force_best_alignment(fixture_nest("chain"), 0, bound=1, weights=w) == 1


class TestReportDoc:
    def test_to_doc_is_json_ready(self):
        import json

        report = validate(fixture_nest("matmul"), fixture_plan("matmul"), [3])
        doc = report.to_doc()
        json.dumps(doc)
        assert doc["passed"] is True
        assert doc["comm_count"] == report.comm_count

    def test_every_kind_of_entry_is_json(self):
        # S1 now runs on processor N: the S2 reads on processors i < N come
        # first (violations) and those on processor N tie (warnings)
        nest, plan = TestBroadcastChecks._written_broadcast(overwrite=False)
        statements = dict(plan.statements)
        statements["S1"] = dataclasses.replace(statements["S1"], param=((1,), (0,)))
        statements["S2"] = dataclasses.replace(statements["S2"], param=((0,), (0,)))
        report = validate(nest, dataclasses.replace(plan, statements=statements), [4])
        assert report.legality_violations and report.lex_equal_warnings
        assert report.broadcast_checks and report.reuse_histogram and report.row_locality
        doc = report.to_doc()
        assert json.loads(json.dumps(doc)) == doc



def _box_points(domain, n_vals):
    """Points of a box domain in lex order, from its bounds alone."""
    return itertools.product(
        *(range(lo.value_at(n_vals), hi.value_at(n_vals) + 1) for lo, hi in domain.box)
    )


def scalar_validate(nest, plan, n_vals):
    """Per-point reference for `validate`, sharing none of its array code.

    Every operation is evaluated alone through `schedule_of` and every
    owner through `placement_of`; pairs are ordered as Python tuples.
    """
    r = plan.r_space
    report = ValidationReport(n_vals=tuple(n_vals))
    ops = {
        s.id: {p: tuple(schedule_of(plan, nest, s.id, p, n_vals))
               for p in _box_points(s.domain, n_vals)}
        for s in nest.statements
    }
    for sid, st in plan.statements.items():
        depth = nest.statement(sid).depth
        if rank(st.schedule) != depth:
            report.rank_failures.append(
                f"statement {sid!r}: schedule rank {rank(st.schedule)} != depth {depth}"
            )

    order = {s.id: s.textual_order for s in nest.statements}
    for di, dep in enumerate(nest.dependences):
        if dep.kind == "in":
            continue
        tie_ok = dep.source == dep.target or order[dep.source] < order[dep.target]
        for point in _box_points(dep.domain, n_vals):
            src = tuple(source_point(dep, point, n_vals))
            later = tuple(schedule_of(plan, nest, dep.target, point, n_vals))
            earlier = tuple(schedule_of(plan, nest, dep.source, src, n_vals))
            pair = ((di,), src, point)
            if later < earlier or (later == earlier and not tie_ok):
                report.legality_violations.append(pair)
            elif later == earlier:
                report.lex_equal_warnings.append(pair)

    reuse = {}
    for acc in nest.accesses:
        if acc.kind != "read":
            continue
        transfers = set()
        for point, vec in ops[acc.statement].items():
            elem = tuple(index_at(acc, point, n_vals))
            reuse.setdefault((acc.array, elem, vec[:r]), set()).add(vec[r:])
            if tuple(placement_of(plan, acc.array, elem, n_vals)) != vec[:r]:
                transfers.add((elem, vec))
        report.comm_by_access[acc.key] = len(transfers)
    report.comm_count = sum(report.comm_by_access.values())
    for times in reuse.values():
        report.reuse_histogram[len(times)] = report.reuse_histogram.get(len(times), 0) + 1

    for acc in nest.accesses:
        depth = claimed_locality_depth(plan, acc)
        if depth is None:
            continue
        groups = {}
        for point, vec in ops[acc.statement].items():
            elem = tuple(index_at(acc, point, n_vals))
            groups.setdefault(vec[:depth], set()).add(elem[:-1])
        metric = max(len(g) for g in groups.values())
        report.row_locality[acc.key] = {"claimed_depth": depth, "metric": metric}

    for entry in comm_report(plan, nest)["broadcasts"]:
        if not entry["eligible"]:
            continue
        acc = nest.access(tuple(entry["access"]))
        own = ops[acc.statement]
        readers = {}
        for point, vec in own.items():
            readers.setdefault(tuple(index_at(acc, point, n_vals)), []).append((point, vec[r:]))
        writes = {}
        for w in nest.accesses:
            if w.array == acc.array and w.kind == "write":
                for point, vec in ops[w.statement].items():
                    writes.setdefault(tuple(index_at(w, point, n_vals)), []).append(vec[r:])
        uniform = all(len({t for _, t in rs}) == 1 for rs in readers.values())
        nondegenerate = all(
            any(all(tuple(a + b for a, b in zip(p, u)) in own for u in entry["kernel_basis"])
                for p, _ in rs)
            for rs in readers.values()
        )
        single = all(
            sum(wt < min(t for _, t in rs) for wt in writes.get(elem, ())) <= 1
            for elem, rs in readers.items()
        )
        report.broadcast_checks[acc.key] = {
            "time_uniform": uniform,
            "nondegenerate": nondegenerate,
            "single_writer_ok": single,
            "passed": uniform and nondegenerate and single,
        }
    return report


def _reference_cases():
    for name in FIXTURE_NAMES:
        for r in range(fixture_nest(name).max_depth):
            yield pytest.param(lambda n=name, r=r: (fixture_nest(n), fixture_plan(n, r)),
                               id=f"{name} r={r}")
    yield pytest.param(lambda: (fixture_nest("chain23"), fixture_plan("chain23", 1)),
                       id="chain23 r=1")
    # matmul with j, then k, on the processors: elements reach one remote
    # processor at several times, and reuse counts differ between arrays
    for rows in ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]):
        yield pytest.param(
            lambda rows=rows: (fixture_nest("matmul"),
                               _with_schedule(fixture_plan("matmul"), "S1", rows)),
            id=f"matmul T={rows}",
        )
    for first in ("S1", "S2"):
        yield pytest.param(lambda f=first: TestLegality._producer_consumer(f),
                           id=f"producer-consumer {first} first")
    for overwrite in (False, True):
        yield pytest.param(lambda o=overwrite: TestBroadcastChecks._written_broadcast(o),
                           id=f"written broadcast overwrite={overwrite}")
    yield pytest.param(TestBroadcastChecks._one_row_broadcast, id="one-row broadcast")
    yield pytest.param(_reads_out_of_declaration_order, id="reads out of declaration order")


def _reads_out_of_declaration_order():
    """S1(i, j) reads b[i], then a[i + j]; a is declared first.

    The reuse histogram lists each count in the order its first key is met,
    reads in access order: b's count N comes before a's counts 1..N.
    """
    line = {"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [1], "const": 0}}
    nest = load_nest({
        "params": [{"name": "N", "min": 2}],
        "statements": [{"id": "S1", "depth": 2, "domain": {"box": [line, line]}, "order": 1}],
        "arrays": [{"id": "a", "dim": 1}, {"id": "b", "dim": 1}],
        "accesses": [
            {"array": "b", "statement": "S1", "slot": 1, "kind": "read",
             "F": [[1, 0]], "G": [[0]], "f": [0]},
            {"array": "a", "statement": "S1", "slot": 2, "kind": "read",
             "F": [[1, 1]], "G": [[0]], "f": [0]},
        ],
        "dependences": [],
    })
    plan = plan_from_doc(
        {
            "r_space": 0,
            "statements": {"S1": {"T": [[1, 0], [0, 1]], "B": [[0], [0]], "a": [0, 0]}},
            "arrays": {aid: {"H": [], "Z": [], "y": []} for aid in ("a", "b")},
            "weights": WeightConfig().to_doc(),
        },
        nest,
    )
    return nest, plan


class TestScalarReference:
    @pytest.mark.parametrize("case", _reference_cases())
    @pytest.mark.parametrize("above_minimum", [0, 2])
    def test_matches_validate(self, case, above_minimum):
        nest, plan = case()
        n_vals = [m + above_minimum for m in nest.outer_vars.minima]
        # the text, not the dicts: key order reaches the report file too
        want = json.dumps(scalar_validate(nest, plan, n_vals).to_doc())
        assert json.dumps(validate(nest, plan, n_vals).to_doc()) == want


class TestInt64Guard:
    """Images that could leave int64 are refused, never wrapped around."""

    BIG_N = 1 << 23  # 2**40 * N reaches 2**63

    @staticmethod
    def _docs(t_entry):
        # two operations, at N - 1 and N, so the points stay few at any N
        box = {"box": [{"lower": {"coeffs": [1], "const": -1},
                        "upper": {"coeffs": [1], "const": 0}}]}
        nest_doc = {
            "params": [{"name": "N", "min": 2}],
            "statements": [{"id": "S1", "depth": 1, "domain": box, "order": 1}],
            "arrays": [{"id": "x", "dim": 1}],
            "accesses": [
                {"array": "x", "statement": "S1", "slot": 1, "kind": "write",
                 "F": [[1]], "G": [[0]], "f": [0]},
                {"array": "x", "statement": "S1", "slot": 2, "kind": "read",
                 "F": [[1]], "G": [[0]], "f": [0]},
            ],
            "dependences": [],
        }
        plan_doc = {
            "r_space": 0,
            "statements": {"S1": {"T": [[t_entry]], "B": [[0]], "a": [0]}},
            "arrays": {"x": {"H": [], "Z": [], "y": []}},
            "weights": WeightConfig().to_doc(),
        }
        return nest_doc, plan_doc

    def test_large_schedule_entry_raises(self):
        nest_doc, plan_doc = self._docs(1 << 40)
        nest = load_nest(nest_doc)
        plan = plan_from_doc(plan_doc, nest)
        assert validate(nest, plan, [1 << 20]).passed
        with pytest.raises(EnumerationError, match=r"2\*\*62"):
            validate(nest, plan, [self.BIG_N])

    def test_cli_exits_with_input_error(self, tmp_path, capsys):
        nest_doc, plan_doc = self._docs(1 << 40)
        paths = []
        for name, doc in (("nest", nest_doc), ("plan", plan_doc)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        argv = ["validate", "--input", str(paths[0]), "--plan", str(paths[1]),
                "--params", f"N={self.BIG_N}"]
        assert main(argv) == EXIT_INPUT
        assert "2**62" in capsys.readouterr().err


def _distinct_reference(rows):
    """`_distinct_rows` in plain Python: per row the rank of its tuple among
    the sorted distinct tuples, and per distinct tuple its first index."""
    tuples = list(map(tuple, rows.tolist()))
    distinct = sorted(set(tuples))
    ranks = {t: i for i, t in enumerate(distinct)}
    return [ranks[t] for t in tuples], [tuples.index(t) for t in distinct]


INT64_ENTRIES = st.one_of(
    st.integers(-3, 3),
    # two columns this wide carry a key past 2**62, so the keys are ranked
    st.integers(-(1 << 40), 1 << 40),
    # a column with both is too wide on its own, so it is ranked too
    st.integers((1 << 61) - 2, (1 << 61) + 2),
    st.integers(-(1 << 61) - 2, -(1 << 61) + 2),
    st.sampled_from([-(1 << 63), (1 << 63) - 1]),
)


@st.composite
def _int64_tables(draw):
    k = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(INT64_ENTRIES, min_size=k, max_size=k), max_size=12))
    return np.array(rows, dtype=np.int64).reshape(len(rows), k)


class TestDistinctRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_int64_tables())
    @example(np.zeros((0, 3), dtype=np.int64))
    @example(np.array([[1 << 61], [-(1 << 61)], [1 << 61]], dtype=np.int64))
    @example(np.array([[1 << 40, 1 << 40], [0, 0], [-(1 << 40), 5]], dtype=np.int64))
    def test_matches_reference(self, table):
        # whole tables, one column, and views that are not contiguous
        for rows in (table, table[:, :1], table[:, ::2], table[::-1, -2:]):
            ranks, first = validation._distinct_rows(rows)
            assert (ranks.tolist(), first.tolist()) == _distinct_reference(rows)

    @pytest.mark.parametrize("rows, ranked", [
        ([[1, 2], [0, 5]], 1),  # the final ranking only
        ([[1 << 40, 1 << 40], [0, 0], [-(1 << 40), 5]], 2),  # and the keys
        ([[1 << 61, 0], [-(1 << 61), 1]], 3),  # and a column too wide alone
    ])
    def test_ranks_where_a_key_would_reach_2_62(self, monkeypatch, rows, ranked):
        calls = []
        dense_rank = validation._dense_rank

        def counting(values):
            calls.append(len(values))
            return dense_rank(values)

        monkeypatch.setattr(validation, "_dense_rank", counting)
        table = np.array(rows, dtype=np.int64)
        ranks, first = validation._distinct_rows(table)
        assert len(calls) == ranked
        assert (ranks.tolist(), first.tolist()) == _distinct_reference(table)
