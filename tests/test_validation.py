"""Brute-force validation and the exhaustive solver oracle."""

import dataclasses
from fractions import Fraction

import pytest

from affsched.algebra import IntMatrix
from affsched.nest import load_nest
from affsched.procedure import WeightConfig, plan_from_doc, run_procedure
from affsched.validation import (
    brute_force_best_alignment,
    claimed_locality_depth,
    validate,
)
from conftest import FIXTURE_NAMES, fixture_doc, fixture_nest, fixture_plan


def _with_schedule(plan, sid, rows):
    st = plan.statements[sid]
    statements = dict(plan.statements)
    statements[sid] = dataclasses.replace(st, schedule=IntMatrix(rows))
    return dataclasses.replace(plan, statements=statements)


class TestLegality:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_plans_pass(self, name):
        nest = fixture_nest(name)
        report = validate(nest, fixture_plan(name), [4])
        assert report.passed
        assert report.legality_violations == []
        assert report.rank_failures == []

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
        # both statements at time i: every flow pair has equal vectors
        plan = plan_from_doc(
            {
                "r_space": 0,
                "statements": {
                    sid: {"T": [[1]], "B": [[0]], "a": [0]} for sid in ("S1", "S2")
                },
                "arrays": {aid: {"H": [], "Z": [], "y": []} for aid in ("x", "y")},
                "weights": WeightConfig().to_doc(),
            }
        )
        return load_nest(doc), plan

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

    def test_params_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="minima"):
            validate(fixture_nest("chain"), fixture_plan("chain"), [1])


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

    def test_misplaced_array_costs(self):
        plan = fixture_plan("addmat")
        arrays = dict(plan.arrays)
        arrays["a"] = dataclasses.replace(arrays["a"], placement=IntMatrix([[0, 1]]))
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
        assert claimed_locality_depth(fixture_plan("chain"), nest, acc) is None

    def test_degraded_locality_reflected_in_depth(self):
        # with the column index scheduled first, C stops being row-confined
        # at the first level; the claim honestly moves to level 2 and the
        # enumeration still certifies it there
        nest = fixture_nest("matmul")
        shuffled = _with_schedule(
            fixture_plan("matmul"), "S1", [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        )
        acc = nest.access(("C", "S1", 1))
        assert claimed_locality_depth(fixture_plan("matmul"), nest, acc) == 1
        assert claimed_locality_depth(shuffled, nest, acc) == 2
        report = validate(nest, shuffled, [3])
        assert report.row_locality[("C", "S1", 1)]["metric"] == 1


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
