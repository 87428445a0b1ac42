"""Exchange requirements and broadcast eligibility."""

import dataclasses

from affsched import comm
from affsched.comm import (
    INELIGIBLE_DEGENERATE,
    INELIGIBLE_FLOW_KERNEL,
    INELIGIBLE_TIME_VARIANCE,
    INELIGIBLE_WRITE_PRESENT,
    alignment_slacks,
    comm_report,
)
from affsched.nest import load_nest
from affsched.procedure import run_procedure
from conftest import access_of, broadcast_finding, fixture_doc, fixture_nest, fixture_plan


def _with_schedule(plan, sid, rows):
    st = plan.statements[sid]
    statements = dict(plan.statements)
    statements[sid] = dataclasses.replace(st, schedule=tuple(map(tuple, rows)))
    return dataclasses.replace(plan, statements=statements)


class TestExchanges:
    def test_aligned_fixtures_need_none(self):
        for name in ("vecadd", "chain", "addmat"):
            assert comm_report(fixture_plan(name), fixture_nest(name))["exchanges"] == []

    def test_stencil_single_offset_exchange(self):
        reqs = comm_report(fixture_plan("stencil"), fixture_nest("stencil"))["exchanges"]
        assert [(r["access"], r["reasons"]) for r in reqs] == [(["u", "S1", 2], ["f"])]

    def test_matvec_operand_exchange(self):
        reqs = comm_report(fixture_plan("matvec"), fixture_nest("matvec"))["exchanges"]
        assert [(r["access"], r["reasons"]) for r in reqs] == [(["x", "S1", 1], ["F"])]

    def test_matmul_slack_values(self):
        plan = fixture_plan("matmul")
        nest = fixture_nest("matmul")
        slacks = alignment_slacks(plan, access_of(nest, ("B", "S1", 1)))
        assert slacks["1"]["F"] == [1, 0, 0]
        assert slacks["1"]["G"] == [0]
        assert slacks["1"]["f"] == [0]
        aligned = alignment_slacks(plan, access_of(nest, ("C", "S1", 2)))
        assert aligned["1"] == {"F": [0, 0, 0], "G": [0], "f": [0]}

    def test_writes_are_not_exchanges(self):
        reqs = comm_report(fixture_plan("matmul"), fixture_nest("matmul"))["exchanges"]
        assert all(access_of(fixture_nest("matmul"), r["access"]).kind == "read" for r in reqs)


class TestBroadcastPositive:
    def test_matmul_b_operand(self):
        finding = broadcast_finding(fixture_plan("matmul"), fixture_nest("matmul"), ("B", "S1", 1))
        assert finding["eligible"]
        assert finding["failed_condition"] is None
        assert finding["kernel_basis"] == [[1, 0, 0]]
        assert finding["nondegeneracy_pending"]

    def test_matvec_x_operand(self):
        finding = broadcast_finding(fixture_plan("matvec"), fixture_nest("matvec"), ("x", "S1", 1))
        assert finding["eligible"]
        assert finding["kernel_basis"] == [[1, 0]]


class TestBroadcastNegative:
    def test_degenerate(self):
        # one-to-one access: nothing to share
        nest = fixture_nest("stencil")
        finding = broadcast_finding(fixture_plan("stencil"), nest, ("u", "S1", 2))
        assert not finding["eligible"]
        assert finding["failed_condition"] == INELIGIBLE_DEGENERATE

    def test_time_variance(self):
        # move the kernel direction into a time level
        plan = _with_schedule(
            fixture_plan("matmul"), "S1", [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        )
        finding = broadcast_finding(plan, fixture_nest("matmul"), ("B", "S1", 1))
        assert not finding["eligible"]
        assert finding["failed_condition"] == INELIGIBLE_TIME_VARIANCE

    def test_flow_kernel(self):
        # the y operand is written, and its producing dependence moves along
        # the access kernel
        plan = _with_schedule(fixture_plan("matvec"), "S1", [[0, 1], [1, 0]])
        finding = broadcast_finding(plan, fixture_nest("matvec"), ("y", "S1", 2))
        assert not finding["eligible"]
        assert finding["failed_condition"] == INELIGIBLE_FLOW_KERNEL

    def test_write_present(self):
        # same schedule, but no flow dependence claims to produce the operand
        doc = fixture_doc("matvec")
        doc["dependences"][0]["produced_by"] = None
        nest = load_nest(doc)
        plan = _with_schedule(run_procedure(nest, r_space=1), "S1", [[0, 1], [1, 0]])
        finding = broadcast_finding(plan, nest, ("y", "S1", 2))
        assert not finding["eligible"]
        assert finding["failed_condition"] == INELIGIBLE_WRITE_PRESENT


class TestReport:
    def test_matmul_report_shape(self):
        rep = comm_report(fixture_plan("matmul"), fixture_nest("matmul"))
        assert [e["access"] for e in rep["exchanges"]] == [["B", "S1", 1]]
        assert [b["eligible"] for b in rep["broadcasts"]] == [True]
        assert rep["broadcasts"][0]["kernel_basis"] == [[1, 0, 0]]

    def test_one_walk_over_the_reads(self, monkeypatch):
        # the slacks of each read once, and a finding for each exchanged read alone
        calls = []
        for name in ("alignment_slacks", "_broadcast"):
            monkeypatch.setattr(comm, name, lambda *args, name=name, real=getattr(comm, name):
                                calls.append(name) or real(*args))
        nest = fixture_nest("matmul")
        rep = comm_report(fixture_plan("matmul"), nest)
        assert calls.count("alignment_slacks") == sum(a.kind == "read" for a in nest.accesses) == 3
        assert calls.count("_broadcast") == len(rep["exchanges"]) == 1

    def test_communication_free_report_empty(self):
        rep = comm_report(fixture_plan("addmat"), fixture_nest("addmat"))
        assert rep == {"exchanges": [], "broadcasts": []}
