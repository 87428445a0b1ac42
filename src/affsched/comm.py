"""Data-exchange requirements of a plan and broadcast detection.

A read whose owning processor (from the array placement) can differ from the
executing processor (from the spatial schedule rows) needs communication.
For such reads we test whether a one-to-all broadcast is possible: the
access must be many-to-one (nontrivial kernel), every time row of the
schedule must be constant along the kernel, and the array must either never
be written or the producing flow dependences must preserve the kernel.
"""

from __future__ import annotations

from .algebra import dot, integer_kernel_basis
from .nest import LoopNest
from .procedure import TransformPlan

INELIGIBLE_DEGENERATE = "degenerate"
INELIGIBLE_TIME_VARIANCE = "time-variance"
INELIGIBLE_WRITE_PRESENT = "write-present"
INELIGIBLE_FLOW_KERNEL = "flow-kernel"


def alignment_slacks(plan: TransformPlan, nest: LoopNest, acc) -> dict[str, dict[str, list]]:
    """Exact per-recursion misalignment of one access, from the plan alone.

    Recursion level (as a string) -> slack family (F, G, f) -> slack vector.
    """
    out = {}
    st = plan.statements[acc.statement]
    al = plan.arrays[acc.array]
    # eta·F and eta·G are eta dotted with each column
    f_cols, g_cols = list(zip(*acc.iter_coeffs)), list(zip(*acc.param_coeffs))
    for xi in range(plan.r_space):
        eta = al.placement[xi]
        out[str(xi + 1)] = {
            "F": [t - dot(eta, c) for t, c in zip(st.schedule[xi], f_cols)],
            "G": [b - dot(eta, c) - z for b, c, z in zip(st.param[xi], g_cols, al.param[xi])],
            "f": [st.const[xi] - dot(eta, acc.offset) - al.const[xi]],
        }
    return out


def exchange_requirements(plan: TransformPlan, nest: LoopNest) -> list[dict]:
    """Reads whose operands are not guaranteed local to the executing processor.

    Each is the report's exchange entry: the access, the slack families
    that are nonzero (`reasons`) and the slacks themselves.
    """
    out = []
    for acc in nest.accesses:
        if acc.kind != "read":
            continue
        slacks = alignment_slacks(plan, nest, acc)
        reasons = []
        for fam in ("F", "G", "f"):
            if any(any(v != 0 for v in per[fam]) for per in slacks.values()):
                reasons.append(fam)
        if reasons:
            out.append({"access": list(acc.key), "reasons": reasons, "slacks": slacks})
    return out


def detect_broadcast(plan: TransformPlan, nest: LoopNest, access_key) -> dict:
    """Test the broadcast-eligibility conditions for one read access."""
    acc = nest.access(access_key)
    if acc.kind != "read":
        raise ValueError(f"broadcast detection applies to reads, {access_key!r} is a write")
    kernel = integer_kernel_basis(acc.iter_coeffs, nest.statement(acc.statement).depth)

    def finding(failed_condition: str | None) -> dict:
        return {
            "access": list(acc.key),
            "eligible": failed_condition is None,
            "failed_condition": failed_condition,
            "kernel_basis": [list(u) for u in kernel],
            "nondegeneracy_pending": bool(kernel),  # existential clause left to enumeration
        }

    if not kernel:
        return finding(INELIGIBLE_DEGENERATE)

    for tau in plan.statements[acc.statement].schedule[plan.r_space:]:
        if any(dot(tau, u) for u in kernel):
            return finding(INELIGIBLE_TIME_VARIANCE)

    written = any(a.array == acc.array and a.kind == "write" for a in nest.accesses)
    if written:
        producing = [
            d
            for d in nest.dependences
            if d.kind == "flow"
            and d.target == acc.statement
            and d.produced_by == (acc.array, acc.slot)
        ]
        if not producing:
            return finding(INELIGIBLE_WRITE_PRESENT)
        for d in producing:
            if any(dot(p, u) for p in d.source_map for u in kernel):
                return finding(INELIGIBLE_FLOW_KERNEL)
    return finding(None)


def comm_report(plan: TransformPlan, nest: LoopNest) -> dict:
    """Machine-readable communication report for a plan."""
    exchanges = exchange_requirements(plan, nest)
    return {
        "exchanges": exchanges,
        "broadcasts": [detect_broadcast(plan, nest, ex["access"]) for ex in exchanges],
    }
