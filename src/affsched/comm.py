"""Data-exchange requirements of a plan and broadcast detection.

A read whose owning processor (from the array placement) can differ from the
executing processor (from the spatial schedule rows) needs communication.
For such reads we test whether a one-to-all broadcast is possible: the
access must be many-to-one (nontrivial kernel), every time row of the
schedule must be constant along the kernel, and the array must either never
be written or the producing flow dependences must preserve the kernel.
"""

from __future__ import annotations

from .algebra import dot
# no caller here: perfbench's tracer patches this binding (tests/test_bench_bindings.py)
from .algebra import integer_kernel_basis  # noqa: F401
from .nest import LoopNest
from .procedure import TransformPlan

INELIGIBLE_DEGENERATE = "degenerate"
INELIGIBLE_TIME_VARIANCE = "time-variance"
INELIGIBLE_WRITE_PRESENT = "write-present"
INELIGIBLE_FLOW_KERNEL = "flow-kernel"


def alignment_slacks(plan: TransformPlan, acc) -> dict[str, dict[str, list]]:
    """Exact per-recursion misalignment of the access `acc`, from the plan alone.

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


def _broadcast(plan: TransformPlan, nest: LoopNest, acc) -> dict:
    """The broadcast finding of the read access `acc`."""
    kernel = acc.kernel

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
        producing = [d for d in nest.dependences if d.kind == "flow" and d.target == acc.statement
                     and d.produced_by == (acc.array, acc.slot)]
        if not producing:
            return finding(INELIGIBLE_WRITE_PRESENT)
        for d in producing:
            if any(dot(p, u) for p in d.source_map for u in kernel):
                return finding(INELIGIBLE_FLOW_KERNEL)
    return finding(None)


def comm_report(plan: TransformPlan, nest: LoopNest) -> dict:
    """Machine-readable communication report for a plan, from one walk over the reads.

    Each read whose operand is not guaranteed local to the executing
    processor gets an exchange entry (the access, the nonzero slack
    families as `reasons`, and the slacks) and its broadcast finding.
    """
    exchanges, broadcasts = [], []
    for acc in nest.accesses:
        if acc.kind != "read":
            continue
        slacks = alignment_slacks(plan, acc)
        reasons = [fam for fam in ("F", "G", "f")
                   if any(any(per[fam]) for per in slacks.values())]
        if reasons:
            exchanges.append({"access": list(acc.key), "reasons": reasons, "slacks": slacks})
            broadcasts.append(_broadcast(plan, nest, acc))
    return {"exchanges": exchanges, "broadcasts": broadcasts}
