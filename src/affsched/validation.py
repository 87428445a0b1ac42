"""Independent desk-scale verification of a transform plan.

Everything here works by enumerating iteration domains at concrete
parameter values and evaluating schedules and placements directly, without
going through the constraint columns, so it can certify the constraint
machinery rather than echo it.  `validate` enumerates each statement's
domain once per size and evaluates each operation's schedule vector once,
through `schedule_of`; the legality, communication/reuse, row-locality and
broadcast checks all read that one table.  Also hosts the exhaustive solver
oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import add

import numpy as np

from .algebra import EQUAL, IntVector, LESS, lex_compare, rank
from .comm import comm_report
from .constraints import (
    ABS,
    GEQ0,
    ConstraintSystem,
    ExtendedLayout,
    locality_depth,
    locality_kernel,
    locality_target,
)
from .nest import DEFAULT_ENUM_CAP, LoopNest, enumerate_domain
from .procedure import (
    TransformPlan,
    WeightConfig,
    build_recursion_system,
    initial_sets,
    placement_of,
    schedule_of,
)
from .solver import InfeasibleError


@dataclass
class ValidationReport:
    n_vals: tuple[int, ...]
    legality_violations: list[tuple] = field(default_factory=list)
    lex_equal_warnings: list[tuple] = field(default_factory=list)
    comm_count: int = 0
    comm_by_access: dict[tuple, int] = field(default_factory=dict)
    row_locality: dict[tuple, dict] = field(default_factory=dict)
    broadcast_checks: dict[tuple, dict] = field(default_factory=dict)
    rank_failures: list[str] = field(default_factory=list)
    reuse_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        row_ok = all(
            info["metric"] == 1 for info in self.row_locality.values() if info["claimed_depth"]
        )
        bc_ok = all(info["passed"] for info in self.broadcast_checks.values())
        return not self.legality_violations and not self.rank_failures and row_ok and bc_ok

    def to_doc(self) -> dict:
        return {
            "n_vals": list(self.n_vals),
            "passed": self.passed,
            "legality_violations": [list(map(list, v)) for v in self.legality_violations],
            "lex_equal_warnings": [list(map(list, v)) for v in self.lex_equal_warnings],
            "comm_count": self.comm_count,
            "comm_by_access": {"/".join(map(str, k)): v for k, v in self.comm_by_access.items()},
            "row_locality": {"/".join(map(str, k)): v for k, v in self.row_locality.items()},
            "broadcast_checks": {
                "/".join(map(str, k)): v for k, v in self.broadcast_checks.items()
            },
            "rank_failures": self.rank_failures,
            "reuse_histogram": {str(k): v for k, v in self.reuse_histogram.items()},
        }


def claimed_locality_depth(plan: TransformPlan, nest: LoopNest, acc,
                           last_index_contiguous: bool = True) -> int | None:
    """Schedule prefix length after which the access is row-confined.

    Accumulates plan schedule rows that are constant along the kernel of the
    truncated access matrix until their rank reaches that matrix's rank;
    returns the 1-based level of the last row needed, or None.
    """
    target = locality_target(acc, nest, last_index_contiguous)
    if target is None:
        return None
    return locality_depth(
        plan.statements[acc.statement].schedule.rows,
        locality_kernel(acc, last_index_contiguous),
        target,
    )


def validate(
    nest: LoopNest,
    plan: TransformPlan,
    n_vals,
    cap: int = DEFAULT_ENUM_CAP,
    last_index_contiguous: bool = True,
) -> ValidationReport:
    """Brute-force re-check of every claim a plan makes, at concrete parameters."""
    n_vals = IntVector(n_vals)
    minima = nest.outer_vars.minima
    if any(v < m for v, m in zip(n_vals, minima)):
        raise ValueError(
            f"parameter values {tuple(n_vals)} below declared minima {tuple(minima)}"
        )
    report = ValidationReport(n_vals=tuple(n_vals))
    r = plan.r_space
    tables: dict[str, dict[tuple, tuple]] = {}

    def ops(sid) -> dict[tuple, tuple]:
        """point -> full schedule vector of every operation of `sid`, built once."""
        if sid not in tables:
            tables[sid] = {
                tuple(p): tuple(schedule_of(plan, nest, sid, p, n_vals))
                for p in enumerate_domain(nest.statement(sid).domain, n_vals, cap)
            }
        return tables[sid]

    def vector(sid, point):
        # a point missing from the table lies outside the domain: schedule_of says so
        return ops(sid).get(tuple(point)) or schedule_of(plan, nest, sid, point, n_vals)

    for sid, st in plan.statements.items():
        depth = nest.statement(sid).depth
        if rank(st.schedule) != depth:
            report.rank_failures.append(
                f"statement {sid!r}: schedule rank {rank(st.schedule)} != depth {depth}"
            )

    for di, dep in enumerate(nest.dependences):
        if dep.kind == "in":
            continue
        # operations with equal schedule vectors run in textual order; one
        # statement has none to fall back on, so equality there is a warning
        textually_first = (
            dep.source == dep.target
            or nest.statement(dep.source).textual_order
            < nest.statement(dep.target).textual_order
        )
        for point in enumerate_domain(dep.domain, n_vals, cap):
            src_point = dep.source_point(point, n_vals)
            t_target = vector(dep.target, point)
            t_source = vector(dep.source, src_point)
            cmp = lex_compare(t_target, t_source)
            pair = ((di,), tuple(src_point), tuple(point))
            if cmp == LESS or (cmp == EQUAL and not textually_first):
                report.legality_violations.append(pair)
            elif cmp == EQUAL:
                report.lex_equal_warnings.append(pair)

    reuse: dict[tuple, set] = {}
    for acc in nest.accesses:
        if acc.kind != "read":
            continue
        transfers = set()
        for point, t_vec in ops(acc.statement).items():
            consumer, time = t_vec[:r], t_vec[r:]
            elem = tuple(acc.index_at(point, n_vals))
            owner = tuple(placement_of(plan, acc.array, elem, n_vals))
            reuse.setdefault((acc.array, elem, consumer), set()).add(time)
            if owner != consumer:
                transfers.add((elem, consumer, time))
        report.comm_by_access[acc.key] = len(transfers)
    report.comm_count = sum(report.comm_by_access.values())
    for times in reuse.values():
        k = len(times)
        report.reuse_histogram[k] = report.reuse_histogram.get(k, 0) + 1

    contiguous = -1 if last_index_contiguous else 0
    for acc in nest.accesses:
        depth_claim = claimed_locality_depth(plan, nest, acc, last_index_contiguous)
        if depth_claim is None:
            continue
        groups: dict[tuple, set] = {}
        for point, t_vec in ops(acc.statement).items():
            elem = list(acc.index_at(point, n_vals))
            del elem[contiguous]
            groups.setdefault(t_vec[:depth_claim], set()).add(tuple(elem))
        metric = max((len(v) for v in groups.values()), default=0)
        report.row_locality[acc.key] = {"claimed_depth": depth_claim, "metric": metric}

    for entry in comm_report(plan, nest)["broadcasts"]:
        if entry["eligible"]:
            acc = nest.access(tuple(entry["access"]))
            report.broadcast_checks[acc.key] = _check_broadcast(
                nest, acc, entry["kernel_basis"], r, ops, n_vals
            )

    return report


def _check_broadcast(nest: LoopNest, acc, kernel, r: int, ops, n_vals) -> dict:
    """Enumerated broadcast conditions of one read, from the operation tables `ops`.

    For each element read: every reading operation runs at one time
    (time_uniform); some reading operation stays in the domain when moved
    along every kernel vector (nondegenerate); and at most one write of the
    element runs before the earliest read (single_writer_ok).
    """
    own = ops(acc.statement)
    readers: dict[tuple, list] = {}
    for point, t_vec in own.items():
        readers.setdefault(tuple(acc.index_at(point, n_vals)), []).append((point, t_vec[r:]))
    write_times: dict[tuple, list] = {}
    for w in nest.accesses:
        if w.array == acc.array and w.kind == "write":
            for point, t_vec in ops(w.statement).items():
                write_times.setdefault(tuple(w.index_at(point, n_vals)), []).append(t_vec[r:])

    time_uniform = all(len({t for _, t in rs}) == 1 for rs in readers.values())
    nondegenerate = all(
        any(all(tuple(map(add, p, u)) in own for u in kernel) for p, _ in rs)
        for rs in readers.values()
    )
    single_writer_ok = True
    for elem, rs in readers.items():
        bcast_time = min(t for _, t in rs)
        if sum(wt < bcast_time for wt in write_times.get(elem, ())) > 1:
            single_writer_ok = False
    return {
        "time_uniform": time_uniform,
        "nondegenerate": nondegenerate,
        "single_writer_ok": single_writer_ok,
        "passed": time_uniform and nondegenerate and single_writer_ok,
    }


# ---------------------------------------------------------------------------
# Exhaustive solver oracle
# ---------------------------------------------------------------------------

ORACLE_MAX_VARS = 14


def first_recursion_system(
    nest: LoopNest,
    r_space: int,
    weights: WeightConfig | None = None,
    last_index_contiguous: bool = True,
):
    """The optimization system of recursion 1 with all sets at their initial value."""
    active, active_in, space = initial_sets(nest, last_index_contiguous)
    return build_recursion_system(
        nest, ExtendedLayout.for_nest(nest), [], r_space, weights or WeightConfig(),
        active, active_in, set(space), last_index_contiguous,
    )


def brute_force_best_alignment(
    nest: LoopNest,
    r_space: int,
    bound: int = 1,
    weights: WeightConfig | None = None,
    last_index_contiguous: bool = True,
) -> Fraction:
    """Exhaustive minimum of the recursion-1 objective over the coefficient box."""
    system = first_recursion_system(nest, r_space, weights, last_index_contiguous)
    return brute_force_minimum(system, bound)


def brute_force_minimum(system: ConstraintSystem, bound: int = 1) -> Fraction:
    """Exhaustive minimum of a system's objective over the coefficient box.

    Enumerates every assignment of the full extended vector (no pruning, no
    shared search code with the solver), so it certifies solver optimality.
    """
    m = system.layout.size
    if m > ORACLE_MAX_VARS:
        raise ValueError(f"oracle cap exceeded: extended vector has {m} > {ORACLE_MAX_VARS} entries")

    scale = lcm(*[c.weight.denominator for c in system.columns]) if system.columns else 1
    coeff = np.array([c.coeffs for c in system.columns], dtype=np.int64).T if system.columns else np.zeros((m, 0), dtype=np.int64)
    w_int = np.array([int(c.weight * scale) for c in system.columns], dtype=np.int64)
    is_geq = np.array([c.sense == GEQ0 for c in system.columns], dtype=bool)
    assert all(c.sense in (GEQ0, ABS) for c in system.columns)

    witness_mats = []
    for sid in system.layout.statement_ids:
        if sid in system.witnesses:
            witness_mats.append(
                np.array([w.s_tilde for w in system.witnesses[sid]], dtype=np.int64).T
            )

    vals = np.arange(-bound, bound + 1, dtype=np.int64)
    tail = min(m, 10)
    head = m - tail
    tail_grid = np.array(
        list(itertools.product(vals.tolist(), repeat=tail)), dtype=np.int64
    )
    best = None
    for prefix in itertools.product(vals.tolist(), repeat=head):
        x = np.empty((tail_grid.shape[0], m), dtype=np.int64)
        if head:
            x[:, :head] = np.array(prefix, dtype=np.int64)
        x[:, head:] = tail_grid
        values = x @ coeff  # rows x ncols
        feasible = np.ones(x.shape[0], dtype=bool)
        if is_geq.any():
            feasible &= (values[:, is_geq] >= 0).all(axis=1)
        for smat in witness_mats:
            feasible &= (np.abs(x @ smat) >= 1).any(axis=1)
        if not feasible.any():
            continue
        contrib = np.where(is_geq, values, np.abs(values))
        obj = contrib[feasible] @ w_int
        cand = int(obj.min())
        if best is None or cand < best:
            best = cand
    if best is None:
        raise InfeasibleError(f"oracle found no feasible assignment at bound {bound}")
    return Fraction(best, scale)
