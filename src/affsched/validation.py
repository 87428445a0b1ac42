"""Independent desk-scale verification of a transform plan.

Everything here works by enumerating iteration domains at concrete
parameter values and evaluating schedules and placements directly, without
going through the constraint columns, so it can certify the constraint
machinery rather than echo it.  `validate` holds each statement's
operations as two int64 arrays, built once per size: its enumerated points,
one per row, and their schedule vectors.  Source points, array indices and
owners are matrix products over such arrays, and the legality,
communication/reuse, row-locality and broadcast checks work on whole
arrays; each access's index image and each schedule prefix's ranks are
also built once per size.  Each product is bounded in Python ints first:
one whose entries could reach 2**62 raises `EnumerationError` instead of
wrapping around.  Rows (elements, reuse keys, schedule prefixes) are
ranked by `_distinct_rows`, which packs each row into one int64 key, first
column most significant, and sorts the keys once.
Also hosts the exhaustive solver oracle.  This is the only module that
imports numpy: the package loads it on the first use of `validate` or
`enumerate_domain`, so planning and reporting never pay for it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .algebra import dot, rank
from .comm import comm_report
from .constraints import (
    ABS,
    GEQ0,
    ConstraintSystem,
    ExtendedLayout,
    locality_depth,
)
from .nest import Domain, EnumerationError, LoopNest
from .procedure import (
    TransformPlan,
    WeightConfig,
    build_recursion_system,
    initial_sets,
)
# no caller here: perfbench's tracer patches these bindings (tests/test_bench_bindings.py)
from .procedure import placement_of, schedule_of  # noqa: F401
from .solver import InfeasibleError

DEFAULT_ENUM_CAP = 10**6

# bound on every coordinate the validator holds in int64: the difference of
# two such values still fits
INT64_SAFE = 1 << 62


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


def claimed_locality_depth(plan: TransformPlan, acc) -> int | None:
    """Schedule prefix length after which the access is row-confined, or None.

    Reads the plan's schedule rows under the access's `row_rule`, the one
    the procedure optimised for.
    """
    if acc.row_rule is None:
        return None
    return locality_depth(plan.statements[acc.statement].schedule, acc.row_rule)


def enumerate_domain(domain: Domain, n_vals) -> np.ndarray:
    """All integer points of a box domain at concrete parameters, lex order.

    Returns an int64 array of shape (points, dim), one point per row.
    """
    lows, extents = [], []
    total = 1
    for a, b in domain.bounds_at(n_vals):
        if b < a:
            raise EnumerationError(f"empty domain at N={tuple(n_vals)}: [{a}..{b}]")
        total *= b - a + 1
        if total > DEFAULT_ENUM_CAP:
            raise EnumerationError(f"domain has more than {DEFAULT_ENUM_CAP} points")
        if max(-a, b) >= INT64_SAFE:
            raise EnumerationError(f"domain bound beyond 2**62 at N={tuple(n_vals)}: [{a}..{b}]")
        lows.append(a)
        extents.append(b - a + 1)
    grid = np.indices(extents, dtype=np.int64).reshape(len(extents), total)
    return grid.T + np.array(lows, dtype=np.int64)


def _affine(points: np.ndarray, coeffs, params, const, n_vals) -> np.ndarray:
    """`coeffs·p + params·N + const` for every row p of `points`, in int64.

    `coeffs` and `params` are int rows, one per entry of the image; a matrix
    without rows maps every point to the empty vector.  Every entry is
    bounded in Python ints first; where one could reach 2**62 this raises
    EnumerationError rather than let int64 wrap around.
    """
    offset = [c + dot(q, n_vals) for c, q in zip(const, params)]
    reach = max(int(np.abs(points).max(initial=0)), 1)
    for row, off in zip(coeffs, offset):
        if sum(map(abs, row)) * reach + abs(off) >= INT64_SAFE:
            raise EnumerationError(
                f"affine image at N={tuple(n_vals)} may reach 2**62, "
                "beyond what the validator holds in int64"
            )
    mat = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), points.shape[1])
    return points @ mat.T + np.array(offset, dtype=np.int64)


def _inside(domain: Domain, points: np.ndarray, n_vals) -> np.ndarray:
    """Mask of the rows of `points` that lie in the box `domain`."""
    lo, hi = np.array(domain.bounds_at(n_vals), dtype=np.int64).reshape(-1, 2).T
    return ((points >= lo) & (points <= hi)).all(axis=1)


def _lex_sign(diff: np.ndarray) -> np.ndarray:
    """Per row, the sign of its first nonzero entry; 0 for a zero row."""
    first = (diff != 0).argmax(axis=1)
    return np.sign(diff[np.arange(len(diff)), first])


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per entry, the rank of its value among the distinct values; and per
    distinct value, in rank order, the index of its first occurrence."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks, order[new]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the lexicographic rank of its value among the distinct rows;
    and per distinct row, in rank order, the index of its first occurrence.

    The columns are packed into one int64 key per row, first column most
    significant: each column with values in [lo, lo + width) folds in as
    `key * width + (col - lo)`.  Where that would carry a key to 2**62, the
    keys are first replaced by their dense ranks, and a column still too
    wide by its own ranks.  Either keeps the rows' order, so ranking the
    keys ranks the rows.
    """
    key = np.zeros(len(rows), dtype=np.int64)
    if not len(rows):
        return key, key
    span = 1  # every key lies in [0, span); while it is 1, every key is 0
    for col in rows.T:
        lo = int(col.min())
        width = int(col.max()) - lo + 1
        if width == 1:
            continue
        if span * width >= INT64_SAFE:
            key, first = _dense_rank(key)
            span = len(first)
            if span * width >= INT64_SAFE:
                col, first = _dense_rank(col)
                lo, width = 0, len(first)
        key = col - lo if span == 1 else key * width + (col - lo)
        span *= width
    return _dense_rank(key)


def _pairs(di: int, sources: np.ndarray, targets: np.ndarray, mask) -> list[tuple]:
    return [
        ((di,), tuple(s), tuple(t))
        for s, t in zip(sources[mask].tolist(), targets[mask].tolist())
    ]


def validate(nest: LoopNest, plan: TransformPlan, n_vals) -> ValidationReport:
    """Brute-force re-check of every claim a plan makes, at concrete parameters."""
    names = nest.outer_vars.names
    n_vals = tuple(n_vals)
    if len(n_vals) != len(names):
        raise ValueError(
            f"{len(n_vals)} parameter values {n_vals} for the {len(names)} parameters {names}"
        )
    for name, v in zip(names, n_vals):
        if isinstance(v, bool):  # an int subclass, so operator.index would read it as 0 or 1
            raise ValueError(f"value {v!r} of parameter {name!r} is not an int")
    # a float, string or Fraction raises TypeError rather than be truncated;
    # numpy ints become Python ints
    n_vals = tuple(map(operator.index, n_vals))
    minima = nest.outer_vars.minima
    if any(v < m for v, m in zip(n_vals, minima)):
        raise ValueError(f"parameter values {n_vals} below declared minima {minima}")
    report = ValidationReport(n_vals=n_vals)
    r = plan.r_space
    tables: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    images: dict[tuple, np.ndarray] = {}
    prefixes: dict[tuple[str, int], np.ndarray] = {}

    def schedule(sid, points):
        st = plan.statements[sid]
        return _affine(points, st.schedule, st.param, st.const, n_vals)

    def ops(sid) -> tuple[np.ndarray, np.ndarray]:
        """(points, schedule vectors) of every operation of `sid`, built once."""
        if sid not in tables:
            points = enumerate_domain(nest.statement(sid).domain, n_vals)
            tables[sid] = points, schedule(sid, points)
        return tables[sid]

    def image(acc) -> np.ndarray:
        """The element `acc` touches at every operation of its statement, built once."""
        if acc.key not in images:
            images[acc.key] = _affine(ops(acc.statement)[0], acc.iter_coeffs,
                                      acc.param_coeffs, acc.offset, n_vals)
        return images[acc.key]

    for sid, st in plan.statements.items():
        depth = nest.statement(sid).depth
        if rank(st.schedule) != depth:
            report.rank_failures.append(
                f"statement {sid!r}: schedule rank {rank(st.schedule)} != depth {depth}"
            )

    for di, dep in enumerate(nest.dependences):
        if dep.kind == "in":
            continue
        targets = enumerate_domain(dep.domain, n_vals)
        # build both tables first: a statement that cannot be enumerated raises here
        ops(dep.target)
        ops(dep.source)
        sources = _affine(targets, dep.source_map, dep.param_map, [-h for h in dep.shift], n_vals)
        inside_t = _inside(nest.statement(dep.target).domain, targets, n_vals)
        inside = inside_t & _inside(nest.statement(dep.source).domain, sources, n_vals)
        if not inside.all():
            # a dependence domain that leaves the box at this N: say where
            i = int(inside.argmin())
            sid, point = (dep.target, targets[i]) if not inside_t[i] else (dep.source, sources[i])
            raise ValueError(f"point {tuple(point.tolist())} outside domain of {sid!r}")
        sign = _lex_sign(schedule(dep.target, targets) - schedule(dep.source, sources))
        if nest.textually_ordered(dep):
            report.legality_violations += _pairs(di, sources, targets, sign < 0)
            report.lex_equal_warnings += _pairs(di, sources, targets, sign == 0)
        else:
            report.legality_violations += _pairs(di, sources, targets, sign <= 0)

    # a reuse key is (array, element, consumer) over every read of the
    # array; keys hold the array's number and its element padded to one width
    keys, times = [], []
    width = max((a.dim for a in nest.arrays), default=0)
    for acc in nest.accesses:
        if acc.kind != "read":
            continue
        points, sched = ops(acc.statement)
        elems = image(acc)
        al = plan.arrays[acc.array]
        owners = _affine(elems, al.placement, al.param, al.const, n_vals)
        moved = (owners != sched[:, :r]).any(axis=1)
        report.comm_by_access[acc.key] = len(_distinct_rows(np.hstack([elems, sched])[moved])[1])
        array_no = np.full((len(points), 1), nest.arrays.index(nest.array(acc.array)))
        padding = np.zeros((len(points), width - elems.shape[1]), dtype=np.int64)
        keys.append(np.hstack([array_no, elems, padding, sched[:, :r]]))
        times.append(sched[:, r:])
    report.comm_count = sum(report.comm_by_access.values())
    if keys:
        key, first = _distinct_rows(np.concatenate(keys))
        pair_first = _distinct_rows(np.column_stack([key, np.concatenate(times)]))[1]
        # distinct times per key, keys in order of first appearance
        counts = np.bincount(key[pair_first])[np.argsort(first)]
        values, first_count, n = np.unique(counts, return_index=True, return_counts=True)
        for i in np.argsort(first_count):
            report.reuse_histogram[int(values[i])] = int(n[i])

    for acc in nest.accesses:
        depth_claim = claimed_locality_depth(plan, acc)
        if depth_claim is None:
            continue
        prefix_key = acc.statement, depth_claim
        if prefix_key not in prefixes:
            prefixes[prefix_key] = _distinct_rows(ops(acc.statement)[1][:, :depth_claim])[0]
        prefix = prefixes[prefix_key]
        rest = image(acc)[:, :-1]  # the row: every index but the contiguous last
        first = _distinct_rows(np.column_stack([prefix, rest]))[1]
        report.row_locality[acc.key] = {
            "claimed_depth": depth_claim, "metric": int(np.bincount(prefix[first]).max())
        }

    for entry in comm_report(plan, nest)["broadcasts"]:
        if entry["eligible"]:
            acc = nest.access(tuple(entry["access"]))
            report.broadcast_checks[acc.key] = _check_broadcast(
                nest, acc, entry["kernel_basis"], r, ops, image, n_vals
            )

    return report


def _check_broadcast(nest: LoopNest, acc, kernel, r: int, ops, image, n_vals) -> dict:
    """Enumerated broadcast conditions of one read, from the operation tables
    `ops` and the index images `image`.

    For each element read: every reading operation runs at one time
    (time_uniform); some reading operation stays in the domain when moved
    along every kernel vector (nondegenerate); and at most one write of the
    element runs before the earliest read (single_writer_ok).  Elements and
    times of the reads and of every write of the array are ranked together.
    """
    points, sched = ops(acc.statement)
    elems, times = [image(acc)], [sched[:, r:]]
    for w in nest.accesses:
        if w.array == acc.array and w.kind == "write":
            elems.append(image(w))
            times.append(ops(w.statement)[1][:, r:])
    elem = _distinct_rows(np.concatenate(elems))[0]
    when = _distinct_rows(np.concatenate(times))[0]
    n_reads, n_elems = len(points), int(elem.max()) + 1
    read_elem, write_elem = elem[:n_reads], elem[n_reads:]
    earliest = np.full(n_elems, len(when))
    latest = np.full(n_elems, -1)
    np.minimum.at(earliest, read_elem, when[:n_reads])
    np.maximum.at(latest, read_elem, when[:n_reads])
    read = latest >= 0

    time_uniform = bool((earliest == latest)[read].all())
    depth = points.shape[1]
    identity = [[int(i == j) for j in range(depth)] for i in range(depth)]
    zero = [[0] * len(n_vals)] * depth
    domain = nest.statement(acc.statement).domain
    stays = np.ones(n_reads, dtype=bool)
    for u in kernel:
        shifted = _affine(points, identity, zero, u, n_vals)
        stays &= _inside(domain, shifted, n_vals)
    kept = np.zeros(n_elems, dtype=bool)
    kept[read_elem[stays]] = True
    nondegenerate = bool(kept[read].all())
    early = read[write_elem] & (when[n_reads:] < earliest[write_elem])
    single_writer_ok = bool(np.bincount(write_elem[early], minlength=n_elems).max() <= 1)
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
):
    """The optimization system of recursion 1 with all sets at their initial value."""
    return build_recursion_system(
        nest, ExtendedLayout.for_nest(nest), [], r_space, weights or WeightConfig(),
        *initial_sets(nest),
    )


def brute_force_best_alignment(
    nest: LoopNest,
    r_space: int,
    bound: int = 1,
    weights: WeightConfig | None = None,
) -> Fraction:
    """Exhaustive minimum of the recursion-1 objective over the coefficient box."""
    system = first_recursion_system(nest, r_space, weights)
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
