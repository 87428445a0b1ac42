"""Constraint columns over the extended coefficient vector of one recursion.

For recursion xi the unknowns are, in fixed block order: the schedule row of
every statement, the allocation row of every array, the parameter rows b and
z, and the constant terms a and y.  Every legality, alignment and locality
requirement becomes a linear form over that vector, kept as an explicit
integer column so the solver and the diagnostics can evaluate it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import IntMatrix, IntVector, integer_kernel_basis, rank
from .nest import Access, Dependence, LoopNest, vertices

GEQ0 = "geq0"
ABS = "abs"

FAMILIES = (
    "legality-const",
    "legality-param",
    "align-F",
    "align-G",
    "align-f",
    "space-loc",
)


@dataclass(frozen=True)
class ExtendedLayout:
    """Offset map for the blocks of the extended coefficient vector.

    The blocks are laid out once, in `__post_init__`, as `spans`: a table
    from (kind, id) to the half-open range the block occupies.  Kinds are
    `tau`, `b` and `a` per statement, `eta`, `z` and `y` per array.
    """

    statement_ids: tuple[str, ...]
    array_ids: tuple[str, ...]
    depths: tuple[int, ...]
    array_dims: tuple[int, ...]
    n_params: int
    size: int = field(init=False)
    spans: dict = field(init=False, repr=False, compare=False)  # (kind, id) -> range

    def __post_init__(self):
        spans = {}
        stop = 0
        for kind, ids, widths in (
            ("tau", self.statement_ids, self.depths),
            ("eta", self.array_ids, self.array_dims),
            ("b", self.statement_ids, [self.n_params] * len(self.statement_ids)),
            ("z", self.array_ids, [self.n_params] * len(self.array_ids)),
            ("a", self.statement_ids, [1] * len(self.statement_ids)),
            ("y", self.array_ids, [1] * len(self.array_ids)),
        ):
            for key, width in zip(ids, widths):
                spans[kind, key] = (stop, stop + width)
                stop += width
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "size", stop)

    @staticmethod
    def for_nest(nest: LoopNest) -> "ExtendedLayout":
        return ExtendedLayout(
            tuple(s.id for s in nest.statements),
            tuple(a.id for a in nest.arrays),
            tuple(s.depth for s in nest.statements),
            tuple(a.dim for a in nest.arrays),
            nest.outer_vars.count,
        )

    def tau_offset(self, sid: str) -> int:
        return self.spans["tau", sid][0]

    def eta_offset(self, aid: str) -> int:
        return self.spans["eta", aid][0]

    def b_offset(self, sid: str) -> int:
        return self.spans["b", sid][0]

    def z_offset(self, aid: str) -> int:
        return self.spans["z", aid][0]

    def a_offset(self, sid: str) -> int:
        return self.spans["a", sid][0]

    def y_offset(self, aid: str) -> int:
        return self.spans["y", aid][0]

    def block(self, x, kind: str, key: str) -> IntVector:
        """The entries of one block of the vector `x`."""
        start, stop = self.spans[kind, key]
        return IntVector(x[start:stop])

    def tau_block(self, x, sid: str) -> IntVector:
        return self.block(x, "tau", sid)

    def eta_block(self, x, aid: str) -> IntVector:
        return self.block(x, "eta", aid)

    def b_block(self, x, sid: str) -> IntVector:
        return self.block(x, "b", sid)

    def z_block(self, x, aid: str) -> IntVector:
        return self.block(x, "z", aid)

    def a_value(self, x, sid: str) -> int:
        return x[self.a_offset(sid)]

    def y_value(self, x, aid: str) -> int:
        return x[self.y_offset(aid)]


@dataclass(frozen=True)
class ConstraintColumn:
    coeffs: tuple[int, ...]
    sense: str  # GEQ0 | ABS
    family: str
    group: tuple  # drop-rule / bookkeeping group, e.g. ("dep", i) or ("acc", key)
    label: str
    weight: Fraction

    def value(self, x) -> int:
        return sum(c * v for c, v in zip(self.coeffs, x) if c)

    def slack(self, x) -> int:
        v = self.value(x)
        return abs(v) if self.sense == ABS else v


@dataclass(frozen=True)
class RankWitness:
    statement: str
    s: IntVector  # nonzero kernel vector of the accumulated schedule rows
    s_tilde: tuple[int, ...]  # s embedded at the statement's schedule block


@dataclass
class ConstraintSystem:
    layout: ExtendedLayout
    columns: list[ConstraintColumn]
    witnesses: dict[str, list[RankWitness]]  # statement id -> candidates


class _ColumnBuilder:
    def __init__(self, layout: ExtendedLayout):
        self.layout = layout
        self.coeffs = [0] * layout.size

    def add(self, offset: int, vec):
        for i, v in enumerate(vec):
            self.coeffs[offset + i] += v

    def add_at(self, index: int, v: int):
        self.coeffs[index] += v

    def build(self, sense, family, group, label, weight) -> ConstraintColumn:
        return ConstraintColumn(tuple(self.coeffs), sense, family, group, label, weight)


def build_legality_columns(
    dep: Dependence,
    dep_index: int,
    nest: LoopNest,
    layout: ExtendedLayout,
    weight: Fraction = Fraction(1),
) -> list[ConstraintColumn]:
    """Columns making t_xi(target) - t_xi(source) nonnegative on a dependence.

    One constant column per domain vertex plus one column per vertex and
    outer variable.  The sense is `geq0` for flow/anti/out dependences and
    `abs` (slack to be minimized) for in-dependences.
    """
    sense = ABS if dep.kind == "in" else GEQ0
    n0 = nest.outer_vars.minima
    e = nest.outer_vars.count
    group = ("dep", dep_index)
    cols = []
    for m, (r_mat, omega) in enumerate(vertices(dep.domain)):
        corner = r_mat.matvec(n0) + omega  # vertex at smallest parameters
        cb = _ColumnBuilder(layout)
        cb.add(layout.tau_offset(dep.target), corner)
        cb.add(
            layout.tau_offset(dep.source),
            -dep.source_map.matvec(corner) - dep.param_map.matvec(n0) + dep.shift,
        )
        cb.add(layout.b_offset(dep.target), n0)
        cb.add(layout.b_offset(dep.source), -n0)
        cb.add_at(layout.a_offset(dep.target), 1)
        cb.add_at(layout.a_offset(dep.source), -1)
        cols.append(
            cb.build(sense, "legality-const", group, f"dep{dep_index}.v{m}", weight)
        )
        for j in range(e):
            cb = _ColumnBuilder(layout)
            cb.add(layout.tau_offset(dep.target), r_mat.col(j))
            cb.add(
                layout.tau_offset(dep.source),
                -dep.source_map.matvec(r_mat.col(j)) - dep.param_map.col(j),
            )
            cb.add_at(layout.b_offset(dep.target) + j, 1)
            cb.add_at(layout.b_offset(dep.source) + j, -1)
            cols.append(
                cb.build(sense, "legality-param", group, f"dep{dep_index}.v{m}.N{j}", weight)
            )
    return cols


def build_alignment_columns(
    acc: Access,
    nest: LoopNest,
    layout: ExtendedLayout,
    weight_f_mat: Fraction = Fraction(1),
    weight_g_mat: Fraction = Fraction(1),
    weight_offset: Fraction = Fraction(1),
) -> list[ConstraintColumn]:
    """Communication-free allocation columns for one access (abs slacks)."""
    stmt = nest.statement(acc.statement)
    e = nest.outer_vars.count
    group = ("acc", acc.key)
    tag = f"{acc.array}.{acc.statement}.q{acc.slot}"
    cols = []
    for i in range(stmt.depth):
        cb = _ColumnBuilder(layout)
        cb.add_at(layout.tau_offset(acc.statement) + i, 1)
        cb.add(layout.eta_offset(acc.array), -acc.iter_coeffs.col(i))
        cols.append(cb.build(ABS, "align-F", group, f"align-F.{tag}.{i}", weight_f_mat))
    for j in range(e):
        cb = _ColumnBuilder(layout)
        cb.add_at(layout.b_offset(acc.statement) + j, 1)
        cb.add(layout.eta_offset(acc.array), -acc.param_coeffs.col(j))
        cb.add_at(layout.z_offset(acc.array) + j, -1)
        cols.append(cb.build(ABS, "align-G", group, f"align-G.{tag}.{j}", weight_g_mat))
    cb = _ColumnBuilder(layout)
    cb.add_at(layout.a_offset(acc.statement), 1)
    cb.add(layout.eta_offset(acc.array), -acc.offset)
    cb.add_at(layout.y_offset(acc.array), -1)
    cols.append(cb.build(ABS, "align-f", group, f"align-f.{tag}", weight_offset))
    return cols


def truncated_access_matrix(acc: Access, last_index_contiguous: bool = True) -> IntMatrix:
    """Access matrix with the contiguous-index row removed."""
    drop = acc.iter_coeffs.nrows - 1 if last_index_contiguous else 0
    return acc.iter_coeffs.drop_row(drop)


def locality_kernel(acc: Access, last_index_contiguous: bool = True) -> list[IntVector]:
    return integer_kernel_basis(truncated_access_matrix(acc, last_index_contiguous))


def locality_target(
    acc: Access, nest: LoopNest, last_index_contiguous: bool = True
) -> int | None:
    """Rank the row-confined schedule rows of an access must reach, or None.

    The one row-locality rule: a 2+-dimensional array whose truncated access
    matrix has rank strictly between 0 (one row whatever the schedule) and
    the statement depth (never confined).
    """
    if nest.array(acc.array).dim < 2:
        return None
    target = rank(truncated_access_matrix(acc, last_index_contiguous))
    return target if 0 < target < nest.statement(acc.statement).depth else None


def locality_depth(rows, kernel, target: int) -> int | None:
    """Level (1-based) at which the rows constant along `kernel` reach rank `target`.

    None if they never do.
    """
    kept = []
    for level, tau in enumerate(rows, 1):
        if all(sum(t * d for t, d in zip(tau, u)) == 0 for u in kernel):
            kept.append(tau)
            if rank(IntMatrix.from_rows(kept)) == target:
                return level
    return None


def build_space_locality_columns(
    acc: Access,
    nest: LoopNest,
    layout: ExtendedLayout,
    weight: Fraction = Fraction(1),
    last_index_contiguous: bool = True,
) -> list[ConstraintColumn]:
    """Row-locality columns for one access, one per locality kernel vector.

    Accesses without a `locality_target` contribute nothing.
    """
    if locality_target(acc, nest, last_index_contiguous) is None:
        return []
    group = ("acc", acc.key)
    tag = f"{acc.array}.{acc.statement}.q{acc.slot}"
    cols = []
    for g, d in enumerate(locality_kernel(acc, last_index_contiguous)):
        cb = _ColumnBuilder(layout)
        cb.add(layout.tau_offset(acc.statement), d)
        cols.append(cb.build(ABS, "space-loc", group, f"space.{tag}.{g}", weight))
    return cols


def rank_witnesses(
    accumulated_rows: dict[str, list[IntVector]],
    l_set,
    layout: ExtendedLayout,
) -> dict[str, list[RankWitness]]:
    """Candidate rank-growth witnesses per statement that must grow this turn.

    Candidates are the integer kernel basis of the rows accumulated so far
    (all unit vectors on the first recursion).  Forcing the new schedule row
    to have nonzero product with any kernel vector grows the rank by one.
    """
    out: dict[str, list[RankWitness]] = {}
    for sid in l_set:
        start, stop = layout.spans["tau", sid]
        basis = integer_kernel_basis(
            IntMatrix.from_rows(accumulated_rows.get(sid, []), stop - start)
        )
        if not basis:
            raise ValueError(f"statement {sid!r}: accumulated rows already have full rank")
        out[sid] = [
            RankWitness(sid, s, (0,) * start + tuple(s) + (0,) * (layout.size - stop))
            for s in basis
        ]
    return out
