"""Constraint columns over the extended coefficient vector of one recursion.

For recursion xi the unknowns are, in fixed block order: the schedule row of
every statement, the allocation row of every array, the parameter rows b and
z, and the constant terms a and y.  Every legality, alignment and locality
requirement becomes a linear form over that vector, kept as an explicit
integer column so the solver and the diagnostics can evaluate it exactly;
each column also carries its nonzero terms, which evaluation and the
solver's set-up read.  A legality form that several vertices share is one
column, weighted by their number.  The layout is the same in every
recursion, so a column does not depend on the recursion: the procedure
builds each family once per run and selects the active ones per recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import dot, integer_kernel_basis, rank
from .nest import Access, Dependence, LoopNest

GEQ0 = "geq0"
ABS = "abs"


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

    def offset(self, kind: str, key: str) -> int:
        """Where the block of `kind` for `key` starts."""
        return self.spans[kind, key][0]

    def block(self, x, kind: str, key: str) -> tuple[int, ...]:
        """The entries of one block of the vector `x`."""
        start, stop = self.spans[kind, key]
        return tuple(x[start:stop])


@dataclass(frozen=True)
class ConstraintColumn:
    coeffs: tuple[int, ...]
    sense: str  # GEQ0 | ABS
    family: str
    label: str
    weight: Fraction
    # the nonzero (index, coefficient) pairs of `coeffs`, in index order
    terms: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple([(i, c) for i, c in enumerate(self.coeffs) if c]))

    def value(self, x) -> int:
        return sum(c * x[i] for i, c in self.terms)

    def slack(self, x) -> int:
        v = self.value(x)
        return abs(v) if self.sense == ABS else v


@dataclass(frozen=True)
class RankWitness:
    s: tuple[int, ...]  # nonzero kernel vector of the accumulated schedule rows
    s_tilde: tuple[int, ...]  # s embedded at the statement's schedule block


@dataclass
class ConstraintSystem:
    layout: ExtendedLayout
    columns: list[ConstraintColumn]
    witnesses: dict[str, list[RankWitness]]  # statement id -> candidates


def _add(coeffs: list, parts) -> list:
    """Add `parts`, (offset, entries) pairs, to the dense `coeffs` in place."""
    for start, entries in parts:
        for i, v in enumerate(entries, start):
            coeffs[i] += v
    return coeffs


def _column(layout, parts, sense, family, label, weight) -> ConstraintColumn:
    """A column whose coefficients are the sum of `parts`, (offset, entries) pairs."""
    return ConstraintColumn(tuple(_add([0] * layout.size, parts)), sense, family, label, weight)


def build_legality_columns(
    dep: Dependence,
    dep_index: int,
    nest: LoopNest,
    layout: ExtendedLayout,
    weight: Fraction = Fraction(1),
) -> list[ConstraintColumn]:
    """Columns making t_xi(target) - t_xi(source) nonnegative on a dependence.

    Every domain vertex gives a constant form, and every vertex and outer
    variable a parameter form.  Each distinct (family, form) is one column,
    in order of first occurrence, labelled by its first vertex and weighted
    `weight` times the number of forms it stands for.  A zero parameter form
    (all of a uniform dependence's) gets no column; a zero constant form
    keeps one, whose value 0 keeps the procedure from dropping the
    dependence.  The sense is `geq0` for flow/anti/out dependences and
    `abs` (slack to be minimized) for in-dependences.
    """
    sense = ABS if dep.kind == "in" else GEQ0
    n0 = nest.outer_vars.minima
    tau_t, tau_s = layout.offset("tau", dep.target), layout.offset("tau", dep.source)
    b_t, b_s = layout.offset("b", dep.target), layout.offset("b", dep.source)
    phi, psi = dep.source_map, dep.param_map
    # source-side constant of every vertex: shift - Psi·N^(0)
    base = [h - dot(q, n0) for h, q in zip(dep.shift, psi)]
    # the b and a entries, the same in every constant column and, per outer
    # variable, in every parameter column
    const = _add([0] * layout.size, [
        (b_t, n0), (b_s, [-v for v in n0]),
        (layout.offset("a", dep.target), (1,)), (layout.offset("a", dep.source), (-1,)),
    ])
    params = [_add([0] * layout.size, [(b_t + j, (1,)), (b_s + j, (-1,))]) for j in range(len(n0))]
    forms = {}  # (family, coeffs) -> [label of its first vertex, number of forms]

    def add(family, coeffs, label):
        forms.setdefault((family, tuple(coeffs)), [label, 0])[1] += 1

    for m, (r_rows, omega) in enumerate(dep.domain.vertices):
        corner = [dot(r, n0) + w for r, w in zip(r_rows, omega)]  # vertex at N^(0)
        add("legality-const",
            _add(const[:], [(tau_t, corner),
                            (tau_s, [c - dot(p, corner) for p, c in zip(phi, base)])]),
            f"dep{dep_index}.v{m}")
        for j, fixed in enumerate(params):
            r_col = [r[j] for r in r_rows]
            coeffs = _add(fixed[:], [(tau_t, r_col),
                                     (tau_s, [-dot(p, r_col) - q[j] for p, q in zip(phi, psi)])])
            if any(coeffs):
                add("legality-param", coeffs, f"dep{dep_index}.v{m}.N{j}")
    return [ConstraintColumn(coeffs, sense, family, label, weight * count)
            for (family, coeffs), (label, count) in forms.items()]


def build_alignment_columns(
    acc: Access,
    nest: LoopNest,
    layout: ExtendedLayout,
    weight_f_mat: Fraction = Fraction(1),
    weight_g_mat: Fraction = Fraction(1),
    weight_offset: Fraction = Fraction(1),
) -> list[ConstraintColumn]:
    """Communication-free allocation columns for one access (abs slacks)."""
    tag = f"{acc.array}.{acc.statement}.q{acc.slot}"
    eta = layout.offset("eta", acc.array)
    tau, b = layout.offset("tau", acc.statement), layout.offset("b", acc.statement)
    cols = [
        _column(layout, [(tau + i, (1,)), (eta, [-r[i] for r in acc.iter_coeffs])],
                ABS, "align-F", f"align-F.{tag}.{i}", weight_f_mat)
        for i in range(nest.statement(acc.statement).depth)
    ]
    z = layout.offset("z", acc.array)
    cols += [
        _column(layout, [(b + j, (1,)), (eta, [-r[j] for r in acc.param_coeffs]),
                         (z + j, (-1,))],
                ABS, "align-G", f"align-G.{tag}.{j}", weight_g_mat)
        for j in range(nest.outer_vars.count)
    ]
    parts = [(layout.offset("a", acc.statement), (1,)), (eta, [-v for v in acc.offset]),
             (layout.offset("y", acc.array), (-1,))]
    cols.append(_column(layout, parts, ABS, "align-f", f"align-f.{tag}", weight_offset))
    return cols


def locality_depth(rows, rule: tuple[int, tuple[tuple[int, ...], ...]]) -> int | None:
    """Level (1-based) at which `rows` confine an access with `row_rule` `rule`.

    Counts only the rows constant along the rule's kernel; None if they never
    reach its target rank.
    """
    target, kernel = rule
    kept = []
    for level, tau in enumerate(rows, 1):
        if all(dot(tau, u) == 0 for u in kernel):
            kept.append(tau)
            # fewer rows than `target` cannot reach it
            if len(kept) >= target and rank(kept) == target:
                return level
    return None


def build_space_locality_columns(
    acc: Access,
    kernel: tuple[tuple[int, ...], ...],
    layout: ExtendedLayout,
    weight: Fraction = Fraction(1),
) -> list[ConstraintColumn]:
    """Row-locality columns for one access, one per vector of its `row_rule` kernel."""
    tag = f"{acc.array}.{acc.statement}.q{acc.slot}"
    tau = layout.offset("tau", acc.statement)
    return [
        _column(layout, [(tau, d)], ABS, "space-loc", f"space.{tag}.{g}", weight)
        for g, d in enumerate(kernel)
    ]


def rank_witnesses(
    accumulated_rows: dict[str, list[tuple[int, ...]]],
    levels_left: int,
    layout: ExtendedLayout,
) -> dict[str, list[RankWitness]]:
    """Candidate rank-growth witnesses per statement that must grow this turn.

    Candidates are the integer kernel basis of the rows accumulated so far
    (all unit vectors on the first recursion).  A statement must grow when
    its kernel has `levels_left` vectors, one per level still to come;
    forcing the new schedule row to have nonzero product with any kernel
    vector grows the rank by one.
    """
    out: dict[str, list[RankWitness]] = {}
    for sid in layout.statement_ids:
        start, stop = layout.spans["tau", sid]
        basis = integer_kernel_basis(accumulated_rows.get(sid, ()), stop - start)
        if len(basis) != levels_left:
            continue
        out[sid] = [
            RankWitness(s, (0,) * start + s + (0,) * (layout.size - stop))
            for s in basis
        ]
    return out
