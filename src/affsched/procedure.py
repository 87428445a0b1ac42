"""Recursive driver computing the full schedule and allocation transform.

Runs one recursion per transformed loop level.  The constraint columns of
every dependence and access are built once per run; each recursion selects
the active families from them, solves for the extended coefficient vector,
then updates the bookkeeping sets: strictly satisfied dependences stop
constraining later levels, accesses whose row-locality rank is reached stop
contributing locality columns, and statements whose schedule rank must still
grow are forced through the rank witnesses.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import dot, rank
from .constraints import (
    ConstraintSystem,
    ExtendedLayout,
    build_alignment_columns,
    build_legality_columns,
    build_space_locality_columns,
    locality_depth,
    rank_witnesses,
)
from .nest import LoopNest, contains_point, read_field, read_int, read_matrix, read_vector
from .solver import InfeasibleError, SolverConfig, SolverTimeout, solve


log = logging.getLogger("affsched")


class ProcedureError(RuntimeError):
    pass


# objective family (CLI and plan-file key) -> WeightConfig field, in
# serialization order
_FAMILY_FIELDS = (
    ("legality", "legality"),
    ("indep", "indep"),
    ("align-F", "align_f_mat"),
    ("align-G", "align_g_mat"),
    ("align-f", "align_offset"),
    ("space", "space"),
)


@dataclass(frozen=True)
class WeightConfig:
    """Family weights of the slack objective (all strictly positive)."""

    legality: Fraction = Fraction(1)
    indep: Fraction = Fraction(4)
    align_f_mat: Fraction = Fraction(64)
    align_g_mat: Fraction = Fraction(64)
    align_offset: Fraction = Fraction(64)
    space: Fraction = Fraction(2)

    @staticmethod
    def with_overrides(overrides: dict[str, Fraction] | None) -> "WeightConfig":
        kw = {}
        mapping = dict(_FAMILY_FIELDS)
        for key, val in (overrides or {}).items():
            if key not in mapping:
                raise ValueError(f"unknown weight family {key!r}")
            val = Fraction(val)
            if val <= 0:
                raise ValueError("weights must be strictly positive")
            kw[mapping[key]] = val
        return WeightConfig(**kw)

    def to_doc(self) -> dict:
        return {
            fam: [getattr(self, name).numerator, getattr(self, name).denominator]
            for fam, name in _FAMILY_FIELDS
        }

    @staticmethod
    def from_doc(doc: dict) -> "WeightConfig":
        """Every family is required; a key that names none is rejected."""
        mapping = dict(_FAMILY_FIELDS)
        for key in doc:
            if key not in mapping:
                raise ValueError(f"plan weights, field {key!r} names no weight family")
        kw = {}
        for fam, name in _FAMILY_FIELDS:
            kw[name] = _fraction(doc, fam, "plan weights", f"plan weight {fam!r}")
            if kw[name] <= 0:
                raise ValueError(
                    f"plan weights, field {fam!r}: {kw[name]} is not strictly positive"
                )
        return WeightConfig(**kw)


def _fraction(obj, key: str, where: str, what: str) -> Fraction:
    """Field `key` of `obj`, a [numerator, denominator] pair."""
    num, den = read_vector(obj, key, 2, where)
    if den == 0:
        raise ValueError(f"{what} has denominator 0")
    return Fraction(num, den)


@dataclass(frozen=True)
class StatementTransform:
    schedule: tuple[tuple[int, ...], ...]  # n x depth rows of schedule coefficients
    param: tuple[tuple[int, ...], ...]  # n x e
    const: tuple[int, ...]  # length n


@dataclass(frozen=True)
class ArrayAllocation:
    placement: tuple[tuple[int, ...], ...]  # r_space x dim
    param: tuple[tuple[int, ...], ...]  # r_space x e
    const: tuple[int, ...]  # length r_space


@dataclass
class RecursionDiagnostics:
    xi: int
    objective: Fraction
    slacks: dict[str, int]
    witnesses: dict[str, tuple[tuple[int, ...], int]]
    active_dependences: list[int]
    active_in_dependences: list[int]
    dropped_dependences: list[int]
    dropped_in_dependences: list[int]
    active_space_accesses: list[tuple]


@dataclass
class TransformPlan:
    statements: dict[str, StatementTransform]
    arrays: dict[str, ArrayAllocation]
    r_space: int
    weights: WeightConfig
    diagnostics: list[RecursionDiagnostics] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def build_recursion_system(
    nest: LoopNest,
    layout: ExtendedLayout,
    xs,
    r_space: int,
    weights: WeightConfig,
    active_deps,
    active_in_deps,
    active_space: dict,
    table: dict | None = None,
) -> ConstraintSystem:
    """Assemble the optimization system of recursion len(xs) + 1.

    `xs` holds the solution vectors of the earlier recursions; the rank
    witnesses come from the schedule rows read off them.  `active_space`
    maps the key of each access not yet row-confined to its `row_rule`
    (target, kernel), in the order of `nest.accesses`; each kernel vector
    gives one locality column.  `table` holds the columns of one run, built
    on first use: per dependence its legality columns, per access its
    alignment and its locality columns.  Each recursion only selects the
    active families from it.
    """
    table = {} if table is None else table

    def family(key, build, *args):
        if key not in table:
            table[key] = build(*args)
        return table[key]

    columns = []
    for i in [*active_deps, *active_in_deps]:
        dep = nest.dependences[i]
        weight = weights.indep if dep.kind == "in" else weights.legality
        columns += family(("dep", i), build_legality_columns, dep, i, nest, layout, weight)
    if len(xs) < r_space:
        for acc in nest.accesses:
            columns += family(
                ("align", acc.key), build_alignment_columns, acc, nest, layout,
                weights.align_f_mat, weights.align_g_mat, weights.align_offset,
            )
    for key, (_, kernel) in active_space.items():
        columns += family(
            ("space", key), build_space_locality_columns,
            nest.access(key), kernel, layout, weights.space,
        )
    accumulated = {s.id: [layout.block(x, "tau", s.id) for x in xs] for s in nest.statements}
    witnesses = rank_witnesses(accumulated, nest.max_depth - len(xs), layout)
    return ConstraintSystem(layout, columns, witnesses)


def initial_sets(nest: LoopNest):
    """The bookkeeping sets before the first recursion.

    Returns the non-`in` dependences, the `in` dependences, and for every
    access with a `row_rule`, in the order of `nest.accesses`, its key
    mapped to that (target, kernel).
    """
    active_deps = [i for i, d in enumerate(nest.dependences) if d.kind != "in"]
    active_in_deps = [i for i, d in enumerate(nest.dependences) if d.kind == "in"]
    rules = {acc.key: acc.row_rule for acc in nest.accesses if acc.row_rule}
    return active_deps, active_in_deps, rules


def run_procedure(
    nest: LoopNest,
    r_space: int = 1,
    weights: WeightConfig | None = None,
    solver_cfg: SolverConfig | None = None,
) -> TransformPlan:
    """Execute all recursions and assemble the transform plan.

    The solution vector of each recursion is the one record kept: every
    schedule row, placement row and accumulated rank is read off `xs`
    through the layout.
    """
    n = nest.max_depth
    if not 0 <= r_space < n:
        raise ProcedureError(f"spatial dimension count must satisfy 0 <= r < {n}")
    weights = weights or WeightConfig()
    solver_cfg = solver_cfg or SolverConfig()
    layout = ExtendedLayout.for_nest(nest)

    active_deps, active_in_deps, active_space = initial_sets(nest)
    xs: list[tuple[int, ...]] = []
    table: dict = {}

    def rows(kind, key, upto=None):
        return tuple(layout.block(x, kind, key) for x in xs[:upto])

    diagnostics = []
    ever_positive: set[int] = set()  # dependences ever scheduled apart at some vertex

    for xi in range(1, n + 1):
        system = build_recursion_system(
            nest,
            layout,
            xs,
            r_space,
            weights,
            active_deps,
            active_in_deps,
            active_space,
            table,
        )
        try:
            sol = solve(system, solver_cfg)
        except InfeasibleError as exc:
            raise ProcedureError(
                f"recursion {xi} infeasible (active dependences {active_deps}, "
                f"in-dependences {active_in_deps}): {exc}"
            ) from exc
        except SolverTimeout as exc:
            raise SolverTimeout(f"recursion {xi}: {exc}") from exc
        witnesses = sol.witness_used
        log.debug(
            "recursion %d: objective %s after %d passes (final cap %s), %d nodes, "
            "%d rows (%d implied), witnesses %s",
            xi, sol.objective, sol.passes, sol.cap, sol.nodes, sol.rows, sol.implied_rows,
            witnesses,
        )
        x = sol.x
        xs.append(x)

        # per active dependence, the values at x of its constant forms
        const = {i: [col.value(x) for col in table["dep", i] if col.family == "legality-const"]
                 for i in active_deps + active_in_deps}

        dropped = [i for i in active_deps if xi > r_space and all(v >= 1 for v in const[i])]
        dropped_in = [i for i in active_in_deps if all(abs(v) >= 1 for v in const[i])]
        active_deps = [i for i in active_deps if i not in dropped]
        active_in_deps = [i for i in active_in_deps if i not in dropped_in]
        ever_positive.update(i for i in active_deps if any(const[i]))

        active_space = {
            key: rule
            for key, rule in active_space.items()
            if locality_depth(rows("tau", key[1]), rule) is None  # key[1]: the statement
        }

        diagnostics.append(
            RecursionDiagnostics(
                xi=xi,
                objective=sol.objective,
                slacks=sol.slacks,
                witnesses=witnesses,
                active_dependences=sorted(active_deps + dropped),
                active_in_dependences=sorted(active_in_deps + dropped_in),
                dropped_dependences=dropped,
                dropped_in_dependences=dropped_in,
                active_space_accesses=sorted(active_space),
            )
        )

    statements = {}
    for s in nest.statements:
        t_rows = rows("tau", s.id)
        if rank(t_rows) != s.depth:
            raise ProcedureError(
                f"statement {s.id!r}: final schedule rank {rank(t_rows)} < depth {s.depth}"
            )
        statements[s.id] = StatementTransform(
            t_rows, rows("b", s.id), tuple(x[layout.offset("a", s.id)] for x in xs)
        )
    arrays = {
        a.id: ArrayAllocation(
            rows("eta", a.id, r_space),
            rows("z", a.id, r_space),
            tuple(x[layout.offset("y", a.id)] for x in xs[:r_space]),
        )
        for a in nest.arrays
    }

    warnings = []
    for i in active_deps:
        if i not in ever_positive:
            d = nest.dependences[i]
            verdict = (
                "correctness relies on textual order"
                if nest.textually_ordered(d)
                else "textual order runs it backwards"
            )
            warnings.append(
                f"dependence #{i} ({d.source}->{d.target}, {d.kind}) is scheduled with "
                f"equal time vectors at every level; {verdict}"
            )

    return TransformPlan(statements, arrays, r_space, weights, diagnostics, warnings)


def schedule_of(plan: TransformPlan, nest: LoopNest, sid: str, point, n_vals) -> tuple[int, ...]:
    """Full transformed index vector of one operation.

    The first r_space entries are processor coordinates, the rest time.
    """
    st = plan.statements[sid]
    stmt = nest.statement(sid)
    if len(point) != stmt.depth:
        raise ValueError(f"point has {len(point)} entries, statement depth is {stmt.depth}")
    if stmt.domain.box is not None and not contains_point(stmt.domain, point, n_vals):
        raise ValueError(f"point {tuple(point)} outside domain of {sid!r}")
    return _affine_at(st.schedule, st.param, st.const, point, n_vals)


def placement_of(plan: TransformPlan, aid: str, index, n_vals) -> tuple[int, ...]:
    """Processor coordinates owning one array element (length r_space)."""
    al = plan.arrays[aid]
    if plan.r_space == 0:
        return ()
    if len(index) != len(al.placement[0]):
        raise ValueError(
            f"index has {len(index)} entries, array dimension is {len(al.placement[0])}"
        )
    return _affine_at(al.placement, al.param, al.const, index, n_vals)


def _affine_at(coeffs, params, const, point, n_vals) -> tuple[int, ...]:
    """`coeffs·point + params·n_vals + const`, one entry per row."""
    if params and len(n_vals) != len(params[0]):
        raise ValueError(f"{len(n_vals)} parameter values for {len(params[0])} outer variables")
    return tuple(dot(c, point) + dot(p, n_vals) + k for c, p, k in zip(coeffs, params, const))


# ---------------------------------------------------------------------------
# Plan (de)serialization
# ---------------------------------------------------------------------------


def plan_to_doc(plan: TransformPlan) -> dict:
    return {
        "r_space": plan.r_space,
        "statements": {
            sid: {
                "T": [list(r) for r in st.schedule],
                "B": [list(r) for r in st.param],
                "a": list(st.const),
            }
            for sid, st in plan.statements.items()
        },
        "arrays": {
            aid: {
                "H": [list(r) for r in al.placement],
                "Z": [list(r) for r in al.param],
                "y": list(al.const),
            }
            for aid, al in plan.arrays.items()
        },
        "weights": plan.weights.to_doc(),
        "diagnostics": [
            {
                "xi": d.xi,
                "objective": [d.objective.numerator, d.objective.denominator],
                "slacks": dict(d.slacks),
                "witnesses": {
                    sid: {"s": list(s), "sign": sign} for sid, (s, sign) in d.witnesses.items()
                },
                "active_dependences": list(d.active_dependences),
                "active_in_dependences": list(d.active_in_dependences),
                "dropped_dependences": list(d.dropped_dependences),
                "dropped_in_dependences": list(d.dropped_in_dependences),
                "active_space_accesses": [list(k) for k in d.active_space_accesses],
            }
            for d in plan.diagnostics
        ],
        "warnings": list(plan.warnings),
    }


def _indices(obj, key: str, where: str, allowed: list[int]) -> list[int]:
    """Field `key` of `obj` as a list of ints, each one of `allowed`."""
    what = f"{where}, field {key!r}: entry"
    out = [read_int(v, what) for v in read_field(obj, key, where, list)]
    for i in out:
        if i not in allowed:
            raise ValueError(f"{what} {i} is not one of {allowed}")
    return out


def plan_from_doc(doc: dict, nest: LoopNest) -> TransformPlan:
    """Read a plan document back, each matrix at the width `nest` gives it.

    A missing field, a field of the wrong JSON type, a non-integer where an
    integer is expected, statements or arrays other than the nest's, an
    r_space outside [0, depth), a matrix or vector whose shape disagrees with
    the nest and r_space, or a zero denominator raise ValueError.  So do
    diagnostics out of range: a witness for a statement the nest lacks, of
    the wrong length or with a sign other than +-1, a dependence index that
    is not one of the nest's dependences of that kind (`in` or not), an
    active space access that is not the [array, statement, slot] key of one
    of the nest's accesses, and an `xi` other than the recursion's position
    + 1.  So do a diagnostics list that is neither empty nor one entry per
    recursion, a weights object that lacks a family, and a warning that is
    not a string.
    """
    e = nest.outer_vars.count
    n = nest.max_depth
    depths = {s.id: s.depth for s in nest.statements}
    other_deps = [i for i, dep in enumerate(nest.dependences) if dep.kind != "in"]
    in_deps = [i for i, dep in enumerate(nest.dependences) if dep.kind == "in"]
    access_keys = [list(acc.key) for acc in nest.accesses]
    r_space = read_int(read_field(doc, "r_space", "plan document"), "plan r_space")
    if not 0 <= r_space < n:
        raise ValueError(f"plan r_space {r_space!r} is not an int in [0, {n})")
    for kind, items in (("statements", nest.statements), ("arrays", nest.arrays)):
        ids = sorted(x.id for x in items)
        if sorted(read_field(doc, kind, "plan document", dict)) != ids:
            raise ValueError(f"plan {kind} {sorted(doc[kind])} are not the nest's {ids}")
    statements = {
        s.id: StatementTransform(
            read_matrix(doc["statements"][s.id], "T", n, s.depth, f"plan statement {s.id!r}"),
            read_matrix(doc["statements"][s.id], "B", n, e, f"plan statement {s.id!r}"),
            read_vector(doc["statements"][s.id], "a", n, f"plan statement {s.id!r}"),
        )
        for s in nest.statements
    }
    arrays = {
        a.id: ArrayAllocation(
            read_matrix(doc["arrays"][a.id], "H", r_space, a.dim, f"plan array {a.id!r}"),
            read_matrix(doc["arrays"][a.id], "Z", r_space, e, f"plan array {a.id!r}"),
            read_vector(doc["arrays"][a.id], "y", r_space, f"plan array {a.id!r}"),
        )
        for a in nest.arrays
    }
    diagnostics = []
    diags = read_field(doc, "diagnostics", "plan document", list) if "diagnostics" in doc else []
    if diags and len(diags) != n:
        raise ValueError(f"plan document, field 'diagnostics': {len(diags)} entries, expected {n}")
    for i, d in enumerate(diags):
        where = f"plan diagnostics #{i}"
        xi = read_int(read_field(d, "xi", where), f"{where} xi")
        if xi != i + 1:
            raise ValueError(f"{where}: xi {xi} is not {i + 1}")
        spaces = read_field(d, "active_space_accesses", where, list)
        if not all(isinstance(k, list) for k in spaces):
            raise ValueError(f"{where}, field 'active_space_accesses' must hold lists")
        for k in spaces:
            if k not in access_keys:
                raise ValueError(f"{where}, field 'active_space_accesses': entry {k!r} "
                                 "is not the key of an access of the nest")
        witnesses = {}
        for sid, w in read_field(d, "witnesses", where, dict).items():
            if sid not in depths:
                raise ValueError(f"{where}: witness for statement {sid!r}, which the nest lacks")
            sign = read_int(read_field(w, "sign", where), f"{where} witness sign")
            if sign not in (1, -1):
                raise ValueError(f"{where} witness sign {sign} is not 1 or -1")
            witnesses[sid] = (read_vector(w, "s", depths[sid], where), sign)
        diagnostics.append(
            RecursionDiagnostics(
                xi=xi,
                objective=_fraction(d, "objective", where, f"plan objective of recursion {xi}"),
                slacks={label: read_int(v, f"{where} slack {label!r}")
                        for label, v in read_field(d, "slacks", where, dict).items()},
                witnesses=witnesses,
                active_dependences=_indices(d, "active_dependences", where, other_deps),
                active_in_dependences=_indices(d, "active_in_dependences", where, in_deps),
                dropped_dependences=_indices(d, "dropped_dependences", where, other_deps),
                dropped_in_dependences=_indices(d, "dropped_in_dependences", where, in_deps),
                active_space_accesses=[tuple(k) for k in spaces],
            )
        )
    warnings = read_field(doc, "warnings", "plan document", list) if "warnings" in doc else []
    for w in warnings:
        if not isinstance(w, str):
            raise ValueError(f"plan document, field 'warnings': entry {w!r} is not a string")
    weights = WeightConfig.from_doc(read_field(doc, "weights", "plan document", dict))
    return TransformPlan(statements, arrays, r_space, weights, diagnostics, list(warnings))
