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

import json
import logging
from dataclasses import dataclass
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
from .solver import InfeasibleError, SolverConfig, SolverTimeout, evaluate, solve


log = logging.getLogger("affsched")


class ProcedureError(RuntimeError):
    pass


# objective family (CLI and plan-file key) -> WeightConfig field, in
# serialization order
_FAMILY_FIELDS = {
    "legality": "legality",
    "indep": "indep",
    "align-F": "align_f_mat",
    "align-G": "align_g_mat",
    "align-f": "align_offset",
    "space": "space",
}


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
        for key, val in (overrides or {}).items():
            if key not in _FAMILY_FIELDS:
                raise ValueError(f"unknown weight family {key!r}")
            val = Fraction(val)
            if val <= 0:
                raise ValueError("weights must be strictly positive")
            kw[_FAMILY_FIELDS[key]] = val
        return WeightConfig(**kw)

    def to_doc(self) -> dict:
        return {
            fam: [getattr(self, name).numerator, getattr(self, name).denominator]
            for fam, name in _FAMILY_FIELDS.items()
        }

    @staticmethod
    def from_doc(doc: dict) -> "WeightConfig":
        """Every family is required; a key that names none is rejected."""
        for key in doc:
            if key not in _FAMILY_FIELDS:
                raise ValueError(f"plan weights, field {key!r} names no weight family")
        kw = {}
        for fam, name in _FAMILY_FIELDS.items():
            num, den = read_vector(doc, fam, 2, "plan weights")  # [numerator, denominator]
            if den == 0:
                raise ValueError(f"plan weight {fam!r} has denominator 0")
            kw[name] = Fraction(num, den)
            if kw[name] <= 0:
                raise ValueError(
                    f"plan weights, field {fam!r}: {kw[name]} is not strictly positive"
                )
        return WeightConfig(**kw)


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
    diagnostics: list[RecursionDiagnostics]
    warnings: list[str]


def build_recursion_system(
    nest: LoopNest,
    layout: ExtendedLayout,
    xs,
    r_space: int,
    weights: WeightConfig,
    active_deps,
    active_in_deps,
    active_space: list,
    table: dict,
) -> ConstraintSystem:
    """Assemble the optimization system of recursion len(xs) + 1.

    `xs` holds the solution vectors of the earlier recursions; the rank
    witnesses come from the schedule rows read off them.  `active_space`
    holds the accesses not yet row-confined, in the order of
    `nest.accesses`; each vector of an access's `row_rule` kernel gives one
    locality column.  `table` holds the columns of one run, built
    on first use: per dependence its legality columns, per access its
    alignment and its locality columns.  Each recursion only selects the
    active families from it.
    """

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
    for acc in active_space:
        columns += family(
            ("space", acc.key), build_space_locality_columns, acc, layout, weights.space
        )
    accumulated = {s.id: [layout.block(x, "tau", s.id) for x in xs] for s in nest.statements}
    witnesses = rank_witnesses(accumulated, nest.max_depth - len(xs), layout)
    return ConstraintSystem(layout, columns, witnesses)


def initial_sets(nest: LoopNest):
    """The bookkeeping sets before the first recursion.

    Returns the non-`in` dependences, the `in` dependences, and the
    accesses that have a `row_rule`, in the order of `nest.accesses`.
    """
    active_deps = [i for i, d in enumerate(nest.dependences) if d.kind != "in"]
    active_in_deps = [i for i, d in enumerate(nest.dependences) if d.kind == "in"]
    return active_deps, active_in_deps, [acc for acc in nest.accesses if acc.row_rule]


def run_procedure(
    nest: LoopNest,
    r_space: int = 1,
    weights: WeightConfig | None = None,
    solver_cfg: SolverConfig | None = None,
) -> TransformPlan:
    """Execute all recursions, each on the vector the exact search finds,
    and assemble the transform plan.  A statement whose final schedule
    rows fall short of its depth raises ProcedureError."""
    solver_cfg = solver_cfg or SolverConfig()

    def search(xi, system, active_deps, active_in_deps):
        try:
            sol = solve(system, solver_cfg)
        except InfeasibleError as exc:
            raise ProcedureError(
                f"recursion {xi} infeasible (active dependences {active_deps}, "
                f"in-dependences {active_in_deps}): {exc}"
            ) from exc
        except SolverTimeout as exc:
            raise SolverTimeout(f"recursion {xi}: {exc}") from exc
        log.debug(
            "recursion %d: objective %s after %d passes (final cap %s), %d nodes, "
            "%d rows (%d implied), witnesses %s",
            xi, sol.objective, sol.passes, sol.cap, sol.nodes, sol.rows, sol.implied_rows,
            sol.witness_used,
        )
        return sol.x, sol.objective, sol.slacks, sol.witness_used

    plan = _recursions(nest, r_space, weights or WeightConfig(), search)
    for s in nest.statements:
        t_rows = plan.statements[s.id].schedule
        if rank(t_rows) != s.depth:
            raise ProcedureError(
                f"statement {s.id!r}: final schedule rank {rank(t_rows)} < depth {s.depth}"
            )
    return plan


def _recursions(nest: LoopNest, r_space: int, weights: WeightConfig, pick) -> TransformPlan:
    """Run every recursion and assemble the plan.

    `pick(xi, system, active_deps, active_in_deps)` gives recursion xi's
    vector with its objective, slacks and witnesses.  The vector of each
    recursion is the one record kept: every schedule row, placement row and
    accumulated rank is read off `xs` through the layout.
    """
    n = nest.max_depth
    if not 0 <= r_space < n:
        raise ValueError(f"spatial dimension count must satisfy 0 <= r < n: got r={r_space}, n={n}")
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
        x, objective, slacks, witnesses = pick(xi, system, active_deps, active_in_deps)
        xs.append(x)

        # per active dependence, the values at x of its constant forms
        const = {i: [col.value(x) for col in table["dep", i] if col.family == "legality-const"]
                 for i in active_deps + active_in_deps}

        dropped = [i for i in active_deps if xi > r_space and all(v >= 1 for v in const[i])]
        dropped_in = [i for i in active_in_deps if all(abs(v) >= 1 for v in const[i])]
        active_deps = [i for i in active_deps if i not in dropped]
        active_in_deps = [i for i in active_in_deps if i not in dropped_in]
        ever_positive.update(i for i in active_deps if any(const[i]))

        active_space = [
            acc for acc in active_space
            if locality_depth(rows("tau", acc.statement), acc.row_rule) is None
        ]

        diagnostics.append(
            RecursionDiagnostics(
                xi=xi,
                objective=objective,
                slacks=slacks,
                witnesses=witnesses,
                active_dependences=sorted(active_deps + dropped),
                active_in_dependences=sorted(active_in_deps + dropped_in),
                dropped_dependences=dropped,
                dropped_in_dependences=dropped_in,
                active_space_accesses=sorted(acc.key for acc in active_space),
            )
        )

    statements = {
        s.id: StatementTransform(
            rows("tau", s.id), rows("b", s.id), tuple(x[layout.offset("a", s.id)] for x in xs)
        )
        for s in nest.statements
    }
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


def plan_from_doc(doc: dict, nest: LoopNest) -> TransformPlan:
    """Read a plan document back, each matrix at the width `nest` gives it,
    and replay its transforms through the recursions for the diagnostics
    and warnings.

    A missing field, a field of the wrong JSON type, a non-integer where an
    integer is expected, statements or arrays other than the nest's, an
    r_space outside [0, depth), a matrix or vector whose shape disagrees with
    the nest and r_space, a weights object that lacks a family, or a zero
    denominator raise ValueError.  So do `diagnostics` and `warnings`, where
    the document gives them, if they are not what the transforms give.
    """
    e = nest.outer_vars.count
    n = nest.max_depth
    r_space = read_int(read_field(doc, "r_space", "plan document"), "plan r_space")
    if not 0 <= r_space < n:
        raise ValueError(f"plan r_space {r_space!r} is not an int in [0, {n})")
    for kind, items in (("statements", nest.statements), ("arrays", nest.arrays)):
        ids = sorted(x.id for x in items)
        if sorted(read_field(doc, kind, "plan document", dict)) != ids:
            raise ValueError(f"plan {kind} {sorted(doc[kind])} are not the nest's {ids}")
    blocks = {}  # (kind, id) -> the block's entries per recursion
    for s in nest.statements:
        where, st = f"plan statement {s.id!r}", doc["statements"][s.id]
        blocks["tau", s.id] = read_matrix(st, "T", n, s.depth, where)
        blocks["b", s.id] = read_matrix(st, "B", n, e, where)
        blocks["a", s.id] = [(v,) for v in read_vector(st, "a", n, where)]
    for a in nest.arrays:
        where, al = f"plan array {a.id!r}", doc["arrays"][a.id]
        blocks["eta", a.id] = read_matrix(al, "H", r_space, a.dim, where)
        blocks["z", a.id] = read_matrix(al, "Z", r_space, e, where)
        blocks["y", a.id] = [(v,) for v in read_vector(al, "y", r_space, where)]
    weights = WeightConfig.from_doc(read_field(doc, "weights", "plan document", dict))

    def read_off(xi, system, *_):
        x = [0] * system.layout.size
        for key, (start, stop) in system.layout.spans.items():
            if xi <= len(blocks[key]):  # the array blocks are 0 after recursion r_space
                x[start:stop] = blocks[key][xi - 1]
        x = tuple(x)
        slacks, witnesses = evaluate(system, x)
        objective = sum((col.weight * slacks[col.label] for col in system.columns), Fraction(0))
        return x, objective, slacks, witnesses

    plan = _recursions(nest, r_space, weights, read_off)
    derived = plan_to_doc(plan)
    for key in ("diagnostics", "warnings"):
        if key in doc:
            given = read_field(doc, key, "plan document", list)
            if len(given) != len(derived[key]):
                raise ValueError(f"plan document, field {key!r}: {len(given)} entries, "
                                 f"its transforms give {len(derived[key])}")
            for i, entry in enumerate(given):
                _same_as_derived(entry, derived[key][i], f"plan {key} #{i}:")
    return plan


def _same_as_derived(given, derived, where: str) -> None:
    """Raise ValueError at the first value of `given` that is not
    `derived`'s, compared as canonical JSON text, so that 1.0 and true do
    not equal 1.  Objects are compared field by field, `derived`'s fields
    first; a field that one of them lacks reads as (none)."""
    if isinstance(given, dict) and isinstance(derived, dict):
        for key in {**derived, **given}:
            _same_as_derived(given.get(key, _NONE), derived.get(key, _NONE), f"{where} {key}")
    elif _text(given) != _text(derived):
        raise ValueError(f"{where} {_text(given)}, its transforms give {_text(derived)}")


_NONE = object()


def _text(value) -> str:
    return "(none)" if value is _NONE else json.dumps(value, sort_keys=True)
