"""Recursive driver computing the full schedule and allocation transform.

Runs one recursion per transformed loop level.  Each recursion assembles the
active constraint families, solves for the extended coefficient vector, then
updates the bookkeeping sets: strictly satisfied dependences stop
constraining later levels, accesses whose row-locality rank is reached stop
contributing locality columns, and statements whose schedule rank must still
grow are forced through the rank witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import IntMatrix, IntVector, rank
from .constraints import (
    ConstraintSystem,
    ExtendedLayout,
    build_alignment_columns,
    build_legality_columns,
    build_space_locality_columns,
    locality_kernel,
    rank_witnesses,
)
from .nest import LoopNest, contains_point
from .solver import InfeasibleError, SolverConfig, SolverTimeout, solve


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

    OVERRIDE_KEYS = tuple(fam for fam, _ in _FAMILY_FIELDS)

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
        return WeightConfig.with_overrides(
            {k: Fraction(v[0], v[1]) for k, v in doc.items()}
        )


@dataclass(frozen=True)
class StatementTransform:
    schedule: IntMatrix  # n x depth rows of schedule coefficients
    param: IntMatrix  # n x e
    const: IntVector  # length n


@dataclass(frozen=True)
class ArrayAllocation:
    placement: IntMatrix  # r_space x dim
    param: IntMatrix  # r_space x e
    const: IntVector  # length r_space


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

    @property
    def depth(self) -> int:
        return next(iter(self.statements.values())).schedule.nrows


def build_recursion_system(
    nest: LoopNest,
    layout: ExtendedLayout,
    xi: int,
    r_space: int,
    weights: WeightConfig,
    active_deps,
    active_in_deps,
    active_space,
    l_set,
    accumulated_rows,
    last_index_contiguous: bool = True,
) -> ConstraintSystem:
    """Assemble the optimization system of one recursion from the active sets."""
    columns = []
    for i in active_deps:
        columns.extend(
            build_legality_columns(nest.dependences[i], i, nest, layout, weights.legality)
        )
    for i in active_in_deps:
        columns.extend(
            build_legality_columns(nest.dependences[i], i, nest, layout, weights.indep)
        )
    if xi <= r_space:
        for acc in nest.accesses:
            columns.extend(
                build_alignment_columns(
                    acc,
                    nest,
                    layout,
                    weights.align_f_mat,
                    weights.align_g_mat,
                    weights.align_offset,
                )
            )
    for acc in nest.accesses:
        if acc.key in active_space:
            cols, _ = build_space_locality_columns(
                acc, nest, layout, weights.space, last_index_contiguous
            )
            columns.extend(cols)
    witnesses = rank_witnesses(accumulated_rows, l_set, layout)
    return ConstraintSystem(layout, columns, witnesses)


def _space_candidates(nest: LoopNest, last_index_contiguous: bool):
    """Accesses that carry row-locality columns, with their target ranks."""
    out = {}
    for acc in nest.accesses:
        layout_dummy_cols, r_access = build_space_locality_columns(
            acc, nest, ExtendedLayout.for_nest(nest), Fraction(1), last_index_contiguous
        )
        if layout_dummy_cols:
            out[acc.key] = r_access
    return out


def run_procedure(
    nest: LoopNest,
    r_space: int = 1,
    weights: WeightConfig | None = None,
    solver_cfg: SolverConfig | None = None,
    guard_indep_drop: bool = False,
    last_index_contiguous: bool = True,
) -> TransformPlan:
    """Execute all recursions and assemble the transform plan."""
    n = nest.max_depth
    if not 0 <= r_space < n:
        raise ProcedureError(f"spatial dimension count must satisfy 0 <= r < {n}")
    weights = weights or WeightConfig()
    solver_cfg = solver_cfg or SolverConfig()
    layout = ExtendedLayout.for_nest(nest)

    active_deps = [i for i, d in enumerate(nest.dependences) if d.kind != "in"]
    active_in_deps = [i for i, d in enumerate(nest.dependences) if d.kind == "in"]
    space_targets = _space_candidates(nest, last_index_contiguous)
    active_space = set(space_targets)
    space_rows: dict[tuple, list[IntVector]] = {key: [] for key in space_targets}
    accumulated: dict[str, list[IntVector]] = {s.id: [] for s in nest.statements}

    sched_rows = {s.id: [] for s in nest.statements}
    param_rows = {s.id: [] for s in nest.statements}
    const_terms = {s.id: [] for s in nest.statements}
    place_rows = {a.id: [] for a in nest.arrays}
    place_param = {a.id: [] for a in nest.arrays}
    place_const = {a.id: [] for a in nest.arrays}

    diagnostics = []
    ever_positive: dict[int, bool] = {i: False for i in active_deps}

    for xi in range(1, n + 1):
        l_set = [
            s.id
            for s in nest.statements
            if n - xi + 1 == s.depth - rank(IntMatrix.from_rows(accumulated[s.id])
                                           if accumulated[s.id] else IntMatrix((), s.depth))
        ]
        system = build_recursion_system(
            nest,
            layout,
            xi,
            r_space,
            weights,
            active_deps,
            active_in_deps,
            active_space,
            l_set,
            accumulated,
            last_index_contiguous,
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
        x = sol.x

        for s in nest.statements:
            sched_rows[s.id].append(layout.tau_block(x, s.id))
            param_rows[s.id].append(layout.b_block(x, s.id))
            const_terms[s.id].append(layout.a_value(x, s.id))
        if xi <= r_space:
            for a in nest.arrays:
                place_rows[a.id].append(layout.eta_block(x, a.id))
                place_param[a.id].append(layout.z_block(x, a.id))
                place_const[a.id].append(layout.y_value(x, a.id))

        by_group: dict[tuple, list] = {}
        for col in system.columns:
            if col.family == "legality-const":
                by_group.setdefault(col.group, []).append(col.value(x))

        dropped, dropped_in = [], []
        if xi >= r_space + 1:
            for i in list(active_deps):
                vals = by_group.get(("dep", i), [])
                if vals and all(v >= 1 for v in vals):
                    active_deps.remove(i)
                    dropped.append(i)
        for i in active_deps:
            vals = by_group.get(("dep", i), [])
            if any(v != 0 for v in vals):
                ever_positive[i] = True
        for i in list(active_in_deps):
            if guard_indep_drop and xi <= r_space:
                continue
            vals = by_group.get(("dep", i), [])
            if vals and all(abs(v) >= 1 for v in vals):
                active_in_deps.remove(i)
                dropped_in.append(i)

        for acc in nest.accesses:
            if acc.key not in space_targets:
                continue
            tau = layout.tau_block(x, acc.statement)
            kern = locality_kernel(acc, last_index_contiguous)
            if all(tau.dot(d) == 0 for d in kern):
                space_rows[acc.key].append(tau)
        active_space = {
            key
            for key, target in space_targets.items()
            if rank(IntMatrix.from_rows(space_rows[key])
                    if space_rows[key] else IntMatrix((), 1)) < target
        }

        for s in nest.statements:
            accumulated[s.id].append(layout.tau_block(x, s.id))

        diagnostics.append(
            RecursionDiagnostics(
                xi=xi,
                objective=sol.objective,
                slacks=sol.slacks,
                witnesses={
                    sid: (tuple(s), sign) for sid, (s, sign) in sol.witness_used.items()
                },
                active_dependences=sorted(active_deps + dropped),
                active_in_dependences=sorted(active_in_deps + dropped_in),
                dropped_dependences=dropped,
                dropped_in_dependences=dropped_in,
                active_space_accesses=sorted(active_space),
            )
        )

    statements = {}
    for s in nest.statements:
        t_mat = IntMatrix.from_rows(sched_rows[s.id])
        if rank(t_mat) != s.depth:
            raise ProcedureError(
                f"statement {s.id!r}: final schedule rank {rank(t_mat)} < depth {s.depth}"
            )
        statements[s.id] = StatementTransform(
            t_mat,
            IntMatrix.from_rows(param_rows[s.id]),
            IntVector(const_terms[s.id]),
        )
    arrays = {
        a.id: ArrayAllocation(
            IntMatrix.from_rows(place_rows[a.id]) if place_rows[a.id] else IntMatrix((), a.dim),
            IntMatrix.from_rows(place_param[a.id])
            if place_param[a.id]
            else IntMatrix((), nest.outer_vars.count),
            IntVector(place_const[a.id]),
        )
        for a in nest.arrays
    }

    warnings = []
    for i in active_deps:
        if not ever_positive[i]:
            d = nest.dependences[i]
            warnings.append(
                f"dependence #{i} ({d.source}->{d.target}, {d.kind}) is scheduled with "
                "equal time vectors at every level; correctness relies on textual order"
            )

    return TransformPlan(statements, arrays, r_space, weights, diagnostics, warnings)


def schedule_of(plan: TransformPlan, nest: LoopNest, sid: str, point, n_vals) -> IntVector:
    """Full transformed index vector of one operation.

    The first r_space entries are processor coordinates, the rest time.
    """
    st = plan.statements[sid]
    stmt = nest.statement(sid)
    if len(point) != stmt.depth:
        raise ValueError(f"point has {len(point)} entries, statement depth is {stmt.depth}")
    if stmt.domain.box is not None and not contains_point(stmt.domain, point, n_vals):
        raise ValueError(f"point {tuple(point)} outside domain of {sid!r}")
    return st.schedule.matvec(point) + st.param.matvec(n_vals) + st.const


def placement_of(plan: TransformPlan, aid: str, index, n_vals) -> IntVector:
    """Processor coordinates owning one array element (length r_space)."""
    al = plan.arrays[aid]
    if plan.r_space == 0:
        return IntVector(())
    if len(index) != al.placement.ncols:
        raise ValueError(
            f"index has {len(index)} entries, array dimension is {al.placement.ncols}"
        )
    return al.placement.matvec(index) + al.param.matvec(n_vals) + al.const


# ---------------------------------------------------------------------------
# Plan (de)serialization
# ---------------------------------------------------------------------------


def plan_to_doc(plan: TransformPlan) -> dict:
    return {
        "r_space": plan.r_space,
        "statements": {
            sid: {
                "T": [list(r) for r in st.schedule.rows],
                "B": [list(r) for r in st.param.rows],
                "a": list(st.const),
            }
            for sid, st in plan.statements.items()
        },
        "arrays": {
            aid: {
                "H": [list(r) for r in al.placement.rows],
                "Z": [list(r) for r in al.param.rows],
                "y": list(al.const),
            }
            for aid, al in plan.arrays.items()
        },
        "weights": plan.weights.to_doc(),
        "diagnostics": [
            {
                "xi": d.xi,
                "objective": [d.objective.numerator, d.objective.denominator],
                "slacks": d.slacks,
                "witnesses": {
                    sid: {"s": list(s), "sign": sign} for sid, (s, sign) in d.witnesses.items()
                },
                "active_dependences": d.active_dependences,
                "active_in_dependences": d.active_in_dependences,
                "dropped_dependences": d.dropped_dependences,
                "dropped_in_dependences": d.dropped_in_dependences,
                "active_space_accesses": [list(k) for k in d.active_space_accesses],
            }
            for d in plan.diagnostics
        ],
        "warnings": list(plan.warnings),
    }


def plan_from_doc(doc: dict) -> TransformPlan:
    statements = {
        sid: StatementTransform(
            IntMatrix(st["T"]),
            IntMatrix(st["B"]),
            IntVector(st["a"]),
        )
        for sid, st in doc["statements"].items()
    }
    arrays = {
        aid: ArrayAllocation(
            IntMatrix(al["H"]) if al["H"] else IntMatrix((), 0),
            IntMatrix(al["Z"]) if al["Z"] else IntMatrix((), 0),
            IntVector(al["y"]),
        )
        for aid, al in doc["arrays"].items()
    }
    diagnostics = [
        RecursionDiagnostics(
            xi=d["xi"],
            objective=Fraction(d["objective"][0], d["objective"][1]),
            slacks=d["slacks"],
            witnesses={
                sid: (tuple(w["s"]), w["sign"]) for sid, w in d["witnesses"].items()
            },
            active_dependences=d["active_dependences"],
            active_in_dependences=d["active_in_dependences"],
            dropped_dependences=d["dropped_dependences"],
            dropped_in_dependences=d["dropped_in_dependences"],
            active_space_accesses=[tuple(k) for k in d["active_space_accesses"]],
        )
        for d in doc.get("diagnostics", [])
    ]
    return TransformPlan(
        statements,
        arrays,
        doc["r_space"],
        WeightConfig.from_doc(doc["weights"]),
        diagnostics,
        list(doc.get("warnings", [])),
    )
