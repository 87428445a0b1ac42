"""In-memory model of an affine loop nest plus JSON ingestion and checking.

A nest consists of statements with parametric box (or explicit-vertex)
iteration domains, array declarations, affine accesses and affine
dependences.  Dependences are *input*: deriving them from accesses is out of
scope, but `load_nest` cross-checks every dependence on plain ints at the
smallest parameter values N^(0), where each domain's bounds are evaluated once.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import cached_property

from .algebra import dot, integer_kernel_basis

DEP_KINDS = ("flow", "anti", "out", "in")
ACCESS_KINDS = ("read", "write")


class NestError(ValueError):
    """Malformed or inconsistent loop-nest input."""


class EnumerationError(ValueError):
    """A domain cannot be enumerated (wrong form or too many points)."""


@dataclass(frozen=True)
class OuterVars:
    names: tuple[str, ...]
    minima: tuple[int, ...]  # smallest admissible value per outer variable

    @property
    def count(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Domain:
    """Either a parametric box or an explicit list of parametric vertices."""

    # per dimension (lower, upper), each bound (coeffs over N, const) as ints
    box: tuple[tuple[tuple, tuple], ...] | None = None
    # per vertex (R by rows, omega), v = R*N + omega, as int tuples
    explicit_vertices: tuple[tuple[tuple, tuple[int, ...]], ...] | None = None

    def __post_init__(self):
        if (self.box is None) == (self.explicit_vertices is None):
            raise NestError("domain must have exactly one of box / vertices")

    @property
    def dim(self) -> int:
        if self.box is not None:
            return len(self.box)
        return len(self.explicit_vertices[0][1]) if self.explicit_vertices else 0

    @cached_property
    def vertices(self) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]:
        """Parametric vertices (R, omega) with v = R*N + omega, as int tuples (R by rows).

        Box domains yield the corner combinations of lower/upper bounds,
        deduplicated; explicit vertex lists pass through unchanged.  Computed
        once per domain.
        """
        if self.explicit_vertices is not None:
            return self.explicit_vertices
        return tuple((tuple(r for r, _ in corner), tuple(w for _, w in corner))
                     for corner in dict.fromkeys(itertools.product(*self.box)))

    def bounds_at(self, n_vals) -> list[tuple[int, int]]:
        """The (lo, hi) of each box dimension at the concrete outer variables `n_vals`."""
        if self.box is None:
            raise EnumerationError("explicit-vertex domains cannot be enumerated")
        e = len(self.box[0][0][0]) if self.box else len(n_vals)  # every bound has e coeffs
        if len(n_vals) != e:
            raise ValueError(f"{len(n_vals)} parameter values for a bound over {e} outer variables")
        return [(dot(lo, n_vals) + c_lo, dot(hi, n_vals) + c_hi)
                for (lo, c_lo), (hi, c_hi) in self.box]


@dataclass(frozen=True)
class Statement:
    id: str
    depth: int
    domain: Domain
    textual_order: int


@dataclass(frozen=True)
class ArrayDecl:
    id: str
    dim: int


@dataclass(frozen=True)
class Access:
    array: str
    statement: str
    slot: int
    kind: str  # read | write
    iter_coeffs: tuple[tuple[int, ...], ...]  # dim x depth, dim >= 1
    param_coeffs: tuple[tuple[int, ...], ...]  # dim x e
    offset: tuple[int, ...]  # length dim

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.array, self.statement, self.slot)

    @cached_property
    def kernel(self) -> tuple[tuple[int, ...], ...]:
        """`integer_kernel_basis` of F: the moves of an operation that keep
        the element it touches.  Computed once per access."""
        return tuple(integer_kernel_basis(self.iter_coeffs, len(self.iter_coeffs[0])))

    @cached_property
    def row_rule(self) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
        """The row-locality rule of this access: (target rank, kernel), or None.

        Arrays are row-major: the last index is the contiguous one, so the
        operations that fix every other index touch one row.  Dropping the
        last row of F leaves the row matrix; schedule rows constant along its
        integer `kernel` keep the access within one row, and once they reach
        its rank, `target`, the access is row-confined.  Only a row matrix of
        rank strictly between 0 (one row whatever the schedule, as for every
        1-dimensional array) and the statement depth (never confined) gives a
        rule.  Computed once per access, from F alone.
        """
        depth = len(self.iter_coeffs[0])
        kernel = tuple(integer_kernel_basis(self.iter_coeffs[:-1], depth))
        target = depth - len(kernel)  # the row matrix's rank
        return (target, kernel) if 0 < target < depth else None


@dataclass(frozen=True)
class Dependence:
    source: str
    target: str
    kind: str  # flow | anti | out | in
    source_map: tuple[tuple[int, ...], ...]  # depth(source) x depth(target)
    param_map: tuple[tuple[int, ...], ...]  # depth(source) x e
    shift: tuple[int, ...]  # length depth(source)
    domain: Domain  # subset of the target statement's domain
    produced_by: tuple[str, int] | None = None  # (array, read slot) for flow deps


@dataclass(frozen=True)
class LoopNest:
    outer_vars: OuterVars
    statements: tuple[Statement, ...]
    arrays: tuple[ArrayDecl, ...]
    accesses: tuple[Access, ...]
    dependences: tuple[Dependence, ...]

    @property
    def max_depth(self) -> int:
        return max(s.depth for s in self.statements)

    def statement(self, sid: str) -> Statement:
        for s in self.statements:
            if s.id == sid:
                return s
        raise NestError(f"unknown statement {sid!r}")

    def array(self, aid: str) -> ArrayDecl:
        for a in self.arrays:
            if a.id == aid:
                return a
        raise NestError(f"unknown array {aid!r}")

    def textually_ordered(self, dep: Dependence) -> bool:
        """Whether a tie (equal schedule vectors) leaves `dep` in order.

        Operations with equal schedule vectors run in textual order, so a
        tie is ordered when the source statement comes textually first.  A
        dependence within one statement has no order to fall back on and
        counts as ordered: the tie is only worth a warning.
        """
        return (
            dep.source == dep.target
            or self.statement(dep.source).textual_order < self.statement(dep.target).textual_order
        )


def contains_point(domain: Domain, point, n_vals) -> bool:
    return _within(domain.bounds_at(n_vals), point)


def _within(bounds, point) -> bool:
    """Whether `point` lies in the box of integer (lo, hi) `bounds`."""
    return all(lo <= x <= hi for x, (lo, hi) in zip(point, bounds))


# ---------------------------------------------------------------------------
# JSON ingestion.  Field names below are the wire format.
# The read_* functions also read plan documents; every error they raise
# names where in the document it happened.
# ---------------------------------------------------------------------------

_JSON_TYPES = {list: "a list", dict: "an object", str: "a string"}


def read_object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise NestError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def read_field(obj, key: str, where: str, kind: type | None = None):
    """Required field `key` of the object `obj`, of JSON type `kind` (list, dict, str) if given."""
    if key not in read_object(obj, where):
        raise NestError(f"{where} misses field {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise NestError(
            f"{where}, field {key!r} must be {_JSON_TYPES[kind]}, got {type(value).__name__}"
        )
    return value


def read_int(value, what: str) -> int:
    # bool is an int subclass, so JSON true would pass isinstance
    if type(value) is not int:
        raise NestError(f"{what} {value!r} is not an int")
    return value


def read_vector(obj, key: str, length: int, where: str) -> tuple[int, ...]:
    """Field `key` of `obj` as a list of `length` ints."""
    entries = read_field(obj, key, where, list)
    what = f"{where}, field {key!r}"
    if len(entries) != length:
        raise NestError(f"{what}: {len(entries)} entries, expected {length}")
    entry = f"{what}: entry"
    return tuple([read_int(x, entry) for x in entries])


def read_matrix(obj, key: str, nrows: int, ncols: int, where: str) -> tuple[tuple[int, ...], ...]:
    """Field `key` of `obj` as `nrows` lists of `ncols` ints."""
    rows = read_field(obj, key, where, list)
    what = f"{where}, field {key!r}"
    if len(rows) != nrows:
        raise NestError(f"{what}: {len(rows)} rows, expected {nrows}x{ncols}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise NestError(f"{what}: row {i} is {row!r}, expected {nrows}x{ncols}")
    entry = f"{what}: entry"
    return tuple(tuple([read_int(x, entry) for x in row]) for row in rows)


def _parse_bound(obj, e: int, where: str) -> tuple[tuple[int, ...], int]:
    const = read_int(read_field(obj, "const", where), f"{where} bound const")
    return read_vector(obj, "coeffs", e, where), const


def _parse_domain(obj, dim: int, e: int, where: str) -> Domain:
    """A box, or `dim`-dimensional vertices (R, omega) over `e` outer variables."""
    if "box" in read_object(obj, f"{where}: domain"):
        box = tuple(
            (
                _parse_bound(read_field(pair, "lower", where), e, where),
                _parse_bound(read_field(pair, "upper", where), e, where),
            )
            for pair in read_field(obj, "box", where, list)
        )
        return Domain(box=box)
    if "vertices" in obj:
        verts = tuple(
            (read_matrix(v, "R", dim, e, where), read_vector(v, "omega", dim, where))
            for v in read_field(obj, "vertices", where, list)
        )
        return Domain(explicit_vertices=verts)
    raise NestError(f"{where}: domain needs 'box' or 'vertices'")


def load_nest(source) -> LoopNest:
    """Parse and fully validate a loop-nest description.

    `source` is a JSON string, a parsed dict, or a path to a JSON file.  A
    missing field, a field of the wrong JSON type, a non-integer where an
    integer is expected, a matrix or vector of the wrong shape, or a nest
    that is inconsistent at the smallest parameter values raises NestError.
    """
    if isinstance(source, dict):
        doc = source
    elif not isinstance(source, (str, os.PathLike)):
        raise NestError(f"expected JSON text, a dict or a path, not {type(source).__name__}")
    else:
        text = str(source)
        if not text.strip():
            raise NestError("empty nest description")
        if not text.lstrip().startswith("{"):
            with open(text) as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NestError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")

    params = read_field(doc, "params", "document", list)
    names = tuple(read_field(p, "name", "params", str) for p in params)
    if len(set(names)) != len(names):
        raise NestError("duplicate outer variable names")
    n0 = tuple([read_int(read_field(p, "min", "params"), "params min") for p in params])
    outer = OuterVars(names, n0)
    e = outer.count

    stmts_doc = read_field(doc, "statements", "document", list)
    if not stmts_doc:
        raise NestError("no statements")
    statements = []
    box0 = {}  # statement id -> (lo, hi) per dimension at N^(0); None for vertices
    for s in stmts_doc:
        sid = read_field(s, "id", "statements", str)
        where = f"statement {sid!r}"
        depth = read_int(read_field(s, "depth", where), f"{where} depth")
        dom = _parse_domain(read_field(s, "domain", where), depth, e, where)
        if dom.dim != depth:
            raise NestError(f"{where}: domain dimensionality {dom.dim} != depth {depth}")
        box0[sid] = None
        if dom.box is not None:
            box0[sid] = dom.bounds_at(n0)
            for k, (lo, hi) in enumerate(box0[sid]):
                if hi < lo:
                    raise NestError(f"{where}: dimension {k} empty at N^(0)")
        order = read_int(read_field(s, "order", where), f"{where} order")
        statements.append(Statement(sid, depth, dom, order))
    if len({s.id for s in statements}) != len(statements):
        raise NestError("duplicate statement ids")
    first = {}
    for s in statements:
        other = first.setdefault(s.textual_order, s.id)
        if other != s.id:
            raise NestError(f"statements {other!r} and {s.id!r} share order {s.textual_order}")

    arrays = []
    for a in read_field(doc, "arrays", "document", list):
        aid = read_field(a, "id", "arrays", str)
        dim = read_int(read_field(a, "dim", f"array {aid!r}"), f"array {aid!r} dim")
        if dim < 1:
            raise NestError(f"array {aid!r}: dim must be >= 1")
        arrays.append(ArrayDecl(aid, dim))
    if len({a.id for a in arrays}) != len(arrays):
        raise NestError("duplicate array ids")

    nest = LoopNest(outer, tuple(statements), tuple(arrays), (), ())

    accesses = []
    for acc in read_field(doc, "accesses", "document", list):
        aid = read_field(acc, "array", "accesses", str)
        sid = read_field(acc, "statement", "accesses", str)
        slot = read_int(read_field(acc, "slot", "accesses"), "accesses slot")
        where = f"access ({aid!r}, {sid!r}, {slot})"
        arr = nest.array(aid)
        stmt = nest.statement(sid)
        kind = read_field(acc, "kind", where)
        if kind not in ACCESS_KINDS:
            raise NestError(f"{where}: bad kind {kind!r}")
        accesses.append(
            Access(
                aid,
                sid,
                slot,
                kind,
                read_matrix(acc, "F", arr.dim, stmt.depth, where),
                read_matrix(acc, "G", arr.dim, e, where),
                read_vector(acc, "f", arr.dim, where),
            )
        )
    if len({a.key for a in accesses}) != len(accesses):
        raise NestError("duplicate access (array, statement, slot) keys")

    dependences = []
    deps_doc = read_field(doc, "dependences", "document", list) if "dependences" in doc else []
    for i, dep in enumerate(deps_doc):
        where = f"dependence #{i}"
        src = nest.statement(read_field(dep, "source", where, str))
        tgt = nest.statement(read_field(dep, "target", where, str))
        kind = read_field(dep, "kind", where)
        if kind not in DEP_KINDS:
            raise NestError(f"{where}: bad kind {kind!r}")
        dom = _parse_domain(read_field(dep, "domain", where), tgt.depth, e, where)
        if dom.dim != tgt.depth:
            raise NestError(f"{where}: domain dimensionality != target depth")
        produced = None
        if dep.get("produced_by") is not None:
            pb = dep["produced_by"]
            slot = read_int(read_field(pb, "slot", where), f"{where} produced_by slot")
            produced = (read_field(pb, "array", where, str), slot)
        d = Dependence(
            src.id,
            tgt.id,
            kind,
            read_matrix(dep, "Phi", src.depth, tgt.depth, where),
            read_matrix(dep, "Psi", src.depth, e, where),
            read_vector(dep, "phi", src.depth, where),
            dom,
            produced,
        )
        if produced is not None:
            if kind != "flow":
                raise NestError(f"{where}: produced_by on an {kind} dependence, not a flow one")
            if not any(a.key == (produced[0], tgt.id, produced[1]) and a.kind == "read"
                       for a in accesses):
                raise NestError(f"{where}: produced_by does not name a read of the target")
        # every vertex of the dependence domain must map into the source
        # domain and lie inside the target domain (checked at N^(0)); the
        # source image is Phi v - (phi - Psi N^(0))
        if box0[src.id] is not None and box0[tgt.id] is not None:
            base = [h - dot(q, n0) for h, q in zip(d.shift, d.param_map)]
            for rows, omega in dom.vertices:
                v = tuple(dot(r, n0) + w for r, w in zip(rows, omega))
                if not _within(box0[tgt.id], v):
                    raise NestError(f"{where}: vertex {v} outside target domain at N^(0)")
                ipt = tuple(dot(p, v) - c for p, c in zip(d.source_map, base))
                if not _within(box0[src.id], ipt):
                    raise NestError(f"{where}: source image {ipt} outside source domain at N^(0)")
        dependences.append(d)

    return LoopNest(outer, tuple(statements), tuple(arrays), tuple(accesses), tuple(dependences))

