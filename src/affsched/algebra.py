"""Exact integer/rational linear algebra used by every other module.

All schedule and allocation computations are exact statements over Z and Q,
so nothing here ever touches floating point.  Rationals are plain
``fractions.Fraction`` (always reduced, positive denominator); vectors and
matrices are small immutable wrappers around tuples of Python ints.  Their
entries go through ``operator.index``: Python and numpy integers are stored
as Python ints, and a float, string or Fraction entry raises TypeError
instead of being truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index, mul


class DimensionError(ValueError):
    """Operands have incompatible shapes."""


def dot(u, v) -> int:
    """Dot product of two int sequences of one length, unchecked."""
    return sum(map(mul, u, v))


@dataclass(frozen=True)
class IntVector:
    entries: tuple[int, ...]

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(map(index, entries)))

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: "IntVector") -> "IntVector":
        if len(self) != len(other):
            raise DimensionError(f"vector lengths differ: {len(self)} vs {len(other)}")
        return IntVector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "IntVector") -> "IntVector":
        if len(self) != len(other):
            raise DimensionError(f"vector lengths differ: {len(self)} vs {len(other)}")
        return IntVector(a - b for a, b in zip(self, other))

    def __neg__(self) -> "IntVector":
        return IntVector(-a for a in self)

    def dot(self, other) -> int:
        if len(self) != len(other):
            raise DimensionError(f"vector lengths differ: {len(self)} vs {len(other)}")
        return sum(a * b for a, b in zip(self, other))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self)


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(map(index, r)) for r in rows)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise DimensionError("ragged rows")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise DimensionError(f"ncols {ncols} != row width {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", index(ncols))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> IntVector:
        return IntVector(self.rows[i])

    def matvec(self, v) -> IntVector:
        if self.ncols != len(v):
            raise DimensionError(f"matvec: {self.nrows}x{self.ncols} with length {len(v)}")
        return IntVector(sum(a * b for a, b in zip(r, v)) for r in self.rows)

    def vecmat(self, v) -> IntVector:
        """Row vector times matrix."""
        if self.nrows != len(v):
            raise DimensionError(f"vecmat: length {len(v)} with {self.nrows}x{self.ncols}")
        return IntVector(
            sum(v[i] * self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)
        )

    def drop_row(self, i: int) -> "IntMatrix":
        return IntMatrix(self.rows[:i] + self.rows[i + 1:], self.ncols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "IntMatrix":
        return IntMatrix(((0,) * ncols,) * nrows, ncols)

    @staticmethod
    def from_rows(vectors, ncols: int = 0) -> "IntMatrix":
        """Matrix with the given rows; `ncols` is the width when there are none."""
        rows = tuple(tuple(v) for v in vectors)
        return IntMatrix(rows, None if rows else ncols)


def _column_eliminate(m: IntMatrix):
    """Integer column elimination with a unimodular transform.

    Returns (pivot count, U) where U is a ncols x ncols unimodular matrix
    (as column lists) such that the first `pivots` transformed columns are
    independent and the rest are zero.
    """
    nr, nc = m.nrows, m.ncols
    a = [[m.rows[i][j] for i in range(nr)] for j in range(nc)]  # column-major
    u = [[1 if i == j else 0 for i in range(nc)] for j in range(nc)]
    piv = 0
    for i in range(nr):
        # gcd-eliminate row i across columns piv..nc-1 down to one nonzero
        while True:
            nz = [j for j in range(piv, nc) if a[j][i] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(a[j][i]))
            for j in nz:
                if j == j0:
                    continue
                q = a[j][i] // a[j0][i]
                if q:
                    for k in range(nr):
                        a[j][k] -= q * a[j0][k]
                    for k in range(nc):
                        u[j][k] -= q * u[j0][k]
        nz = [j for j in range(piv, nc) if a[j][i] != 0]
        if nz:
            j = nz[0]
            a[piv], a[j] = a[j], a[piv]
            u[piv], u[j] = u[j], u[piv]
            piv += 1
    return piv, u


def rank(m: IntMatrix) -> int:
    """Rank over Q, computed by exact integer elimination."""
    piv, _ = _column_eliminate(m)
    return piv


def _normalize_kernel_vector(v):
    # v is a column of a unimodular matrix, so it is already primitive
    for x in v:
        if x != 0:
            if x < 0:
                v = [-y for y in v]
            break
    return tuple(v)


def integer_kernel_basis(m: IntMatrix) -> list[IntVector]:
    """Basis of the integer kernel ker(m) ∩ Z^ncols.

    Unimodular column reduction guarantees the returned vectors generate the
    whole integer kernel lattice.  Each vector is primitive with its first
    nonzero entry positive; the list is sorted lexicographically.
    """
    piv, u = _column_eliminate(m)
    basis = [_normalize_kernel_vector(u[j]) for j in range(piv, m.ncols)]
    basis.sort()
    return [IntVector(v) for v in basis]
