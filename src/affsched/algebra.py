"""Exact integer/rational linear algebra used by every other module.

All schedule and allocation computations are exact statements over Z and Q,
so nothing here ever touches floating point.  Rationals are plain
``fractions.Fraction`` (always reduced, positive denominator); a vector is a
tuple of Python ints and a matrix a tuple of such rows.  Nothing here checks
an entry: each is checked once, where it enters the program (the document
readers, `validate`'s sizes and `SolverConfig`).
"""

from __future__ import annotations

from operator import mul


def dot(u, v) -> int:
    """Dot product of two int sequences of one length, unchecked."""
    return sum(map(mul, u, v))


def _column_eliminate(rows, nc: int):
    """Integer column elimination with a unimodular transform.

    Returns (pivot count, U) where U is a nc x nc unimodular matrix (as
    column lists) such that the first `pivots` transformed columns of the
    matrix with the given `rows`, each of `nc` ints, are independent and
    the rest are zero.  A row of another length raises ValueError.
    """
    if any(len(r) != nc for r in rows):
        raise ValueError(f"row lengths {[len(r) for r in rows]}, expected {nc} each")
    nr = len(rows)
    a = [[rows[i][j] for i in range(nr)] for j in range(nc)]  # column-major
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


def rank(rows) -> int:
    """Rank over Q of the matrix with the given int `rows`, by exact integer elimination."""
    piv, _ = _column_eliminate(rows, len(rows[0]) if rows else 0)
    return piv


def _normalize_kernel_vector(v):
    # v is a column of a unimodular matrix, so it is already primitive
    for x in v:
        if x != 0:
            if x < 0:
                v = [-y for y in v]
            break
    return tuple(v)


def integer_kernel_basis(rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of the integer kernel ker(m) ∩ Z^ncols of the matrix m with the given `rows`.

    Unimodular column reduction guarantees the returned vectors generate the
    whole integer kernel lattice.  Each vector is primitive with its first
    nonzero entry positive; the list is sorted lexicographically.
    """
    piv, u = _column_eliminate(rows, ncols)
    return sorted(_normalize_kernel_vector(u[j]) for j in range(piv, ncols))
