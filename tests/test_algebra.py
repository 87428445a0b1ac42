"""Exact linear algebra: rank, integer kernels."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from affsched.algebra import (
    DimensionError,
    IntMatrix,
    IntVector,
    integer_kernel_basis,
    rank,
)


def rank_oracle(rows):
    """Fraction Gaussian elimination, independent of the package code."""
    m = [[Fraction(x) for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def in_lattice(basis, v):
    """Is v an integer combination of the basis vectors?  Solved exactly."""
    if not basis:
        return all(x == 0 for x in v)
    cols = [list(b) for b in basis]
    n = len(v)
    aug = [[Fraction(cols[j][i]) for j in range(len(cols))] + [Fraction(v[i])]
           for i in range(n)]
    r = 0
    pivots = []
    for c in range(len(cols)):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c] / aug[r][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, n):
        if aug[i][-1] != 0:
            return False
    for i, c in pivots:
        if (aug[i][-1] / aug[i][c]).denominator != 1:
            return False
    return True


class TestVectorMatrix:
    def test_vector_ops(self):
        a = IntVector([1, 2, 3])
        b = IntVector([4, -1, 0])
        assert tuple(a + b) == (5, 1, 3)
        assert tuple(a - b) == (-3, 3, 3)
        assert tuple(-a) == (-1, -2, -3)
        assert a.dot(b) == 2

    def test_vector_dimension_errors(self):
        with pytest.raises(DimensionError):
            IntVector([1]) + IntVector([1, 2])
        with pytest.raises(DimensionError):
            IntVector([1]).dot(IntVector([1, 2]))

    def test_matrix_ops(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert tuple(m.matvec([1, 1])) == (3, 7)
        assert tuple(m.vecmat([1, 1])) == (4, 6)
        assert m.drop_row(0).rows == ((3, 4),)

    def test_matrix_shape_errors(self):
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2]]).matvec([1])

    def test_empty_matrix(self):
        m = IntMatrix((), 3)
        assert m.nrows == 0 and m.ncols == 3
        assert rank(m) == 0

    def test_from_rows_width(self):
        assert IntMatrix.from_rows([], 3) == IntMatrix((), 3)
        assert IntMatrix.from_rows([]).ncols == 0

    @pytest.mark.parametrize("entries", [[1.5], [2.0], ["7"], [Fraction(3)]], ids=repr)
    def test_vector_rejects_non_integers(self, entries):
        # truncating 1.5 to 1 would solve or validate a problem nobody posed
        with pytest.raises(TypeError):
            IntVector(entries)

    @pytest.mark.parametrize("rows", [[[0.5, 1]], [[1, "2"]]], ids=repr)
    def test_matrix_rejects_non_integers(self, rows):
        with pytest.raises(TypeError):
            IntMatrix(rows)

    def test_integer_kinds_stored_as_python_ints(self):
        v = IntVector(np.array([3, -1], dtype=np.int64))
        m = IntMatrix(np.array([[1, 2]], dtype=np.int32), np.int64(2))
        assert v == IntVector([3, -1]) and m == IntMatrix([[1, 2]])
        assert {type(x) for x in v.entries + m.rows[0] + (m.ncols,)} == {int}


class TestRank:
    def test_known_ranks(self):
        assert rank(IntMatrix.identity(3)) == 3
        assert rank(IntMatrix.zero(2, 4)) == 0
        assert rank(IntMatrix([[1, 2], [2, 4]])) == 1
        assert rank(IntMatrix([[2, 0, 1], [0, 3, 1], [2, 3, 2]])) == 2

    def test_against_oracle_sweep(self):
        entries = (-1, 0, 1)
        rng = random.Random(20260824)
        pool = list(itertools.product(entries, repeat=9))
        for flat in rng.sample(pool, min(10**4, len(pool))):
            rows = [flat[0:3], flat[3:6], flat[6:9]]
            assert rank(IntMatrix(rows)) == rank_oracle(rows)

    def test_rectangular_against_oracle(self):
        rng = random.Random(5)
        for _ in range(300):
            nr = rng.randint(1, 4)
            nc = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            assert rank(IntMatrix(rows)) == rank_oracle(rows)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert integer_kernel_basis(IntMatrix.identity(3)) == []

    def test_zero_matrix_kernel_is_everything(self):
        basis = integer_kernel_basis(IntMatrix.zero(2, 3))
        assert len(basis) == 3
        for v in itertools.product((-2, -1, 0, 1, 2), repeat=3):
            assert in_lattice(basis, v)

    def test_no_rows(self):
        basis = integer_kernel_basis(IntMatrix((), 2))
        assert len(basis) == 2

    def test_normalization(self):
        basis = integer_kernel_basis(IntMatrix([[2, -2]]))
        assert [tuple(v) for v in basis] == [(1, 1)]

    def test_kernel_sweep(self):
        entries = (-1, 0, 1)
        rng = random.Random(99)
        pool = list(itertools.product(entries, repeat=9))
        sample = rng.sample(pool, min(10**4, len(pool)))
        lattice_checked = set(rng.sample(range(len(sample)), 200))
        for idx, flat in enumerate(sample):
            rows = [flat[0:3], flat[3:6], flat[6:9]]
            m = IntMatrix(rows)
            basis = integer_kernel_basis(m)
            # dimension matches the rank-nullity count from the oracle
            assert len(basis) == 3 - rank_oracle(rows)
            # every basis vector really is in the kernel and is primitive
            for v in basis:
                assert m.matvec(v).is_zero()
                assert math.gcd(*v) == 1
            if idx not in lattice_checked:
                continue
            # the basis generates every small integer kernel point
            for v in itertools.product((-2, -1, 0, 1, 2), repeat=3):
                if m.matvec(IntVector(v)).is_zero():
                    assert in_lattice(basis, v)
