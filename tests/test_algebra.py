"""Exact linear algebra on int tuples: rank, integer kernels."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from affsched.algebra import dot, integer_kernel_basis, rank


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


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class TestRank:
    def test_known_ranks(self):
        assert rank(identity(3)) == 3
        assert rank(((0, 0, 0, 0),) * 2) == 0
        assert rank(((1, 2), (2, 4))) == 1
        assert rank(((2, 0, 1), (0, 3, 1), (2, 3, 2))) == 2

    def test_no_rows(self):
        assert rank(()) == 0

    def test_rows_of_another_length_rejected(self):
        with pytest.raises(ValueError, match=r"row lengths \[2, 1\], expected 2 each"):
            rank(((1, 2), (3,)))
        with pytest.raises(ValueError, match=r"row lengths \[2\], expected 1 each"):
            integer_kernel_basis(((1, 2),), 1)

    def test_against_oracle_sweep(self):
        entries = (-1, 0, 1)
        rng = random.Random(20260824)
        pool = list(itertools.product(entries, repeat=9))
        for flat in rng.sample(pool, min(10**4, len(pool))):
            rows = [flat[0:3], flat[3:6], flat[6:9]]
            assert rank(rows) == rank_oracle(rows)

    def test_rectangular_against_oracle(self):
        rng = random.Random(5)
        for _ in range(300):
            nr = rng.randint(1, 4)
            nc = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            assert rank(rows) == rank_oracle(rows)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert integer_kernel_basis(identity(3), 3) == []

    def test_zero_matrix_kernel_is_everything(self):
        basis = integer_kernel_basis(((0, 0, 0),) * 2, 3)
        assert len(basis) == 3
        for v in itertools.product((-2, -1, 0, 1, 2), repeat=3):
            assert in_lattice(basis, v)

    def test_no_rows(self):
        assert integer_kernel_basis((), 2) == [(0, 1), (1, 0)]

    def test_normalization(self):
        assert integer_kernel_basis(((2, -2),), 2) == [(1, 1)]

    def test_kernel_sweep(self):
        entries = (-1, 0, 1)
        rng = random.Random(99)
        pool = list(itertools.product(entries, repeat=9))
        sample = rng.sample(pool, min(10**4, len(pool)))
        lattice_checked = set(rng.sample(range(len(sample)), 200))
        for idx, flat in enumerate(sample):
            rows = [flat[0:3], flat[3:6], flat[6:9]]
            basis = integer_kernel_basis(rows, 3)
            # dimension matches the rank-nullity count from the oracle
            assert len(basis) == 3 - rank_oracle(rows)
            # every basis vector really is in the kernel and is primitive
            for v in basis:
                assert not any(dot(row, v) for row in rows)
                assert math.gcd(*v) == 1
            if idx not in lattice_checked:
                continue
            # the basis generates every small integer kernel point
            for v in itertools.product((-2, -1, 0, 1, 2), repeat=3):
                if not any(dot(row, v) for row in rows):
                    assert in_lattice(basis, v)
