"""Tests of the Polynomial value type and of the exact integer determinant
behind symbolic_determinant.

The determinant is cross-checked against a direct permutation expansion,
which is independent of the fraction-free elimination under test.
"""

import itertools
import random

import pytest

from exactmatch.algebraic import determinant
from exactmatch.polynomials import Polynomial


def perm_sign(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm))
        if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def determinant_oracle(matrix):
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def rand_poly(rng, max_deg=2, lo=-3, hi=3):
    return Polynomial([rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg + 1))])


def rand_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_construction_trims_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
    assert Polynomial([0, 0]) == Polynomial.zero()
    assert Polynomial([]).degree == -1


def test_degree_and_coeff():
    p = Polynomial([5, 0, 7])
    assert p.degree == 2
    assert p.coeff(0) == 5
    assert p.coeff(1) == 0
    assert p.coeff(2) == 7
    assert p.coeff(9) == 0


def test_monomial_and_constant():
    assert Polynomial.monomial(3, 2) == Polynomial([0, 0, 3])
    assert Polynomial.monomial(0, 5) == Polynomial.zero()
    assert Polynomial.monomial(4, 0).degree == 0
    with pytest.raises(ValueError):
        Polynomial.monomial(1, -1)


def test_immutable_and_hashable():
    p = Polynomial([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(p) == hash(Polynomial([1, 2, 0]))


def test_ring_ops():
    # addition is the one arithmetic operation Polynomial keeps
    a = Polynomial([1, 1])        # 1 + y
    b = Polynomial([-1, 1])       # y - 1
    assert a + b == Polynomial([0, 2])
    assert a + Polynomial([-1, -1]) == Polynomial.zero()
    assert a + Polynomial.zero() == a


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


def test_int_coercion_in_eq():
    assert Polynomial([7]) == 7
    assert Polynomial.zero() == 0
    assert Polynomial([0, 1]) != 1


def test_determinant_small_known():
    assert determinant([[1, 0], [0, 1]]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([]) == 1
    assert determinant([[-5]]) == -5


def test_determinant_zero_pivot_column():
    # first column identically zero forces the pivoting path
    assert determinant([[0, 1], [0, 1]]) == 0


def test_determinant_needs_row_swap():
    mat = [
        [0, 1, 0],
        [1, 0, 0],
        [0, 0, 2],
    ]
    assert determinant(mat) == determinant_oracle(mat)
    assert determinant(mat) == -2


def test_determinant_matches_oracle_random():
    rng = random.Random(13)
    for _ in range(60):
        mat = rand_matrix(rng, rng.randint(0, 5))
        assert determinant(mat) == determinant_oracle(mat)


def test_determinant_singular_integer_matrix():
    assert determinant([[1, 2], [2, 4]]) == 0


def test_determinant_multilinearity_spot():
    rng = random.Random(14)
    for _ in range(20):
        base = rand_matrix(rng, 3)
        scaled = [row[:] for row in base]
        scaled[1] = [2 * x for x in scaled[1]]
        assert determinant(scaled) == 2 * determinant(base)

