"""Tests of the exact integer determinant behind symbolic_determinant,
which reads the coefficients of det(B + yR) off one integer determinant.

The determinant is cross-checked against a direct permutation expansion,
which is independent of the fraction-free elimination under test.
"""

import itertools
import random

from exactmatch.algebraic import determinant

from test_algebraic import perm_sign


def determinant_oracle(matrix):
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def rand_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


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

