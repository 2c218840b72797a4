import random

import numpy as np
import pytest

from normbch import linalg
from oracles import kernel_lists, rref_lists


def _random_matrix(rng, rows, cols, q):
    return np.array([[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_rref_matches_oracle(q):
    rng = random.Random(100 + q)
    for _ in range(25):
        mat = _random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 9), q)
        got, rank, pivots = linalg.rref(mat, q)
        want, want_pivots = rref_lists(mat.tolist(), q)
        assert got.tolist() == want
        assert pivots == want_pivots
        assert rank == len(want_pivots)


@pytest.mark.parametrize("q", [3, 5])
def test_kernel_annihilates(q):
    rng = random.Random(200 + q)
    for _ in range(25):
        mat = _random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 9), q)
        basis = linalg.kernel_basis(mat, q)
        assert basis.shape[0] == mat.shape[1] - linalg.rank(mat, q)
        if basis.size:
            assert not ((mat @ basis.T) % q).any()
        assert basis.tolist() == kernel_lists(mat.tolist(), q)


def test_solve_roundtrip():
    rng = random.Random(300)
    q = 5
    for _ in range(25):
        n = rng.randrange(1, 6)
        while True:
            mat = _random_matrix(rng, n, n, q)
            if linalg.rank(mat, q) == n:
                break
        x = np.array([rng.randrange(q) for _ in range(n)])
        rhs = (mat @ x) % q
        assert (linalg.solve(mat, rhs, q) == x % q).all()


def test_solve_singular_raises():
    with pytest.raises(ValueError):
        linalg.solve([[1, 2], [2, 4]], [1, 2], 5)
    with pytest.raises(ValueError):
        linalg.solve([[1, 2], [2, 4]], [1, 3], 5)


def test_invert():
    rng = random.Random(400)
    q = 7
    for _ in range(10):
        n = rng.randrange(1, 6)
        while True:
            mat = _random_matrix(rng, n, n, q)
            if linalg.rank(mat, q) == n:
                break
        inv = linalg.invert(mat, q)
        assert ((mat @ inv) % q == np.eye(n, dtype=int)).all()
    with pytest.raises(ValueError):
        linalg.invert([[1, 2], [2, 4]], 5)
