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
        basis = kernel_lists(mat.tolist(), q)
        assert len(basis) == mat.shape[1] - linalg.rank(mat, q)
        if not basis:
            with pytest.raises(ValueError, match="independent"):
                linalg.kernel_vector(mat, q)
            continue
        vec = linalg.kernel_vector(mat, q)
        assert not ((mat @ vec) % q).any()
        assert vec.tolist() == basis[0]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_prefix_rank_matches_rref(q):
    rng = random.Random(500 + q)
    for _ in range(40):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 80)
        mat = _random_matrix(rng, rows, cols, q)
        if rng.random() < 0.5:  # rank at most `inner`, often below the row count
            inner = rng.randrange(1, rows + 1)
            mat = _random_matrix(rng, rows, inner, q) @ _random_matrix(rng, inner, cols, q) % q
        assert linalg.rank(mat, q) == linalg.rref(mat, q)[1]


def test_prefix_rank_edge_cases():
    rng = random.Random(600)
    q = 5
    # Equal except in the last column: every prefix short of the full
    # width has rank 1, the whole matrix rank 2.
    row = [rng.randrange(q) for _ in range(50)]
    assert linalg.rank([row, row[:-1] + [(row[-1] + 1) % q]], q) == 2
    assert linalg.rank([row, row], q) == 1
    assert linalg.rank(np.zeros((3, 40), dtype=np.int64), q) == 0
    assert linalg.rank(np.zeros((0, 7), dtype=np.int64), q) == 0
    tall = _random_matrix(rng, 9, 3, q)
    assert linalg.rank(tall, q) == linalg.rref(tall, q)[1] == 3


def test_full_row_rank_stops_at_the_first_prefix(monkeypatch):
    widths = []
    rref = linalg.rref

    def spy(mat, p):
        widths.append(np.shape(mat)[1])
        return rref(mat, p)

    monkeypatch.setattr(linalg, "rref", spy)
    mat = np.hstack([np.eye(3, dtype=np.int64), np.ones((3, 997), dtype=np.int64)])
    assert linalg.rank(mat, 7) == 3
    assert widths == [12]
