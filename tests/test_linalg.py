import random
import tracemalloc

import numpy as np
import pytest

from normbch import linalg
from oracles import kernel_lists, rref_lists


def _random_matrix(rng, rows, cols, q):
    return np.array([[rng.randrange(q) for _ in range(cols)] for _ in range(rows)], dtype=np.int64).reshape(rows, cols)


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


def test_full_row_rank_stops_at_the_first_prefix():
    # the identity in the first 3 of 10^6 columns: the first prefix, 4x the rows, has full row rank, so the
    # elimination reduces [prefix | I] on 12 columns, t a view of it, and copies none of the other columns
    mat = np.ones((3, 10**6), dtype=np.int8)
    mat[:, :3] = np.eye(3, dtype=np.int8)
    tracemalloc.start()
    try:
        t, rank, pivots = linalg.row_operations(mat, 7)
        assert linalg.rank(mat, 7) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rank, pivots, t.tolist()) == (3, [0, 1, 2], np.eye(3, dtype=np.int64).tolist())
    assert t.base.shape == (3, 12 + 3)
    assert peak < 1 << 16  # an int64 copy of mat takes 24 MB


def _operation_cases(rng, q):
    """Random matrices of each shape the elimination meets, by kind."""
    for _ in range(8):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(8 * rows, 120)
        wide = _random_matrix(rng, rows, cols, q)
        wide[:, rng.sample(range(cols), rows)] = np.eye(rows, dtype=np.int64)  # full row rank
        yield "wide", wide
        inner = rng.randrange(rows)  # rank at most inner < rows, so the prefix doubles to the whole matrix
        yield "deficient", _random_matrix(rng, rows, inner, q) @ _random_matrix(rng, inner, cols, q) % q
        tall = rng.randrange(4, 12)
        yield "tall", _random_matrix(rng, tall, rng.randrange(1, tall), q)
    yield "zero", np.zeros((3, 40), dtype=np.int64)
    yield "no-rows", np.zeros((0, 7), dtype=np.int64)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_row_operations_match_oracle(q):
    rng = random.Random(700 + q)
    for kind, mat in _operation_cases(rng, q):
        t, rank, pivots = linalg.row_operations(mat, q)
        want, want_pivots = rref_lists(mat.tolist(), q)
        assert (t @ mat % q).tolist() == want, kind
        assert (rank, pivots) == (len(want_pivots), want_pivots), kind
        assert len(rref_lists(t.tolist(), q)[1]) == len(mat), kind  # t is invertible
        width = min(4 * len(mat), mat.shape[1])
        while width < mat.shape[1] and len(rref_lists(mat[:, :width].tolist(), q)[1]) < len(mat):
            width = min(2 * width, mat.shape[1])
        assert t.base.shape == (len(mat), width + len(mat)), kind  # [prefix | I], the prefix by the doubling rule
        assert kind != "deficient" or (rank < len(mat) and width == mat.shape[1])


def test_rref_product_peaks_at_its_output_plus_a_chunk(monkeypatch):
    rng = random.Random(800)
    mat = _random_matrix(rng, 4, 50, 5)
    want = rref_lists(mat.tolist(), 5)[0]
    monkeypatch.setattr(linalg, "_PRODUCT_ENTRIES", 6)  # chunks of one column
    assert linalg.rref(mat, 5)[0].tolist() == want
    monkeypatch.undo()
    mat = np.ones((3, 10**6), dtype=np.int8)
    mat[:, :3] = np.eye(3, dtype=np.int8)
    tracemalloc.start()
    try:
        reduced, rank, _ = linalg.rref(mat, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == 3 and reduced.dtype == np.int64 and (reduced[:, 3:] == 1).all()
    assert peak <= reduced.nbytes + 3 * 8 * linalg._PRODUCT_ENTRIES
