import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from normbch import augmented_matrix, bch_matrix, validate_params

settings.register_profile("repro", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def params524():
    return validate_params(5, 2, 4)


@pytest.fixture(scope="session")
def params535():
    return validate_params(5, 3, 5)


@pytest.fixture(scope="session")
def h524(params524):
    return bch_matrix(params524)


@pytest.fixture(scope="session")
def ha524(params524):
    return augmented_matrix(params524)


@pytest.fixture(scope="session")
def h535(params535):
    return bch_matrix(params535)


@pytest.fixture(scope="session")
def ha535(params535):
    return augmented_matrix(params535)


@pytest.fixture
def lighter_representative(monkeypatch):
    """orbit._representatives plus, at weight 3, one representative on locator e's column, off every line."""
    from normbch import orbit

    found = orbit._representatives

    def with_weight_3(reduced, rank, q, v):
        supports, coeffs = found(reduced, rank, q, v)
        if v == 3:
            n = reduced.shape[1]
            supports, coeffs = np.vstack([supports, [[0, n - 2, n - 1]]]), np.vstack([coeffs, [[1, 1, 1]]])
        return supports, coeffs

    monkeypatch.setattr(orbit, "_representatives", with_weight_3)


@pytest.fixture
def zero_f_representative(monkeypatch):
    """orbit._representatives with the (5,3,5) representative on locators 4, 2, 1, 0 given coefficients
    1, 1, 3, 1 for 3, 2, 4, 1: still on a line, but f = sum_t c_t t^3 = 75 = 0 mod 5."""
    from normbch import orbit

    found = orbit._representatives

    def with_zero_f(reduced, rank, q, v):
        supports, coeffs = found(reduced, rank, q, v)
        if (q, reduced.shape[1], v) == (5, 125, 4):
            at = np.flatnonzero((supports == [61, 92, 123, 124]).all(axis=1))
            assert coeffs[at].tolist() == [[3, 2, 4, 1]]
            coeffs = coeffs.copy()
            coeffs[at] = [1, 1, 3, 1]
        return supports, coeffs

    monkeypatch.setattr(orbit, "_representatives", with_zero_f)
