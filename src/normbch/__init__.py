"""Norm-augmented extended BCH codes over prime fields.

Construction of the parity check matrices, exhaustive certification of
minimum distance, validation of the affine-line structure of minimum
weight words, redundancy-coefficient bound tables, and alphabet
reduction by shift search.
"""

import importlib
import os

# Set before numpy loads: normbch's BLAS products are tiny, and a worker thread only slows start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Each public name under the submodule that defines it; every submodule is a
# key, so `normbch.<submodule>` resolves too.  Nothing is imported here: a
# submodule loads on the first access to it or to one of its names (PEP 562),
# so `import normbch` does not load numpy and each CLI command compiles only
# the engines it runs.
_EXPORTS = {
    "bounds": (
        "BoundReport", "EmpiricalPoint", "bch_upper", "best_known", "bounds_table", "empirical_rho",
        "gilbert_upper", "hamming_lower", "new_upper", "special_bounds", "varshamov_upper",
    ),
    "cli": (),
    "construct": (
        "CodeParams", "Codeword", "LocatorTable", "ParityCheckMatrix", "apply_affine_permutation",
        "augmented_matrix", "bch_matrix", "read_matrix_file", "syndrome", "validate_params",
    ),
    "errors": ("BudgetExceededError",),
    "field": (
        "BasisPair", "Field", "FieldElement", "FieldMismatchError", "embed_hat", "make_basis_pair",
        "make_field", "norm",
    ),
    "linalg": (),
    "lines": (
        "AffineLine", "LinesReport", "construct_weight_word", "enumerate_weight_words", "on_affine_line",
        "vandermonde_check", "verify_lines_theorem",
    ),
    "orbit": (),
    "reduce": ("ExplicitCode", "ReductionResult", "read_codeword_list", "reduce_alphabet"),
    "verify": ("DistanceCertificate", "min_distance_at_least"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 of data as hex, from CPython's built-in hash module.

    hashlib would map OpenSSL's libcrypto, about 3.5 MB of RSS for the one
    digest a command prints; it serves only a build without the built-in
    module, and gives the same digest.
    """
    try:
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _is_digit_below(text: str, q: int) -> bool:
    """Whether text is ASCII digits whose value is below q; one longer than q's digits never reaches int()."""
    return text.isascii() and text.isdigit() and len(text.lstrip("0")) <= len(str(q)) and int(text) < q


# The primality test lives here, not in field, so the matrix reader checks an
# alphabet without compiling the field code; field imports both.
def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; none for n < 2."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value
