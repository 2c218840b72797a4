"""Norm-augmented extended BCH codes over prime fields.

Construction of the parity check matrices, exhaustive certification of
minimum distance, validation of the affine-line structure of minimum
weight words, redundancy-coefficient bound tables, and alphabet
reduction by shift search.
"""

import os

# Set before numpy loads: normbch's BLAS products are tiny, and a worker thread only slows start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    EmpiricalPoint,
    bch_upper,
    best_known,
    bounds_table,
    empirical_rho,
    gilbert_upper,
    hamming_lower,
    new_upper,
    special_bounds,
    varshamov_upper,
)
from .construct import (
    CodeParams,
    Codeword,
    LocatorTable,
    ParityCheckMatrix,
    apply_affine_permutation,
    augmented_matrix,
    bch_matrix,
    build_locators,
    read_codeword_file,
    read_matrix_file,
    syndrome,
    validate_params,
    write_codeword_file,
    write_matrix_file,
)
from .errors import BudgetExceededError
from .field import (
    BasisPair,
    Field,
    FieldElement,
    FieldMismatchError,
    embed_hat,
    in_subfield,
    is_prime,
    make_basis_pair,
    make_field,
    norm,
    prime_scalar,
)
from .reduce import (
    ExplicitCode,
    ReductionResult,
    read_codeword_list,
    reduce_alphabet,
    redundancy_ratio_identity,
    write_codeword_list,
)
from .verify import (
    AffineLine,
    DistanceCertificate,
    LinesReport,
    construct_weight_word,
    enumerate_weight_words,
    min_distance_at_least,
    on_affine_line,
    vandermonde_check,
    verify_lines_theorem,
)

__all__ = [
    "AffineLine",
    "BasisPair",
    "BoundReport",
    "BudgetExceededError",
    "CodeParams",
    "Codeword",
    "DistanceCertificate",
    "EmpiricalPoint",
    "ExplicitCode",
    "Field",
    "FieldElement",
    "FieldMismatchError",
    "LinesReport",
    "LocatorTable",
    "ParityCheckMatrix",
    "ReductionResult",
    "apply_affine_permutation",
    "augmented_matrix",
    "bch_matrix",
    "bch_upper",
    "best_known",
    "bounds_table",
    "build_locators",
    "construct_weight_word",
    "embed_hat",
    "empirical_rho",
    "enumerate_weight_words",
    "gilbert_upper",
    "hamming_lower",
    "in_subfield",
    "is_prime",
    "make_basis_pair",
    "make_field",
    "min_distance_at_least",
    "new_upper",
    "norm",
    "on_affine_line",
    "prime_scalar",
    "read_codeword_file",
    "read_codeword_list",
    "read_matrix_file",
    "reduce_alphabet",
    "redundancy_ratio_identity",
    "special_bounds",
    "syndrome",
    "validate_params",
    "vandermonde_check",
    "verify_lines_theorem",
    "varshamov_upper",
    "write_codeword_file",
    "write_codeword_list",
    "write_matrix_file",
]
