"""The package's records: their text, their immutability and their checks.

Each record is a NamedTuple; Codeword, AffineLine and ExplicitCode check
their fields when made.  These tests pin what a caller sees of that.
"""

import pytest

from normbch import (
    AffineLine,
    Codeword,
    ExplicitCode,
    best_known,
    bch_matrix,
    empirical_rho,
    make_field,
    min_distance_at_least,
    on_affine_line,
    reduce_alphabet,
    validate_params,
    verify_lines_theorem,
)


def test_params_repr():
    assert repr(validate_params(5, 3, 5)) == (
        "CodeParams(q=5, m=3, d=5, relaxed=False, s=1, mu=3, n=125, violations=())")


def test_codeword_repr(h535):
    word = min_distance_at_least(h535, 5).counterexample  # the (5,3,5) counterexample at 25307 subsets
    assert repr(word) == "Codeword(support=(1, 7, 23, 30), coeffs=(1, 2, 4, 3))"
    assert word.weight == 4


def records(h535):
    """One record of each kind the package returns."""
    f = make_field(5, 1)
    code = ExplicitCode(q=3, n=2, words=((0, 0), (1, 1), (2, 2)))
    return {
        "CodeParams": validate_params(5, 3, 5),
        "Codeword": Codeword((1, 2), (1, 4)),
        "DistanceCertificate": min_distance_at_least(h535, 5),
        "AffineLine": on_affine_line([f.scalar(2), f.one, f.zero]),
        "LinesReport": verify_lines_theorem(validate_params(5, 2, 4)),
        "ExplicitCode": code,
        "ReductionResult": reduce_alphabet(code, [0, 1]),
        "BoundReport": best_known(7, 5),
        "EmpiricalPoint": empirical_rho(bch_matrix(validate_params(5, 2, 4))),
    }


@pytest.mark.parametrize("kind, field", [
    ("CodeParams", "q"), ("Codeword", "support"), ("DistanceCertificate", "verdict"), ("AffineLine", "b"),
    ("LinesReport", "violation_count"), ("ExplicitCode", "words"), ("ReductionResult", "shift"),
    ("BoundReport", "best_upper"), ("EmpiricalPoint", "ratio"),
])
def test_record_is_immutable(h535, kind, field):
    record = records(h535)[kind]
    assert type(record).__name__ == kind
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.note = "a record takes no new attribute"


@pytest.mark.parametrize("support, coeffs, message", [
    ((1, 2), (1,), "support and coefficients differ in length"),
    ((0, 2), (1, 1), "positions are 1-based"),
    ((2, 2), (1, 1), "support must be strictly increasing"),
    ((1, 2), (1, 0), "coefficients must be nonzero"),
])
def test_invalid_codeword(support, coeffs, message):
    with pytest.raises(ValueError) as err:
        Codeword(support, coeffs)
    assert str(err.value) == message


def test_invalid_affine_line():
    f = make_field(5, 1)
    with pytest.raises(ValueError) as err:
        AffineLine(a=f.one, b=f.zero, lambdas=(0, 1))
    assert str(err.value) == "a line needs a nonzero direction"


@pytest.mark.parametrize("q, n, words, message", [
    (0, 2, (), "alphabet size must be positive"),
    (3, 0, (), "length must be positive"),
    (3, 2, ((0, 1), (1,)), "word (1,) does not have length 2"),
    (3, 2, ((0, 3),), "word (0, 3) has symbols outside [0, 3)"),
    (3, 2, ((0, 1), (0, 1)), "codewords must be distinct"),
])
def test_invalid_explicit_code(q, n, words, message):
    with pytest.raises(ValueError) as err:
        ExplicitCode(q=q, n=n, words=words)
    assert str(err.value) == message
