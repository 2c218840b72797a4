import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from normbch import (
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
from normbch.bounds import caps_upper_d4, format_bound


class TestFormulaBounds:
    def test_hamming(self):
        assert hamming_lower(2, 7) == 3
        assert hamming_lower(5, 3) == 1
        assert hamming_lower(9, 3) == 1
        assert hamming_lower(5, 6) == 2

    def test_varshamov_gilbert(self):
        assert varshamov_upper(5) == 3 and gilbert_upper(5) == 4
        assert varshamov_upper(3) == 1 and gilbert_upper(3) == 2
        assert varshamov_upper(4) == 2 and gilbert_upper(4) == 3

    def test_bch(self):
        assert bch_upper(2, 7) == 3 == hamming_lower(2, 7)
        assert bch_upper(5, 5) == 3
        for q, d in [(5, 5), (7, 5), (11, 4), (5, 6)]:
            if q >= d - 1:
                assert bch_upper(q, d) == d - 2

    def test_new_upper_exact_rationals(self):
        assert new_upper(4) == Fraction(3, 2)
        assert new_upper(5) == Fraction(7, 3)
        assert new_upper(6) == Fraction(13, 4)

    def test_domain_checks(self):
        # every bound checks its own domain, and best_known through hamming_lower, which it calls first
        q_message, d_message = "^alphabet size q=1 must be at least 2$", "^distance d=2 must be at least 3$"
        for call, message in [(lambda: hamming_lower(1, 4), q_message), (lambda: new_upper(2), d_message),
                              (lambda: varshamov_upper(2), d_message), (lambda: gilbert_upper(2), d_message),
                              (lambda: bch_upper(1, 5), q_message), (lambda: bch_upper(5, 2), d_message),
                              (lambda: best_known(1, 5), q_message), (lambda: best_known(5, 2), d_message)]:
            with pytest.raises(ValueError, match=message):
                call()

    @given(st.integers(2, 40), st.integers(4, 12))
    def test_bch_vs_varshamov(self, q, d):
        if q < d - 1:
            assert bch_upper(q, d) <= varshamov_upper(d)
        else:
            assert bch_upper(q, d) == varshamov_upper(d)

    @given(st.integers(4, 30))
    def test_new_strictly_below_varshamov(self, d):
        assert new_upper(d) < varshamov_upper(d)


class TestSpecialBounds:
    def test_34_record(self):
        values = dict((label, v) for v, label in special_bounds(3, 4))
        assert values["ternary-caps-record"] == Fraction(13796, 10000)

    def test_46_record(self):
        values = dict((label, v) for v, label in special_bounds(4, 6))
        assert values["quaternary-d6"] == Fraction(17, 6)

    def test_caps_general_evaluation(self):
        got = special_bounds(7, 4)
        caps = [v for v, label in got if label == "caps-general"]
        assert len(caps) == 1
        assert caps[0] == pytest.approx(6 / math.log(7**4 + 7**2 - 1, 7), rel=1e-12)

    def test_caps_tends_to_three_halves_from_below(self):
        vals = [caps_upper_d4(q) for q in (3, 4, 5, 7, 11, 101)]
        assert all(v < 1.5 for v in vals)
        assert vals == sorted(vals)
        assert 1.5 - vals[-1] < 1e-3


class TestBestKnown:
    def test_binary_exact(self):
        for d in range(3, 10):
            report = best_known(2, d)
            assert report.best_upper == (d - 1) // 2
            assert report.exact

    def test_d3_exact(self):
        for q in (2, 3, 5, 7, 11):
            report = best_known(q, 3)
            assert report.best_upper == 1
            assert report.exact

    def test_55(self):
        report = best_known(5, 5)
        assert report.best_upper == Fraction(7, 3)

    def test_54_paper_formula_wins(self):
        # the caps bound is strictly below 3/2, so it is the minimum here
        report = best_known(5, 4)
        assert report.best_source == "caps-general"
        assert report.best_upper == pytest.approx(1.4913, abs=5e-5)
        assert float(report.best_upper) < 1.5

    def test_small_alphabet_records(self):
        assert best_known(3, 4).best_upper == Fraction(13796, 10000)
        assert best_known(4, 4).best_upper == Fraction(29, 20)
        assert best_known(3, 5).best_upper == 2 and best_known(3, 5).exact
        assert best_known(4, 5).best_upper == 2 and best_known(4, 5).exact
        assert best_known(3, 6).best_upper == Fraction(5, 2)
        assert best_known(4, 6).best_upper == Fraction(17, 6)
        assert best_known(7, 6).best_upper == 3

    def test_consistent_flag(self):
        assert all(best_known(q, d).consistent for q in range(2, 12) for d in range(3, 9))

    def test_monotone_under_specials(self):
        for q in range(2, 12):
            for d in range(3, 9):
                report = best_known(q, d)
                base = min(report.bch_upper, report.varshamov_upper, report.new_upper, key=float)
                assert float(report.best_upper) <= float(base)


class TestEmpirical:
    def test_rho_535(self, ha535):
        point = empirical_rho(ha535)
        assert point.redundancy == 8
        assert point.ratio == pytest.approx(8 / 3, abs=1e-9)
        assert point.ratio < varshamov_upper(5)
        assert point.ratio < bch_upper(5, 5)

    def test_rho_524(self, ha524):
        point = empirical_rho(ha524)
        assert point.redundancy == 4
        assert point.ratio == pytest.approx(2.0, abs=1e-9)

    def test_rho_base_535(self, h535):
        point = empirical_rho(h535)
        assert point.redundancy == 7
        assert point.ratio == pytest.approx(7 / 3, abs=1e-9)

    def test_ratio_recomputable(self, ha535):
        point = empirical_rho(ha535)
        assert point.ratio == pytest.approx(
            point.redundancy / (math.log(point.n) / math.log(point.q)), abs=1e-12
        )


class TestPresentation:
    def test_format_bound(self):
        assert format_bound(Fraction(7, 3)) == "7/3"
        assert format_bound(Fraction(2)) == "2"
        assert format_bound(1.49127) == "1.4913"
        assert format_bound(3) == "3"

    def test_table_contains_winners(self):
        table = bounds_table([best_known(q, d) for q in range(2, 6) for d in range(4, 7)])
        assert "7/3 [norm-bch]" in table
        assert "[ternary-caps-record]" in table
        assert "17/6 [quaternary-d6]" in table
