"""Tests for exact graded-rank series."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralcat.series import PoincareSeries, QSeries
from helpers import invert_q


def test_qseries_canonical_divides_out():
    # (1 - Q^2)/(1-Q^2)^2 == 1/(1-Q^2)
    s = QSeries({0: 1, 2: -1}, 2)
    assert s == QSeries({0: 1}, 1)
    assert s.canonical().e == 1


def test_qseries_terms_peels_negative_numerators():
    # (1 - Q^4)/(1-Q^2) = 1 + Q^2
    s = QSeries({0: 1, 4: -1}, 1)
    assert s.terms() == [(0, 0, 1), (2, 0, 1)]


def test_qseries_terms_rejects_non_module():
    with pytest.raises(ValueError):
        QSeries({0: -1}, 0).terms()


def test_qseries_terms_decomposes_what_the_peel_cannot():
    # the Borromean rings' HH^2 at T^0, also 2Q^-6 + Q^-4/(1-Q^2)^2
    s = QSeries({-6: 2, -4: -3, -2: 2}, 2)
    assert s.terms() == [(-6, 0, 2), (-4, 1, 1), (-2, 2, 1)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(-8, 8),
                          st.integers(0, 2)), min_size=1, max_size=6))
def test_qseries_terms_of_positive_sums(parts):
    s = QSeries.zero()
    for c, q, e in parts:
        s = s + QSeries({q: c}, e)
    terms = s.terms()
    assert all(c > 0 for _, _, c in terms)
    total = QSeries.zero()
    for q, e, c in terms:
        total = total + QSeries({q: c}, e)
    assert total == s


def test_qseries_arithmetic_and_shift():
    a = QSeries({0: 1}, 1)
    b = QSeries({2: 1}, 1)
    assert a - b == QSeries({0: 1}, 0)  # 1/(1-Q^2) - Q^2/(1-Q^2) = 1
    assert a.shift(3) == QSeries({3: 1}, 1)
    assert not (a - a)


def test_invert_q_is_rational_substitution():
    # 1/(1-Q^2) -> 1/(1-Q^-2) = -Q^2/(1-Q^2)
    s = QSeries({0: 1}, 1)
    assert invert_q(s) == QSeries({2: -1}, 1)
    # involution
    assert invert_q(invert_q(s)) == s
    free = QSeries({0: 1}, 2)
    assert invert_q(free) == QSeries({4: 1}, 2)


def test_poincare_series_round_trip_and_repr():
    ps = PoincareSeries.zero()
    ps = ps.add_piece(0, 1, QSeries({-1: 1}, 0))
    ps = ps.add_piece(1, 0, QSeries({-3: 1}, 1))
    assert PoincareSeries.from_terms(ps.to_json()) == ps
    text = repr(ps)
    assert "T*Q^-1" in text and "A" in text


def test_poincare_cancellation():
    ps = PoincareSeries.zero()
    ps = ps.add_piece(0, 0, QSeries({0: 1}, 0))
    ps = ps.add_piece(0, 0, QSeries({0: -1}, 0))
    assert not ps
    assert ps == PoincareSeries.zero()
