"""Oracle tests for the coefficient field K_m = Q[delta]/(p_m)."""

import json
from fractions import Fraction
from math import gcd

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralcat.bimodule import poly_from_json, poly_to_json
from dihedralcat.field import (FieldError, FieldScalar, _adjugate,
                               field_for)
from dihedralcat.ring import RingElement


# minimal polynomials of 2cos(pi/m), derived independently with sympy
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 12])
def test_minimal_polynomial_matches_sympy(m):
    F = field_for(m)
    x = sp.Symbol("x")
    expected = sp.minimal_polynomial(2 * sp.cos(sp.pi / m), x)
    ours = sum(sp.Rational(c) * x ** i
               for i, c in enumerate(F.minimal_polynomial))
    assert sp.expand(ours - expected) == 0


def test_known_small_cases():
    # delta = 0, 1, sqrt(2), golden ratio
    assert field_for(2).minimal_polynomial == (Fraction(0), Fraction(1))
    assert field_for(3).minimal_polynomial == (Fraction(-1), Fraction(1))
    assert field_for(4).minimal_polynomial == \
        (Fraction(-2), Fraction(0), Fraction(1))
    assert field_for(5).minimal_polynomial == \
        (Fraction(-1), Fraction(-1), Fraction(1))


@pytest.mark.parametrize("m", range(2, 13))
def test_field_axioms_and_inverse(m):
    F = field_for(m)
    d = F.delta()
    x = d * d - F.from_rational(3) * d + F.one()
    if x:
        assert x * x.inverse() == F.one()
    assert d + (-d) == F.zero()
    assert (d - F.one()) * (d + F.one()) == d * d - F.one()


def test_delta_squared_value_m4():
    F = field_for(4)
    assert F.delta() * F.delta() == F.from_rational(2)


def test_division_by_zero_raises():
    F = field_for(3)
    with pytest.raises(FieldError):
        F.zero().inverse()


def test_floats_are_refused():
    F = field_for(3)
    with pytest.raises(TypeError):
        F.from_rational(0.1)
    with pytest.raises(TypeError):
        RingElement.constant(F, 0.5)
    with pytest.raises(TypeError):
        F.one() * 0.5
    with pytest.raises(TypeError):
        FieldScalar(F, (0.5,))
    assert F.from_rational(Fraction(1, 10)) * 10 == F.one()


# Reference arithmetic on plain Fraction tuples, independent of field.py's
# integer representation and reduction table.

def _ref_mul(a, b, p):
    """a * b mod the monic p, by long division."""
    n = len(p) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c, prod[k] = prod[k], Fraction(0)
        for j in range(n):
            prod[k - n + j] -= c * p[j]
    return tuple(prod[:n])


def _assert_canonical(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert x.coeffs == tuple(Fraction(a, x.den) for a in x.num)


@st.composite
def scalar_pairs(draw):
    """(field, coefficients of a, coefficients of b); b is sometimes a."""
    F = field_for(draw(st.integers(2, 12)))  # degrees 1 to 5
    rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

    def coeffs():
        return tuple(draw(st.one_of(st.just(Fraction(0)), rational))
                     for _ in range(F.degree))

    a = coeffs()
    return F, a, a if draw(st.booleans()) else coeffs()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scalar_pairs())
def test_arithmetic_matches_fraction_reference(case):
    F, ca, cb = case
    p = F.minimal_polynomial
    # mixed int/Fraction input gives the same scalar
    a = FieldScalar(F, tuple(int(c) if c.denominator == 1 else c
                             for c in ca))
    b = FieldScalar(F, cb)
    assert a.coeffs == ca and b.coeffs == cb
    results = {
        "+": (a + b, tuple(x + y for x, y in zip(ca, cb))),
        "-": (a - b, tuple(x - y for x, y in zip(ca, cb))),
        "*": (a * b, _ref_mul(ca, cb, p)),
        "neg": (-a, tuple(-x for x in ca)),
    }
    for op, (got, want) in results.items():
        assert got.coeffs == want, op
        _assert_canonical(got)
    if a:
        inv = a.inverse()
        _assert_canonical(inv)
        assert _ref_mul(inv.coeffs, ca, p) == \
            (Fraction(1),) + (Fraction(0),) * (F.degree - 1)
    assert (a == b) == (ca == cb)
    assert hash(a) == hash((F.m, a.num, a.den))
    if a == b:
        assert hash(a) == hash(b)
    f = RingElement(F, {(0, 0): a, (2, 1): b})
    text = json.dumps(poly_to_json(f))
    g = poly_from_json(json.loads(text), F)
    assert g == f and json.dumps(poly_to_json(g)) == text


# The hot loops multiply integer K_m elements (_Integers) and make rows
# primitive through the adjugate, so these are checked at the integer level.

@st.composite
def integer_elements(draw):
    """(field of degree >= 2, numerators of a, b and c, an int k)."""
    F = field_for(draw(st.integers(4, 12)))

    def element():
        return tuple(draw(st.integers(-40, 40)) for _ in range(F.degree))

    return F, element(), element(), element(), draw(st.integers(-9, 9))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(integer_elements())
def test_integer_product_and_adjugate_match_fraction_reference(case):
    F, a, b, c, k = case
    n, p = F.degree, F.minimal_polynomial
    A, B, C = F._ints(a), F._ints(b), F._ints(c)
    for got in (A * B, k * A, A * k):
        assert type(got) is type(A)
    assert A * B == _ref_mul(a, b, p)
    assert k * A == A * k == tuple(k * x for x in a)
    if not any(a):
        return
    adj, norm = _adjugate(F._low, a)
    assert norm != 0
    assert _ref_mul(a, adj, p) == (norm,) + (0,) * (n - 1)
    # N(a) is the determinant of multiplication by a, column j = a * x^j
    cols = [_ref_mul(a, [int(i == j) for i in range(n)], p) for j in range(n)]
    assert norm == sp.Matrix(n, n, lambda i, j: cols[j][i]).det()
    if not any(b):
        return
    # primitive: lead * u = q > 0 and row * u with no common factor, which
    # pins (q, row * u) down; a common factor of lead and row changes nothing
    row = {0: B, 3: C}
    q, prim = F.primitive(A, dict(row))
    assert isinstance(q, int) and q > 0
    assert gcd(q, F.content(prim.values())) == 1
    assert all(prim[key] * A == row[key] * q for key in row)
    assert F.primitive(A * 6, {key: v * 6 for key, v in row.items()}) \
        == (q, prim)
