"""Oracle tests for the ring R = K_m[alpha_s, alpha_t] and its W-action."""

from fractions import Fraction

import pytest

from dihedralcat.field import field_for
from dihedralcat.ring import LETTERS, RingElement, realization

from helpers import pairing


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_pairing_normalization(m):
    # <alpha_u, alpha_v_check> = cartan[v][u]; <rho_u, alpha_v_check> = delta_uv
    real = realization(m)
    for u in LETTERS:
        for v in LETTERS:
            expected = real.field.one() if u == v else real.field.zero()
            assert pairing(real, real.rho[u], v) == expected
    assert pairing(real, real.alpha["s"], "s") == \
        real.field.from_rational(2)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_reflection_is_involution(m):
    real = realization(m)
    f = real.alpha["s"] * real.alpha["s"] * real.alpha["t"] + \
        real.alpha["t"].scale(real.field.delta())
    for x in LETTERS:
        assert real.reflect(real.reflect(f, x), x) == f
        assert real.reflect(real.alpha[x], x) == -real.alpha[x]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_braid_relation_on_reflections(m):
    # (s t s ...) = (t s t ...), m factors, acting on linear forms
    real = realization(m)
    f = real.alpha["s"] + real.alpha["t"].scale(real.field.delta())

    def act(word, g):
        for x in reversed(word):
            g = real.reflect(g, x)
        return g

    w1 = [LETTERS[k % 2] for k in range(m)]
    w2 = [LETTERS[(k + 1) % 2] for k in range(m)]
    assert act(w1, f) == act(w2, f)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_demazure_properties(m):
    real = realization(m)
    a_s = real.alpha["s"]
    a_t = real.alpha["t"]
    # demazure(alpha_s, s) = 2, twisted Leibniz, kills invariants
    assert real.demazure(a_s, "s") == RingElement.constant(real.field, 2)
    f = a_s * a_t + a_t * a_t
    g = a_s - a_t
    lhs = real.demazure(f * g, "s")
    rhs = real.demazure(f, "s") * g + real.reflect(f, "s") * \
        real.demazure(g, "s")
    assert lhs == rhs
    inv = f + real.reflect(f, "s")
    assert not real.demazure(inv, "s")


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_invariant_split(m):
    real = realization(m)
    f = real.alpha["s"] * real.alpha["s"] + \
        real.alpha["s"] * real.alpha["t"].scale(real.field.delta())
    for x in LETTERS:
        g, h = real.invariant_split(f, x)
        assert g + real.alpha[x] * h == f
        assert real.reflect(g, x) == g
        assert real.reflect(h, x) == h


def test_ring_arithmetic_and_division():
    F = field_for(3)
    a = RingElement.gen(F, "s")
    b = RingElement.gen(F, "t")
    f = (a + b) * (a - b)
    assert f == a * a - b * b
    g = (a * b + a * a).divide_by_gen("s")
    assert g == b + a
    assert f.degree() == 4  # generators sit in degree 2


def test_render_round_trip():
    F = field_for(3)
    a = RingElement.gen(F, "s")
    assert "a_s" in repr(a)
    half = RingElement(F, {(1, 1): F.from_rational(Fraction(1, 2))})
    assert repr(half)
