"""Tests for the Hecke-algebra layer, decategorification and HOMFLY."""

import itertools
import random

import pytest
import sympy as sp

from dihedralcat.complexes import parse_braid, rouquier_braid
from dihedralcat.hecke import (HeckeElement, Laurent, bs_class, canonical_word,
                               class_of_complex, delta_product, group_elements,
                               homfly, kl_basis, kl_multiplicities,
                               standard_in_kl)

from helpers import as_sympy, reference_homfly, soergel_pairing


def test_laurent_arithmetic():
    v = Laurent.monomial(1)
    vi = Laurent.monomial(-1)
    assert v * vi == Laurent.one()
    assert v + vi - v == vi
    assert not (v - v)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_group_elements_and_canonical(m):
    elements = group_elements(m)
    assert len(elements) == 2 * m
    assert len(set(elements)) == 2 * m
    # the longest element is stored with the s-first reduced word
    w0_t_first = tuple(("t", "s")[k % 2] for k in range(m))
    assert canonical_word(w0_t_first, m) == \
        tuple(("s", "t")[k % 2] for k in range(m))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_quadratic_relation_and_inverse(m):
    # delta_s^2 = (v^-1 - v) delta_s + 1
    ds = HeckeElement.delta(m, ("s",))
    lhs = ds * ds
    rhs = ds.scale(Laurent({-1: 1, 1: -1})) + HeckeElement.unit(m)
    assert lhs == rhs
    # delta_s * delta_s^-1 = 1
    inv = HeckeElement.unit(m).times_generator("s", -1)
    assert ds * inv == HeckeElement.unit(m)
    assert inv * ds == HeckeElement.unit(m)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_kl_round_trip(m):
    # expanding b_w in standards and collecting back is the identity
    for w in group_elements(m):
        b = kl_basis(m, w)
        total = HeckeElement(m)
        for u, coeff in b.terms.items():
            total = total + HeckeElement.delta(m, u).scale(coeff)
        assert total == b
        # triangularity: coefficient of w in b_w is 1
        assert b.coefficient(w) == Laurent.one()
    # standard_in_kl inverts kl_basis on a sample
    word = ("s", "t")
    expansion = standard_in_kl(m, word)
    total = HeckeElement(m)
    for u, coeff in expansion.items():
        total = total + kl_basis(m, u).scale(coeff)
    assert total == HeckeElement.delta(m, word)


def test_kl_multiplicities():
    # BS(stst) = B_sts(-1) + B_sts(1) + B_st at m = 3
    assert kl_multiplicities(bs_class(3, "stst")) == {
        ("s", "t", "s"): Laurent({-1: 1, 1: 1}), ("s", "t"): Laurent.one()}
    with pytest.raises(ValueError, match="negative"):
        kl_multiplicities(HeckeElement.delta(3, "s"))  # b_s - v b_e


def test_class_of_rouquier_generators():
    for sign in (1, -1):
        cplx = rouquier_braid(3, "s" if sign > 0 else "s^-1", split=True)
        expect = HeckeElement.unit(3).times_generator("s", sign)
        assert class_of_complex(cplx) == expect


def test_class_of_complex_random_braids():
    rng = random.Random(20240401)
    tokens = ["s", "t", "s^-1", "t^-1"]
    for _ in range(50):
        word = " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 3)))
        cplx = rouquier_braid(3, word, split=True)
        assert class_of_complex(cplx) == delta_product(3, parse_braid(word))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_soergel_pairing_categorifies_hom(m):
    from dihedralcat.bimodule import HomSpace, bott_samelson, regular
    # (b_w, b_u) equals the graded rank of Hom(BS(w), BS(u)) at v -> Q
    words = [(), ("s",), ("t",), ("s", "t")]
    for w in words:
        for u in words:
            pairing = soergel_pairing(m, w, u)
            mod_w = bott_samelson(m, w) if w else regular(m)
            mod_u = bott_samelson(m, u) if u else regular(m)
            rank = HomSpace(mod_w, mod_u).graded_rank()
            assert sorted(pairing.terms.items()) == \
                sorted((q, c) for q, _, c in rank.terms())


def test_bs_class_is_product_of_kl_generators():
    m = 3
    assert bs_class(m, ("s", "t")) == kl_basis(m, ("s",)) * kl_basis(m, ("t",))


HOMFLY_TABLE = {
    # braid: closure, HOMFLY in (v, z) with P(unknot) = 1
    "s t": "1",                                          # unknot
    "s": "(v**-1 - v)/z",                                # 2-component unlink
    "s t s t": "-v**4 + v**2*z**2 + 2*v**2",             # trefoil
    "s^3 t": "-v**4 + v**2*z**2 + 2*v**2",               # trefoil again
    "s^2 t": "(v - v**3)/z + v*z",                       # positive Hopf link
    "s t^-1 s t^-1": "v**-2 - 1 + v**2 - z**2",          # figure-8
}


@pytest.mark.parametrize("braid,expect", sorted(HOMFLY_TABLE.items()))
def test_homfly_literature_values(braid, expect):
    v, z = sp.symbols("v z")
    got = as_sympy(homfly(braid), v, z)
    assert sp.simplify(got - sp.sympify(expect, {"v": v, "z": z})) == 0


def test_homfly_skein_relation():
    # v^-1 P(L+) - v P(L-) = z P(L0) on random 3-strand sites
    v, z = sp.symbols("v z")

    def poly(word):
        return as_sympy(homfly(word), v, z)

    rng = random.Random(7)
    tokens = ["s", "t", "s^-1", "t^-1"]
    for _ in range(6):
        word = [rng.choice(tokens) for _ in range(rng.randint(0, 3))]
        site = rng.choice(["s", "t"])
        plus = " ".join(word + [site]) or site
        minus = " ".join(word + [site + "^-1"])
        zero = " ".join(word) if word else "s s^-1"
        lhs = poly(plus) / v - v * poly(minus)
        assert sp.expand(lhs - z * poly(zero)) == 0


def test_homfly_markov_moves():
    # conjugation invariance of the closure
    assert homfly("s t s") == homfly("t s s")
    assert homfly("s^2 t") == homfly("t s^2")


def test_homfly_matches_the_sympy_reference():
    # every braid word of 1-4 letters: an exact Laurent polynomial equal to
    # the rational function sympy canonicalizes
    v, z = sp.symbols("v z")
    tokens = ["s", "t", "s^-1", "t^-1"]
    for n in range(1, 5):
        for letters in itertools.product(tokens, repeat=n):
            word = " ".join(letters)
            got = homfly(word)
            assert all(c for c in got.values()), word
            assert sp.expand(as_sympy(got, v, z)
                             - reference_homfly(word, (v, z))) == 0, word
