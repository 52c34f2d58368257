"""Acceptance suite: the headline computations and property checks.

Each test pins an externally meaningful statement (published series,
HOMFLY values, structural-theorem instances) or an always-on engine
contract.  All comparisons are exact; there are no tolerances.
"""

import random

import pytest
import sympy as sp

from dihedralcat.bimodule import (HomSpace, b_generator, bott_samelson,
                                  hom_degree_basis, regular)
from dihedralcat.complexes import (indecomposable_b, rouquier_braid, simplify,
                                   tensor_complex)
from dihedralcat.hecke import (canonical_word, class_of_complex,
                               delta_product, euler_check, group_elements,
                               homfly)
from dihedralcat.homology import hhh, strand_homology
from dihedralcat.series import PoincareSeries, QSeries
from dihedralcat.serre import (check_pift, check_relative_serre, check_serre,
                               check_vanishing, full_twist_inverse,
                               serre_test_objects)
from dihedralcat.trace import pi_minus, pi_plus
from helpers import (as_sympy, find_isomorphism, homology_series,
                     reference_euler_check, soergel_pairing)

WHITEHEAD = "s^-2 t s^-1 t"


@pytest.fixture(scope="session")
def whitehead_complex():
    return rouquier_braid(3, WHITEHEAD, split=True)


def _whitehead_expected():
    ps = PoincareSeries.zero()
    ps = ps.add_piece(0, 1, QSeries({-1: 1}, 0))       # T Q^-1
    ps = ps.add_piece(0, 2, QSeries({-3: 1}, 0))       # T^2 Q^-3
    ps = ps.add_piece(1, -1, QSeries({-1: 1}, 0))      # A T^-1 Q^-1
    ps = ps.add_piece(1, 0, QSeries({-3: 1}, 0))       # A Q^-3 (point)
    ps = ps.add_piece(1, 0, QSeries({-3: 1}, 1))       # A Q^-3/(1-Q^2)
    ps = ps.add_piece(1, 1, QSeries({-5: 1}, 0))       # A T Q^-5
    ps = ps.add_piece(1, 2, QSeries({-7: 1}, 0))       # A T^2 Q^-7
    ps = ps.add_piece(2, -1, QSeries({-5: 1}, 0))      # A^2 T^-1 Q^-5
    ps = ps.add_piece(2, 0, QSeries({-7: 1}, 1))       # A^2 Q^-7/(1-Q^2)
    return ps


def test_criterion_01_whitehead_golden(whitehead_complex):
    series = hhh(WHITEHEAD, 3, precomputed=whitehead_complex)
    assert series == _whitehead_expected()


def test_criterion_02_whitehead_strand_details(whitehead_complex):
    def tables(k):
        hom = strand_homology(whitehead_complex, k)
        return {t: mod.hilbert_series() for t, mod in hom.items()
                if not mod.is_zero()}

    point = lambda n: QSeries({-n: 1}, 0)          # noqa: E731  k(n)
    line = lambda n: QSeries({-n: 1}, 1)           # noqa: E731  R(n)/(linear)
    assert tables(0) == {1: point(1), 2: point(3)}
    assert tables(1) == {-1: point(1), 0: point(3) + line(3),
                         1: point(5), 2: point(7)}
    assert tables(2) == {-1: point(5), 0: line(7)}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_criterion_03_partial_trace_closed_forms(m):
    # pi_s^+-(R) = R, pi_s^+-(B_s) = R(+-1),
    # pi_s^-+(B_w) = B_t(-+(l(w)-1)) for every atom word containing t
    r = regular(m)
    assert find_isomorphism(pi_plus(r, "s").module, regular(m))
    assert find_isomorphism(pi_minus(r, "s").module, regular(m))
    bs = b_generator(m, "s")
    assert find_isomorphism(pi_plus(bs, "s").module, regular(m, 1))
    assert find_isomorphism(pi_minus(bs, "s").module, regular(m, -1))
    for word in group_elements(m):
        if "t" not in word:
            continue
        ell = len(word)
        bw = indecomposable_b(m, word)
        assert find_isomorphism(pi_minus(bw, "s").module,
                                b_generator(m, "t", shift=-(ell - 1)))
        assert find_isomorphism(pi_plus(bw, "s").module,
                                b_generator(m, "t", shift=ell - 1))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_criterion_04_vanishing_suite(m):
    assert check_vanishing(m)["status"] == "pass"


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_criterion_05_pift_minimal_form(m):
    assert check_pift(m)["status"] == "pass"


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_criterion_06_relative_serre_duality(m):
    for name, cplx in serre_test_objects(m).items():
        rep = check_relative_serre(cplx, m)
        assert rep["status"] == "pass", (name, rep)
        assert rep["witness"], name  # explicit isomorphism emitted


@pytest.mark.parametrize("m", [2, 3, 4])
def test_criterion_07_serre_duality_series(m):
    objs = serre_test_objects(m)
    for xname, xc in objs.items():
        twisted = simplify(tensor_complex(full_twist_inverse(m), xc))
        for yname, yc in objs.items():
            rep = check_serre(xc, yc, m, twisted_x=twisted)
            assert rep["status"] == "pass", (xname, yname,
                                             rep.get("residuals"))


def test_criterion_08a_hecke_class_random_braids():
    rng = random.Random(20240401)
    tokens = ["s", "t", "s^-1", "t^-1"]
    for _ in range(50):
        word = " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 6)))
        from dihedralcat.complexes import parse_braid
        cplx = rouquier_braid(3, word, split=True)
        assert class_of_complex(cplx) == delta_product(3, parse_braid(word))
        ok, residual = euler_check(hhh(word, 3, precomputed=cplx), word)
        assert ok and residual == 0, word


@pytest.mark.parametrize("m", [3, 4, 5])
def test_criterion_08b_half_twist_minimal_atoms(m):
    # minimal complex of F_{(st)^k}: B_{(st)^k} boxed, two alternating-word
    # atoms per middle degree, R(2k) on top; the inverse is the mirror
    def alt(start, length):
        word = tuple(("s", "t")[(("s", "t").index(start) + i) % 2]
                     for i in range(length))
        return canonical_word(word, m)

    for k in range(1, min(2, m // 2) + 1):
        cplx = rouquier_braid(m, " ".join(["s t"] * k), split=True)
        expect = {0: [(alt("s", 2 * k), 0)]}
        for j in range(1, 2 * k):
            expect[j] = sorted([(alt("s", 2 * k - j), j),
                                (alt("t", 2 * k - j), j)])
        expect[2 * k] = [((), 2 * k)]
        got = {d: sorted((mod.kl or mod.word, mod.shift)
                         for mod in obs)
               for d, obs in cplx.objects.items()}
        assert got == expect
        # the inverse braid's group element is (ts)^k, so the boxed atom
        # is B_{(ts)^k}; middle degrees are s/t symmetric
        inv = rouquier_braid(m, " ".join(["t^-1 s^-1"] * k), split=True)
        expect_inv = {0: [(alt("t", 2 * k), 0)]}
        for j in range(1, 2 * k):
            expect_inv[-j] = sorted([(alt("s", 2 * k - j), -j),
                                     (alt("t", 2 * k - j), -j)])
        expect_inv[-2 * k] = [((), -2 * k)]
        got_inv = {d: sorted((mod.kl or mod.word, mod.shift)
                             for mod in obs)
                   for d, obs in inv.objects.items()}
        assert got_inv == expect_inv


@pytest.mark.parametrize("word", [(), ("s",), ("t",), ("s", "t"), ("t", "s"),
                                  ("s", "s"), ("s", "t", "s"),
                                  ("t", "s", "t"), ("s", "s", "t")])
def test_criterion_09_hochschild_corner_identities(word):
    from dihedralcat.trace import hochschild
    m = 3
    mod = bott_samelson(m, word) if word else regular(m)
    hh0 = hochschild(mod, 0).module.hilbert_series()
    hh2 = hochschild(mod, 2).module.hilbert_series()

    def rank_series(bim):
        out = QSeries.zero()
        for d in bim.degrees:
            out = out + QSeries({d: 1}, 0)
        return out

    pmm = rank_series(pi_minus(pi_minus(mod, "s").module, "t").module)
    ppp = rank_series(pi_plus(pi_plus(mod, "s").module, "t").module)
    assert hh0 == QSeries(dict(pmm.num), 2)
    assert hh2 == QSeries(dict(ppp.num), 2).shift(-4)


HOMFLY_ORACLE = {
    "s t": "1",                                     # unknot
    "s t s t": "-v**4 + v**2*z**2 + 2*v**2",        # trefoil
    "s^2 t": "(v - v**3)/z + v*z",                  # Hopf-type closure
    WHITEHEAD: ("1/(v*z) - v/z - z/v**3 + 2*z/v - v*z + z**3/v"),
}


@pytest.mark.parametrize("braid", sorted(HOMFLY_ORACLE))
def test_criterion_10_homfly_specialization(braid, whitehead_complex):
    v, z = sp.symbols("v z")
    got = as_sympy(homfly(braid), v, z)
    expect = sp.sympify(HOMFLY_ORACLE[braid], {"v": v, "z": z})
    assert sp.simplify(got - expect) == 0
    pre = whitehead_complex if braid == WHITEHEAD else None
    ok, residual = euler_check(hhh(braid, 3, precomputed=pre), braid)
    assert ok and residual == 0


def test_criterion_10_euler_check_rejects_a_corrupted_series(
        whitehead_complex):
    # the Whitehead series without its first term, as the benchmark's
    # self-test corrupts it; the sympy reference agrees on both
    series = hhh(WHITEHEAD, 3, precomputed=whitehead_complex)
    corrupted = PoincareSeries.from_terms(series.terms()[1:])
    for got, ok in ((series, True), (corrupted, False)):
        assert reference_euler_check(got, WHITEHEAD)[0] == ok
        passed, residual = euler_check(got, WHITEHEAD)
        assert passed == ok and (residual == 0) == ok


def test_criterion_11a_gaussian_elimination_preserves_homology():
    # 100 random small complexes: raw vs simplified homology series agree
    rng = random.Random(11)
    tokens = ["s", "t", "s^-1", "t^-1"]
    for _ in range(100):
        word = " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 3)))
        raw = rouquier_braid(3, word)
        raw.validate()
        simp = rouquier_braid(3, word, split=True)
        simp.validate()
        assert homology_series(raw) == homology_series(simp), word


@pytest.mark.parametrize("word", [("s",), ("s", "t"), ("t", "s", "t")])
def test_criterion_11b_trace_contracts(word):
    from dihedralcat.bimodule import mat_mul
    from dihedralcat.trace import rho_endomorphism
    mod = bott_samelson(3, word)
    traced = pi_minus(mod, "s")
    t_mat = rho_endomorphism(mod, "s")
    for col in zip(*traced.incl):  # M . ker = 0
        image = mat_mul(t_mat, [[x] for x in col], mod.field)
        assert not any(row[0] for row in image)
    # traced outputs are honest free bimodules (constructors validate)
    assert pi_plus(mod, "s").module.rank == traced.module.rank


@pytest.mark.parametrize("m", [2, 3, 4])
def test_criterion_11c_soergel_hom_formula(m):
    # graded rank of Hom(BS(w), BS(u)) = epsilon(b_rev(w) b_u) at v -> Q
    words = [(), ("s",), ("t",), ("s", "t"), ("t", "s"),
             ("s", "t", "s"), ("t", "s", "t")]
    for w in words:
        for u in words:
            mod_w = bott_samelson(m, w) if w else regular(m)
            mod_u = bott_samelson(m, u) if u else regular(m)
            rank = HomSpace(mod_w, mod_u).graded_rank()
            pairing = soergel_pairing(m, w, u)
            assert sorted(pairing.terms.items()) == \
                sorted((q, c) for q, _, c in rank.terms()), (w, u)
            # HomSpace solves only the degrees the formula names; the
            # whole slices check it everywhere: dim Hom^d is the Q^d
            # coefficient of pairing / (1 - Q^2)^2
            tags = [c - d for c in mod_u.degrees for d in mod_w.degrees]
            for d in range(min(tags), max(tags) + 5):
                want = sum(c * ((d - e) // 2 + 1)
                           for e, c in pairing.terms.items()
                           if d >= e and (d - e) % 2 == 0)
                assert len(hom_degree_basis(mod_w, mod_u, d)) == want, \
                    (w, u, d)
