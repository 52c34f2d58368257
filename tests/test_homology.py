"""Tests for strand homology and the triply-graded series assembly."""

import sys
from math import comb

import pytest

from dihedralcat import complexes, field, homology, linalg, modules
from dihedralcat.complexes import rouquier_braid
from dihedralcat.field import field_for
from dihedralcat.hecke import euler_check
from dihedralcat.homology import (complex_homology, hhh, presented_homology,
                                  strand_homology)
from dihedralcat.modules import ModuleGB, PresentedModule
from dihedralcat.ring import RingElement
from dihedralcat.series import PoincareSeries, QSeries

WHITEHEAD = "s^-2 t s^-1 t"
BORROMEAN = "s t^-1 s t^-1 s t^-1"


def euler_characteristic_check(degrees, maps, field):
    """Sum (-1)^i HS(C_i) == Sum (-1)^i HS(H_i), returns (bool, residual)."""
    total_c = QSeries.zero()
    for d in degrees:
        pres = PresentedModule(degrees[d], [], field)
        hs = pres.hilbert_series()
        total_c = total_c + (hs if d % 2 == 0 else -hs)
    total_h = QSeries.zero()
    for d, h in complex_homology(degrees, maps, field).items():
        hs = h.hilbert_series()
        total_h = total_h + (hs if d % 2 == 0 else -hs)
    resid = total_c - total_h
    return (not resid), resid


def _two_term_data():
    # 0 -> R --alpha_s--> R(2) -> 0 in degrees 0, 1 (a degree-preserving map
    # with entry alpha_s needs the target generator in degree -2)
    F = field_for(3)
    a = RingElement.gen(F, "s")
    degrees = {0: [0], 1: [-2]}
    maps = {0: [[a]]}
    return F, degrees, maps


def test_complex_homology_two_term():
    F, degrees, maps = _two_term_data()
    hom = complex_homology(degrees, maps, F)
    # kernel in degree 0 is zero; cokernel in degree 1 is (R/alpha_s)(2)
    assert 0 not in hom or hom[0].is_zero()
    assert hom[1].hilbert_series() == QSeries({-2: 1}, 1)


def test_presented_homology_middle_of_exact_sequence():
    # R --a--> R(2) --0--> R(4) : homology at the middle and at the end
    F = field_for(3)
    a = RingElement.gen(F, "s")
    zero = RingElement.zero(F)
    degrees = {0: [0], 1: [-2], 2: [-4]}
    maps = {0: [[a]], 1: [[zero]]}
    hom = complex_homology(degrees, maps, F)
    assert hom[1].hilbert_series() == QSeries({-2: 1}, 1)
    assert hom[2].hilbert_series() == QSeries({-4: 1}, 2)


def test_euler_characteristic_check_internal():
    F, degrees, maps = _two_term_data()
    ok, residual = euler_characteristic_check(degrees, maps, F)
    assert ok and not residual


def test_strand_homology_of_unknot_braid():
    cplx = rouquier_braid(3, "s t", split=True)
    h0 = strand_homology(cplx, 0)
    nonzero = {d: p for d, p in h0.items() if not p.is_zero()}
    assert sorted(nonzero) == [2]
    assert nonzero[2].hilbert_series() == QSeries({-2: 1}, 0)


def test_hhh_unknot_is_monomial():
    expect = PoincareSeries.zero().add_piece(0, 2, QSeries({-2: 1}, 0))
    assert hhh("s t", 3) == expect


def test_hhh_hopf_link():
    got = hhh("s^2 t", 3)
    expect = (PoincareSeries.zero()
              .add_piece(0, 1, QSeries({1: 1}, 1))
              .add_piece(0, 3, QSeries({-3: 1}, 0))
              .add_piece(1, 1, QSeries({-3: 1}, 1)))
    assert got == expect


@pytest.mark.parametrize("word", ["s t", "s^2 t", "s t s t"])
def test_euler_characteristic_matches_homfly(word):
    ok, residual = euler_check(hhh(word, 3), word)
    assert ok, residual


def test_hhh_accepts_precomputed_complex():
    cplx = rouquier_braid(3, "s t", split=True)
    assert hhh("s t", 3, precomputed=cplx) == hhh("s t", 3)


def test_whitehead_hhh_builds_few_groebner_bases(monkeypatch):
    # From cold, the Whitehead hhh builds 62 ModuleGBs with 281 basis
    # vectors: 30 syzygy bases of the strand homology (156 vectors), 12 of
    # HH kernels (72), 12 bases of the kernels' generators for lifts (37)
    # and 8 for Hilbert series (16); split complements (closed form), pi_s^+,
    # which strand 2 goes through, and minimalize_columns build none.
    # Homology bases track only the syzygy coordinates they read and
    # Hilbert series bases none.
    complexes.clear_caches()
    calls, sizes = [], []
    real = modules.ModuleGB.__init__
    minimalize = modules.minimalize_columns.__code__

    def counting(self, *args, **kwargs):
        frame, inside = sys._getframe(1), False
        while frame is not None and not inside:
            inside = frame.f_code is minimalize
            frame = frame.f_back
        calls.append(inside)
        real(self, *args, **kwargs)
        sizes.append(len(self._basis))

    monkeypatch.setattr(modules.ModuleGB, "__init__", counting)
    hhh(WHITEHEAD, 3)
    assert 0 < len(calls) <= 62
    assert not any(calls)
    assert 0 < sum(sizes) <= 281


def test_whitehead_hh1_strand_is_a_complex_of_free_modules(monkeypatch):
    # HH^1 of each atom is free of rank 2, so the HH^1 strand hands
    # presented_homology at most two generators per atom
    cplx = rouquier_braid(3, WHITEHEAD, split=True)
    seen = []
    real = homology.presented_homology

    def recording(degrees, maps, field, at):
        seen.append(degrees)
        return real(degrees, maps, field, at)

    monkeypatch.setattr(homology, "presented_homology", recording)
    hhh(WHITEHEAD, 3, strands=(1,), precomputed=cplx)
    assert seen
    for degrees in seen:
        for d, obs in cplx.objects.items():
            assert len(degrees[d]) <= 2 * len(obs)


def test_whitehead_hhh_solves_small_hom_systems(monkeypatch):
    # At m = 3 hom_degree_basis builds only the equations of left a_s (a
    # map that commutes with it is a bimodule map), so the cold Whitehead
    # hhh hands 1,310 nonzero rows to its hom solves, 2,621 with both
    # letters.  This path solves no chain maps, so every kernel here is a
    # hom solve.
    complexes.clear_caches()
    rows = []
    real = linalg.sparse_kernel_basis

    def counting(raw, ncols, field, nullity=None):
        raw = list(raw)
        rows.extend(row for row in raw if any(row.values()))
        return real(raw, ncols, field, nullity)

    monkeypatch.setattr(linalg, "sparse_kernel_basis", counting)
    hhh(WHITEHEAD, 3)
    assert 0 < len(rows) <= 1400


def test_whitehead_hhh_multiplies_few_field_scalars(monkeypatch):
    # Eliminations, Groebner reductions and matrix products run on integer
    # K_m rows, so a cold Whitehead hhh makes a few hundred FieldScalar
    # products; it made 125,638 when each of them built reduced scalars.
    complexes.clear_caches()
    calls = []
    real = field.FieldScalar.__mul__

    def counting(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(field.FieldScalar, "__mul__", counting)
    monkeypatch.setattr(field.FieldScalar, "__rmul__", counting)
    hhh(WHITEHEAD, 3)
    assert 0 < len(calls) <= 125638 // 2


def _full_syzygy_project(columns, rank, field, first=None):
    """The reference: every column tracked, syzygies cut to the first
    `first` coordinates (by default all), zero vectors dropped."""
    if not columns:
        return []
    cut = [vec[:first] for vec in ModuleGB(columns, rank, field).syzygies()]
    return [vec for vec in cut if any(vec)]


@pytest.mark.parametrize("word", [WHITEHEAD, BORROMEAN])
def test_strand_homology_matches_fully_tracked_syzygies(word, monkeypatch):
    cplx = rouquier_braid(3, word, split=True)

    def presentations():
        return {(k, d): (mod.degrees, mod.relations)
                for k in (0, 1, 2)
                for d, mod in strand_homology(cplx, k).items()}

    got = presentations()
    monkeypatch.setattr(homology, "kernel", _full_syzygy_project)
    assert got == presentations()
    assert got


def test_borromean_hhh_passes_the_euler_check():
    # HH^2 at T^0 is {-6: 2, -4: -3, -2: 2}/(1-Q^2)^2, which the peel of
    # QSeries.terms cannot decompose on its own
    series = hhh(BORROMEAN, 3)
    assert QSeries({-6: 2, -4: -3, -2: 2}, 2) == series.strata[(2, 0)]
    ok, residual = euler_check(series, BORROMEAN)
    assert ok, residual


# The A^0 slice of HHH(T(3, n)) is the rational q,t-Catalan number
# (Gorsky-Negut 2015; Mellit 2016): C(n+3, 3)/(n+3) monomials, each with
# coefficient 1 and no 1/(1-Q^2), and symmetric under q <-> t, which in
# these gradings is (t, q) -> (t + q + 2, -q - 4).
@pytest.mark.parametrize("n", [4, 5, 7, 8])
def test_torus_knot_bottom_slice_is_the_rational_catalan_number(n):
    series = hhh(" ".join(["s t"] * n), 3, strands=(0,))
    bottom = [term for term in series.terms() if term[0] == 0]
    assert len(bottom) == comb(n + 3, 3) // (n + 3)
    assert all(e == 0 and c == 1 for _, _, _, e, c in bottom)
    tq = {(t, q) for _, t, q, _, _ in bottom}
    assert tq == {(t + q + 2, -q - 4) for t, q in tq}


def test_torus_knot_t34_passes_the_euler_check():
    word = " ".join(["s t"] * 4)
    ok, residual = euler_check(hhh(word, 3), word)
    assert ok and residual == 0


def _braid_text(letters):
    return " ".join(x if sign > 0 else x + "^-1" for x, sign in letters)


# HHH of a braid closure is a conjugacy invariant (HH is a trace), and the
# s <-> t swap is an automorphism of the Coxeter system.  One fixed list,
# its words kept short so that every rotation stays cheap.
CONJUGATION_WORDS = [
    (2, "s t^-1 s s t"),
    (3, "s^2 t^-1 s t"),
    (3, "s t^-1 s^-1 t"),
    (4, "s t^-1 s t"),
    (4, "s^2 t s^-1"),
    (5, "s^2 t s^-1"),
    (5, "s t s t^-1"),
]


@pytest.mark.parametrize("m, word", CONJUGATION_WORDS)
def test_hhh_is_a_conjugation_invariant(m, word):
    letters = complexes.parse_braid(word)
    want = hhh(word, m)
    rotations = [letters[k:] + letters[:k] for k in range(1, len(letters))]
    swapped = [("t" if x == "s" else "s", sign) for x, sign in letters]
    padded = letters[:1] + [("t", 1), ("t", -1)] + letters[1:]
    for other in rotations + [swapped, padded]:
        assert hhh(_braid_text(other), m) == want, _braid_text(other)
