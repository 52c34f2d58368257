"""Tests for partial-trace functors and Hochschild cohomology."""

import json
import re

import pytest

from dihedralcat import trace
from dihedralcat.bimodule import (Bimodule, b_generator, bott_samelson,
                                  mat_mul, regular)
from dihedralcat.complexes import (clear_caches, indecomposable_b,
                                   minimal_form, rouquier_braid, simplify,
                                   tensor_complex)
from dihedralcat.hecke import group_elements
from dihedralcat.homology import (complex_homology, complex_series,
                                  strand_homology)
from dihedralcat.ring import LETTERS, realization
from dihedralcat.series import QSeries
from dihedralcat.serre import ft_over_t, serre_test_objects
from dihedralcat.trace import (TraceError, hochschild, hochschild_on_complex,
                               pi_minus, pi_on_complex, pi_plus,
                               rho_endomorphism)
from helpers import find_isomorphism, invert_q, reference_hochschild


def _rank_series(mod):
    s = QSeries.zero()
    for d in mod.degrees:
        s = s + QSeries({d: 1}, 0)
    return s


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_trace_of_regular_and_generator(m):
    r = regular(m)
    assert list(pi_plus(r, "s").module.degrees) == [0]
    assert list(pi_minus(r, "s").module.degrees) == [0]
    bs = b_generator(m, "s")
    # pi_s^+(B_s) = R(1), pi_s^-(B_s) = R(-1)
    assert list(pi_plus(bs, "s").module.degrees) == [-1]
    assert list(pi_minus(bs, "s").module.degrees) == [1]


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("word", ["t", "st", "ts", "sts", "tst"])
def test_trace_closed_form_on_indecomposables(m, word):
    # For w containing t with l(w) <= m:
    #   pi_s^-(B_w) = B_t(-(l-1)) and pi_s^+(B_w) = B_t(l-1)
    if len(word) > m:
        pytest.skip("word not reduced for this m")
    ell = len(word)
    bw = indecomposable_b(m, tuple(word))
    pm = pi_minus(bw, "s").module
    pp = pi_plus(bw, "s").module
    assert find_isomorphism(pm, b_generator(m, "t", shift=-(ell - 1)))
    assert find_isomorphism(pp, b_generator(m, "t", shift=ell - 1))


@pytest.mark.parametrize("word", [("s",), ("s", "t"), ("t", "s", "t")])
def test_kernel_generators_are_killed(word):
    mod = bott_samelson(3, word)
    traced = pi_minus(mod, "s")
    t_mat = rho_endomorphism(mod, "s")
    for col in traced.generators:
        image = mat_mul(t_mat, [[x] for x in col], mod.field)
        assert not any(row[0] for row in image)


@pytest.mark.parametrize("word", [("s",), ("t", "s"), ("s", "t", "s")])
def test_plus_minus_rank_mirror(word):
    # cokernel and kernel traces of a BS bimodule mirror under Q -> 1/Q
    mod = bott_samelson(3, word)
    plus = _rank_series(pi_plus(mod, "s").module)
    minus = _rank_series(pi_minus(mod, "s").module)
    assert plus == invert_q(minus)


@pytest.mark.parametrize("word", [(), ("s",), ("t",), ("s", "t"),
                                  ("s", "t", "s"), ("t", "s", "t")])
def test_hochschild_corner_identities(word):
    # HH^0(M) = (pi_t^- pi_s^- M) (x) R as a graded module, and
    # HH^2(M) = (pi_t^+ pi_s^+ M)(4) (x) R  (the Koszul twist is -4)
    m = 3
    mod = bott_samelson(m, word) if word else regular(m)
    hh0 = hochschild(mod, 0).module.hilbert_series()
    hh2 = hochschild(mod, 2).module.hilbert_series()
    pmm = _rank_series(pi_minus(pi_minus(mod, "s").module, "t").module)
    ppp = _rank_series(pi_plus(pi_plus(mod, "s").module, "t").module)
    assert hh0 == QSeries(dict(pmm.num), 2)
    assert hh2 == QSeries(dict(ppp.num), 2).shift(-4)


def test_hochschild_one_of_bs_st_is_free():
    # ker d1 presents HH^1(BS(st)) with relations, which graded Nakayama
    # removes: the module is free on two generators of degree -2
    mod = bott_samelson(3, ("s", "t"))
    got, ref = hochschild(mod, 1).module, reference_hochschild(mod, 1)
    assert ref.relations and ref.rank > 2
    assert got.relations == [] and list(got.degrees) == [-2, -2]
    assert got.hilbert_series() == ref.hilbert_series()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_hochschild_one_and_two_are_free_on_every_b_w(m):
    # HH^1(B_w) and HH^2(B_w), R included, are free of ranks 2 and 1, with
    # the Hilbert series of the Koszul complex's own presentations
    for w in group_elements(m):
        mod = indecomposable_b(m, w)
        for k, rank in ((1, 2), (2, 1)):
            got = hochschild(mod, k).module
            assert got.relations == [] and got.rank == rank, (w, k)
            assert got.hilbert_series() == \
                reference_hochschild(mod, k).hilbert_series(), (w, k)


def test_twisted_rank_one_bimodule():
    # R_s: R with its left action twisted by s.  The rho-differences are
    # s(rho_s) - rho_s = -a_s and s(rho_t) - rho_t = 0, so pi_s^+ keeps the
    # relation a_s (not free), pi_s^- is zero, and HH^k is the Koszul
    # homology of (-a_s, 0): zero, then R/(a_s) on a generator of degree
    # -2, then of degree -4.  HH^1 and HH^2 are torsion, not free, which
    # the freeness contract of hochschild reports.
    real = realization(3)
    alpha = real.alpha
    mod = Bimodule(real, (0,), [[real.reflect(alpha["s"], "s")]],
                   [[real.reflect(alpha["t"], "s")]])
    # The errors name the functor and the atom.
    with pytest.raises(TraceError, match=re.escape(
            "pi_s^+ of Bimodule(rank=1, degrees=[0]) is not free "
            "(relations persist)")):
        pi_plus(mod, "s")
    assert pi_minus(mod, "s").module.rank == 0
    assert hochschild(mod, 0).module.hilbert_series() == QSeries.zero()
    for k in (1, 2):
        with pytest.raises(TraceError, match=re.escape(
                "HH^%d of Bimodule(rank=1, degrees=[0]) is not free "
                "(relations persist)" % k)):
            hochschild(mod, k)


def test_pi_on_complex_preserves_d2_and_drops_zeros():
    cplx = rouquier_braid(3, "s t", split=True)
    traced = pi_on_complex(cplx, "s", 1)
    traced.validate()
    traced_m = pi_on_complex(cplx, "s", -1).shift_internal(2)
    traced_m.validate()


def test_hochschild_on_complex_shapes():
    cplx = rouquier_braid(3, "s", split=True)
    for k in (0, 1, 2):
        degrees, maps = hochschild_on_complex(cplx, k)
        assert sorted(degrees) == sorted(cplx.degrees())
        for d in cplx.diffs:
            assert d in maps


# T_s acts by 0 on pi_s^+ M = M / T_s M and on pi_s^- M = ker T_s, so
# HH^2(pi_s^+ M) = M(4) / (T_s M + T_t M) = HH^2(M) and HH^0(pi_s^- M) =
# (ker T_t on ker T_s) = HH^0(M), naturally in M; both are additive, so the
# strands of X and of the minimal traced complexes have equal homology.
# This checks the trace layer against the Hochschild layer, and the HH^2
# route of strand_homology against HH^2 of X, the oracle.
TRACE_ROUTE_WORDS = [
    (2, "s t"), (2, "s^3 t^3"),
    (3, "s^-2 t s^-1 t"), (3, "s t s t"), (3, "s^2 t^2"),
    (3, "s^3 t^-1 s t^-1"), (3, "s^2 t^-3 s"), (3, "s^2 t^-1 s t^2 s^-1 t"),
    (4, "s t^-1 s^2 t s^-1"), (4, "s t s t"),
    (5, "s t^-1 s t"),
]


@pytest.mark.parametrize("m, word", TRACE_ROUTE_WORDS)
def test_hh0_and_hh2_strands_factor_through_the_partial_trace(m, word):
    cplx = rouquier_braid(m, word, split=True)
    field = realization(m).field

    def series(c, k):
        return complex_series(*hochschild_on_complex(c, k), field)

    plus = minimal_form(pi_on_complex(cplx, "s", 1))
    minus = minimal_form(pi_on_complex(cplx, "s", -1))
    assert series(plus, 2) == series(cplx, 2)
    assert series(minus, 0) == series(cplx, 0)
    direct = complex_homology(*hochschild_on_complex(cplx, 2), field)
    assert {d: (h.degrees, h.hilbert_series()) for d, h in direct.items()} \
        == {d: (h.degrees, h.hilbert_series())
            for d, h in strand_homology(cplx, 2).items()}


# ---------------------------------------------------------------------------
# the trace memo: each atom traced once per shift class


def _traced_summary(cplx):
    """Every trace of cplx as text: pi_on_complex repr and to_json for each
    letter and sign, and the hochschild_on_complex data for k = 0, 1, 2."""
    out = []
    for letter in LETTERS:
        for sign in (-1, 1):
            try:
                traced = pi_on_complex(cplx, letter, sign)
                out.append([repr(traced), traced.to_json()])
            except TraceError as err:
                out.append(str(err))
    out.extend(hochschild_on_complex(cplx, k) for k in (0, 1, 2))
    return json.dumps(out, sort_keys=True, default=repr)


def _memo_complexes():
    """Whitehead, T(3,5) and the complexes check_relative_serre traces for
    the six test objects at m = 3."""
    out = {"whitehead": rouquier_braid(3, "s^-2 t s^-1 t", split=True),
           "T(3,5)": rouquier_braid(3, " ".join(["s t"] * 5), split=True)}
    for name, x in serre_test_objects(3).items():
        out[name] = simplify(x)
        out["FT (x) " + name] = simplify(tensor_complex(ft_over_t(3), x))
    return out


class _NoMemo(dict):
    """A memo that keeps nothing: every trace is computed afresh."""

    def __setitem__(self, key, value):
        pass


def test_trace_memo_agrees_cold_warm_and_without_it(monkeypatch):
    cplxs = _memo_complexes()
    clear_caches()
    for cplx in cplxs.values():
        _traced_summary(cplx)
    warm = {name: _traced_summary(cplx) for name, cplx in cplxs.items()}
    for name, cplx in cplxs.items():
        clear_caches()
        assert _traced_summary(cplx) == warm[name], name
    monkeypatch.setattr(trace, "_TRACED", _NoMemo())
    for name, cplx in cplxs.items():
        assert _traced_summary(cplx) == warm[name], name
    assert not trace._TRACED


@pytest.mark.parametrize("functor, arg", [
    (pi_minus, "s"), (pi_plus, "s"), (hochschild, 0), (hochschild, 1),
    (hochschild, 2)])
def test_trace_memo_hit_at_a_shift(functor, arg):
    mod = indecomposable_b(3, "st")
    clear_caches()
    cold = functor(mod.shifted(3), arg)
    clear_caches()
    base = functor(mod, arg)
    size = len(trace._TRACED)
    warm = functor(mod.shifted(3), arg)
    assert len(trace._TRACED) == size  # answered from the memo
    assert list(warm.module.degrees) == [d - 3 for d in base.module.degrees]
    if isinstance(warm.module, Bimodule):
        assert warm.module.to_json() == cold.module.to_json()
        assert warm.module.to_json()["shift"] == 0
        assert repr(warm.module) == repr(cold.module)
    else:
        assert warm.module.degrees == cold.module.degrees
        assert warm.module.relations == cold.module.relations
    for attr in ("generators", "incl", "proj"):
        assert getattr(warm, attr) == getattr(cold, attr)
    assert warm is not base and warm.module is not base.module
