"""Fast instances of the duality/vanishing suites (m = 2; a few m = 3)."""

import pytest

from dihedralcat import complexes, modules
from dihedralcat.bimodule import Bimodule, b_generator, regular
from dihedralcat.complexes import (rouquier_braid, simplify, single_object,
                                   tensor_complex)
from dihedralcat.ring import realization
from dihedralcat.series import QSeries
from dihedralcat.serre import (HomComplex, _is_boxed_regular,
                               check_equivalence_instance, check_pift,
                               check_relative_serre, check_semiorthogonality,
                               check_serre, check_vanishing,
                               dual_homology_series, ft_over_t, full_twist,
                               full_twist_inverse, run_suite,
                               serre_test_objects)
from helpers import reference_hom_complex


def test_full_twist_shapes():
    ft = full_twist(2)
    ft.validate()
    fti = full_twist_inverse(2)
    fti.validate()
    assert max(ft.degrees()) >= 0 >= min(fti.degrees())
    ft_t = ft_over_t(3)
    ft_t.validate()


def test_vanishing_suite_m2_and_m3():
    assert check_vanishing(2)["status"] == "pass"
    assert check_vanishing(3)["status"] == "pass"


def test_pift_m2():
    rep = check_pift(2)
    assert rep["status"] == "pass"


def test_boxed_regular_refuses_a_twisted_rank_one_atom():
    # R_s, R with its left action twisted by s: rank one, generator in
    # degree 0, and not R
    real = realization(3)
    alpha = real.alpha
    r_s = Bimodule(real, (0,), [[real.reflect(alpha["s"], "s")]],
                   [[real.reflect(alpha["t"], "s")]])
    assert _is_boxed_regular(single_object(3, regular(3, 0)))
    assert not _is_boxed_regular(single_object(3, r_s))
    assert not _is_boxed_regular(single_object(3, regular(3, 1)))


def test_relative_serre_m2_objects():
    for cplx in (single_object(2, regular(2, 0)),
                 single_object(2, b_generator(2, "s")),
                 rouquier_braid(2, "s")):
        rep = check_relative_serre(cplx, 2)
        assert rep["status"] == "pass", rep


def test_hom_complex_endomorphisms_of_unit():
    unit = single_object(2, regular(2, 0))
    series = HomComplex(unit, unit).homology_series()
    assert series == {0: QSeries({0: 1}, 2)}


@pytest.mark.parametrize("m", [2, 3])
def test_hom_complex_matches_its_reference(m):
    # the pairs check_serre builds: Hom(X, Y) and Hom(Y, FT^-1 (x) X)
    objs = list(serre_test_objects(m).values())
    twisted = [simplify(tensor_complex(full_twist_inverse(m), x))
               for x in objs]
    pairs = [(x, y) for x in objs for y in objs] + \
        [(y, tw) for tw in twisted for y in objs]
    for x, y in pairs:
        hc = HomComplex(x, y)
        assert repr((hc.degrees, hc.maps)) == \
            repr(reference_hom_complex(x, y)), (x, y)


def test_dual_homology_series_local_duality():
    # a free rank-one piece in H^0 dualizes to Q^0/(1-Q^2)^2 in H^0:
    # (q, e, n) = (0, 2, 0) -> Q^{2e-4-q} in degree -n + 2 - e = 0
    src = {0: QSeries({0: 1}, 2)}
    assert dual_homology_series(src) == {0: QSeries({0: 1}, 2)}
    # a torsion point module in H^1: (q, e, n) = (0, 0, 1) -> Q^-4 in
    # H^{-n+2-e} = H^1
    src = {1: QSeries({0: 1}, 0)}
    assert dual_homology_series(src) == {1: QSeries({-4: 1}, 0)}


@pytest.mark.parametrize("xname,yname", [("[R]", "[R]"), ("[R]", "F_s"),
                                         ("F_s", "[B_s]")])
def test_serre_duality_pairs_m2(xname, yname):
    objs = serre_test_objects(2)
    rep = check_serre(objs[xname], objs[yname], 2)
    assert rep["status"] == "pass", rep.get("residuals")


def test_semiorthogonality_m2():
    assert check_semiorthogonality(2)["status"] == "pass"


def test_equivalence_instance_m2():
    assert check_equivalence_instance(2)["status"] == "pass"


def test_run_suite_full_m2():
    rep = run_suite("full", 2)
    assert rep["status"] == "pass"
    assert {p["suite"] for p in rep["parts"]} == {
        "vanishing", "pift", "relative", "semiorthogonality", "equivalence"}


def test_relative_suite_builds_few_groebner_bases(monkeypatch):
    # From cold, run_suite("relative", 3) builds 8 ModuleGBs: 4 pi_minus
    # kernels and 4 bases of their generators for lifts (each atom is
    # traced once per shift class); complements of split idempotents are
    # taken in closed form and build none.
    complexes.clear_caches()
    calls = []
    real = modules.ModuleGB.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(modules.ModuleGB, "__init__", counting)
    assert run_suite("relative", 3)["status"] == "pass"
    assert 0 < len(calls) <= 8


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("bogus", 2)
