"""Homology of complexes of free graded modules and HHH assembly.

Homology takes one shape, a complex of free graded R-modules: {cohom
degree: generator degrees} and {cohom degree: matrix over R to the next
degree}.  trace checks that every atom's HH^k is free.  The kernel of a
differential is free (R has global dimension 2) but need not be a direct
summand, so the incoming map's columns get their coordinates in its
minimal generators by a Groebner lift, the one lift of the HHH route.

The triply-graded series is assembled strandwise: for each Hochschild
degree k the simplified Rouquier complex is pushed through HH^k, homology
is taken per cohomological (T-) degree, and Hilbert series are summed.  The
Koszul twists M(2), M(4) already carry the internal-degree normalization.
Strand 2 is taken on the smaller minimal pi_s^+ complex: T_s acts by 0 on
pi_s^+ M = M / T_s M, so HH^2(pi_s^+ M) = M(4) / (T_s M + T_t M) = HH^2(M)
naturally in M, and HH^2 is additive, so it takes the homotopy equivalence
of Gaussian elimination to an isomorphism on homology.
"""

from __future__ import annotations

from .bimodule import _lift_images, mat_transpose
from .complexes import minimal_form, rouquier_braid
from .modules import (ModuleGB, PresentedModule, column_degree, kernel,
                      minimalize_columns)
from .ring import realization
from .series import PoincareSeries
from .trace import hochschild_on_complex, pi_on_complex


def presented_homology(degrees, maps, field, at):
    """ker/im homology of a complex of free modules at one degree.

    degrees: {cohom degree: generator degrees}; maps: {cohom degree: matrix
    over R to the next degree}.  The relations are the lifts of the
    incoming map's columns to the minimal generators of the kernel, which
    have no syzygies: a free module's minimal generators are a basis.
    """
    deg_at = degrees[at]
    n_at = len(deg_at)
    bmat = maps.get(at - 1)
    if bmat is not None and len(bmat) != n_at:
        raise ValueError("the map into degree %d has %d rows, but degree %d "
                         "has %d generators" % (at, len(bmat), at, n_at))
    if not n_at:
        return PresentedModule([], [], field)
    lower = [] if bmat is None else [c for c in mat_transpose(bmat) if any(c)]
    amat = maps.get(at)
    if amat is not None and len(amat):
        kgens = minimalize_columns(
            [c for c in kernel(mat_transpose(amat), len(amat), field)
             if any(c)], list(deg_at))
        if not kgens:
            return PresentedModule([], [], field)
        kdegs = [column_degree(c, list(deg_at)) for c in kgens]
        rels = mat_transpose(_lift_images(ModuleGB(kgens, n_at, field),
                                          lower, ValueError))
    else:
        # the kernel is free on the unit columns, by ascending degree as
        # minimalize_columns keeps them: a lift is a column's entries there
        order = sorted(range(n_at), key=deg_at.__getitem__)
        kdegs = [deg_at[i] for i in order]
        rels = [[c[i] for i in order] for c in lower]
    return PresentedModule(kdegs, rels, field).minimalize()


def complex_homology(degrees, maps, field):
    """All homology modules, {cohom degree: minimal PresentedModule}."""
    out = {}
    for d in sorted(degrees):
        h = presented_homology(degrees, maps, field, d)
        if h.rank:
            out[d] = h
    return out


def complex_series(degrees, maps, field):
    """{cohom degree: Hilbert QSeries} of the nonzero homology modules of a
    complex of free modules, given as for presented_homology."""
    return {d: h.hilbert_series()
            for d, h in complex_homology(degrees, maps, field).items()}


def strand_homology(cplx, k):
    """{cohom degree: minimal PresentedModule} for the HH^k strand, strand 2
    taken on the minimal pi_s^+ complex."""
    if k == 2:
        cplx = minimal_form(pi_on_complex(cplx, "s", 1))
    return complex_homology(*hochschild_on_complex(cplx, k),
                            realization(cplx.m).field)


def hhh(braid, m=3, strands=(0, 1, 2), precomputed=None):
    """The triply-graded Poincare series of the braid closure: the Hilbert
    series of each strand_homology, summed."""
    cplx = precomputed
    if cplx is None:
        cplx = rouquier_braid(m, braid, split=True)
    series = PoincareSeries.zero()
    for k in strands:
        for t_deg, h in strand_homology(cplx, k).items():
            series = series.add_piece(k, t_deg, h.hilbert_series())
    return series
