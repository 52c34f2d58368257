"""Homology of complexes of presented modules and HHH assembly.

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

from .bimodule import mat_transpose
from .modules import PresentedModule, column_degree, kernel, minimalize_columns
from .ring import RingElement, realization
from .series import PoincareSeries
from .trace import hochschild_on_complex, pi_on_complex


def presented_homology(degrees, relations, maps, field, at):
    """ker/im homology of a complex of presented modules at one degree.

    degrees/relations: {cohom degree: generator degrees / relation columns};
    maps: {cohom degree: matrix over R to the next degree}.
    """
    deg_at = degrees[at]
    n_at = len(deg_at)
    zero = RingElement.zero(field)
    amat = maps.get(at)
    if amat is not None and len(amat) and n_at:
        relq = [c for c in relations.get(at + 1, []) if any(c)]
        syz = kernel(mat_transpose(amat) + relq, len(amat), field, n_at)
        kgens = [c for c in syz if any(c)]
    else:
        kgens = [[zero] * n_at for _ in range(n_at)]
        for i in range(n_at):
            kgens[i][i] = RingElement.constant(field, 1)
    for col in relations.get(at, []):
        if any(col):
            kgens.append(list(col))
    kgens = minimalize_columns(kgens, list(deg_at))
    if not kgens:
        return PresentedModule([], [], field)
    bmat = maps.get(at - 1)
    lower = mat_transpose(bmat) if bmat is not None and len(bmat) == n_at \
        else []
    lower = [c for c in lower + relations.get(at, []) if any(c)]
    rels = kernel(kgens + lower, n_at, field, len(kgens))
    rels = [c for c in rels if any(c)]
    kdegs = [column_degree(c, list(deg_at)) for c in kgens]
    return PresentedModule(kdegs, rels, field).minimalize()


def complex_homology(degrees, relations, maps, field):
    """All homology modules, {cohom degree: minimal PresentedModule}."""
    out = {}
    for d in sorted(degrees):
        h = presented_homology(degrees, relations, maps, field, d)
        if h.rank:
            out[d] = h
    return out


def complex_series(degrees, relations, maps, field):
    """{cohom degree: Hilbert QSeries} of the nonzero homology modules of a
    complex of presented modules, given as for presented_homology."""
    return {d: h.hilbert_series()
            for d, h in complex_homology(degrees, relations, maps,
                                         field).items()}


def strand_homology(cplx, k):
    """{cohom degree: minimal PresentedModule} for the HH^k strand."""
    field = realization(cplx.m).field
    degrees, relations, maps = hochschild_on_complex(cplx, k)
    return complex_homology(degrees, relations, maps, field)


def hhh(braid, m=3, strands=(0, 1, 2), precomputed=None):
    """The triply-graded Poincare series of the braid closure.

    Strand 2 is taken on the minimal pi_s^+ complex, strands 0 and 1 on
    the complex itself: pi_s^+ M = M / T_s M, so HH^2(pi_s^+ M) = HH^2(M)
    naturally in M, and HH^2, being additive, takes Gaussian elimination's
    homotopy equivalence to an isomorphism on homology."""
    from .complexes import minimal_form, rouquier_braid
    cplx = precomputed
    if cplx is None:
        cplx = rouquier_braid(m, braid, split=True)
    field = realization(cplx.m).field
    series = PoincareSeries.zero()
    for k in strands:
        src = minimal_form(pi_on_complex(cplx, "s", 1)) if k == 2 else cplx
        strand = complex_series(*hochschild_on_complex(src, k), field)
        for t_deg, qs in strand.items():
            series = series.add_piece(k, t_deg, qs)
    return series

