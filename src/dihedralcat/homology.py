"""Homology of complexes of presented modules and HHH assembly.

The triply-graded series is assembled strandwise: for each Hochschild
degree k the simplified Rouquier complex is pushed through HH^k, homology
is taken per cohomological (T-) degree, and Hilbert series are summed.  The
Koszul twists M(2), M(4) already carry the internal-degree normalization.
"""

from __future__ import annotations

from .modules import (ModuleGB, PresentedModule, column_degree,
                      minimalize_columns)
from .ring import RingElement, realization
from .series import PoincareSeries


def _syzygy_project(columns, rank, field, first):
    """Syzygies of the given columns, projected to the first `first`
    coordinates: only those carry tracking positions."""
    if not columns:
        return []
    return ModuleGB(columns, rank, field, first).syzygies()


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
        acols = [[amat[i][j] for i in range(len(amat))] for j in range(n_at)]
        relq = [c for c in relations.get(at + 1, []) if any(c)]
        combined = acols + relq
        syz = _syzygy_project(combined, len(amat), field, n_at)
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
    lower = []
    bmat = maps.get(at - 1)
    if bmat is not None and len(bmat) == n_at:
        ncols = len(bmat[0]) if bmat else 0
        for j in range(ncols):
            col = [bmat[i][j] for i in range(n_at)]
            if any(col):
                lower.append(col)
    for col in relations.get(at, []):
        if any(col):
            lower.append(list(col))
    combined = kgens + lower
    rels = _syzygy_project(combined, n_at, field, len(kgens))
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


def _concat_strand(results):
    """Concatenate per-atom HochschildResults of one cohomological degree."""
    degs = []
    rels = []
    off = 0
    field = None
    for res in results:
        pres = res.presentation
        field = pres.field
        degs.extend(pres.degrees)
        for col in pres.relations:
            rels.append([RingElement.zero(field)] * off + list(col))
        off += pres.rank
    total = off
    rels = [col + [RingElement.zero(field)] * (total - len(col))
            for col in rels]
    return degs, rels


def strand_data(cplx, k):
    """Presented-complex data (degrees, relations, maps) for HH^k(cplx)."""
    from .trace import hochschild_on_complex
    results, maps = hochschild_on_complex(cplx, k)
    degrees = {}
    relations = {}
    for d, lst in results.items():
        degs, rels = _concat_strand(lst)
        degrees[d] = degs
        relations[d] = rels
    return degrees, relations, maps


def strand_homology(cplx, k):
    """{cohom degree: minimal PresentedModule} for the HH^k strand."""
    field = realization(cplx.m).field
    degrees, relations, maps = strand_data(cplx, k)
    return complex_homology(degrees, relations, maps, field)


def hhh(braid, m=3, strands=(0, 1, 2), precomputed=None):
    """The triply-graded Poincare series of the braid closure."""
    from .complexes import rouquier_braid
    cplx = precomputed
    if cplx is None:
        cplx = rouquier_braid(m, braid, simplify=True, split=True)
    series = PoincareSeries.zero()
    for k in strands:
        for t_deg, module in strand_homology(cplx, k).items():
            series = series.add_piece(k, t_deg, module.hilbert_series())
    return series

