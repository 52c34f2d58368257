"""Partial-trace functors and Hochschild cohomology.

pi_minus / pi_plus take the kernel / cokernel of the rho-difference
endomorphism (left action of rho_letter minus right multiplication).
Outputs are again bimodules, free as right R-modules; non-freeness is a
contract violation (the Soergel inputs guarantee freeness).

Hochschild cohomology uses the length-2 Koszul complex in the directions
(rho_s, rho_t):  0 -> M -> M(2) (+) M(2) -> M(4) -> 0.  HH^0 and HH^1 are
presented through the kernels of its maps, HH^2 by its cokernel.

Every functor takes three steps on a matrix over R: a kernel with minimal
generators (_kernel), or a cokernel through a minimal presentation; one
Traced record per atom; and the map each differential block induces
(_induced).
"""

from __future__ import annotations

from functools import wraps

from .bimodule import (Bimodule, BimoduleMorphism, lift_columns,
                       mat_identity, mat_mul, mat_transpose, mat_zero)
from .complexes import ChainComplex
from .modules import (ModuleGB, PresentedModule, column_degree, kernel,
                      minimal_presentation, minimalize_columns)
from .ring import LETTERS, RingElement, realization


class TraceError(ArithmeticError):
    pass


def rho_endomorphism(mod, letter):
    """Left action of rho_letter minus right multiplication, over R."""
    rho = mod.real.rho[letter]
    mat = mod.left_action_of(rho)
    for i in range(mod.rank):
        mat[i][i] = mat[i][i] - rho
    return mat


class Traced:
    """One traced atom: its module (a Bimodule for pi, a PresentedModule
    for HH^k) and what induced maps need, the kernel generators and their
    ModuleGB or the cokernel's incl and proj."""

    __slots__ = ("module", "generators", "gb", "incl", "proj")

    def __init__(self, module, generators=None, gb=None, incl=None,
                 proj=None):
        self.module = module
        self.generators = generators
        self.gb = gb
        self.incl = incl
        self.proj = proj


# Traced atoms up to shift: (functor, k or letter, Bimodule.up_to_shift key)
# -> (min degree, Traced).  Calls share its parts and only read them.
_TRACED = {}


def _once_per_shift_class(functor):
    """functor(mod, arg) memoized on _TRACED: a fresh Traced per call, its
    module's degrees moved by the shift and its shift 0 (to_json prints it)."""
    @wraps(functor)
    def memoized(mod, arg):
        low, shape = mod.up_to_shift()
        key = (functor.__name__, arg, shape)
        hit = _TRACED.get(key)
        if hit is None:
            hit = _TRACED[key] = (low, functor(mod, arg))
        low0, t = hit
        degrees = [d + low - low0 for d in t.module.degrees]
        module = Bimodule(mod.real, degrees, t.module.left["s"],
                          t.module.left["t"], check=False) \
            if isinstance(t.module, Bimodule) else \
            PresentedModule(degrees, t.module.relations, mod.field)
        return Traced(module, t.generators, t.gb, t.incl, t.proj)
    return memoized


def _kernel(matrix, degrees, field):
    """(generators, their degrees, their ModuleGB or None when there are
    none) of the kernel of a matrix over R whose columns have the given
    degrees, the generators minimal; TraceError when they have syzygies."""
    cols = minimalize_columns(
        kernel(mat_transpose(matrix), len(matrix), field), degrees)
    if not cols:
        return [], [], None
    gb = ModuleGB(cols, len(degrees), field)
    if gb.syzygies():
        raise TraceError("traced output is not free (syzygies present)")
    return cols, [column_degree(c, degrees) for c in cols], gb


def _induced(fmat, dom, cod, field):
    """Matrix over R of the map between traced atoms that the matrix fmat
    between the untraced ones induces: a kernel lifts the images of its
    generators through cod.gb, a cokernel takes proj . f . incl, and HH^2,
    a cokernel on the module's own generators, keeps f."""
    if dom.generators is not None:
        return lift_columns(cod.gb, fmat, dom.generators, field, TraceError)
    if dom.incl is not None:
        return mat_mul(mat_mul(cod.proj, fmat, field), dom.incl, field)
    return fmat


@_once_per_shift_class
def pi_minus(mod, letter):
    """Kernel of the rho-difference action, as a Traced bimodule."""
    cols, degrees, gb = _kernel(rho_endomorphism(mod, letter), mod.degrees,
                                mod.field)
    traced = Traced(None, cols, gb)
    traced.module = Bimodule(mod.real, degrees, *[_induced(
        mod.left[x], traced, traced, mod.field) for x in LETTERS], check=False)
    return traced


@_once_per_shift_class
def pi_plus(mod, letter):
    """Cokernel of the rho-difference action, as a Traced bimodule."""
    rel = [c for c in mat_transpose(rho_endomorphism(mod, letter)) if any(c)]
    degrees, rel, incl, proj = minimal_presentation(
        list(mod.degrees), rel, mod.field)
    if any(any(c) for c in rel):
        raise TraceError("traced cokernel is not free (relations persist)")
    traced = Traced(None, incl=incl, proj=proj)
    traced.module = Bimodule(mod.real, degrees, *[_induced(
        mod.left[x], traced, traced, mod.field) for x in LETTERS], check=False)
    return traced


def pi_on_complex(cplx, letter, sign):
    """Termwise partial trace with induced differentials (rank-0 atoms
    dropped)."""
    functor = pi_minus if sign < 0 else pi_plus
    traced = {d: [functor(mod, letter) for mod in obs]
              for d, obs in cplx.objects.items()}
    keep = {d: [i for i, t in enumerate(lst) if t.module.rank]
            for d, lst in traced.items()}
    objects = {d: [traced[d][i].module for i in idx]
               for d, idx in keep.items()}
    diffs = {}
    for d, blocks in cplx.diffs.items():
        rows = diffs[d] = []
        for r in keep.get(d + 1, []):
            row = []
            for c in keep.get(d, []):
                blk, dom, cod = blocks[r][c], traced[d][c], traced[d + 1][r]
                ind = None if blk is None else BimoduleMorphism(
                    dom.module, cod.module,
                    _induced(blk.matrix, dom, cod, blk.dom.field),
                    blk.degree, check=False)
                row.append(ind or None)
            rows.append(row)
    out = ChainComplex(cplx.m, objects, diffs, check=False)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# Hochschild cohomology via the Koszul complex


def _koszul_maps(mod):
    """d0: M -> M(2)^2 stacked [T_s; T_t]; d1: M(2)^2 -> M(4) = [-T_t, T_s]."""
    ts = rho_endomorphism(mod, "s")
    tt = rho_endomorphism(mod, "t")
    n = mod.rank
    d0 = [[ts[i][j] for j in range(n)] for i in range(n)] + \
         [[tt[i][j] for j in range(n)] for i in range(n)]
    d1 = [[-tt[i][j] for j in range(n)] + [ts[i][j] for j in range(n)]
          for i in range(n)]
    return d0, d1


@_once_per_shift_class
def hochschild(mod, k):
    """HH^k(M) as a Traced PresentedModule."""
    field = mod.field
    n = mod.rank
    d0, d1 = _koszul_maps(mod)
    if k == 0:
        cols, degs, gb = _kernel(d0, mod.degrees, field)
        return Traced(PresentedModule(degs, [], field), cols, gb)
    if k == 1:
        cols, degs, gb = _kernel(d1, [d - 2 for d in mod.degrees] * 2, field)
        units = [row for j, row in enumerate(mat_identity(field, n))
                 if any(d0[i][j] for i in range(2 * n))]
        rels = mat_transpose(lift_columns(gb, d0, units, field, TraceError))
        return Traced(PresentedModule(degs, rels, field), cols, gb)
    if k == 2:
        rels = [c for c in mat_transpose(d1) if any(c)]
        return Traced(PresentedModule([d - 4 for d in mod.degrees], rels,
                                      field))
    raise ValueError("k must be 0, 1 or 2")


def hochschild_on_complex(cplx, k):
    """Termwise HH^k as presented-complex data (degrees, relations, maps):
    per cohomological degree the atoms' generator degrees side by side and
    their relation columns padded to that rank; per differential the block
    matrix over R of the induced maps."""
    field = realization(cplx.m).field
    zero = RingElement.zero(field)
    traced = {d: [hochschild(mod, k) for mod in obs]
              for d, obs in cplx.objects.items()}
    degrees, relations, offsets = {}, {}, {}
    for d, lst in traced.items():
        degs = degrees[d] = []
        offs = offsets[d] = []
        for t in lst:
            offs.append(len(degs))
            degs.extend(t.module.degrees)
        relations[d] = []
        for off, t in zip(offs, lst):
            for col in t.module.relations:
                big = [zero] * len(degs)
                big[off:off + len(col)] = col
                relations[d].append(big)
    maps = {}
    for d, blocks in cplx.diffs.items():
        big = maps[d] = mat_zero(field, len(degrees[d + 1]), len(degrees[d]))
        for r, (roff, cod) in enumerate(zip(offsets[d + 1], traced[d + 1])):
            for c, (coff, dom) in enumerate(zip(offsets[d], traced[d])):
                blk = blocks[r][c]
                if blk is None or not dom.module.rank or not cod.module.rank:
                    continue
                fmat = blk.matrix
                if k == 1:  # f acts on both copies of M(2) (+) M(2)
                    pad = [zero] * blk.dom.rank
                    fmat = [list(row) + pad for row in fmat] + \
                        [pad + list(row) for row in fmat]
                for i, row in enumerate(_induced(fmat, dom, cod, field)):
                    big[roff + i][coff:coff + len(row)] = row
    return degrees, relations, maps
