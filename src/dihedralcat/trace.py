"""Partial-trace functors and Hochschild cohomology.

pi_minus / pi_plus take the kernel / cokernel of the rho-difference
endomorphism (left action of rho_letter minus right multiplication).
Outputs are again bimodules, free as right R-modules.

Hochschild cohomology uses the length-2 Koszul complex in the directions
(rho_s, rho_t):  0 -> M -> M(2) (+) M(2) -> M(4) -> 0.  HH^0 is the kernel
of d0, HH^1 the cokernel of d0 inside ker d1, HH^2 the cokernel of d1.

Every traced atom is a graded summand (module, incl, proj) with
proj . incl = id, so every map it receives, the restricted left action
included, is proj . f . incl.  A kernel (_kernel) has its minimal
generators as incl and graded Nakayama's left inverse as proj, and
raises TraceError unless it is a direct summand; a cokernel (_cokernel)
takes incl and proj from a minimal presentation, and raises TraceError
unless it is free.  So hochschild_on_complex gives a complex of free
modules, and no map here is lifted through a Groebner basis.
"""

from __future__ import annotations

from collections import namedtuple
from functools import wraps

from .bimodule import (Bimodule, BimoduleMorphism, mat_mul, mat_restrict,
                       mat_transpose, mat_zero, nakayama_basis, summand)
from .complexes import ChainComplex
from .modules import (PresentedModule, column_degree, kernel,
                      minimal_presentation, minimalize_columns)
from .ring import RingElement, realization


class TraceError(ArithmeticError):
    pass


def rho_endomorphism(mod, letter):
    """Left action of rho_letter minus right multiplication, over R."""
    rho = mod.real.rho[letter]
    mat = mod.left_action_of(rho)
    for i in range(mod.rank):
        mat[i][i] = mat[i][i] - rho
    return mat


# One traced atom: its free module (a Bimodule for pi, a PresentedModule for
# HH^k) and the matrices incl and proj over R, proj . incl = id, that give
# the map proj . f . incl a matrix f between untraced atoms induces.
Traced = namedtuple("Traced", "module incl proj")


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
            PresentedModule(degrees, [], mod.field)
        return Traced(module, t.incl, t.proj)
    return memoized


def _kernel(matrix, degrees, field, what):
    """(generator degrees, incl, proj) of the kernel of a matrix over R
    whose columns have the given degrees: incl its minimal generators,
    proj their left inverse from nakayama_basis; a TraceError that names
    `what` when the kernel is not a graded direct summand, which is when
    graded Nakayama drops a generator."""
    cols = minimalize_columns(
        kernel(mat_transpose(matrix), len(matrix), field), degrees)
    incl = [[col[i] for col in cols] for i in range(len(degrees))]
    kept, proj = nakayama_basis(incl, range(len(cols)), field)
    if len(kept) < len(cols):
        raise TraceError("%s is not a direct summand" % what)
    return [column_degree(c, degrees) for c in cols], incl, proj


def _cokernel(degrees, columns, field, what):
    """(generator degrees, incl, proj) of the cokernel of the given columns
    in the free module with the given generator degrees, through a minimal
    presentation; a TraceError that names `what` when relations persist."""
    degrees, rels, incl, proj = minimal_presentation(
        list(degrees), [c for c in columns if any(c)], field)
    if any(any(c) for c in rels):
        raise TraceError("%s is not free (relations persist)" % what)
    return degrees, incl, proj


def _induced(fmat, dom, cod, field):
    """Matrix over R of the map between traced atoms that the matrix fmat
    between the untraced ones induces."""
    return mat_restrict(cod.proj, fmat, dom.incl, field)


@_once_per_shift_class
def pi_minus(mod, letter):
    """Kernel of the rho-difference action, as a Traced bimodule."""
    degrees, incl, proj = _kernel(
        rho_endomorphism(mod, letter), mod.degrees, mod.field,
        "pi_%s^- of %r" % (letter, mod))
    return Traced(summand(mod, degrees, incl, proj), incl, proj)


@_once_per_shift_class
def pi_plus(mod, letter):
    """Cokernel of the rho-difference action, as a Traced bimodule."""
    degrees, incl, proj = _cokernel(
        mod.degrees, mat_transpose(rho_endomorphism(mod, letter)), mod.field,
        "pi_%s^+ of %r" % (letter, mod))
    return Traced(summand(mod, degrees, incl, proj), incl, proj)


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
    """HH^k(M) as a Traced free PresentedModule."""
    field = mod.field
    d0, d1 = _koszul_maps(mod)
    what = "HH^%s of %r" % (k, mod)
    if k == 0:
        degs, incl, proj = _kernel(d0, mod.degrees, field, what)
    elif k == 1:  # the relations: d0's columns in the basis of ker d1
        degs, incl, proj = _kernel(d1, [d - 2 for d in mod.degrees] * 2,
                                   field, what)
        degs, incl_c, proj_c = _cokernel(
            degs, mat_transpose(mat_mul(proj, d0, field)), field, what)
        incl = mat_mul(incl, incl_c, field)
        proj = mat_mul(proj_c, proj, field)
    elif k == 2:
        degs, incl, proj = _cokernel([d - 4 for d in mod.degrees],
                                     mat_transpose(d1), field, what)
    else:
        raise ValueError("k must be 0, 1 or 2")
    return Traced(PresentedModule(degs, [], field), incl, proj)


def hochschild_on_complex(cplx, k):
    """Termwise HH^k as a complex of free modules (degrees, maps): per
    cohomological degree the atoms' generator degrees side by side; per
    differential the block matrix over R of the induced maps."""
    field = realization(cplx.m).field
    zero = RingElement.zero(field)
    traced = {d: [hochschild(mod, k) for mod in obs]
              for d, obs in cplx.objects.items()}
    degrees, offsets = {}, {}
    for d, lst in traced.items():
        degs = degrees[d] = []
        offs = offsets[d] = []
        for t in lst:
            offs.append(len(degs))
            degs.extend(t.module.degrees)
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
    return degrees, maps
