"""Partial-trace functors and Hochschild cohomology.

pi_minus / pi_plus take the kernel / cokernel of the rho-difference
endomorphism (left action of rho_letter minus right multiplication).
Outputs are again bimodules, free as right R-modules; non-freeness is a
contract violation (the Soergel inputs guarantee freeness).

Hochschild cohomology uses the length-2 Koszul complex in the directions
(rho_s, rho_t):  0 -> M -> M(2) (+) M(2) -> M(4) -> 0.
"""

from __future__ import annotations

from .bimodule import (Bimodule, BimoduleMorphism, lift_columns,
                       mat_identity, mat_mul, mat_zero)
from .complexes import ChainComplex
from .modules import (ModuleGB, PresentedModule, column_degree, matrix_kernel,
                      minimal_presentation, minimalize_columns)
from .ring import LETTERS, RingElement


class TraceError(ArithmeticError):
    pass


def rho_endomorphism(mod, letter):
    """Left action of rho_letter minus right multiplication, over R."""
    rho = mod.real.rho[letter]
    mat = mod.left_action_of(rho)
    for i in range(mod.rank):
        mat[i][i] = mat[i][i] - rho
    return mat


class TracedBimodule:
    """Free traced output plus the data needed for induced maps."""

    __slots__ = ("kind", "letter", "source", "module", "generators", "gb",
                 "incl", "proj")

    def __init__(self, kind, letter, source, module, generators=None, gb=None,
                 incl=None, proj=None):
        self.kind = kind      # "ker" | "coker"
        self.letter = letter
        self.source = source
        self.module = module
        self.generators = generators
        self.gb = gb
        self.incl = incl
        self.proj = proj


def _submodule_bimodule(mod, columns):
    """The span of the given columns as a free Bimodule with induced left
    actions; raises TraceError if the span is not free on the columns."""
    if not columns:
        return Bimodule(mod.real, (), [], [], check=False), None
    field = mod.field
    gb = ModuleGB(columns, mod.rank, field)
    if any(any(v) for v in gb.syzygies()):
        raise TraceError("traced output is not free (syzygies present)")
    left = {x: lift_columns(gb, mod.left[x], columns, field, TraceError)
            for x in LETTERS}
    degrees = [column_degree(c, mod.degrees) for c in columns]
    out = Bimodule(mod.real, degrees, left["s"], left["t"], check=False)
    return out, gb


def pi_minus(mod, letter):
    """Kernel of the rho-difference action, as a TracedBimodule."""
    field = mod.field
    t_mat = rho_endomorphism(mod, letter)
    cols = matrix_kernel(t_mat, field)
    cols = minimalize_columns(cols, list(mod.degrees))
    module, gb = _submodule_bimodule(mod, cols)
    return TracedBimodule("ker", letter, mod, module, generators=cols, gb=gb)


def pi_plus(mod, letter):
    """Cokernel of the rho-difference action, as a TracedBimodule."""
    field = mod.field
    t_mat = rho_endomorphism(mod, letter)
    rel = [[t_mat[i][j] for i in range(mod.rank)] for j in range(mod.rank)]
    rel = [c for c in rel if any(c)]
    new_deg, new_rel, incl, proj = minimal_presentation(
        list(mod.degrees), rel, field)
    if any(any(c) for c in new_rel):
        raise TraceError("traced cokernel is not free (relations persist)")
    left = {}
    for x in LETTERS:
        left[x] = mat_mul(mat_mul(proj, mod.left_action_of(
            mod.real.alpha[x]), field), incl, field)
    module = Bimodule(mod.real, new_deg, left["s"], left["t"], check=False)
    return TracedBimodule("coker", letter, mod, module, incl=incl, proj=proj)


def trace_functor(mod, letter, sign):
    return pi_minus(mod, letter) if sign < 0 else pi_plus(mod, letter)


def induced_map(f, traced_dom, traced_cod):
    """Induced morphism between traced outputs of f.dom and f.cod."""
    field = f.dom.field
    if traced_dom.kind != traced_cod.kind:
        raise TraceError("mixed traced kinds")
    if traced_dom.kind == "ker":
        mat = lift_columns(traced_cod.gb, f.matrix, traced_dom.generators,
                           field, TraceError)
    else:
        mat = mat_mul(mat_mul(traced_cod.proj, f.matrix, field),
                      traced_dom.incl, field)
    return BimoduleMorphism(traced_dom.module, traced_cod.module, mat,
                            f.degree, check=False)


def pi_on_complex(cplx, letter, sign, shift=0):
    """Termwise partial trace with induced differentials (rank-0 atoms
    dropped); optional internal shift applied to the result."""
    traced = {d: [trace_functor(mod, letter, sign) for mod in obs]
              for d, obs in cplx.objects.items()}
    objects = {}
    keep = {}
    for d, lst in traced.items():
        keep[d] = [i for i, t in enumerate(lst) if t.module.rank]
        objects[d] = [lst[i].module for i in keep[d]]
    diffs = {}
    for d, blocks in cplx.diffs.items():
        rows = []
        for r in keep.get(d + 1, []):
            row = []
            for c in keep.get(d, []):
                blk = blocks[r][c]
                if blk is None:
                    row.append(None)
                else:
                    ind = induced_map(blk, traced[d][c], traced[d + 1][r])
                    row.append(ind if ind else None)
            rows.append(row)
        diffs[d] = rows
    out = ChainComplex(cplx.m, objects, diffs, check=False)
    if shift:
        out = out.shift_internal(shift)
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


class HochschildResult:
    """Presented module for HH^k(M) plus induced-map data."""

    __slots__ = ("k", "source", "presentation", "generators", "gb")

    def __init__(self, k, source, presentation, generators=None, gb=None):
        self.k = k
        self.source = source
        self.presentation = presentation
        self.generators = generators
        self.gb = gb


def hochschild(mod, k):
    field = mod.field
    n = mod.rank
    d0, d1 = _koszul_maps(mod)
    if k == 0:
        cols = matrix_kernel(d0, field)
        cols = minimalize_columns(cols, list(mod.degrees))
        degs = [column_degree(c, list(mod.degrees)) for c in cols]
        gb = ModuleGB(cols, n, field) if cols else None
        return HochschildResult(0, mod, PresentedModule(degs, [], field),
                                generators=cols, gb=gb)
    if k == 1:
        degs2 = [d - 2 for d in mod.degrees] * 2
        cols = matrix_kernel(d1, field)
        cols = minimalize_columns(cols, degs2)
        degs = [column_degree(c, degs2) for c in cols]
        gb = ModuleGB(cols, 2 * n, field) if cols else None
        units = [row for j, row in enumerate(mat_identity(field, n))
                 if any(d0[i][j] for i in range(2 * n))]
        lifted = lift_columns(gb, d0, units, field, TraceError)
        rels = [list(col) for col in zip(*lifted)]
        return HochschildResult(1, mod, PresentedModule(degs, rels, field),
                                generators=cols, gb=gb)
    if k == 2:
        degs4 = [d - 4 for d in mod.degrees]
        rels = [[d1[i][j] for i in range(n)] for j in range(2 * n)]
        rels = [c for c in rels if any(c)]
        return HochschildResult(2, mod, PresentedModule(degs4, rels, field))
    raise ValueError("k must be 0, 1 or 2")


def hochschild_induced(f, res_dom, res_cod):
    """Matrix over R of the induced map HH^k(f)."""
    field = f.dom.field
    if res_dom.k != res_cod.k:
        raise TraceError("mixed HH degrees")
    fmat = f.matrix
    if res_dom.k == 2:
        return fmat
    if res_dom.k == 1:  # f acts on both copies of M(2) (+) M(2)
        pad = [RingElement.zero(field)] * f.dom.rank
        fmat = [list(r) + pad for r in fmat] + [pad + list(r) for r in fmat]
    return lift_columns(res_cod.gb, fmat, res_dom.generators, field,
                        TraceError)


def hochschild_on_complex(cplx, k):
    """Termwise HH^k as a complex of presented modules.

    Returns (objects, maps): objects maps degree -> list of HochschildResult
    (one per atom); maps maps degree -> block matrices over R between the
    concatenated generators.
    """
    results = {d: [hochschild(mod, k) for mod in obs]
               for d, obs in cplx.objects.items()}
    maps = {}
    for d, blocks in cplx.diffs.items():
        src = results[d]
        tgt = results[d + 1]
        field = cplx.objects[d][0].field
        srank = sum(r.presentation.rank for r in src)
        trank = sum(r.presentation.rank for r in tgt)
        big = mat_zero(field, trank, srank)
        roff = 0
        for r, res_t in enumerate(tgt):
            coff = 0
            for c, res_s in enumerate(src):
                blk = blocks[r][c]
                if blk is not None and res_s.presentation.rank and \
                        res_t.presentation.rank:
                    sub = hochschild_induced(blk, res_s, res_t)
                    for i in range(res_t.presentation.rank):
                        for j in range(res_s.presentation.rank):
                            big[roff + i][coff + j] = sub[i][j]
                coff += res_s.presentation.rank
            roff += res_t.presentation.rank
        maps[d] = big
    return results, maps
