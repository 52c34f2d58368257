"""Constructions that only the tests use, built on the library."""

import sympy as sp

from dihedralcat import linalg, trace
from dihedralcat.bimodule import (Bimodule, BimoduleMorphism, _lift_images,
                                  _unknowns, hom_degree_basis,
                                  id_tensor_matrix, mat_identity, mat_mul,
                                  mat_neg, mat_sub, mat_transpose, mat_zero,
                                  split_summand, tensor, tensor_id_matrix)
from dihedralcat.complexes import parse_braid
from dihedralcat.hecke import braid_writhe, bs_class, hom_rank, right_mult
from dihedralcat.homology import complex_series
from dihedralcat.modules import (ModuleGB, PresentedModule, column_degree,
                                 kernel, minimalize_columns)
from dihedralcat.ring import LETTERS, RingElement, realization
from dihedralcat.series import QSeries


def lift_columns(gb, matrix, columns, field, error):
    """Apply a matrix over R to each column and lift the images through
    the ModuleGB gb; the lifts are the columns of the returned matrix.

    gb None stands for the zero module, which only zero images reach.
    Raises error when an image lies outside the span.
    """
    images = mat_mul(matrix, mat_transpose(columns), field) if columns else []
    return _lift_images(gb, [[row[j] for row in images]
                             for j in range(len(columns))], error)


def homology_series(cplx):
    """{cohomological degree: Hilbert QSeries of the homology} of a
    complex of free bimodules, read as a complex of free modules."""
    degrees = {d: [deg for mod in obs for deg in mod.degrees]
               for d, obs in cplx.objects.items()}
    maps = {d: cplx.sum_differential(d).matrix for d in cplx.diffs}
    return complex_series(degrees, maps, realization(cplx.m).field)


def soergel_pairing(m, w_word, u_word):
    """epsilon(b_{reverse(w)} b_u): the graded rank of hom(BS(w), BS(u))
    under v -> Q."""
    prod = bs_class(m, tuple(reversed(tuple(w_word)))) * bs_class(m, u_word)
    return prod.coefficient(())


def pairing(real, f, letter):
    """<f, alpha_letter_check> for a linear f = c1 a_s + c2 a_t."""
    li = LETTERS.index(letter)
    cs = f.terms.get((1, 0), real.field.zero())
    ct = f.terms.get((0, 1), real.field.zero())
    return cs * real.cartan[li][0] + ct * real.cartan[li][1]


def invert_q(series):
    """Q -> 1/Q as a rational function: numerator flips,
    (1-Q^-2) = -Q^-2(1-Q^2)."""
    sign = (-1) ** series.e
    return QSeries({2 * series.e - q: sign * c
                    for q, c in series.num.items()}, series.e)


def dualize_D(mod):
    """D(M): degrees negated, left action transposed."""
    return Bimodule(mod.real, [-d for d in mod.degrees],
                    mat_transpose(mod.left["s"]),
                    mat_transpose(mod.left["t"]),
                    word=None, shift=-mod.shift, check=False)


def zero_morphism(dom, cod, degree=0):
    return BimoduleMorphism(dom, cod,
                            mat_zero(dom.field, cod.rank, dom.rank),
                            degree, check=False)


def tensor_matrix(f, g):
    """f (x) g = (f (x) id) . (id (x) g), for callers holding its endpoints."""
    return mat_mul(tensor_id_matrix(f, g.cod), id_tensor_matrix(f.dom, g),
                   f.dom.field)


def tensor_morphism(f, g):
    """f (x) g between the tensor bimodules."""
    return BimoduleMorphism(tensor(f.dom, g.dom), tensor(f.cod, g.cod),
                            tensor_matrix(f, g), f.degree + g.degree,
                            check=False)


def find_isomorphism(mod_a, mod_b):
    """A degree-0 isomorphism mod_a -> mod_b, or None.

    Exact when mod_b is indecomposable (see split_summand), as every
    R(k), B_s(k) and B_t(k) is.
    """
    if not mod_a.same_graded_rank(mod_b):
        return None
    hit = split_summand(mod_a, mod_b)
    return hit[1] if hit else None


def reference_complement(mod, incl, proj):
    """The reference for complexes._complement_of_idempotent: the same
    columns of 1 - incl.proj kept, and the summand's left action and its
    projection lifted through a ModuleGB of them."""
    field = mod.field
    ident = mat_identity(field, mod.rank)
    rest = mat_sub(ident, mat_mul(incl.matrix, proj.matrix, field))
    cols = [[rest[i][j] for i in range(mod.rank)] for j in range(mod.rank)]
    span = linalg.Echelon(field)
    kept = []
    for j in sorted(range(mod.rank), key=lambda j: mod.degrees[j]):
        if span.insert(field.integer_row(
                {i: f.terms[(0, 0)] for i, f in enumerate(cols[j])
                 if (0, 0) in f.terms})):
            kept.append(j)
    basis = [cols[j] for j in kept]
    degrees = [mod.degrees[j] for j in kept]
    gb = ModuleGB(basis, mod.rank, field)
    summand = Bimodule(mod.real, degrees, *[lift_columns(
        gb, mod.left[x], basis, field, ValueError) for x in LETTERS],
        check=False)
    incl_mat = [[col[i] for col in basis] for i in range(mod.rank)]
    proj_mat = lift_columns(gb, ident, cols, field, ValueError)
    return (summand,
            BimoduleMorphism(summand, mod, incl_mat, 0, check=False),
            BimoduleMorphism(mod, summand, proj_mat, 0, check=False))


def reference_hochschild(mod, k):
    """HH^k(M), k = 1 or 2, presented as the Koszul complex gives it: HH^1
    on every generator of ker d1, with the images of d0 as relations, and
    HH^2 on the generators of M(4), with the columns of d1 as relations."""
    field, n = mod.field, mod.rank
    d0, d1 = trace._koszul_maps(mod)
    if k == 2:
        return PresentedModule([d - 4 for d in mod.degrees],
                               [c for c in mat_transpose(d1) if any(c)], field)
    degrees = [d - 2 for d in mod.degrees] * 2
    cols = minimalize_columns(kernel(mat_transpose(d1), n, field), degrees)
    units = [row for j, row in enumerate(mat_identity(field, n))
             if any(d0[i][j] for i in range(2 * n))]
    return PresentedModule(
        [column_degree(c, degrees) for c in cols],
        mat_transpose(lift_columns(ModuleGB(cols, 2 * n, field), d0, units,
                                   field, ValueError)), field)


def reference_hom_basis(dom, cod, degree=0, letters=LETTERS):
    """The reference for hom_degree_basis: the degree-`degree` maps
    dom -> cod that commute with left a_x for every x in letters.  An
    unknown is a matrix unit E_ij times a monomial, so its column in the
    system is left[x] . E_ij - E_ij . left[x], times the monomial."""
    field = dom.field
    col_of = _unknowns(dom, cod, degree)
    cells = {}  # (i, j) -> [(a, b, unknown)]
    for (i, j, a, b), k in col_of.items():
        cells.setdefault((i, j), []).append((a, b, k))
    eqs = {}  # (x, row, column, monomial) -> {unknown: FieldScalar}
    for (i, j), monos in cells.items():
        unit = mat_zero(field, cod.rank, dom.rank)
        unit[i][j] = RingElement.constant(field, 1)
        for x in letters:
            for sign, prod in ((1, mat_mul(cod.left[x], unit, field)),
                               (-1, mat_mul(unit, dom.left[x], field))):
                for r, row in enumerate(prod):
                    for c, entry in enumerate(row):
                        for (p, q), cf in entry.terms.items():
                            cf = cf if sign > 0 else -cf
                            for a, b, k in monos:
                                eq = eqs.setdefault((x, r, c, (p + a, q + b)),
                                                    {})
                                eq[k] = eq[k] + cf if k in eq else cf
    vecs = linalg.sparse_kernel_basis(
        [field.integer_row(eq) for eq in eqs.values()], len(col_of), field)
    out = []
    for vec in vecs:
        mat = mat_zero(field, cod.rank, dom.rank)
        for (i, j, a, b), k in col_of.items():
            if vec[k]:
                mat[i][j] = mat[i][j] + RingElement(field, {(a, b): vec[k]})
        out.append(BimoduleMorphism(dom, cod, mat, degree, check=False))
    return out


def _coefficients(mat, col_of, p=0, q=0):
    """mat times a_s^p a_t^q, as a sparse integer row over the unknowns
    col_of."""
    vec = {}
    for (i, j, a, b), k in col_of.items():
        c = mat[i][j].terms.get((a - p, b - q))
        if c:
            vec[k] = c
    return mat[0][0].field.integer_row(vec)


def reference_hom_space(dom, cod):
    """The reference for HomSpace: (generators, degrees), with one Echelon
    span per degree of the hom formula holding the lower generators times
    every monomial that brings them to that degree."""
    gens = []  # (degree, morphism matrix)
    for d, want in sorted(hom_rank(dom, cod).items()):
        col_of = _unknowns(dom, cod, d)
        span = linalg.Echelon(dom.field)
        for e, mat in gens:
            half, odd = divmod(d - e, 2)
            if odd:
                continue
            for p in range(half + 1):
                span.insert(_coefficients(mat, col_of, p, half - p))
        new = [phi.matrix for phi in hom_degree_basis(dom, cod, d)
               if span.insert(_coefficients(phi.matrix, col_of))]
        assert len(new) == want, (dom, cod, d)
        gens.extend((d, mat) for mat in new)
    return ([[x for row in mat for x in row] for _, mat in gens],
            [d for d, _ in gens])


def _reference_hom_generators(doms, cods):
    """Generators of Hom(sum doms, sum cods), flattened row-major, and
    their degrees: the reference_hom_space of each atom pair, embedded at
    the atoms' offsets."""
    nd = sum(mod.rank for mod in doms)
    nc = sum(mod.rank for mod in cods)
    zero = RingElement.zero(doms[0].field)
    gens, degrees = [], []
    row = 0
    for cod in cods:
        col = 0
        for dom in doms:
            block, block_degrees = reference_hom_space(dom, cod)
            for g in block:
                vec = [zero] * (nc * nd)
                for i in range(cod.rank):
                    start = (row + i) * nd + col
                    vec[start:start + dom.rank] = \
                        g[i * dom.rank:(i + 1) * dom.rank]
                gens.append(vec)
            degrees.extend(block_degrees)
            col += dom.rank
        row += cod.rank
    return gens, degrees


def reference_hom_complex(x_complex, y_complex):
    """The reference for HomComplex: (degrees, maps) with each component
    Hom(X^p, Y^q) spanned by dense flattened generators with one ModuleGB,
    and D(f) = d_Y f - (-1)^n f d_X applied to them as Kronecker operators
    built from the direct-sum differentials."""
    field = next(iter(x_complex.objects.values()))[0].field
    zero = RingElement.zero(field)
    xdeg = sorted(x_complex.objects)
    ydeg = sorted(y_complex.objects)
    xrank = {p: sum(mod.rank for mod in x_complex.objects[p]) for p in xdeg}
    yrank = {q: sum(mod.rank for mod in y_complex.objects[q]) for q in ydeg}
    components, degrees = {}, {}
    for p in xdeg:
        for q in ydeg:
            gens, degs = _reference_hom_generators(x_complex.objects[p],
                                                   y_complex.objects[q])
            gb = ModuleGB(gens, xrank[p] * yrank[q], field) if gens else None
            offset = len(degrees.setdefault(q - p, []))
            components.setdefault(q - p, []).append((p, q, gens, gb, offset))
            degrees[q - p].extend(degs)
    maps = {}
    for n in sorted(components):
        if n + 1 not in components:
            continue
        tgt = {(p, q): (gb, offset)
               for (p, q, _, gb, offset) in components[n + 1]}
        mat = maps[n] = [[zero] * len(degrees[n])
                         for _ in range(len(degrees[n + 1]))]
        for (p, q, gens, _, col) in components[n]:
            if not gens:
                continue
            nc, nd = yrank[q], xrank[p]
            # D acts on f flattened row-major: f[i][j] sits at i * nd + j
            ops = []
            if q in y_complex.diffs and (p, q + 1) in tgt:
                dy = y_complex.sum_differential(q).matrix  # d_Y f
                ops.append(((p, q + 1), [
                    [dy[i][k] if j2 == j else zero
                     for k in range(nc) for j2 in range(nd)]
                    for i in range(len(dy)) for j in range(nd)]))
            if p - 1 in x_complex.diffs and (p - 1, q) in tgt:
                dx = x_complex.sum_differential(p - 1).matrix
                if n % 2 == 0:  # -(-1)^n f d_X
                    dx = mat_neg(dx)
                ops.append(((p - 1, q), [
                    [dx[k][j] if i2 == i else zero
                     for i2 in range(nc) for k in range(nd)]
                    for i in range(nc) for j in range(xrank[p - 1])]))
            for key, op in ops:
                gb, row0 = tgt[key]
                lifted = lift_columns(gb, op, gens, field, ArithmeticError)
                for i, row in enumerate(lifted):
                    mat[row0 + i][col:col + len(row)] = row
    return degrees, maps


# ---------------------------------------------------------------------------
# sympy references for hecke.homfly and hecke.euler_check: the rational
# functions of the Jones-Ocneanu trace, canonicalized by sympy


def as_sympy(poly, v, z):
    """{(v exponent, z exponent): c} as a sympy expression in v and z."""
    return sum((c * v ** i * z ** j for (i, j), c in poly.items()),
               sp.Integer(0))


def _h3_multiply_letter(terms, x, z):
    """Right multiplication by T_x in H(S_3) with sympy coefficients."""
    out = {}
    for w, c in terms.items():
        wx = right_mult(w, x, 3)
        if len(wx) > len(w):
            out[wx] = out.get(wx, 0) + c
        else:
            out[w] = out.get(w, 0) + c * z
            out[wx] = out.get(wx, 0) + c
    return {w: c for w, c in out.items() if c != 0}


def reference_homfly(braid, variables=None):
    """HOMFLY-PT of the 3-strand closure as a sympy rational function in
    (v, z): v^writhe mu^2 times the Ocneanu trace, with zeta = z/(1-v^2)."""
    if isinstance(braid, str):
        braid = parse_braid(braid)
    v, z = variables or sp.symbols("v z")
    terms = {(): sp.Integer(1)}
    for letter, sign in braid:
        if sign > 0:
            terms = _h3_multiply_letter(terms, letter, z)
        else:
            # T_x^{-1} = T_x - z
            plus = _h3_multiply_letter(terms, letter, z)
            terms = {w: plus.get(w, 0) - z * terms.get(w, 0)
                     for w in set(plus) | set(terms)}
            terms = {w: sp.expand(c) for w, c in terms.items() if c != 0}
    zeta = z / (1 - v ** 2)
    weight = {
        (): sp.Integer(1),
        ("s",): zeta,
        ("t",): zeta,
        ("s", "t"): zeta ** 2,
        ("t", "s"): zeta ** 2,
        ("s", "t", "s"): zeta * (z * zeta + 1),
    }
    tr = sum(c * weight[w] for w, c in terms.items())
    mu = (1 - v ** 2) / (v * z)
    return sp.cancel(sp.together(mu ** 2 * v ** braid_writhe(braid) * tr))


def reference_euler_check(series, braid):
    """Substitute A = -a^2 q^2, Q = q, T = -1, multiply by the unit
    q^2 a^{writhe - 2}, and compare with reference_homfly under v = a,
    z = q - 1/q.  Returns (passed, residual expression)."""
    a, q = sp.symbols("a q")
    chi = sp.Integer(0)
    for (ae, te, qe, e, c) in series.terms():
        chi += c * (-a ** 2 * q ** 2) ** ae * (-1) ** te * q ** qe \
            / (1 - q ** 2) ** e
    unit = q ** 2 * a ** (braid_writhe(braid) - 2)
    target = reference_homfly(braid, variables=(a, q - 1 / q))
    residual = sp.cancel(sp.together(chi * unit - target))
    return residual == 0, residual
