"""Constructions that only the tests use, built on the library."""

from dihedralcat import linalg
from dihedralcat.bimodule import (Bimodule, BimoduleMorphism, _unknowns,
                                  id_tensor_matrix, mat_mul, mat_transpose,
                                  mat_zero, split_summand, tensor,
                                  tensor_id_matrix)
from dihedralcat.hecke import bs_class
from dihedralcat.ring import LETTERS, RingElement
from dihedralcat.series import QSeries


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
