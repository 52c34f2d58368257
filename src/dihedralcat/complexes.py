"""Bounded chain complexes of bimodule atoms.

Objects live per cohomological degree as lists of Bimodule atoms; the
differential is a per-degree block matrix of BimoduleMorphism (None for
zero blocks).  All simplification happens by Gaussian elimination of
invertible blocks, which is exact in the homotopy category.  A tensor
product keeps its factors; simplify_product reduces c (x) (a (x) b) one
factor at a time, as Bar-Natan's local simplification does.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import accumulate, product

from . import bimodule, hecke, linalg
from .bimodule import (Bimodule, BimoduleMorphism, _integer_terms,
                       _mat_from_json, _scalar_of, _tag, b_generator,
                       bott_samelson, direct_sum, dot_in, dot_out,
                       hom_degree_basis, id_tensor_matrix, identity_morphism,
                       invert_morphism, is_invertible, mat_add, mat_identity,
                       mat_mul, mat_sub, mat_scale, mat_zero, nakayama_basis,
                       poly_to_json, regular, split_summand, summand, tensor,
                       tensor_id_matrix)
from .field import _minimal_poly_2cos, field_for
from .hecke import (Laurent, bs_class, class_of_bimodule, group_elements,
                    kl_basis, kl_multiplicities, right_mult,
                    standard_in_kl)
from .ring import realization

MAX_WORD_LENGTH = 24
BRAID_TOKENS = {"s": ("s", 1), "t": ("t", 1), "1": ("s", 1), "+1": ("s", 1),
                "-1": ("s", -1), "2": ("t", 1), "+2": ("t", 1),
                "-2": ("t", -1)}


class ChainComplex:
    """objects: {degree: [Bimodule]}; diffs: {degree: blocks to degree+1};
    factors: (c1, c2) when tensor_complex built it as c1 (x) c2, else None."""

    __slots__ = ("m", "objects", "diffs", "factors")

    def __init__(self, m, objects, diffs, check=True, factors=None):
        self.m, self.factors = m, factors
        self.objects = {d: list(obs) for d, obs in objects.items() if obs}
        self.diffs = {}
        for d, blocks in diffs.items():
            if d in self.objects and d + 1 in self.objects:
                self.diffs[d] = [list(row) for row in blocks]
        if check:
            self.validate()

    # -- basic structure ---------------------------------------------------

    def degrees(self):
        return sorted(self.objects)

    def is_zero(self):
        return not self.objects

    def atom_count(self):
        return sum(len(obs) for obs in self.objects.values())

    def block(self, d, r, c):
        rows = self.diffs.get(d)
        if rows is None:
            return None
        return rows[r][c]

    def validate(self):
        for d, blocks in self.diffs.items():
            if len(blocks) != len(self.objects[d + 1]) or any(
                    len(row) != len(self.objects[d]) for row in blocks):
                raise ValueError("differential block shape mismatch at %d" % d)
            for r, row in enumerate(blocks):
                for c, blk in enumerate(row):
                    if blk is None:
                        continue
                    if blk.dom != self.objects[d][c] or \
                            blk.cod != self.objects[d + 1][r]:
                        raise ValueError("block endpoints mismatch at %d" % d)
                    if blk.degree != 0:
                        raise ValueError("differential block of nonzero degree")
        products = {}  # block products, by the two (live) matrix objects
        for d, b1 in self.diffs.items():
            for row in self.diffs.get(d + 1, ()):
                for c in range(len(self.objects[d])):
                    acc = None
                    for f, col in zip(row, b1):
                        g = col[c]
                        if f is None or g is None:
                            continue
                        key = (id(f.matrix), id(g.matrix))
                        if key not in products:
                            products[key] = mat_mul(f.matrix, g.matrix,
                                                    f.dom.field)
                        acc = products[key] if acc is None else \
                            mat_add(acc, products[key])
                    if acc and any(map(any, acc)):
                        raise ValueError("d^2 != 0 at degree %d" % d)

    # -- direct-sum views --------------------------------------------------

    def sum_object(self, d):
        obs = self.objects.get(d)
        if not obs:
            return None
        return direct_sum(obs)

    def sum_differential(self, d):
        """The differential C^d -> C^{d+1} as one morphism, or None."""
        if d not in self.diffs:
            return None
        dom = direct_sum(self.objects[d])
        cod = direct_sum(self.objects[d + 1])
        field = dom.field
        mat = mat_zero(field, cod.rank, dom.rank)
        roff = _offsets(self.objects[d + 1])
        coff = _offsets(self.objects[d])
        for r, row in enumerate(self.diffs[d]):
            for c, blk in enumerate(row):
                if blk is None:
                    continue
                for i in range(blk.cod.rank):
                    for j in range(blk.dom.rank):
                        mat[roff[r] + i][coff[c] + j] = blk.matrix[i][j]
        return BimoduleMorphism(dom, cod, mat, 0, check=False)

    # -- functorial tweaks -------------------------------------------------

    def shift_internal(self, k):
        objects = {d: [mod.shifted(k) for mod in obs]
                   for d, obs in self.objects.items()}
        diffs = {}
        for d, blocks in self.diffs.items():
            diffs[d] = [[None if blk is None else BimoduleMorphism(
                objects[d][c], objects[d + 1][r], blk.matrix, 0, check=False)
                for c, blk in enumerate(row)]
                for r, row in enumerate(blocks)]
        return ChainComplex(self.m, objects, diffs, check=False)

    def graded_atom_profile(self):
        """Multiset fingerprint used by isomorphism pre-checks."""
        return {d: sorted(tuple(sorted(mod.degrees)) for mod in obs)
                for d, obs in self.objects.items()}

    def to_json(self):
        return {
            "m": self.m,
            "objects": {str(d): [mod.to_json() for mod in obs]
                        for d, obs in self.objects.items()},
            "diffs": {str(d): [[None if blk is None else
                                [[poly_to_json(x) for x in row_]
                                 for row_ in blk.matrix]
                                for blk in row] for row in blocks]
                      for d, blocks in self.diffs.items()},
        }

    @classmethod
    def from_json(cls, data):
        """The complex data encodes, after every check of its atoms, its
        blocks and d^2 = 0.  No atom or block check sees a grading shift,
        so each runs once per atom up to shift, and once per block matrix
        between atoms up to one common shift.  Each distinct matrix text is
        parsed once, and equal block matrices share one object, so the
        d^2 = 0 check forms each product of two of them once."""
        m = data["m"]
        field = realization(m).field
        checked, parsed, matrices = set(), {}, {}

        def check(item, key):
            if key not in checked:
                item._validate()
                checked.add(key)
            return item

        def block(d, r, c, rows):
            dom, cod = objects[d][c], objects[d + 1][r]
            f = BimoduleMorphism(dom, cod, _mat_from_json(rows, field, parsed),
                                 0, check=False)
            f.matrix = matrices.setdefault(f.matrix, f.matrix)
            (low, dom_key), (cod_low, cod_key) = (dom.up_to_shift(),
                                                  cod.up_to_shift())
            return check(f, (f.matrix, dom_key, cod_key, cod_low - low))

        objects = {int(d): [check(mod, mod.up_to_shift()[1]) for mod in
                            (Bimodule._from_json(ob, parsed) for ob in obs)]
                   for d, obs in data["objects"].items()}
        if any(mod.m != m for obs in objects.values() for mod in obs):
            raise ValueError("an atom's m is not the complex's m = %d" % m)
        diffs = {int(d): [[None if blk is None else block(int(d), r, c, blk)
                           for c, blk in enumerate(row)]
                          for r, row in enumerate(blocks)]
                 for d, blocks in data["diffs"].items()}
        return cls(m, objects, diffs)

    def __repr__(self):
        bits = []
        for d in self.degrees():
            bits.append("%d: %s" % (d, " + ".join(
                repr(mod) for mod in self.objects[d])))
        return "ChainComplex{%s}" % "; ".join(bits)


def _offsets(mods):
    out = []
    acc = 0
    for mod in mods:
        out.append(acc)
        acc += mod.rank
    return out


def single_object(m, mod):
    return ChainComplex(m, {0: [mod]}, {}, check=False)


# ---------------------------------------------------------------------------
# Rouquier complexes


@lru_cache(maxsize=None)
def rouquier(m, letter, sign=1):
    """F_letter^sign, built once: callers share it and must not change it."""
    if sign == 1:
        bs = b_generator(m, letter)
        r1 = regular(m, 1)
        return ChainComplex(m, {0: [bs], 1: [r1]},
                            {0: [[dot_out(m, letter)]]}, check=False)
    if sign == -1:
        bs = b_generator(m, letter)
        r1 = regular(m, -1)
        return ChainComplex(m, {-1: [r1], 0: [bs]},
                            {-1: [[dot_in(m, letter)]]}, check=False)
    raise ValueError("sign must be +1 or -1")


def parse_braid(text):
    """Braid grammar: tokens s, t (optionally ^<int>) or signed 1/2; at
    most MAX_WORD_LENGTH letters, counted over the whole expanded word."""
    letters, total = [], 0
    for pos, token in enumerate(str(text).split()):
        base, caret, etxt = token.partition("^")
        try:
            exp = int(etxt.strip("{}")) if caret else 1
        except ValueError:
            raise ValueError("bad exponent in token %d: %r" % (pos, token))
        if base not in BRAID_TOKENS:
            raise ValueError("bad braid token %d: %r" % (pos, token))
        letter, sign = BRAID_TOKENS[base]
        total += abs(exp)
        if total <= MAX_WORD_LENGTH:
            letters += [(letter, sign if exp >= 0 else -sign)] * abs(exp)
    if total > MAX_WORD_LENGTH:
        raise ValueError("braid word has %d letters, more than the maximum "
                         "of %d" % (total, MAX_WORD_LENGTH))
    if not letters:
        raise ValueError("empty braid word")
    return letters


class _TensorBlock(BimoduleMorphism):
    """A block f (x) id_b or +-id_a (x) g of tensor_complex whose matrix is
    build() when first read.  Left multiplication on a Soergel bimodule is
    injective, so it is nonzero exactly when its factor f or g is."""

    __slots__ = ("factor", "build")

    def __init__(self, dom, cod, factor, build, origin):
        self.dom, self.cod, self.degree = dom, cod, factor.degree
        self.factor, self.build, self.origin = factor, build, origin

    def __getattr__(self, name):  # reached while the matrix slot is unset
        if name != "matrix":
            raise AttributeError(name)
        self.matrix = tuple(map(tuple, self.build()))
        return self.matrix

    def __bool__(self):
        return bool(self.factor)


def tensor_complex(c1, c2):
    """Totalization of c1 (x) c2 with the Koszul sign (-1)^p on d_{c2}.

    Every block is a single f (x) id_b or +-id_a (x) g, for a block f of c1
    or g of c2, and is invertible only if f or g is (see simplify).  Each
    block between tagged atoms gets as its origin m, the kind of block, the
    three atoms' tags and the factor's matrix, which determine the block and
    its endpoints' splittings up to shift; split_atoms memoizes on it.  A
    block's matrix is built only when read (_TensorBlock), so a block that
    split_atoms finds in its memo is never built.
    """
    m = c1.m
    objects = {}
    index = {}
    for p in c1.degrees():
        for q in c2.degrees():
            n = p + q
            lst = objects.setdefault(n, [])
            for i, a in enumerate(c1.objects[p]):
                for j, b in enumerate(c2.objects[q]):
                    index[(p, i, q, j)] = (n, len(lst))
                    lst.append(tensor(a, b))
    diffs = {}
    for n in objects:
        if n + 1 in objects:
            diffs[n] = [[None] * len(objects[n])
                        for _ in range(len(objects[n + 1]))]
    # Each block's matrix is d (x) id or id (x) d for a block d of a factor;
    # its endpoints are the atoms built above, not fresh tensor products.
    for (p, i, q, j), (n, col) in index.items():
        if n not in diffs:
            continue
        blocks = diffs[n]
        a, b = c1.objects[p][i], c2.objects[q][j]
        terms = []
        if p in c1.diffs:
            for r, row in enumerate(c1.diffs[p]):
                f = row[i]
                if f is not None:
                    terms.append((index[(p + 1, r, q, j)][1], f,
                                  partial(tensor_id_matrix, f, b),
                                  (m, "f", _tag(a), _tag(f.cod), _tag(b),
                                   f.matrix)))
        if q in c2.diffs:
            for r, row in enumerate(c2.diffs[q]):
                g = row[j]
                if g is not None:
                    terms.append((index[(p, i, q + 1, r)][1], g, partial(
                        id_tensor_matrix, a, -g if p % 2 else g),  # Koszul
                                  (m, "-g" if p % 2 else "g", _tag(a),
                                   _tag(b), _tag(g.cod), g.matrix)))
        for tgt, factor, build, origin in terms:
            blocks[tgt][col] = _TensorBlock(
                objects[n][col], objects[n + 1][tgt], factor, build,
                origin if None not in origin[2:5] else None)
    return ChainComplex(m, objects, diffs, check=False, factors=(c1, c2))


def rouquier_braid(m, braid, split=False):
    """The Rouquier complex of a braid word: the tensor product of the
    elementary complexes F_x^{+-1}, letter by letter.

    split=False returns that product as it is: it has no invertible block
    (see simplify), so elimination would change nothing.  split=True
    simplifies after every letter, which gives a minimal complex of
    indecomposables."""
    if isinstance(braid, str):
        braid = parse_braid(braid)
    out = single_object(m, regular(m, 0))
    for letter, sign in braid:
        # out (raw, or minimal) and F_x have no invertible block, so by
        # simplify's lemma out (x) F_x has none until its atoms are split.
        f_x = rouquier(m, letter, sign)
        out = simplify_product(out, f_x) if split else tensor_complex(out, f_x)
    return out


# ---------------------------------------------------------------------------
# Gaussian elimination


def gaussian_eliminate(cplx, deg, row, col):
    """Remove objects[deg][col] -> objects[deg+1][row] along an invertible
    block psi, with the correction delta - gamma psi^{-1} beta.

    -gamma psi^{-1} is formed once per row.  When psi is a scalar c id, as
    between indecomposables, that is gamma scaled by -c^-1, and nothing is
    inverted but c; any other psi is inverted by invert_morphism."""
    psi = cplx.block(deg, row, col)
    if psi is None:
        raise ValueError("selected block is zero")
    c_inv = _scalar_of(psi.matrix)
    if c_inv is not None:
        c_inv = c_inv.inverse()
    elif (psi_inv := invert_morphism(psi)) is None:
        raise ValueError("selected block is not invertible")
    objects = {d: list(obs) for d, obs in cplx.objects.items()}
    diffs = {d: [list(r) for r in blocks] for d, blocks in cplx.diffs.items()}

    old = diffs[deg]
    # (column once col is gone, beta)
    betas = [(c - (c > col), beta) for c, beta in enumerate(old[row])
             if c != col and beta is not None]
    new_blocks = []
    for r, old_row in enumerate(old):
        if r == row:
            continue
        new_row = [blk if blk is not None and blk else None
                   for blk in old_row[:col] + old_row[col + 1:]]
        gamma = old_row[col]
        if gamma is not None and betas:
            neg = -gamma.compose(psi_inv) if c_inv is None else \
                BimoduleMorphism(psi.cod, gamma.cod, mat_scale(
                    gamma.matrix, -c_inv), 0, check=False)
            for c, beta in betas:
                corr = neg.compose(beta)
                blk = new_row[c]
                blk = corr if blk is None else blk + corr
                new_row[c] = blk if blk else None
        new_blocks.append(new_row)
    objects[deg].pop(col)
    objects[deg + 1].pop(row)
    diffs[deg] = new_blocks
    if deg - 1 in diffs:
        diffs[deg - 1].pop(col)
    if deg + 1 in diffs:
        for r_row in diffs[deg + 1]:
            r_row.pop(row)
    return ChainComplex(cplx.m, objects, diffs, check=False)


def minimal_form(cplx):
    """Eliminate invertible blocks until none remain (deterministic scan:
    the first invertible block by degree, column, row).  An elimination in
    degree d changes no block of a lower degree, so the next scan starts at
    d."""
    cur, start = cplx, float("-inf")
    while True:
        found = None
        for d in sorted(d for d in cur.diffs if d >= start):
            blocks = cur.diffs[d]
            for c in range(len(cur.objects[d])):
                for r in range(len(cur.objects[d + 1])):
                    blk = blocks[r][c]
                    if blk is not None and is_invertible(blk):
                        found = (d, r, c)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            break
        cur = gaussian_eliminate(cur, *found)
        start = found[0]
    return cur


# ---------------------------------------------------------------------------
# isomorphism testing


def _kernel_of_sum(terms, ncols, field):
    """K_m-basis of the vectors c with sum sign c[col] mat = 0 over terms
    (key, col, mat, sign): one equation per key, entry and monomial."""
    rows = {}  # (key, i, j, mono) -> {column: integer K_m element}
    imats = _integer_terms([mat for _, _, mat, _ in terms], field)
    for (key, col, _, sign), imat in zip(terms, imats):
        for i, imat_row in enumerate(imat):
            for j, entry in enumerate(imat_row):
                for mono, cf in entry.items():
                    row = rows.setdefault((key, i, j, mono), {})
                    cf = cf if sign > 0 else -cf
                    row[col] = row[col] + cf if col in row else cf
    return linalg.sparse_kernel_basis((rows[key] for key in sorted(rows)),
                                      ncols, field)


def _hom_bases(c1, c2, shift):
    """{d: hom_degree_basis(sum c1^d, sum c2^(d+shift), 0)} over the degrees
    of either complex, with the offsets of their maps in one vector."""
    degs = sorted(set(c1.degrees()) | set(c2.degrees()))
    per_degree, offsets, total = {}, {}, 0
    for d in degs:
        s1, s2 = c1.sum_object(d), c2.sum_object(d + shift)
        per_degree[d] = hom_degree_basis(s1, s2, 0) if s1 and s2 else []
        offsets[d] = total
        total += len(per_degree[d])
    return per_degree, offsets, total


def chain_map_basis(c1, c2):
    """K_m-basis of the degree-0 chain maps c1 -> c2, as coefficient
    vectors over per_degree, the hom_degree_basis of each degree between
    the direct-sum objects; returns (vectors, per_degree, offsets)."""
    per_degree, offsets, total = _hom_bases(c1, c2, 0)
    if total == 0:
        return [], per_degree, offsets
    field = realization(c1.m).field
    products = []  # (degree, column, f_{d+1} . d1 or d2 . f_d, sign)
    for d in per_degree:
        d1 = c1.sum_differential(d)
        d2 = c2.sum_differential(d)
        # f_{d+1} . d1 - d2 . f_d = 0
        if d1 is not None:
            for k, f in enumerate(per_degree.get(d + 1, [])):
                products.append((d, offsets[d + 1] + k,
                                 mat_mul(f.matrix, d1.matrix, field), 1))
        if d2 is not None:
            for k, f in enumerate(per_degree.get(d, [])):
                products.append((d, offsets[d] + k,
                                 mat_mul(d2.matrix, f.matrix, field), -1))
    return _kernel_of_sum(products, total, field), per_degree, offsets


def is_contractible(cplx):
    """Is cplx ~ 0, that is, id = d h + h d for degree-0 maps h^d: C^d ->
    C^(d-1)?  One solve over their hom_degree_basis, with the identity as
    one more column: a kernel vector nonzero there is a null-homotopy."""
    per_degree, offsets, total = _hom_bases(cplx, cplx, -1)
    field = realization(cplx.m).field
    terms = []  # (degree, column, d^(d-1) . h^d or h^(d+1) . d^d or id, sign)
    for d in per_degree:
        into, out = cplx.sum_differential(d - 1), cplx.sum_differential(d)
        if into is not None:
            for k, h in enumerate(per_degree[d]):
                terms.append((d, offsets[d] + k,
                              mat_mul(into.matrix, h.matrix, field), 1))
        if out is not None:
            for k, h in enumerate(per_degree.get(d + 1, [])):
                terms.append((d, offsets[d + 1] + k,
                              mat_mul(h.matrix, out.matrix, field), 1))
        terms.append((d, total, mat_identity(
            field, cplx.sum_object(d).rank), -1))
    return any(vec[total] for vec in _kernel_of_sum(terms, total + 1, field))


def _assemble_chain_map(vec, per_degree, offsets):
    maps = {}
    for d, basis in per_degree.items():
        if not basis:
            continue
        acc = None
        for k, f in enumerate(basis):
            cf = vec[offsets[d] + k]
            if cf:
                term = f.scale(cf)
                acc = term if acc is None else acc + term
        if acc is not None:
            maps[d] = acc
    return maps


def complexes_isomorphic(c1, c2):
    """'yes' and a witness per-degree morphism dict, or 'no' and None, for
    minimal complexes.  Over a chain-map basis f_1..f_n, the product over
    degrees of det(scalar part of sum c_k f_k) is a form of degree r = the
    total rank of c1, nonzero iff it is at c_1 = 1 and some (c_2..c_n) in
    {0..r}^(n-1) (Alon, Combinatorial Nullstellensatz, 1999)."""
    if c1.is_zero() and c2.is_zero():
        return "yes", {}
    if c1.graded_atom_profile() != c2.graded_atom_profile():
        return "no", None
    vecs, per_degree, offsets = chain_map_basis(c1, c2)
    if not vecs:
        return "no", None
    field = realization(c1.m).field
    rank = sum(mod.rank for obs in c1.objects.values() for mod in obs)
    degs = sorted(c1.objects)
    total = len(vecs[0])
    for rest in product(range(rank + 1), repeat=len(vecs) - 1):
        vec_total = [field.zero()] * total
        for cf, vec in zip((1,) + rest, vecs):
            if not cf:
                continue
            scal = field.from_rational(cf)
            vec_total = [a + scal * b for a, b in zip(vec_total, vec)]
        maps = _assemble_chain_map(vec_total, per_degree, offsets)
        if all(d in maps and is_invertible(maps[d]) for d in degs):
            return "yes", maps
    return "no", None


# ---------------------------------------------------------------------------
# idempotent splitting into indecomposables


def _complement_of_idempotent(mod, incl, proj):
    """Basis of im(1 - incl.proj) as a Bimodule summand with its own
    inclusion/projection, in closed form.

    The image of P = 1 - incl.proj is a graded direct summand, so by graded
    Nakayama the columns J of P kept by ascending degree are a basis of it
    (nakayama_basis), with a left inverse Y zero off the rows J'.
    Coordinates in the free basis P[:, J] are unique, so P = P[:, J] proj
    and left_x P[:, J] = P[:, J] left'_x give proj = Y P and
    left'_x = Y left_x P[:, J], products that read only the rows J'.
    """
    field = mod.field
    rest = mat_sub(mat_identity(field, mod.rank),
                   mat_mul(incl.matrix, proj.matrix, field))
    kept, inv = nakayama_basis(
        rest, sorted(range(mod.rank), key=lambda j: mod.degrees[j]), field)
    basis = [[row[j] for j in kept] for row in rest]
    rest_mod = summand(mod, [mod.degrees[j] for j in kept], basis, inv)
    return (rest_mod, BimoduleMorphism(rest_mod, mod, basis, 0, check=False),
            BimoduleMorphism(mod, rest_mod, mat_mul(inv, rest, field), 0,
                             check=False))


@lru_cache(maxsize=None)
def indecomposable_b(m, word):
    """The indecomposable B_w of an alternating word w of length <= m.

    Built by the dihedral Kazhdan-Lusztig rule b_s b_w' = b_sw' + b_w''
    for l(w') >= 2, where w'' is w' without its first letter (Elias, The
    two-color Soergel calculus, 2016): B_w is the Bott-Samelson BS(w)
    when l(w) <= 2, and otherwise the complement of B_w'' in
    B_s (x) B_w', split off once at shift 0.
    """
    if not isinstance(word, tuple):
        return indecomposable_b(m, tuple(word))
    if not word:
        return regular(m, 0)
    if len(word) > m or any(a == b for a, b in zip(word, word[1:])):
        raise ValueError("%s is not a reduced word at m = %d"
                         % ("".join(word), m))
    if len(word) <= 2:
        mod = bott_samelson(m, word)
    else:
        mod = tensor(b_generator(m, word[0]), indecomposable_b(m, word[1:]))
        incl, proj = split_summand(mod, indecomposable_b(m, word[2:]))
        mod, _, _ = _complement_of_idempotent(mod, incl, proj)
    out = Bimodule(mod.real, mod.degrees, mod.left["s"], mod.left["t"],
                   shift=mod.shift, kl=word, check=False)
    out._left_id = mod._left_id
    return out


# Splittings up to shift: Bimodule.up_to_shift key -> (min degree, (tag or
# product class, shift + min degree), class, [(atom, incl matrix, proj
# matrix)]).  M(k) has the matrices of M, so its summands are those of M
# shifted by k (Krull-Schmidt).
_SPLITTINGS = {}

# Split blocks of tensor_complex: origin -> {(row piece, column piece):
# proj . block . incl matrix}, its nonzero ones.  The origin fixes the block's
# matrix and, through _SPLITTINGS, the pieces of its endpoints.
_SPLIT_BLOCKS = {}

# _split calls by the route that answered them; descent_fallback counts the
# descents whose closed form failed its check and that hom solves split.
SPLIT_ROUTES = Counter()


def clear_caches():
    """Empty every memo and lru_cache of the package.  No answer depends on
    them; this gives tests and benchmarks a cold start."""
    from . import serre, trace  # both import this module
    for memo in (bimodule._LEFT_IDS, bimodule._LEFT_ACTION,
                 bimodule._LEFT_POWERS, bimodule._TENSOR_LEFT,
                 bimodule._PRODUCT_CLASS, _SPLITTINGS, _SPLIT_BLOCKS,
                 serre._HOM_BLOCKS, trace._TRACED, SPLIT_ROUTES):
        memo.clear()
    bimodule._LEFT_FLOOR[0] = next(bimodule._LEFT_COUNTER)
    for cached in (indecomposable_b, rouquier, serre.full_twist,
                   serre.full_twist_inverse, serre.ft_over_t, realization,
                   field_for, _minimal_poly_2cos, kl_basis, bs_class,
                   standard_in_kl, hecke._hom_rank):
        cached.cache_clear()


def decompose_bimodule(mod):
    """[(atom, incl, proj)] over the summands B_w(k) that the Hecke class
    names (Soergel 2007): longest w first, group_elements order, k up.  A
    memo miss goes to _split, which splits B_y (x) B_y and each descent
    B_x(k) (x) B_y in closed form, with no hom solve."""
    low, key = mod.up_to_shift()
    # the class is v^shift times a base that the tag or product class fixes,
    # so a hit with the same base and shift + low has the same class
    source = (_tag(mod) or mod.product_class, mod.shift + low)
    if source[0] is None:
        raise ValueError("%r has no Hecke class to split by" % (mod,))
    hit = _SPLITTINGS.get(key)
    if hit is None or hit[1] != source and class_of_bimodule(mod) != \
            hit[2].scale(Laurent.monomial(hit[0] - low)):
        cls = class_of_bimodule(mod)
        hit = _SPLITTINGS[key] = (low, source, cls, _split(mod, cls))
    low0, _, _, pieces = hit
    out = []
    for atom, incl, proj in pieces:
        atom = atom.shifted(low0 - low) if low0 != low else atom
        out.append((atom, BimoduleMorphism(atom, mod, incl, 0, check=False),
                    BimoduleMorphism(mod, atom, proj, 0, check=False)))
    return out


def _split(mod, cls):
    """[(atom, incl matrix, proj matrix)] in decompose_bimodule's order:
    the identity when mod has its one summand's matrices, on the pair-basis
    coordinates for B_y (x) B_y, through the factors where mod names them,
    in closed form for a descent B_x(k) (x) B_y (_split_descent), else by
    hom solves that split off one summand at a time, each complement
    classed by the summands left.  SPLIT_ROUTES counts the routes taken."""
    mults = kl_multiplicities(cls)
    order = sorted(group_elements(mod.m), key=len, reverse=True)
    summands = [indecomposable_b(mod.m, w).shifted(k) for w in order
                if w in mults for k, n in sorted(mults[w].terms.items())
                for _ in range(n)]
    if sorted(d for b in summands for d in b.degrees) != sorted(mod.degrees):
        raise ValueError("%r does not match its class %r" % (mod, cls))
    if len(summands) == 1 and summands[0].left_id == mod.left_id and \
            summands[0].degrees == mod.degrees:
        SPLIT_ROUTES["identity"] += 1
        return [(summands[0], mat_identity(mod.field, mod.rank),
                 mat_identity(mod.field, mod.rank))]
    if mod.word in (("s", "s"), ("t", "t")):
        # B_y's left entries are y-invariant, hence scalars on the second
        # factor: its a_y (x) 1 gives B_y(-1), its 1 (x) 1 gives B_y(1)
        SPLIT_ROUTES["one_color"] += 1
        unit = mat_identity(mod.field, 4)
        return [(atom, [[row[j] for j in cols] for row in unit],
                 [unit[j] for j in cols])
                for atom, cols in zip(summands, ((1, 3), (0, 2)))]
    pieces = _split_through_factors(mod)
    if pieces is not None:
        pieces.sort(key=lambda p: (order.index(p[0].kl or ()), p[0].shift))
        if [(a.kl, a.shift) for a, _, _ in pieces] == \
                [(b.kl, b.shift) for b in summands]:
            SPLIT_ROUTES["factors"] += 1
            return pieces
    descent = _is_descent(mod, summands)
    pieces = _split_descent(mod, summands) if descent else None
    SPLIT_ROUTES["descent" if pieces else "descent_fallback" if descent
                 else "solve"] += 1
    if pieces:
        return pieces
    out = []
    current, remaining = mod, cls
    incl_cur = proj_cur = identity_morphism(mod)
    for cand in summands:
        found = split_summand(current, cand)
        if found is None:
            raise ValueError("%r does not split off %r" % (mod, cand))
        incl, proj = found
        out.append((cand, incl_cur.compose(incl).matrix,
                    proj.compose(proj_cur).matrix))
        if cand.rank == current.rank:
            break
        current, rest_incl, rest_proj = _complement_of_idempotent(
            current, incl, proj)
        remaining = current.product_class = \
            remaining - class_of_bimodule(cand)
        incl_cur = incl_cur.compose(rest_incl)
        proj_cur = rest_proj.compose(proj_cur)
    return out


def _split_through_factors(mod):
    """Pieces of mod = a (x) BS(w y) from those of a (x) BS(w), each piece
    P split as P (x) B_y through the memo (associativity of the pair
    basis); None when mod names no such factorization (a plain BS(w y)
    with l(w) >= 2, or factors (a, BS(w y)), l(w) >= 1) or is not exact."""
    if mod.word is not None and len(mod.word) >= 3:
        head, y = bott_samelson(mod.m, mod.word[:-1]), mod.word[-1]
    elif mod.factors is not None and len(mod.factors[1].word) >= 2:
        a, b = mod.factors
        head, y = tensor(a, bott_samelson(mod.m, b.word[:-1])), b.word[-1]
    else:
        return None
    gen = b_generator(mod.m, y)
    whole = tensor(head, gen)
    k = whole.degrees[0] - mod.degrees[0]
    if whole.left != mod.left or \
            [d - k for d in whole.degrees] != list(mod.degrees):
        return None
    field = mod.field
    pieces = []
    for atom, incl, proj in decompose_bimodule(head.shifted(k)):
        outer_incl = tensor_id_matrix(incl, gen)
        outer_proj = tensor_id_matrix(proj, gen)
        for sub, sub_incl, sub_proj in decompose_bimodule(tensor(atom, gen)):
            pieces.append((sub, mat_mul(outer_incl, sub_incl.matrix, field),
                           mat_mul(sub_proj.matrix, outer_proj, field)))
    return pieces


def _is_descent(mod, summands):
    """Is mod B_x(k) (x) B_y with xy < x, so b_x b_y = (v + v^-1) b_x?"""
    return mod.factors is not None and len(mod.factors[1].word) == 1 and \
        len(summands) == 2 and all(b.up_to_shift()[1] == mod.factors[0]
                                   .up_to_shift()[1] for b in summands)


def _split_descent(mod, summands):
    """The pieces B_x(k -+ 1) of a descent B_x(k) (x) B_y in closed form,
    or None when they fail the exact check.  For x' = xy, B_x is a summand
    (e, p) of B_x' (x) B_y (Elias, The two-color Soergel calculus, 2016),
    and B_y (x) B_y = B_y(-1) + B_y(1) by (iota_i, pi_i) (Elias-Khovanov,
    Diagrammatics for Soergel categories, 2010); incl_i = (p (x) id)(id (x)
    iota_i) e and proj_i = p (id (x) pi_i)(e (x) id).  In their Gram matrix
    proj_i . incl_j, proj_0 . incl_1 is in Hom^-2(B_x, B_x) = 0, and
    proj_i . incl_i - p e is a degree-0 map through B_x'' (x) B_y, which has
    no summand B_x(+-1), so 0 (End^0(B_x) = K_m): p e = id.  proj_1 -= X
    proj_0 for X = proj_1 . incl_0 leaves the identity."""
    field, n, x, gen = mod.field, mod.rank // 2, summands[0].kl, mod.factors[1]
    head = indecomposable_b(mod.m, right_mult(x, gen.word[0], mod.m))
    (e, p), = [(inc, prj) for atom, inc, prj in
               decompose_bimodule(tensor(head, gen)) if atom.kl == x]
    up, down = tensor_id_matrix(p, gen), tensor_id_matrix(e, gen)
    incl, proj = [], []
    for _, iota, pi in decompose_bimodule(tensor(gen, gen)):
        incl.append(mat_mul(up, mat_mul(id_tensor_matrix(head, iota),
                                        e.matrix, field), field))
        proj.append(mat_mul(mat_mul(p.matrix, id_tensor_matrix(head, pi),
                                    field), down, field))
    below = mat_mul(proj[1], incl[0], field)
    proj = proj[0] + mat_sub(proj[1], mat_mul(below, proj[0], field))
    incl = [r0 + r1 for r0, r1 in zip(*incl)]
    one = mat_identity(field, 2 * n)  # proj_i incl_j = delta, sum incl proj
    if mat_mul(proj, incl, field) != one or mat_mul(incl, proj, field) != one:
        return None
    return [(atom, [row[i * n:(i + 1) * n] for row in incl],
             proj[i * n:(i + 1) * n]) for i, atom in enumerate(summands)]


def simplify(cplx):
    """A minimal complex of indecomposables homotopy equivalent to cplx:
    split every atom, then eliminate every invertible block.

    Elimination comes only after the split.  Soergel bimodules are free as
    left and as right R-modules (Soergel 2007), so a block f (x) id_b of
    tensor_complex is f repeated on rank(b) copies of dom f, and is
    invertible only if f is; likewise for id_a (x) g.  Hence a tensor
    product of two complexes without invertible blocks has none either,
    and minimal_form could eliminate nothing there until the atoms are split
    (Bar-Natan, Fast Khovanov homology computations, 2007, simplifies
    locally for the same reason).
    """
    return minimal_form(split_atoms(cplx))


def simplify_product(c1, c2):
    """simplify(c1 (x) c2), one factor at a time when tensor_complex built
    c2 as a (x) b: then it is simplify(simplify(c1 (x) a) (x) b).

    c1 (x) (a (x) b) is isomorphic to (c1 (x) a) (x) b (the Koszul signs
    agree), and tensoring preserves homotopy equivalence, so both are
    homotopy equivalent to c1 (x) c2; minimal complexes are unique up to
    isomorphism.  Each step splits and eliminates a product with one
    factor, as rouquier_braid(split=True) does letter by letter, instead
    of splitting every atom of the whole product first.
    """
    if c2.factors is not None:
        a, b = c2.factors
        return simplify_product(simplify_product(c1, a), b)
    return simplify(tensor_complex(c1, c2))


def split_atoms(cplx):
    """Replace every atom by its indecomposable summands (KL-tagged).

    A block between atoms with pieces becomes the blocks proj . blk . incl
    between the pieces, and one between two kept atoms is read as it is; a
    block with an origin (see tensor_complex) takes them from the
    _SPLIT_BLOCKS memo, unbuilt, any other block computes them.  An atom is
    kept when it is indecomposable, or is its one summand (incl = proj = id).
    """
    pieces = {}  # degree -> per atom [(piece, incl, proj)], None: id
    for d, obs in cplx.objects.items():
        pieces[d] = [_atom_pieces(mod) for mod in obs]
    objects = {d: [p[0] for lst in per_atom for p in lst]
               for d, per_atom in pieces.items()}
    offsets = {d: list(accumulate(map(len, per_atom), initial=0))
               for d, per_atom in pieces.items()}
    diffs = {}
    for d, blocks in cplx.diffs.items():
        rows = diffs[d] = [[None] * len(objects[d]) for _ in objects[d + 1]]
        for ro, blk_row in enumerate(blocks):
            rps = pieces[d + 1][ro]
            for co, blk in enumerate(blk_row):
                if not blk:
                    continue
                cps = pieces[d][co]
                for (i, j), mat in _split_block(blk, rps, cps).items():
                    rows[offsets[d + 1][ro] + i][offsets[d][co] + j] = \
                        BimoduleMorphism(cps[j][0], rps[i][0], mat,
                                         blk.degree, check=False)
    return ChainComplex(cplx.m, objects, diffs, check=False)


def _atom_pieces(mod):
    if mod.kl is not None or (mod.word is not None and len(mod.word) <= 1):
        return [(mod, None, None)]
    out = decompose_bimodule(mod)
    if len(out) == 1 and out[0][0].left_id == mod.left_id and \
            out[0][0].degrees == mod.degrees:
        return [(out[0][0], None, None)]
    return out


def _split_block(blk, rps, cps):
    """{(i, j): matrix of proj_i . blk . incl_j} over the row pieces rps and
    column pieces cps of blk's endpoints, nonzero ones only; memoized on
    blk's origin."""
    out = _SPLIT_BLOCKS.get(blk.origin) if blk.origin is not None else None
    if out is not None:
        return out
    if rps[0][2] is None and cps[0][1] is None:  # both endpoints kept
        out = {(0, 0): blk.matrix}
    else:
        out = {}
        for i, (_, _, prj) in enumerate(rps):
            left = blk if prj is None else prj.compose(blk)
            for j, (_, inc, _) in enumerate(cps):
                comp = left if inc is None else left.compose(inc)
                if comp:
                    out[i, j] = comp.matrix
    if blk.origin is not None:
        _SPLIT_BLOCKS[blk.origin] = out
    return out
