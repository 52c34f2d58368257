"""Graded R-bimodules presented as free right R-modules.

A bimodule is a free right R-module with a chosen homogeneous basis,
together with two commuting matrices giving left multiplication by a_s
and a_t.  Shifts are absorbed into the basis degrees; Bott-Samelson
word/shift tags ride along for atom bookkeeping.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import count
from math import lcm
from operator import add

from . import linalg
from .hecke import Laurent, class_of_bimodule, hom_rank
from .modules import column_degree, minimalize_columns
from .ring import LETTERS, RingElement, realization

# ---------------------------------------------------------------------------
# matrices over R


def mat_zero(field, nrows, ncols):
    z = RingElement.zero(field)
    return [[z] * ncols for _ in range(nrows)]


def mat_identity(field, n):
    z = RingElement.zero(field)
    one = RingElement.constant(field, 1)
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def _integer_terms(mats, field):
    """The entries of some matrices over R as {exponent: integer K_m
    element} dicts, all times one common denominator."""
    den = lcm(*(c.den for mat in mats for row in mat for f in row
                for c in f.terms.values()))
    return [[[field.integer_row(f.terms, den) for f in row] for row in mat]
            for mat in mats]


def mat_mul(a, b, field):
    """a times b over R.  Each coefficient of an entry is summed as one
    integer numerator over a common denominator, and built as a reduced
    FieldScalar once, over a field of degree >= 2 from plain tuples and
    the field's generated product; zero rows of b are skipped."""
    wide = field.degree > 1
    num = (lambda x: x.num) if wide else field.numerator
    scalar, mul = field.scalar, field._mul if wide else None
    rows_b = [(p, [(j, [(e, num(x), x.den) for e, x in y.terms.items()])
                   for j, y in enumerate(row) if y.terms])
              for p, row in enumerate(b)]
    rows_b = [(p, row) for p, row in rows_b if row]
    zero_row = [RingElement.zero(field)] * (len(b[0]) if b else 0)
    out = []
    for row_a in a:
        acc = {}
        for p, row_b in rows_b:
            terms = row_a[p].terms
            if not terms:
                continue
            xt = [(e, num(x), x.den) for e, x in terms.items()]
            if wide:  # as below, on plain numerator tuples
                for j, yt in row_b:
                    d = acc.setdefault(j, {})
                    for (i1, j1), n1, d1 in xt:
                        for (i2, j2), n2, d2 in yt:
                            e = (i1 + i2, j1 + j2)
                            n, den = mul(n1, n2), d1 * d2
                            cur = d.get(e)
                            if cur is not None:
                                m, dm = cur
                                n, den = (
                                    (tuple(map(add, m, n)), den) if dm == den
                                    else (tuple(u * den + w * dm for u, w
                                                in zip(m, n)), dm * den))
                            d[e] = (n, den)
                continue
            for j, yt in row_b:
                d = acc.get(j)
                if d is None:
                    d = acc[j] = {}
                for (i1, j1), n1, d1 in xt:
                    for (i2, j2), n2, d2 in yt:
                        e = (i1 + i2, j1 + j2)
                        n, den = n1 * n2, d1 * d2
                        cur = d.get(e)
                        if cur is not None:
                            m, dm = cur
                            n, den = ((m + n, den) if dm == den
                                      else (m * den + n * dm, dm * den))
                        d[e] = (n, den)
        row = list(zero_row)
        for j, d in acc.items():
            d = {e: scalar(n, den) for e, (n, den) in d.items()
                 if (any(n) if wide else n)}
            if d:
                row[j] = RingElement.of_nonzero(field, d)
        out.append(row)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_scale(a, c):
    """a times c in K_m; c = 1 or -1 takes no field arithmetic."""
    one = c.field.one()
    return a if c == one else mat_neg(a) if c == -one else \
        [[x.scale(c) for x in row] for row in a]


def mat_transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def lift_columns(gb, matrix, columns, field, error):
    """Apply a matrix over R to each column and lift the images through
    the ModuleGB gb; the lifts are the columns of the returned matrix.

    gb None stands for the zero module, which only zero images reach.
    Raises error when an image lies outside the span.
    """
    images = mat_mul(matrix, mat_transpose(columns), field) if columns else []
    return _lift_images(gb, [[row[j] for row in images]
                             for j in range(len(columns))], error)


def _lift_images(gb, images, error):
    """lift_columns on images already formed: each image column lifted
    through gb, the lifts as the columns of the returned matrix."""
    lifts = []
    for j, img in enumerate(images):
        lifted = gb.lift(img) if gb is not None else (
            None if any(img) else [])
        if lifted is None:
            raise error("image of column %d lies outside the target span" % j)
        lifts.append(lifted)
    nrows = gb.ncols if gb is not None else 0
    return [[col[i] for col in lifts] for i in range(nrows)]


# ---------------------------------------------------------------------------
# bimodules


class Bimodule:
    """Free right R-module with commuting left-action matrices.

    word tags a Bott-Samelson bimodule BS(word), kl an indecomposable
    B_kl; either is None when absent.  tensor sets, on an untagged
    product a (x) b, product_class to its Hecke class before the shift,
    and factors to (a, b) when b has a Bott-Samelson word of >= 2 letters.
    """

    __slots__ = ("real", "rank", "degrees", "left", "word", "shift", "kl",
                 "product_class", "factors", "_left_id")

    def __init__(self, real, degrees, left_s, left_t, word=None, shift=0,
                 kl=None, check=True):
        self.real = real
        self.degrees = tuple(degrees)
        self.rank = len(self.degrees)
        self.left = {"s": tuple(tuple(row) for row in left_s),
                     "t": tuple(tuple(row) for row in left_t)}
        self.word = tuple(word) if word is not None else None
        self.shift = shift
        self.kl = tuple(kl) if kl is not None else None
        self.product_class = self.factors = self._left_id = None
        if check:
            self._validate()

    def _validate(self):
        for x in LETTERS:
            mat = self.left[x]
            if len(mat) != self.rank or any(len(r) != self.rank for r in mat):
                raise ValueError("left_%s has wrong shape" % x)
            for i in range(self.rank):
                for j in range(self.rank):
                    want = 2 + self.degrees[j] - self.degrees[i]
                    if not mat[i][j].is_homogeneous(want):
                        raise ValueError(
                            "left_%s[%d,%d] not homogeneous of degree %d"
                            % (x, i, j, want))
        ab = mat_mul(self.left["s"], self.left["t"], self.field)
        ba = mat_mul(self.left["t"], self.left["s"], self.field)
        if not mat_eq(ab, ba):
            raise ValueError("left actions do not commute")

    @property
    def field(self):
        return self.real.field

    @property
    def m(self):
        return self.real.m

    @property
    def left_id(self):
        """The memos' key: the interned id of (m, left_s, left_t), interned
        again if it predates the last clear_caches."""
        if self._left_id is None or self._left_id < _LEFT_FLOOR[0]:
            self._left_id = _intern_left(self.m, self.left["s"],
                                         self.left["t"])
        return self._left_id

    def up_to_shift(self):
        """(lowest degree, memo key): the key, the left id and the degrees
        less the lowest, is the same for every shift of the module."""
        low = min(self.degrees, default=0)
        return low, (self.left_id, tuple(d - low for d in self.degrees))

    def left_action_of(self, f):
        """Matrix of left multiplication by f in R, as fresh lists."""
        return [list(row) for row in self._left_action_rows(f)]

    def _left_action_rows(self, f):
        """left_action_of's rows, the memo's own tuples."""
        key = (self.left_id, f)
        rows = _LEFT_ACTION.get(key)
        if rows is None:
            rows = _LEFT_ACTION[key] = self._left_action(f)
        return rows

    def _left_action(self, f):
        """The sum of c s^i t^j over the terms c a_s^i a_t^j of f."""
        field, n = self.field, self.rank
        pows = _LEFT_POWERS.get(self.left_id)
        if pows is None:
            pows = _LEFT_POWERS[self.left_id] = {
                x: [mat_identity(field, n), self.left[x]] for x in LETTERS}
        monos = []
        for i, j in f.terms:
            for x, k in (("s", i), ("t", j)):
                while len(pows[x]) <= k:
                    pows[x].append(mat_mul(pows[x][-1], self.left[x], field))
            mono = mat_mul(pows["s"][i], pows["t"][j], field) if i and j \
                else pows["s"][i] if i else pows["t"][j]
            monos.append([g for row in mono for g in row])
        coeffs = [RingElement(field, {(0, 0): c}) for c in f.terms.values()]
        flat = mat_mul([coeffs], monos, field)[0] if monos else \
            mat_zero(field, 1, n * n)[0]
        return tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n))

    def shifted(self, k):
        """M(k): internal grading shifted down by k."""
        out = Bimodule(self.real, [d - k for d in self.degrees],
                       self.left["s"], self.left["t"],
                       word=self.word, shift=self.shift + k, kl=self.kl,
                       check=False)
        out.product_class, out.factors = self.product_class, self.factors
        out._left_id = self._left_id
        return out

    def graded_rank(self):
        """Sum of Q^degree over the right basis."""
        from .series import QSeries
        num = {}
        for d in self.degrees:
            num[d] = num.get(d, 0) + 1
        return QSeries(num, 0)

    def same_graded_rank(self, other):
        return sorted(self.degrees) == sorted(other.degrees)

    def __eq__(self, other):
        if not isinstance(other, Bimodule):
            return NotImplemented
        return (self.m == other.m and self.degrees == other.degrees
                and self.left == other.left)

    def __repr__(self):
        if self.kl is not None:
            tag = "B_%s" % ("".join(self.kl) or "e")
            if self.shift:
                tag += "(%d)" % self.shift
            return tag
        if self.word is not None:
            tag = "BS(%s)" % "".join(self.word) if self.word else "R"
            if self.shift:
                tag += "(%d)" % self.shift
            return tag
        return "Bimodule(rank=%d, degrees=%s)" % (self.rank, list(self.degrees))

    def to_json(self):
        out = {
            "m": self.m,
            "degrees": list(self.degrees),
            "left_s": _mat_to_json(self.left["s"]),
            "left_t": _mat_to_json(self.left["t"]),
            "word": list(self.word) if self.word is not None else None,
            "shift": self.shift,
        }
        if self.kl is not None:
            out["kl"] = list(self.kl)
        return out

    @classmethod
    def from_json(cls, data):
        out = cls._from_json(data, {})
        out._validate()
        return out

    @classmethod
    def _from_json(cls, data, parsed):
        """The module data encodes, unchecked; parsed as for
        _mat_from_json."""
        real = realization(data["m"])
        return cls(real, data["degrees"],
                   _mat_from_json(data["left_s"], real.field, parsed),
                   _mat_from_json(data["left_t"], real.field, parsed),
                   word=data.get("word"), shift=data.get("shift", 0),
                   kl=data.get("kl"), check=False)


def poly_to_json(f):
    return [[i, j, [str(c) for c in coeff.coeffs]]
            for (i, j), coeff in sorted(f.terms.items())]


def poly_from_json(data, field):
    from .field import FieldScalar
    terms = {}
    for i, j, coeffs in data:
        terms[(i, j)] = FieldScalar(
            field, tuple(Fraction(c) for c in coeffs))
    return RingElement(field, terms)


def _mat_to_json(mat):
    return [[poly_to_json(x) for x in row] for row in mat]


def _mat_from_json(data, field, parsed):
    """The matrix data encodes, parsed once per JSON text and field: the
    dict parsed keeps it for every later copy, which shares its entries."""
    key = (json.dumps(data), field)
    if key not in parsed:
        parsed[key] = [[poly_from_json(x, field) for x in row] for row in data]
    return parsed[key]


def regular(m, shift=0):
    """R(shift): rank one, generator in degree -shift."""
    real = realization(m)
    return Bimodule(real, (-shift,),
                    [[real.alpha["s"]]], [[real.alpha["t"]]],
                    word=(), shift=shift, check=False)


def b_generator(m, letter, shift=0):
    """B_letter(shift) in the basis {1 (x) 1, alpha (x) 1}."""
    real = realization(m)
    alpha = real.alpha[letter]
    alpha2 = alpha * alpha
    left = {}
    for x in LETTERS:
        g, h = real.invariant_split(real.alpha[x], letter)
        left[x] = [[g, alpha2 * h], [h, g]]
    return Bimodule(real, (-1 - shift, 1 - shift), left["s"], left["t"],
                    word=(letter,), shift=shift, check=False)


# Interned left actions: (m, left_s, left_t) -> id.  clear_caches empties
# it and raises _LEFT_FLOOR past every id given, while _LEFT_COUNTER runs
# on: no id is reused, and a module made before a clear is interned again.
_LEFT_IDS = {}
_LEFT_COUNTER = count()
_LEFT_FLOOR = [0]


def _intern_left(m, left_s, left_t):
    key = (m, left_s, left_t)
    out = _LEFT_IDS.get(key)
    if out is None:
        out = _LEFT_IDS[key] = next(_LEFT_COUNTER)
    return out


# Memos on left ids, which no grading shift changes.  Left actions of f in
# R, keyed on (left id, f).
_LEFT_ACTION = {}

# {x: [1, left_x, left_x^2, ...]} per left id, as far as computed.
_LEFT_POWERS = {}

# (left_s, left_t, left id) of tensor products, keyed on the factors' ids.
_TENSOR_LEFT = {}

# Hecke classes before the shift of untagged products of tagged factors,
# keyed on (m, the factors' tags).
_PRODUCT_CLASS = {}


def _tensor_left(mod_a, mod_b):
    """left_x of mod_a (x) mod_b is left_x of mod_a tensored with id."""
    key = (mod_a.left_id, mod_b.left_id)
    hit = _TENSOR_LEFT.get(key)
    if hit is None:
        left = [tuple(map(tuple, tensor_id_matrix(BimoduleMorphism(
            mod_a, mod_a, mod_a.left[x], check=False), mod_b)))
            for x in LETTERS]
        hit = _TENSOR_LEFT[key] = (*left, _intern_left(mod_a.m, *left))
    return hit


def _tag(mod):
    """What determines mod up to shift: its KL tag or Bott-Samelson word."""
    return ("kl", mod.kl) if mod.kl is not None else \
        ("word", mod.word) if mod.word is not None else None


def tensor(mod_a, mod_b):
    """mod_a (x)_R mod_b with lexicographic pair basis (a-index major).

    A product with some R(l) keeps the other factor's KL tag: B_x(k) (x) R(l)
    and R(l) (x) B_x(k) have the left matrices of B_x(k) and its degrees
    lowered by l, so they are B_x(k + l) and need no splitting.
    """
    if mod_a.m != mod_b.m:
        raise ValueError("tensor over different m")
    degrees = [da + db for da in mod_a.degrees for db in mod_b.degrees]
    left_s, left_t, left_id = _tensor_left(mod_a, mod_b)
    word = None
    if mod_a.word is not None and mod_b.word is not None:
        word = mod_a.word + mod_b.word
    kl = mod_a.kl if mod_b.word == () else \
        mod_b.kl if mod_a.word == () else None
    out = Bimodule(mod_a.real, degrees, left_s, left_t, word=word,
                   shift=mod_a.shift + mod_b.shift, kl=kl, check=False)
    out._left_id = left_id
    if word is None and kl is None:
        key = (mod_a.m, _tag(mod_a), _tag(mod_b))
        out.product_class = _PRODUCT_CLASS.get(key)
        if out.product_class is None:
            class_a = class_of_bimodule(mod_a)
            class_b = class_of_bimodule(mod_b)
            if class_a is not None and class_b is not None:
                out.product_class = (class_a * class_b).scale(
                    Laurent.monomial(-out.shift))
            if None not in key:
                _PRODUCT_CLASS[key] = out.product_class
        if mod_b.word is not None and len(mod_b.word) >= 2:
            out.factors = (mod_a, mod_b)
    return out


def bott_samelson(m, word):
    out = regular(m, 0)
    for letter in word:
        out = tensor(out, b_generator(m, letter))
    return out


# ---------------------------------------------------------------------------
# morphisms


class BimoduleMorphism:
    """A map dom -> cod by its matrix over R.  origin, when set (see
    complexes.tensor_complex), is a key fixing the matrix and the splits
    of dom and cod up to shift; no composite, sum or multiple keeps it."""

    __slots__ = ("dom", "cod", "matrix", "degree", "origin")

    def __init__(self, dom, cod, matrix, degree=0, check=True):
        self.dom = dom
        self.cod = cod
        self.matrix = tuple(tuple(row) for row in matrix)
        self.degree = degree
        self.origin = None
        if check:
            self._validate()

    def _validate(self):
        if len(self.matrix) != self.cod.rank or any(
                len(r) != self.dom.rank for r in self.matrix):
            raise ValueError("morphism matrix has wrong shape")
        for i in range(self.cod.rank):
            for j in range(self.dom.rank):
                want = self.degree + self.dom.degrees[j] - self.cod.degrees[i]
                if not self.matrix[i][j].is_homogeneous(want):
                    raise ValueError(
                        "entry (%d,%d) not homogeneous of degree %d"
                        % (i, j, want))
        field = self.dom.field
        for x in LETTERS:
            lhs = mat_mul(self.cod.left[x], self.matrix, field)
            rhs = mat_mul(self.matrix, self.dom.left[x], field)
            if not mat_eq(lhs, rhs):
                raise ValueError("morphism does not intertwine left_%s" % x)

    def __bool__(self):
        return any(any(row) for row in self.matrix)

    def __eq__(self, other):
        if not isinstance(other, BimoduleMorphism):
            return NotImplemented
        return (self.dom == other.dom and self.cod == other.cod
                and self.matrix == other.matrix)

    def compose(self, other):
        """self after other."""
        if other.cod is not self.dom and other.cod != self.dom:
            raise ValueError("composition mismatch")
        mat = mat_mul(self.matrix, other.matrix, self.dom.field)
        return BimoduleMorphism(other.dom, self.cod, mat,
                                self.degree + other.degree, check=False)

    def __add__(self, other):
        return BimoduleMorphism(self.dom, self.cod,
                                mat_add(self.matrix, other.matrix),
                                self.degree, check=False)

    def __neg__(self):
        return BimoduleMorphism(self.dom, self.cod,
                                mat_neg(self.matrix),
                                self.degree, check=False)

    def scale(self, c):
        """self times c in K_m."""
        return BimoduleMorphism(self.dom, self.cod, mat_scale(self.matrix, c),
                                self.degree, check=False)

    def __repr__(self):
        return "BimoduleMorphism(%r -> %r, deg=%d)" % (
            self.dom, self.cod, self.degree)


def identity_morphism(mod):
    return BimoduleMorphism(mod, mod, mat_identity(mod.field, mod.rank),
                            0, check=False)


def tensor_id_matrix(f, mod):
    """f (x) id_mod: block (k, i) is the left action of f[k][i] on mod, so
    f's own matrix when mod is some R(l), whose left action of p is [p]."""
    if mod.word == ():
        return [list(row) for row in f.matrix]
    n = mod.rank
    mat = mat_zero(f.dom.field, f.cod.rank * n, f.dom.rank * n)
    for k, row in enumerate(f.matrix):
        for i, p in enumerate(row):
            if p:
                for l, act in enumerate(mod._left_action_rows(p)):
                    mat[k * n + l][i * n:(i + 1) * n] = act
    return mat


def id_tensor_matrix(mod, g):
    """id_mod (x) g: g on every diagonal block."""
    rd, rc = g.dom.rank, g.cod.rank
    mat = mat_zero(g.dom.field, mod.rank * rc, mod.rank * rd)
    for k in range(mod.rank):
        for l, row in enumerate(g.matrix):
            mat[k * rc + l][k * rd:(k + 1) * rd] = row
    return mat


DOT_IN_HALF = Fraction(1, 2)


def dot_out(m, letter):
    """Multiplication B_letter -> R(1): e1 -> 1, e2 -> alpha."""
    real = realization(m)
    dom = b_generator(m, letter)
    cod = regular(m, 1)
    return BimoduleMorphism(dom, cod,
                            [[real.one, real.alpha[letter]]], 0)


def dot_in(m, letter):
    """R(-1) -> B_letter: 1 -> (alpha (x) 1 + 1 (x) alpha) / 2."""
    real = realization(m)
    dom = regular(m, -1)
    cod = b_generator(m, letter)
    half = real.field.from_rational(DOT_IN_HALF)
    return BimoduleMorphism(dom, cod,
                            [[real.alpha[letter].scale(half)],
                             [RingElement.constant(real.field, half)]], 0)


# ---------------------------------------------------------------------------
# hom spaces


class HomSpace:
    """Right R-module of intertwiners dom -> cod, with minimal generators.

    Hom spaces of Soergel bimodules are free right R-modules, and Soergel's
    hom formula (hecke.hom_rank) says how many generators sit in each
    degree.  Only those degrees are solved (hom_degree_basis); the
    generators are the solutions that minimalize_columns keeps, a map
    flattened row-major, and their number per degree must be the formula's.
    """

    def __init__(self, dom, cod):
        self.dom = dom
        self.cod = cod
        want = hom_rank(dom, cod)
        # entry (i, j) of a map of degree d has polynomial degree
        # d + dom.degrees[j] - cod.degrees[i]
        entry = [c - d for c in cod.degrees for d in dom.degrees]
        self.generators = minimalize_columns(
            [[x for row in phi.matrix for x in row] for d in sorted(want)
             for phi in hom_degree_basis(dom, cod, d)], entry)
        self.degrees = [column_degree(g, entry) for g in self.generators]
        got = Counter(self.degrees)
        for d, n in sorted(want.items()):
            if got[d] != n:
                raise ArithmeticError(
                    "Hom(%r, %r) has %d generators in degree %d, the hom "
                    "formula %d" % (dom, cod, got[d], d, n))

    def graded_rank(self):
        from .series import QSeries
        return QSeries(Counter(self.degrees), 0)


def direct_sum(mods):
    """Block-diagonal direct sum of the modules, untagged."""
    if not mods:
        raise ValueError("empty direct sum")
    real = mods[0].real
    field = real.field
    degrees = []
    offsets = []
    for mod in mods:
        offsets.append(len(degrees))
        degrees.extend(mod.degrees)
    total = len(degrees)
    left = {}
    for x in LETTERS:
        mat = mat_zero(field, total, total)
        for off, mod in zip(offsets, mods):
            for i in range(mod.rank):
                for j in range(mod.rank):
                    mat[off + i][off + j] = mod.left[x][i][j]
        left[x] = mat
    return Bimodule(real, degrees, left["s"], left["t"], check=False)


def _unknowns(dom, cod, degree):
    """{(i, j, a, b): column}: the coefficient of a_s^a a_t^b in entry
    (i, j) of a map dom -> cod of the given degree."""
    unknowns = []
    for i in range(cod.rank):
        for j in range(dom.rank):
            d = degree + dom.degrees[j] - cod.degrees[i]
            if d < 0 or d % 2:
                continue
            half = d // 2
            for a in range(half + 1):
                unknowns.append((i, j, a, half - a))
    return {u: k for k, u in enumerate(unknowns)}


def hom_degree_basis(dom, cod, degree=0):
    """K_m-basis of the intertwiners dom -> cod of one fixed degree.

    Solved as a finite-dimensional linear system over K_m: each matrix
    entry is a polynomial of a forced internal degree, so its monomial
    coefficients are the unknowns, and each monomial of each entry of
    left[x] . Phi - Phi . left[x] is an equation, assembled from the nonzero
    entries of left[x] alone.  When dom and cod carry classes, the hom
    formula (hecke.hom_rank) gives the kernel's dimension, a generator of
    degree d spanning R_(degree - d) of dimension (degree - d)/2 + 1, and
    sparse_kernel_basis stops at the rank it leaves.

    At m = 3, the odd m with K_m = Q, the equations of left a_s alone
    suffice for Soergel bimodules, which every caller passes (Soergel
    2007).  A Soergel bimodule is a free right R-module, so it embeds in
    its localization, a sum of standard bimodules Q_x over Q = Frac(R) on
    which left f acts as right x(f).  The component Q_x -> Q_y of a map
    that commutes with left a_s is zero unless x(a_s) = y(a_s), that is,
    unless y^-1 x fixes alpha_s: y^-1 x is 1 or the reflection in a root
    perpendicular to alpha_s.  At odd m no root is, so the map is block
    diagonal and commutes with all of R.  The solution space, hence its
    reduced row echelon form and the basis, is the same, from half the
    rows.  Even m needs both letters: with a_s alone, Hom^-1(R, B_t) at
    m = 2 and Hom^2(B_s, B_tst) at m = 4 come out one too large.  m = 5
    keeps both for cost: without the sparse a_t-rows as early pivots the
    fraction-free entries over K_5 grow, and the solves that build every
    B_w with l(w) <= 4 take 0.036 s, not 0.030 s (CPU time, best of 40
    cold rounds alternating the two rules in one process, with the early
    stop, CPython 3.11 on a two-vCPU x86 host).
    """
    field = dom.field
    col_of = _unknowns(dom, cod, degree)
    if not col_of:
        return []
    rows = {}  # (x, r, c, mono) -> {col: integer K_m element}
    letters = ("s",) if dom.m % 2 and field.degree == 1 else LETTERS
    lefts = _integer_terms([mod.left[x] for x in letters
                            for mod in (cod, dom)], field)
    for x, cod_left, dom_left in zip(letters, lefts[::2], lefts[1::2]):
        # the nonzero terms of cod's columns and of dom's rows, negated
        cod_cols = [[(r, p, q, cf) for r, row in enumerate(cod_left)
                     for (p, q), cf in row[i].items()]
                    for i in range(cod.rank)]
        dom_rows = [[(c, p, q, -cf) for c, f in enumerate(row)
                     for (p, q), cf in f.items()] for row in dom_left]
        for (i, j, a, b), col in col_of.items():
            # term (cod.left[x] . Phi)[r][j] picks up left[x][r][i]*mono(a,b)
            for r, p, q, cf in cod_cols[i]:
                row = rows.setdefault((x, r, j, (p + a, q + b)), {})
                row[col] = row[col] + cf if col in row else cf
            # term (Phi . dom.left[x])[i][c] picks up mono(a,b)*left[x][j][c]
            for c, p, q, cf in dom_rows[j]:
                row = rows.setdefault((x, i, c, (p + a, q + b)), {})
                row[col] = row[col] + cf if col in row else cf
    try:
        nullity = sum(n * ((degree - d) // 2 + 1)
                      for d, n in hom_rank(dom, cod).items()
                      if d <= degree and (degree - d) % 2 == 0)
    except ValueError:  # dom or cod has no Hecke class
        nullity = None
    vecs = linalg.sparse_kernel_basis(
        (rows[key] for key in sorted(rows)), len(col_of), field, nullity)
    out = []
    for vec in vecs:
        mat = mat_zero(field, cod.rank, dom.rank)
        for (i, j, a, b), k in col_of.items():
            if vec[k]:
                mat[i][j] = mat[i][j] + RingElement(
                    field, {(a, b): vec[k]})
        out.append(BimoduleMorphism(dom, cod, mat, degree, check=False))
    return out


# ---------------------------------------------------------------------------
# invertibility of degree-0 morphisms (graded Nakayama)


def scalar_part(phi):
    """Constant coefficients where source and target degrees agree, as
    sparse rows {column: scalar}."""
    out = []
    for i in range(phi.cod.rank):
        row = {}
        for j in range(phi.dom.rank):
            if phi.degree + phi.dom.degrees[j] - phi.cod.degrees[i] == 0:
                c = phi.matrix[i][j].constant_coefficient()
                if c:
                    row[j] = c
        out.append(row)
    return out


def is_invertible(phi):
    if phi.dom.rank != phi.cod.rank or phi.degree != 0:
        return False
    if not phi.dom.same_graded_rank(phi.cod):
        return False
    field = phi.dom.field
    span = linalg.Echelon(field)
    return all(span.insert(field.integer_row(row)) for row in scalar_part(phi))


def _scalar_of(matrix):
    """c when the matrix is c times the identity for a nonzero c in K_m,
    else None."""
    c = matrix[0][0] if matrix and len(matrix) == len(matrix[0]) else None
    if not c or list(c.terms) != [(0, 0)]:
        return None
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if (x != c) if i == j else x:
                return None
    return c.terms[(0, 0)]


def invert_morphism(phi):
    """Inverse of a degree-0 isomorphism: c^-1 id for a scalar c id, as
    every isomorphism between indecomposables is (End^0(B_x) = K_m), and
    otherwise mat_inverse's graded Neumann series; None if there is none."""
    field = phi.dom.field
    c = _scalar_of(phi.matrix)
    if c is not None:
        return BimoduleMorphism(phi.cod, phi.dom, mat_scale(
            mat_identity(field, phi.dom.rank), c.inverse()), 0, check=False)
    inv = mat_inverse(phi.matrix, field)
    return None if inv is None else \
        BimoduleMorphism(phi.cod, phi.dom, inv, 0, check=False)


def mat_inverse(mat, field):
    """Inverse of a degree-0 map between graded bases, None when its
    constant part S is singular: mat = S + P with P of positive degree, so
    N = S^-1 P raises basis degree, is nilpotent, and the inverse is the
    graded Neumann series (1 - N + N^2 - ...) S^-1."""
    n = len(mat)
    spart = [{j: f.terms[(0, 0)] for j, f in enumerate(row)
              if (0, 0) in f.terms} for row in mat]
    sinv = linalg.inverse(spart, field)
    if sinv is None:
        return None
    zero = RingElement.zero(field)
    sinv_r = [[RingElement(field, {(0, 0): c}) for c in row] for row in sinv]
    smat = [[RingElement(field, {(0, 0): row[j]}) if j in row else zero
             for j in range(n)] for row in spart]
    nmat = mat_mul(sinv_r, mat_sub(mat, smat), field)
    acc = term = mat_identity(field, n)
    for _ in range(n + 1):
        term = mat_neg(mat_mul(term, nmat, field))
        if not any(any(row) for row in term):
            break
        acc = mat_add(acc, term)
    return mat_mul(acc, sinv_r, field)


def split_summand(mod, cand):
    """cand as a direct summand of mod: (incl, proj) of degree 0 with
    proj . incl = id_cand, or None.

    Tries every pair of basis maps f_i: cand -> mod and g_j: mod -> cand
    of degree 0 for an invertible g_j . f_i.  This is exact when cand is
    indecomposable: End^0(cand) is then local, so its non-units form an
    ideal, and if some g . f = sum a_i b_j g_j . f_i is a unit, one of its
    terms g_j . f_i already is.
    """
    if Counter(cand.degrees) - Counter(mod.degrees):
        return None
    fs = hom_degree_basis(cand, mod, 0)
    if not fs:
        return None
    gs = hom_degree_basis(mod, cand, 0)
    for f in fs:
        for g in gs:
            comp = g.compose(f)
            if is_invertible(comp):
                return f.compose(invert_morphism(comp)), g
    return None
