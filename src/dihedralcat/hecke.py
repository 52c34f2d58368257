"""Dihedral Hecke algebra oracle and HOMFLY-PT specialization.

Standard basis delta_w over Z[v, v^-1] with delta_s^2 = (v^-1 - v) delta_s
+ 1; KL basis b_w = sum_{y <= w} v^{l(w)-l(y)} delta_y (all KL polynomials
are 1 in the dihedral case).  The HOMFLY-PT polynomial of a 3-strand braid
closure is evaluated through the Jones-Ocneanu trace on the S_3 Hecke
algebra, with T_x^2 = z T_x + 1, as an integer Laurent polynomial in v and
z; euler_check compares it with a triply-graded series as exact QSeries.
"""

from __future__ import annotations

from functools import lru_cache

from .ring import LETTERS
from .series import QSeries, _scale_denom


class Laurent:
    """Laurent polynomial in one variable (v, or z in homfly) over Z."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: coeff})

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent({0: other})
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __neg__(self):
        return Laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Laurent({0: other})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Laurent(out)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                bits.append(str(c))
            else:
                var = "v" if e == 1 else ("v^%d" % e)
                if c == 1:
                    bits.append(var)
                elif c == -1:
                    bits.append("-" + var)
                else:
                    bits.append("%d*%s" % (c, var))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out


# ---------------------------------------------------------------------------
# the dihedral group


def canonical_word(word, m):
    """Canonical reduced word; the longest element is stored s-first."""
    word = tuple(word)
    if len(word) == m and word and word[0] == "t":
        return tuple(LETTERS[k % 2] for k in range(m))
    return word


def group_elements(m):
    out = [()]
    for length in range(1, m + 1):
        for start in ("s", "t"):
            w = tuple(("s", "t")[(("s", "t").index(start) + k) % 2]
                      for k in range(length))
            w = canonical_word(w, m)
            if w not in out:
                out.append(w)
    return out


def right_mult(word, x, m):
    """Reduced word of w * s_x."""
    word = canonical_word(word, m)
    if word and word[-1] == x:
        return word[:-1]
    if len(word) == m:
        # w0: switch to the reduced word ending in x, then cancel
        for start in ("s", "t"):
            alt = tuple(("s", "t")[(("s", "t").index(start) + k) % 2]
                        for k in range(m))
            if alt[-1] == x:
                return alt[:-1]
    return canonical_word(word + (x,), m)


# ---------------------------------------------------------------------------
# Hecke elements


def _times_letter(terms, m, x, sign, quad):
    """{w: Laurent} times T_x^sign, where T_x^2 = quad T_x + 1, so that
    T_w T_x = quad T_w + T_wx when wx < w, and T_x^-1 = T_x - quad."""
    out = {}

    def bump(w, c):
        out[w] = out.get(w, Laurent()) + c

    for w, c in terms.items():
        wx = right_mult(w, x, m)
        if len(wx) < len(w):
            bump(w, c * quad)
        bump(wx, c)
        if sign < 0:
            bump(w, -(c * quad))
    return out


class HeckeElement:
    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = m
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def unit(cls, m):
        return cls(m, {(): Laurent.one()})

    @classmethod
    def delta(cls, m, word):
        return cls(m, {canonical_word(tuple(word), m): Laurent.one()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Laurent()) + c
        return HeckeElement(self.m, out)

    def __neg__(self):
        return HeckeElement(self.m, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, laurent):
        return HeckeElement(self.m,
                            {w: c * laurent for w, c in self.terms.items()})

    def times_generator(self, x, sign=1):
        """Right multiplication by delta_x^sign: delta_x^2 = (v^-1 - v)
        delta_x + 1."""
        return HeckeElement(self.m, _times_letter(
            self.terms, self.m, x, sign, Laurent({-1: 1, 1: -1})))

    def __mul__(self, other):
        out = HeckeElement(self.m)
        for w, c in other.terms.items():
            piece = self.scale(c)
            for x in w:
                piece = piece.times_generator(x)
            out = out + piece
        return out

    def coefficient(self, word):
        return self.terms.get(canonical_word(tuple(word), self.m), Laurent())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            name = "d_%s" % ("".join(w) or "e")
            bits.append("(%r)%s" % (self.terms[w], name))
        return " + ".join(bits)


def delta_product(m, braid):
    """Product of delta_letter^{sign} over a braid word."""
    out = HeckeElement.unit(m)
    for letter, sign in braid:
        out = out.times_generator(letter, sign)
    return out


@lru_cache(maxsize=None)
def kl_basis(m, word):
    """b_w = sum_{y <= w} v^{l(w)-l(y)} delta_y (dihedral Bruhat order),
    built once per (m, word): callers share it and must not change it."""
    word = canonical_word(tuple(word), m)
    terms = {}
    for y in group_elements(m):
        if len(y) < len(word) or y == word:
            terms[y] = Laurent.monomial(len(word) - len(y))
    return HeckeElement(m, terms)


@lru_cache(maxsize=None)
def standard_in_kl(m, word):
    """Coefficients of delta_w in the KL basis: {y: (-v)^{l(w)-l(y)}},
    built once per (m, word): callers share it and must not change it."""
    word = canonical_word(tuple(word), m)
    out = {}
    for y in group_elements(m):
        if len(y) < len(word) or y == word:
            k = len(word) - len(y)
            out[y] = Laurent.monomial(k, (-1) ** k)
    return out


@lru_cache(maxsize=None)
def bs_class(m, word):
    """Class of the Bott-Samelson BS(word): product of b_letters, built
    once per (m, word) like kl_basis."""
    out = HeckeElement.unit(m)
    for x in word:
        out = out * kl_basis(m, (x,))
    return out


def class_of_bimodule(mod):
    """v^shift times b_kl, [BS(word)] or the stored class of a tensor
    product, whichever mod carries; None when it carries none."""
    base = (kl_basis(mod.m, mod.kl) if mod.kl is not None
            else bs_class(mod.m, mod.word) if mod.word is not None
            else mod.product_class)
    return None if base is None else base.scale(Laurent.monomial(mod.shift))


def hom_rank(dom, cod):
    """Graded rank {degree: count} of the free right R-module Hom(dom, cod)
    by Soergel's hom formula (Soergel 2007): Hom(dom, B_y) is
    epsilon(omega([dom]) b_y) = sum_w [dom]_w (b_y)_w, as omega, the
    anti-involution delta_w -> delta_{w^-1}, is v-linear and
    epsilon(delta_{x^-1} delta_y) = [x = y].  Hom(dom, B_y(k)) is it times
    v^-k and Hom is additive in cod, so [dom] pairs with sum_y bar(n_y) b_y
    for cod's KL multiplicities n_y, bar: v -> v^-1.  ValueError when
    either module has no class.  Memoized on the two classes: callers
    share the result and must not change it.
    """
    h_dom, h_cod = class_of_bimodule(dom), class_of_bimodule(cod)
    for mod, h in ((dom, h_dom), (cod, h_cod)):
        if h is None:
            raise ValueError("%r has no Hecke class" % (mod,))
    return _hom_rank(h_dom, h_cod)


@lru_cache(maxsize=None)
def _hom_rank(h_dom, h_cod):
    bar = HeckeElement(h_cod.m)
    for y, n in kl_multiplicities(h_cod).items():
        bar = bar + kl_basis(h_cod.m, y).scale(
            Laurent({-e: c for e, c in n.terms.items()}))
    return sum((c * bar.coefficient(w) for w, c in h_dom.terms.items()),
               Laurent()).terms


def kl_multiplicities(h):
    """h in the KL basis, {y: Laurent}: n v^k counts n summands B_y(k) of a
    bimodule of class h (Soergel 2007); ValueError if some n < 0."""
    out = {}
    for w, c in h.terms.items():
        for y, e in standard_in_kl(h.m, w).items():
            out[y] = out.get(y, Laurent()) + c * e
    if any(n < 0 for c in out.values() for n in c.terms.values()):
        raise ValueError("%r has a negative KL multiplicity" % (h,))
    return {y: c for y, c in out.items() if c}


def class_of_complex(cplx):
    """Sum_i (-1)^i sum_atoms v^{shift} [atom]; class(F_s) = delta_s."""
    total = HeckeElement(cplx.m)
    for d, obs in cplx.objects.items():
        for mod in obs:
            piece = class_of_bimodule(mod)
            if piece is None:
                raise ValueError("atom %r has no Hecke class" % (mod,))
            total = total + piece.scale(Laurent.monomial(0, (-1) ** d))
    return total


# ---------------------------------------------------------------------------
# HOMFLY via the Jones-Ocneanu trace on H(S_3)


# The Ocneanu trace of T_w times mu^2, mu = (1 - v^2)/(v z), by l(w), as
# {(v exponent, z exponent): coefficient}; T_s, T_t and T_st, T_ts agree.
_OCNEANU = (
    {(-2, -2): 1, (0, -2): -2, (2, -2): 1},  # v^-2 z^-2 (1 - v^2)^2
    {(-2, -1): 1, (0, -1): -1},              # v^-2 z^-1 (1 - v^2)
    {(-2, 0): 1},                            # v^-2
    {(-2, 1): 1, (-2, -1): 1, (0, -1): -1},  # v^-2 z + v^-2 z^-1 (1 - v^2)
)


def homfly(braid):
    """HOMFLY-PT polynomial of the 3-strand closure, with the skein
    relation v^-1 P(+) - v P(-) = z P(0) and unknot = 1, as
    {(v exponent, z exponent): nonzero int}: v^writhe mu^2 times the
    Ocneanu trace of the braid's image in H(S_3), T_x^2 = z T_x + 1."""
    from .complexes import parse_braid
    if isinstance(braid, str):
        braid = parse_braid(braid)
    terms = {(): Laurent.one()}
    for letter, sign in braid:
        terms = _times_letter(terms, 3, letter, sign, Laurent.monomial(1))
    writhe = braid_writhe(braid)
    out = {}
    for word, coeff in terms.items():
        for (ve, ze), c in _OCNEANU[len(word)].items():
            for e, k in coeff.terms.items():
                key = (ve + writhe, ze + e)
                out[key] = out.get(key, 0) + c * k
    return {key: c for key, c in out.items() if c}


def braid_writhe(braid):
    from .complexes import parse_braid
    if isinstance(braid, str):
        braid = parse_braid(braid)
    return sum(sign for _, sign in braid)


def euler_check(series, braid):
    """Substitute A = -a^2 q^2, Q = q, T = -1, multiply by the unit
    q^2 a^(writhe - 2), and compare with homfly under v = a, z = q - 1/q,
    one power of a at a time as exact QSeries in q; z^k is
    (-1)^k q^-k (1 - q^2)^k for every integer k.

    Returns (passed, residual), residual the number of powers of a at
    which the two sides differ."""
    writhe = braid_writhe(braid)
    diff = {}

    def bump(a, piece):
        diff[a] = diff.get(a, QSeries.zero()) + piece

    for (a, t), piece in series.strata.items():
        sign = -1 if (a + t) % 2 else 1
        bump(2 * a + writhe - 2, piece.shift(2 * a + 2).scale(sign))
    for (ve, ze), c in homfly(braid).items():
        num = {-ze: -c if ze % 2 else c}
        bump(ve, -QSeries(_scale_denom(num, max(ze, 0)), max(-ze, 0)))
    residual = sum(1 for piece in diff.values() if piece)
    return residual == 0, residual
