"""Dihedral Hecke algebra oracle and HOMFLY-PT specialization.

Standard basis delta_w over Z[v, v^-1] with delta_s^2 = (v^-1 - v) delta_s
+ 1; KL basis b_w = sum_{y <= w} v^{l(w)-l(y)} delta_y (all KL polynomials
are 1 in the dihedral case).  The HOMFLY polynomial of a 3-strand braid
closure is evaluated through the Jones-Ocneanu trace on the S_3 Hecke
algebra.
"""

from __future__ import annotations

from .ring import LETTERS


class Laurent:
    """Laurent polynomial in v over Z."""

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
        """Right multiplication by delta_x or its inverse."""
        if sign < 0:
            # delta_x^{-1} = delta_x + (v - v^-1)
            return self.times_generator(x, 1) + self.scale(
                Laurent({1: 1, -1: -1}))
        m = self.m
        out = {}

        def bump(w, c):
            out[w] = out.get(w, Laurent()) + c

        for w, c in self.terms.items():
            wx = right_mult(w, x, m)
            if len(wx) > len(w):
                bump(wx, c)
            else:
                # delta_w delta_x = (v^-1 - v) delta_w + delta_{wx}
                bump(w, c * Laurent({-1: 1, 1: -1}))
                bump(wx, c)
        return HeckeElement(m, out)

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


def kl_basis(m, word):
    """b_w = sum_{y <= w} v^{l(w)-l(y)} delta_y (dihedral Bruhat order)."""
    word = canonical_word(tuple(word), m)
    terms = {}
    for y in group_elements(m):
        if len(y) < len(word) or y == word:
            terms[y] = Laurent.monomial(len(word) - len(y))
    return HeckeElement(m, terms)


def standard_in_kl(m, word):
    """Coefficients of delta_w in the KL basis: {y: (-v)^{l(w)-l(y)}}."""
    word = canonical_word(tuple(word), m)
    out = {}
    for y in group_elements(m):
        if len(y) < len(word) or y == word:
            k = len(word) - len(y)
            out[y] = Laurent.monomial(k, (-1) ** k)
    return out


def bs_class(m, word):
    """Class of the Bott-Samelson BS(word): product of b_letters."""
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
    by Soergel's hom formula (Soergel 2007): epsilon(omega(h) h') times
    v^(dom.shift - cod.shift) for the unshifted classes h, h', where omega
    is the v-linear anti-involution delta_w -> delta_{w^-1}.

    As epsilon(delta_{x^-1} delta_y) = [x = y] and omega is v-linear, the
    shifted classes [dom] = v^dom.shift h and [cod] = v^cod.shift h' give
    sum_w [dom]_w [cod]_w = v^(dom.shift + cod.shift) epsilon(omega(h) h'),
    so the rank is that sum times v^(-2 cod.shift).  ValueError when either
    module has no class.
    """
    h_dom, h_cod = class_of_bimodule(dom), class_of_bimodule(cod)
    for mod, h in ((dom, h_dom), (cod, h_cod)):
        if h is None:
            raise ValueError("%r has no Hecke class" % (mod,))
    total = sum((c * h_cod.coefficient(w) for w, c in h_dom.terms.items()),
                Laurent())
    return {e - 2 * cod.shift: c for e, c in total.terms.items()}


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


def homfly(braid, variables=None):
    """HOMFLY-PT polynomial of the 3-strand closure, in (v, z) with the
    skein relation v^-1 P(+) - v P(-) = z P(0) and unknot = 1."""
    import sympy as sp
    from .complexes import parse_braid
    if isinstance(braid, str):
        braid = parse_braid(braid)
    if variables is None:
        v, z = sp.symbols("v z")
    else:
        v, z = variables
    terms = {(): sp.Integer(1)}
    writhe = 0
    for letter, sign in braid:
        writhe += sign
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
    return sp.cancel(sp.together(mu ** 2 * v ** writhe * tr))


def braid_writhe(braid):
    from .complexes import parse_braid
    if isinstance(braid, str):
        braid = parse_braid(braid)
    return sum(sign for _, sign in braid)


def euler_check(series, braid):
    """Substitute A = -a^2 q^2, Q = q, T = -1, multiply by the unit
    q^2 a^{writhe - 2}, and compare with homfly under v = a, z = q - 1/q.

    Returns (passed, residual expression)."""
    import sympy as sp
    a, q = sp.symbols("a q")
    chi = sp.Integer(0)
    for (ae, te, qe, e, c) in series.terms():
        chi += c * (-a ** 2 * q ** 2) ** ae * (-1) ** te * q ** qe \
            / (1 - q ** 2) ** e
    w = braid_writhe(braid)
    unit = q ** 2 * a ** (w - 2)
    target = homfly(braid, variables=(a, q - 1 / q))
    residual = sp.cancel(sp.together(chi * unit - target))
    return residual == 0, residual
