"""The graded ring R = K_m[a_s, a_t] and the dihedral realization data.

Both generators sit in internal degree 2.  Elements are sparse maps from
exponent pairs (i, j), meaning a_s^i * a_t^j, to field scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .field import FieldError, field_for

LETTERS = ("s", "t")


class RingElement:
    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field, terms):
        self.field = field
        self.terms = {e: c for e, c in terms.items() if c}
        self._hash = None

    @classmethod
    def of_nonzero(cls, field, terms):
        """The element with the given terms, none of them zero (not
        checked); the dict is kept, not copied."""
        x = object.__new__(cls)
        x.field, x.terms, x._hash = field, terms, None
        return x

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def constant(cls, field, c):
        if not isinstance(c, type(field.zero())):
            c = field.from_rational(c)
        return cls(field, {(0, 0): c})

    @classmethod
    def gen(cls, field, letter):
        e = (1, 0) if letter == "s" else (0, 1)
        return cls(field, {e: field.one()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RingElement.constant(self.field, other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.m, frozenset(self.terms.items())))
        return self._hash

    def _coerce(self, other):
        if isinstance(other, RingElement):
            return other
        if isinstance(other, (int, Fraction)):
            return RingElement.constant(self.field, other)
        # FieldScalar
        return RingElement(self.field, {(0, 0): other})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return RingElement(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                p = c1 * c2
                out[e] = out[e] + p if e in out else p
        return RingElement(self.field, out)

    __rmul__ = __mul__

    def scale(self, c):
        return RingElement(self.field, {e: v * c for e, v in self.terms.items()})

    def is_constant(self):
        return all(e == (0, 0) for e in self.terms)

    def constant_coefficient(self):
        return self.terms.get((0, 0), self.field.zero())

    def degree(self):
        """Internal degree; None for 0, raises if inhomogeneous."""
        degs = {2 * (i + j) for (i, j) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("inhomogeneous element %s" % self)
        return degs.pop()

    def is_homogeneous(self, deg=None):
        degs = {2 * (i + j) for (i, j) in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return deg is None or degs == {deg}

    def divide_by_gen(self, letter):
        """Exact division by a_letter; raises if a remainder is left."""
        k = 0 if letter == "s" else 1
        out = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                raise ArithmeticError("not divisible by a_%s: %s" % (letter, self))
            new = (e[0] - 1, e[1]) if k == 0 else (e[0], e[1] - 1)
            out[new] = c
        return RingElement(self.field, out)

    def __repr__(self):
        return render(self)


def render(f):
    from .field import format_scalar
    if not f.terms:
        return "0"
    parts = []
    for e in sorted(f.terms, key=lambda e: (-(e[0] + e[1]), -e[0])):
        c = f.terms[e]
        mono = "*".join(filter(None, [
            "a_s" if e[0] == 1 else ("a_s^%d" % e[0] if e[0] else ""),
            "a_t" if e[1] == 1 else ("a_t^%d" % e[1] if e[1] else ""),
        ]))
        cs = format_scalar(c)
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            cs_wrapped = "(%s)" % cs if (" " in cs) else cs
            parts.append("%s*%s" % (cs_wrapped, mono))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class Realization:
    """Symmetric dihedral realization: Cartan matrix, fundamental weights,
    reflections and Demazure operators on R."""

    def __init__(self, m):
        self.m = m
        self.field = field_for(m)
        F = self.field
        d = F.delta()
        two = F.from_rational(2)
        self.cartan = ((two, -d), (-d, two))
        # rho_u = sum_v coords[u][v] * alpha_v, solving <rho_u, alpha_v_check> = delta_uv
        det = two * two - d * d
        if not det:
            raise FieldError("Cartan matrix degenerate for m=%d" % m)
        inv_det = det.inverse()
        # inverse of the symmetric Cartan matrix
        self.rho_coords = (
            (two * inv_det, d * inv_det),
            (d * inv_det, two * inv_det),
        )
        self.zero = RingElement.zero(F)
        self.one = RingElement.constant(F, 1)
        self.alpha = {"s": RingElement.gen(F, "s"), "t": RingElement.gen(F, "t")}
        self.rho = {
            "s": RingElement(F, {(1, 0): self.rho_coords[0][0],
                                 (0, 1): self.rho_coords[0][1]}),
            "t": RingElement(F, {(1, 0): self.rho_coords[1][0],
                                 (0, 1): self.rho_coords[1][1]}),
        }
        # s(alpha_u) = alpha_u - a_{su} alpha_s, as elements of R
        self._reflected_gens = {}
        for x in LETTERS:
            xi = LETTERS.index(x)
            imgs = {}
            for u in LETTERS:
                ui = LETTERS.index(u)
                imgs[u] = self.alpha[u] - self.alpha[x].scale(self.cartan[xi][ui])
            self._reflected_gens[x] = imgs

    def reflect(self, f, letter):
        imgs = self._reflected_gens[letter]
        out = RingElement.zero(self.field)
        pow_s = self._powers(imgs["s"])
        pow_t = self._powers(imgs["t"])
        for (i, j), c in f.terms.items():
            out = out + (pow_s(i) * pow_t(j)).scale(c)
        return out

    @staticmethod
    def _powers(base):
        cache = {0: RingElement.constant(base.field, 1)}

        def power(k):
            if k not in cache:
                cache[k] = power(k - 1) * base
            return cache[k]

        return power

    def demazure(self, f, letter):
        """(f - reflect(f)) / a_letter; exact by construction."""
        num = f - self.reflect(f, letter)
        if not num:
            return RingElement.zero(self.field)
        return num.divide_by_gen(letter)

    def invariant_split(self, f, letter):
        """f = g + a_letter * h with g, h invariant under the reflection."""
        half = Fraction(1, 2)
        g = (f + self.reflect(f, letter)).scale(self.field.from_rational(half))
        h = self.demazure(f, letter).scale(self.field.from_rational(half))
        return g, h


@lru_cache(maxsize=None)
def realization(m):
    return Realization(m)
