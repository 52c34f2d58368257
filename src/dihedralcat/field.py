"""Exact arithmetic in K_m = Q[d]/(p_m), where d = 2cos(pi/m).

Scalars are represented by their residue mod the minimal polynomial p_m,
as tuples of Fractions.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

MAX_M = 12


class FieldError(ArithmeticError):
    pass


def _cyclotomic(n):
    """Integer coefficient list (low to high) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by all lower cyclotomic factors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = _cyclotomic(d)
            poly = _exact_div(poly, div)
    return poly


def _exact_div(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


@lru_cache(maxsize=None)
def _minimal_poly_2cos(m):
    """Minimal polynomial of 2cos(pi/m), coefficients low to high (monic, Fractions)."""
    # Fold the palindromic cyclotomic polynomial of order 2m through x = z + 1/z.
    cyc = _cyclotomic(2 * m)
    d = len(cyc) - 1
    half = d // 2
    # Dickson polynomials D_j(x) = z^j + z^-j.
    dick = [[2], [0, 1]]
    for j in range(2, half + 1):
        prev = [0] + dick[j - 1]
        dick.append([a - b for a, b in
                     zip(prev, dick[j - 2] + [0] * (len(prev) - len(dick[j - 2])))])
    out = [0] * (half + 1)
    out[0] += cyc[half]
    for j in range(1, half + 1):
        for k, c in enumerate(dick[j]):
            out[k] += cyc[half + j] * c
    return tuple(Fraction(c) for c in out)


class FieldDescriptor:
    """The coefficient field K_m = Q[x]/(p_m(x)) with x the image of 2cos(pi/m)."""

    def __init__(self, m):
        if not isinstance(m, int) or m < 2:
            raise FieldError("m must be an integer >= 2, got %r" % (m,))
        if m > MAX_M:
            raise FieldError("m capped at %d for desk-scale runs" % MAX_M)
        self.m = m
        self.minimal_polynomial = _minimal_poly_2cos(m)
        self.degree = len(self.minimal_polynomial) - 1
        self._zero = FieldScalar(self, (Fraction(0),) * self.degree)
        self._one = self.from_rational(1) if self.degree > 0 else None

    def __repr__(self):
        return "FieldDescriptor(m=%d, deg=%d)" % (self.m, self.degree)

    def __eq__(self, other):
        return isinstance(other, FieldDescriptor) and other.m == self.m

    def __hash__(self):
        return hash(("FieldDescriptor", self.m))

    def zero(self):
        return self._zero

    def one(self):
        return self.from_rational(1)

    def from_rational(self, q):
        coeffs = [Fraction(q)] + [Fraction(0)] * (self.degree - 1)
        return FieldScalar(self, tuple(coeffs[: self.degree]))

    def delta(self):
        """The image of 2cos(pi/m) itself."""
        coeffs = [Fraction(0)] * self.degree
        if self.degree >= 2:
            coeffs[1] = Fraction(1)
        else:
            # degree-1 field: x is congruent to the rational root of p_m
            coeffs[0] = -self.minimal_polynomial[0]
        return FieldScalar(self, tuple(coeffs))

    def quantum_number(self, k):
        """[k] via the Chebyshev recursion [k+1] = d*[k] - [k-1]."""
        if k < 0:
            raise FieldError("quantum_number requires k >= 0")
        a, b = self.zero(), self.one()  # [0], [1]
        if k == 0:
            return a
        d = self.delta()
        for _ in range(k - 1):
            a, b = b, d * b - a
        return b


@lru_cache(maxsize=None)
def field_for(m):
    return FieldDescriptor(m)


class FieldScalar:
    """Element of K_m; always reduced mod p_m."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs
        self._hash = None

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.m, self.coeffs))
        return self._hash

    def __add__(self, other):
        if not isinstance(other, FieldScalar):
            other = self._coerce(other)
        elif other.field.m != self.field.m:
            raise FieldError("mixed fields: m=%d vs m=%d"
                             % (self.field.m, other.field.m))
        return FieldScalar(self.field,
                           tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldScalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, FieldScalar):
            other = self._coerce(other)
        elif other.field.m != self.field.m:
            raise FieldError("mixed fields: m=%d vs m=%d"
                             % (self.field.m, other.field.m))
        return FieldScalar(self.field,
                           tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            if other.field != self.field:
                raise FieldError("mixed fields: m=%d vs m=%d"
                                 % (self.field.m, other.field.m))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        raise TypeError(type(other))

    def __mul__(self, other):
        if not isinstance(other, FieldScalar):
            other = self._coerce(other)
        elif other.field.m != self.field.m:
            raise FieldError("mixed fields: m=%d vs m=%d"
                             % (self.field.m, other.field.m))
        n = self.field.degree
        if n == 1:  # K_m = Q: plain rational arithmetic
            return FieldScalar(self.field,
                               (self.coeffs[0] * other.coeffs[0],))
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return FieldScalar(self.field, _reduce_mod(prod, self.field.minimal_polynomial, n))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise FieldError("division by zero in K_%d" % self.field.m)
        p = list(self.field.minimal_polynomial)
        inv = _poly_invert(list(self.coeffs), p)
        n = self.field.degree
        inv = (inv + [Fraction(0)] * n)[:n]
        return FieldScalar(self.field, tuple(inv))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __repr__(self):
        return "K%d(%s)" % (self.field.m, format_scalar(self))


def _reduce_mod(poly, p, n):
    poly = list(poly)
    for i in range(len(poly) - 1, n - 1, -1):
        c = poly[i]
        if c:
            for j in range(len(p) - 1):
                poly[i - n + j] -= c * p[j]
            poly[i] = Fraction(0)
    return tuple(poly[:n])


def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_invert(a, p):
    """Inverse of a mod p over Q via extended Euclid."""
    r0, r1 = list(p), _poly_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    # r0 is the gcd, a nonzero constant since p is irreducible
    c = r0[0]
    return [x / c for x in s0]


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return q, _poly_trim(a[: len(b) - 1])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def format_scalar(x):
    """Render with `d` for the generator 2cos(pi/m)."""
    parts = []
    for i, c in enumerate(x.coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "d" if i == 1 else "d^%d" % i
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append("-" + var)
            else:
                parts.append("%s*%s" % (c, var))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out
