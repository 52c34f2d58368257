"""Exact arithmetic in K_m = Q[d]/(p_m), where d = 2cos(pi/m).

Scalars are represented by their residue mod the minimal polynomial p_m,
stored as a tuple of integer numerators over one positive integer
denominator in lowest terms (Cohen, A Course in Computational Algebraic
Number Theory, 1993, 4.2), so the arithmetic runs on ints.  The public view
`coeffs` is a tuple of Fractions.  No floating point anywhere.

The hot loops (linalg.Echelon, modules.ModuleGB, bimodule.mat_mul) build
no FieldScalar per operation: they run on integer K_m elements of
Z[x]/(p_m), plain ints in a degree-1 field (m = 2, 3) and otherwise
_Integers tuples.  p_m is monic with integer coefficients, so each field of
degree n >= 2 generates its product once, when it is created, as
straight-line code read off the table of x^n, ..., x^(2n-2) mod p_m (at
m = 5, (a0*b0 + c2, a0*b1 + a1*b0 + c2) with c2 = a1*b1); _Integers and
FieldScalar multiply through it.  Inverses use the adjugate: for a nonzero
integer a, a * adj(a) = N(a) is a nonzero int, and adj(a) comes from one
fraction-free (Bareiss) solve on the integer matrix of multiplication by
a.  FieldDescriptor.integer_row brings scalars in over a common
denominator, and FieldDescriptor.scalar builds each reduced FieldScalar
once, on the way out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add as _add, neg as _neg, sub as _sub

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
        n = self.degree = len(self.minimal_polynomial) - 1
        self._low = tuple(int(c) for c in self.minimal_polynomial[:n])
        if n > 1:
            mul = self._mul = _product(m, _reduction_rows(self._low))
            self._ints = type("IntegersK%d" % m, (_Integers,),
                              {"__slots__": (), "_mul": staticmethod(mul)})
        self._zero = _make(self, (0,) * n, 1)
        self._one = _make(self, (1,) + (0,) * (n - 1), 1)

    def __repr__(self):
        return "FieldDescriptor(m=%d, deg=%d)" % (self.m, self.degree)

    def __eq__(self, other):
        return isinstance(other, FieldDescriptor) and other.m == self.m

    def __hash__(self):
        return hash(("FieldDescriptor", self.m))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_rational(self, q):
        if not isinstance(q, (int, Fraction)):
            raise TypeError("K_%d accepts int or Fraction, not %s"
                            % (self.m, type(q).__name__))
        q = Fraction(q)
        return _make(self, (q.numerator,) + (0,) * (self.degree - 1),
                     q.denominator)

    def delta(self):
        """The image of 2cos(pi/m) itself."""
        if self.degree == 1:  # x is congruent to the rational root of p_m
            return self.from_rational(-self.minimal_polynomial[0])
        return _make(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def numerator(self, x):
        """x * x.den as an integer K_m element."""
        return x.num[0] if self.degree == 1 else self._ints(x.num)

    def integer_row(self, row, den=None):
        """A {key: FieldScalar} row times den, by default the lcm of its
        denominators, as {key: integer K_m element}."""
        if den is None:
            den = lcm(*(x.den for x in row.values()))
        num = self.numerator
        return {k: num(x) * (den // x.den) for k, x in row.items()}

    def scalar(self, num, den):
        """num / den in lowest terms, for an integer K_m element num and an
        int den > 0."""
        if self.degree == 1:
            return _rational(self, num, den)
        return _reduced(self, tuple(num), den)

    def content(self, values):
        """The gcd of all numerators of some integer K_m elements."""
        if self.degree == 1:
            return gcd(*values)
        return gcd(*chain.from_iterable(values))

    def primitive(self, lead, row):
        """(p, row * u) for an integer row and a nonzero integer K_m lead
        (an entry of it, or one taken out), with u in K_m such that lead * u
        is the positive int p and p and row * u have no common factor."""
        if not isinstance(lead, int):
            if any(lead[1:]):  # lead * adj(lead) = N(lead)
                adj, lead = _adjugate(self._low, lead)
                adj = self._ints(adj)
                row = {k: v * adj for k, v in row.items()}
            else:
                lead = lead[0]
        if lead < 0:
            row = {k: -v for k, v in row.items()}
            lead = -lead
        g = gcd(lead, self.content(row.values()))
        if g != 1:
            row = {k: v // g for k, v in row.items()}
        return lead // g, row


def _times_x(col, low):
    """x * col mod p, for p = x^n + low[n-1] x^(n-1) + ... + low[0]."""
    top = col[-1]
    return [a - top * c for a, c in zip([0] + col[:-1], low)]


def _reduction_rows(low):
    """Integer rows of x^n, ..., x^(2n-2) mod p, low to high."""
    row, rows = [0] * (len(low) - 1) + [1], []
    for _ in range(len(low) - 1):
        row = _times_x(row, low)
        rows.append(tuple(row))
    return tuple(rows)


def _product(m, reduction):
    """mul(a, b), the product of two integer K_m elements of degree
    n = len(reduction) + 1 as numerator tuples, compiled from one straight
    line of source: the convolution coefficients c_s of x^s, s >= n, are
    named once, and output k is the x^k coefficient plus
    sum(reduction[s - n][k] * c_s)."""
    n = len(reduction) + 1

    def conv(s):
        return " + ".join("a%d*b%d" % (i, s - i)
                          for i in range(max(0, s - n + 1), min(s, n - 1) + 1))

    outs = []
    for k in range(n):
        out = conv(k)
        for s, row in enumerate(reduction, n):
            c = row[k]
            if c:
                out += " %s %sc%d" % ("+" if c > 0 else "-",
                                      "" if abs(c) == 1 else "%d*" % abs(c), s)
        outs.append(out)
    a = ", ".join("a%d" % i for i in range(n))
    lines = ["def mul(a, b):", "    %s = a" % a,
             "    %s = b" % a.replace("a", "b")]
    lines += ["    c%d = %s" % (s, conv(s)) for s in range(n, 2 * n - 1)]
    lines.append("    return (%s)" % ", ".join(outs))
    namespace = {}
    exec(compile("\n".join(lines) + "\n", "<K_%d product>" % m, "exec"),
         namespace)
    return namespace["mul"]


def _adjugate(low, a):
    """(b, N) for a nonzero integer K_m element a, as a numerator tuple,
    with a * b = N = N(a): b = adj(M) e_0 and N = det M, for M the integer
    matrix of multiplication by a (column j is a * x^j).  Bareiss's
    fraction-free elimination of [M | e_0] with row swaps, then
    fraction-free back substitution: O(n^3) operations on ints."""
    n = len(a)
    cols = [list(a)]
    for _ in range(n - 1):
        cols.append(_times_x(cols[-1], low))
    rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
    sign = prev = 1
    for k in range(n):
        if not rows[k][k]:  # M is invertible, so a later row has column k
            i = next(i for i in range(k + 1, n) if rows[i][k])
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        rk = rows[k]
        p = rk[k]
        for ri in rows[k + 1:]:
            f = ri[k]
            for j in range(k + 1, n + 1):
                ri[j] = (p * ri[j] - f * rk[j]) // prev
        prev = p
    # prev is the determinant of the row-swapped M, so y = prev * M^-1 e_0
    # is integral (Cramer) and each division below is exact.
    y = [0] * n
    for i in range(n - 1, -1, -1):
        ri = rows[i]
        y[i] = (prev * ri[n] - sum(ri[j] * y[j] for j in range(i + 1, n))) \
            // ri[i]
    if sign < 0:
        return [-v for v in y], -prev
    return y, prev


class _Integers(tuple):
    """An element of Z[x]/(p_m), as its numerator tuple, with the ring
    operators; each field of degree > 1 has a subclass whose _mul is that
    field's generated product."""

    __slots__ = ()

    def __add__(self, other):
        return type(self)(map(_add, self, other))

    def __sub__(self, other):
        return type(self)(map(_sub, self, other))

    def __neg__(self):
        return type(self)(map(_neg, self))

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)(map(other.__mul__, self))
        return type(self)(self._mul(self, other))

    __rmul__ = __mul__

    def __floordiv__(self, g):
        return type(self)(map(g.__rfloordiv__, self))

    def __bool__(self):
        return any(self)


@lru_cache(maxsize=None)
def field_for(m):
    return FieldDescriptor(m)


class FieldScalar:
    """Element of K_m, stored as integer numerators over one denominator.

    The value is sum(num[i] * x^i) / den with den > 0 and
    gcd(den, *num) == 1, so equal elements have equal (num, den).
    """

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field, coeffs):
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError("K_%d coefficients must be int or Fraction: %r"
                            % (field.m, coeffs))
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den
        self._hash = None

    @property
    def coeffs(self):
        """The coefficients of 1, x, ..., x^(n-1) as Fractions."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and self.field.m == other.field.m)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.m, self.num, self.den))
        return self._hash

    def __add__(self, other):
        return self._combine(other, _add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, tuple(map(_neg, self.num)), self.den)

    def __sub__(self, other):
        return self._combine(other, _sub)

    def _combine(self, other, op):
        """self + other or self - other, as op is operator.add or sub."""
        if not isinstance(other, FieldScalar):
            other = self._coerce(other)
        elif other.field.m != self.field.m:
            raise FieldError("mixed fields: m=%d vs m=%d"
                             % (self.field.m, other.field.m))
        a, b, da, db = self.num, other.num, self.den, other.den
        if self.field.degree == 1:
            if da == db:
                return _rational(self.field, op(a[0], b[0]), da)
            return _rational(self.field, op(a[0] * db, b[0] * da), da * db)
        if da == db:
            return _reduced(self.field, tuple(map(op, a, b)), da)
        return _reduced(self.field,
                        tuple(op(x * db, y * da) for x, y in zip(a, b)),
                        da * db)

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
        field = self.field
        a, b = self.num, other.num
        if field.degree == 1:  # K_m = Q: one product of rationals
            return _rational(field, a[0] * b[0], self.den * other.den)
        return _reduced(field, field._mul(a, b), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise FieldError("division by zero in K_%d" % self.field.m)
        if self.field.degree == 1:  # swap numerator and denominator
            (a,), den = self.num, self.den
            return _make(self.field, (den,), a) if a > 0 \
                else _make(self.field, (-den,), -a)
        # num * b = N, so num / den has inverse den * b / N
        b, norm = _adjugate(self.field._low, self.num)
        den = self.den if norm > 0 else -self.den
        return _reduced(self.field, tuple(den * v for v in b), abs(norm))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __repr__(self):
        return "K%d(%s)" % (self.field.m, format_scalar(self))


_new = object.__new__


def _make(field, num, den):
    """A scalar from numerators and a denominator already in lowest terms."""
    x = _new(FieldScalar)
    x.field = field
    x.num = num
    x.den = den
    x._hash = None
    return x


def _reduced(field, num, den):
    """A scalar from numerators and a positive denominator, in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    return _make(field, num, den)


def _rational(field, p, d):
    """The rational p/d, d > 0, of a degree-1 field, in lowest terms."""
    if d != 1:
        g = gcd(p, d)
        if g != 1:
            p //= g
            d //= g
    return _make(field, (p,), d)


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
