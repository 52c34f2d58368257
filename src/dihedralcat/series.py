"""Exact graded-rank series.

QSeries is a Laurent numerator over (1 - Q^2)^e; PoincareSeries collects
QSeries per (A-power, T-power) and canonicalizes to the term list
c * A^a T^t Q^q / (1-Q^2)^e with positive integer c.
"""

from __future__ import annotations


class QSeries:
    __slots__ = ("num", "e")

    def __init__(self, num, e=0):
        self.num = {q: c for q, c in num.items() if c}
        self.e = e if self.num else 0

    @classmethod
    def zero(cls):
        return cls({}, 0)

    @classmethod
    def monomial(cls, q, c=1):
        return cls({q: c}, 0)

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        e = max(self.e, other.e)
        num = _scale_denom(self.num, e - self.e)
        for q, c in _scale_denom(other.num, e - other.e).items():
            num[q] = num.get(q, 0) + c
        return QSeries(num, e)

    def __neg__(self):
        return QSeries({q: -c for q, c in self.num.items()}, self.e)

    def __sub__(self, other):
        return self + (-other)

    def shift(self, k):
        """Multiply by Q^k."""
        return QSeries({q + k: c for q, c in self.num.items()}, self.e)

    def scale(self, c):
        return QSeries({q: v * c for q, v in self.num.items()}, self.e)

    def canonical(self):
        num, e = dict(self.num), self.e
        while num and e > 0:
            quot = _divide_once(num)
            if quot is None:
                break
            num, e = quot, e - 1
        return QSeries(num, e)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return not (self - other)

    def __hash__(self):
        c = self.canonical()
        return hash((frozenset(c.num.items()), c.e))

    def terms(self):
        """Canonical list of (q, e, c) with positive integer c.

        Negative numerator coefficients are resolved by peeling off a
        shallower layer: N/(1-Q^2)^e = P/(1-Q^2)^e + M/(1-Q^2)^(e-1) with
        P = N - (1-Q^2)M chosen coefficientwise nonnegative and M minimal.
        Where that peel fails, each parity class is split by _top_terms.
        """
        canon = self.canonical()
        out = _peel(dict(canon.num), canon.e)
        if out is None:
            parts = [_top_terms({q: c for q, c in canon.num.items()
                                 if q % 2 == r}, canon.e) for r in (0, 1)]
            if None in parts:
                raise ValueError(
                    "not a graded-module series: %s/(1-Q^2)^%d"
                    % (self.num, self.e))
            out = parts[0] + parts[1]
        return sorted(out)

    def __repr__(self):
        return format_qseries(self)


def _peel(num, e):
    """QSeries.terms' peel of num/(1-Q^2)^e, or None where it fails."""
    out = []
    while num:
        negs = [q for q, v in num.items() if v < 0]
        if not negs:
            out.extend((q, e, v) for q, v in num.items())
            break
        if e == 0:
            return None
        floor = min(num) - 2 * (len(num) + 4)
        peel = {}
        while negs:
            q = max(negs)
            if q < floor:
                return None
            v = -num[q]
            peel[q - 2] = peel.get(q - 2, 0) + v
            num[q] = 0
            num[q - 2] = num.get(q - 2, 0) - v
            num = {k: c for k, c in num.items() if c}
            negs = [k for k, c in num.items() if c < 0]
        out.extend((q, e, v) for q, v in num.items())
        num, e = peel, e - 1
    return out


def _top_terms(num, e):
    """Positive terms adding up to num/(1-Q^2)^e for a numerator of one
    parity, or None.  Each depth puts all its weight, the coefficient sum a
    of its numerator N, at the top degree: a Q^top/(1-Q^2)^e, leaving
    (N - a Q^top)/(1-Q^2) one depth lower.  For e <= 2 this succeeds
    whenever the power series has no negative coefficient, that is,
    whenever any positive decomposition exists."""
    out = []
    while num and e > 0:
        a, top = sum(num.values()), max(num)
        if a < 0:
            return None
        if a:
            out.append((top, e, a))
            num = {**num, top: num[top] - a}
        num, e = _divide_once({q: c for q, c in num.items() if c}), e - 1
    if any(c < 0 for c in num.values()):
        return None
    return out + [(q, 0, c) for q, c in num.items()]


def _scale_denom(num, k):
    """Multiply numerator by (1-Q^2)^k."""
    out = dict(num)
    for _ in range(k):
        nxt = {}
        for q, c in out.items():
            nxt[q] = nxt.get(q, 0) + c
            nxt[q + 2] = nxt.get(q + 2, 0) - c
        out = {q: c for q, c in nxt.items() if c}
    return out


def _divide_once(num):
    """Quotient of the numerator by (1-Q^2), or None if not divisible."""
    if not num:
        return {}
    top = max(num)
    r = dict(num)
    out = {}
    while r:
        a = min(r)
        if a >= top:
            return None  # leftover cannot cancel: not divisible
        c = r.pop(a)
        out[a] = c
        nxt = r.get(a + 2, 0) + c
        if nxt:
            r[a + 2] = nxt
        else:
            r.pop(a + 2, None)
    return {q: c for q, c in out.items() if c}


def format_qseries(s):
    parts = []
    for q, e, c in s.terms():
        body = "Q^%d" % q if q != 0 else "1"
        if c != 1:
            body = "%s*%s" % (c, body) if q != 0 else str(c)
        if e:
            body += "/(1-Q^2)" if e == 1 else "/(1-Q^2)^%d" % e
        parts.append(body)
    return " + ".join(parts) if parts else "0"


class PoincareSeries:
    """Sum of c * A^a T^t Q^q / (1-Q^2)^e terms, canonical on demand."""

    def __init__(self, strata=None):
        # strata: {(a, t): QSeries}
        self.strata = {k: v for k, v in (strata or {}).items() if v}

    @classmethod
    def zero(cls):
        return cls({})

    def add_piece(self, a, t, qseries):
        cur = self.strata.get((a, t), QSeries.zero())
        tot = cur + qseries
        out = dict(self.strata)
        if tot:
            out[(a, t)] = tot
        else:
            out.pop((a, t), None)
        return PoincareSeries(out)

    def __eq__(self, other):
        if not isinstance(other, PoincareSeries):
            return NotImplemented
        keys = set(self.strata) | set(other.strata)
        z = QSeries.zero()
        return all(self.strata.get(k, z) == other.strata.get(k, z) for k in keys)

    def __bool__(self):
        return bool(self.strata)

    def terms(self):
        """Canonical sorted quintuples (a, t, q, e, c)."""
        out = []
        for (a, t) in sorted(self.strata):
            for q, e, c in self.strata[(a, t)].terms():
                out.append((a, t, q, e, c))
        return out

    def to_json(self):
        return [list(t) for t in self.terms()]

    @classmethod
    def from_terms(cls, quintuples):
        ps = cls()
        for a, t, q, e, c in quintuples:
            ps = ps.add_piece(a, t, QSeries({q: c}, e))
        return ps

    def __repr__(self):
        return format_poincare(self)


def format_poincare(ps):
    if not ps.strata:
        return "0"
    parts = []
    for (a, t, q, e, c) in ps.terms():
        factors = []
        if c != 1:
            factors.append(str(c))
        if a:
            factors.append("A" if a == 1 else "A^%d" % a)
        if t:
            factors.append("T" if t == 1 else "T^%d" % t)
        if q:
            factors.append("Q^%d" % q)
        if not factors:
            factors.append("1")
        body = "*".join(factors)
        if e:
            body += "/(1-Q^2)" if e == 1 else "/(1-Q^2)^%d" % e
        parts.append(body)
    return " + ".join(parts)
