"""Sparse exact linear algebra over the coefficient field K_m.

One elimination routine serves every caller: rows are {column: integer
K_m element} dicts (FieldDescriptor.integer_row), each known up to a
nonzero factor, reduced one at a time against a {pivot column: row} map
(Echelon).  Reduction is fraction-free, as in Bareiss (Math. Comp. 1968):
row <- p*row - f*pivot row, with p the pivot row's int pivot entry, and a
stored row is made primitive.  FieldScalars are built once, for the
reduced row echelon form that kernels, ranks and inverses read off.
"""

from __future__ import annotations

from math import gcd, lcm


class Echelon:
    """Row echelon form built one integer row at a time.

    rows maps each pivot column to (p, row) with p the row's pivot entry,
    a positive int stored apart (FieldDescriptor.primitive); every other
    entry lies in a larger column.  reduce() sets pivots to the reduced
    row echelon form: {pivot column: {column: FieldScalar}}, the pivot
    entry 1 left out.
    """

    __slots__ = ("field", "rows", "pivots")

    def __init__(self, field):
        self.field = field
        self.rows = {}
        self.pivots = None

    def insert(self, row):
        """Reduce a {column: nonzero integer K_m element} row (consumed)
        against the pivot rows; store it and return True when it brings a
        new pivot."""
        rows = self.rows
        while row:
            c = min(row)
            hit = rows.get(c)
            if hit is None:
                rows[c] = self.field.primitive(row.pop(c), row)
                return True
            self._eliminate(row, row.pop(c), *hit)
        return False

    def _eliminate(self, row, f, p, prow):
        """row <- k*row - (f/g)*prow with g = gcd(p, f) and k = p/g, f being
        the entry row had (taken out) at the pivot of prow, whose pivot
        entry is p; returns k."""
        g = gcd(p, self.field.content((f,)))
        k, f = p // g, f // g
        if k != 1:
            for cc, v in row.items():
                row[cc] = k * v
        for cc, v in prow.items():
            cur = row.get(cc)
            if cur is None:
                row[cc] = -(f * v)
            else:
                cur = cur - f * v
                if cur:
                    row[cc] = cur
                else:
                    del row[cc]
        return k

    def back_substitute(self):
        """Back-substitute in integers, so that every pivot row involves
        only non-pivot columns."""
        rows = self.rows
        for c in sorted(rows, reverse=True):
            p, prow = rows[c]
            subs = [cc for cc in prow if cc in rows]
            if subs:
                for cc in subs:
                    p *= self._eliminate(prow, prow.pop(cc), *rows[cc])
                rows[c] = self.field.primitive(p, prow)
        return self

    def spans(self, row):
        """Whether an integer row (left unchanged) is in the span of the
        back-substituted pivot rows: off the pivots, row * L must equal
        sum(row[c] * (L / p_c) * pivot row c), L the lcm of those p_c."""
        hits = [(v, self.rows[c]) for c, v in row.items() if c in self.rows]
        big = lcm(*(p for _, (p, _) in hits))
        acc = {c: v * big for c, v in row.items() if c not in self.rows}
        for v, (p, prow) in hits:
            f = v * (big // p)
            for c, w in prow.items():
                acc[c] = acc[c] - f * w if c in acc else -(f * w)
        return not any(acc.values())

    def reduce(self):
        """Back-substitute and set pivots to the reduced row echelon form."""
        rows, scalar = self.back_substitute().rows, self.field.scalar
        self.pivots = {}
        for c in sorted(rows, reverse=True):
            p, prow = rows[c]
            self.pivots[c] = {cc: scalar(v, p) for cc, v in prow.items()}
        return self


def sparse_kernel_basis(rows, ncols, field, nullity=None):
    """Basis of the right kernel of a sparse system, one vector per
    non-pivot column of the reduced row echelon form.

    rows: iterable of {column: integer K_m element} dicts.  Given the
    expected kernel dimension nullity, elimination stops at ncols - nullity
    pivots and the rows left are checked to lie in their span; if one does
    not, they are eliminated too.  The basis is the full solve's either way.
    """
    ech = Echelon(field)
    # sparsest rows first: keeps fill-in during elimination down
    rows = sorted(({c: v for c, v in raw.items() if v} for raw in rows),
                  key=len)
    rank = -1 if nullity is None else ncols - nullity
    for k, row in enumerate(rows):
        if len(ech.rows) == rank:
            if all(map(ech.back_substitute().spans, rows[k:])):
                break
            rank = -1  # a row is off the span: eliminate the rest too
        ech.insert(row)
    pivots = ech.reduce().pivots
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for pc, prow in pivots.items():
            if fc in prow:
                vec[pc] = -prow[fc]
        basis.append(vec)
    return basis


def inverse(rows, field):
    """Inverse of a square matrix given as n sparse {column: FieldScalar}
    rows (left unchanged), as nested lists; None if singular."""
    n = len(rows)
    ech = Echelon(field)
    for i, row in enumerate(rows):
        row = dict(row)
        row[n + i] = field.one()
        ech.insert(field.integer_row(row))
    if any(c not in ech.rows for c in range(n)):
        return None
    pivots = ech.reduce().pivots
    return [[pivots[i].get(n + j, field.zero()) for j in range(n)]
            for i in range(n)]
