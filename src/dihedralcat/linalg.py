"""Sparse exact linear algebra over the coefficient field K_m.

One elimination routine serves every caller: rows are {column: scalar}
dicts, reduced one at a time against a {pivot column: row} map (Echelon).
Kernels, ranks and inverses all read off that echelon form.
"""

from __future__ import annotations


class Echelon:
    """Row echelon form built one row at a time.

    pivots maps each pivot column to its row, scaled so that the pivot
    entry is 1 and stored without that entry; every other entry of the row
    lies in a larger column.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = {}

    def insert(self, row):
        """Reduce a {column: nonzero scalar} row (consumed) against the
        pivots; store it and return True when it brings a new pivot."""
        pivots = self.pivots
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = row.pop(c).inverse()
                pivots[c] = {cc: v * inv for cc, v in row.items()}
                return True
            f = row.pop(c)
            for cc, v in prow.items():
                nv = row.get(cc)
                nv = -(f * v) if nv is None else nv - f * v
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
        return False

    def reduce(self):
        """Back-substitute, so that every pivot row involves only non-pivot
        columns: the reduced row echelon form."""
        pivots = self.pivots
        for c in sorted(pivots, reverse=True):
            prow = pivots[c]
            for cc in [cc for cc in prow if cc in pivots]:
                f = prow.pop(cc)
                for c2, v in pivots[cc].items():
                    nv = prow.get(c2)
                    nv = -(f * v) if nv is None else nv - f * v
                    if nv:
                        prow[c2] = nv
                    else:
                        prow.pop(c2, None)
        return self


def sparse_kernel_basis(rows, ncols, field):
    """Basis of the right kernel of a sparse system, one vector per
    non-pivot column of the reduced row echelon form.

    rows: iterable of {column: FieldScalar} dicts.
    """
    ech = Echelon()
    # sparsest rows first: keeps fill-in during elimination down
    for row in sorted(({c: v for c, v in raw.items() if v} for raw in rows),
                      key=len):
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
    """Inverse of a square matrix given as n sparse {column: scalar} rows
    (left unchanged), as nested lists; None if singular."""
    n = len(rows)
    ech = Echelon()
    for i, row in enumerate(rows):
        row = dict(row)
        row[n + i] = field.one()
        ech.insert(row)
    if any(c not in ech.pivots for c in range(n)):
        return None
    pivots = ech.reduce().pivots
    return [[pivots[i].get(n + j, field.zero()) for j in range(n)]
            for i in range(n)]
