"""Property tests for the sparse echelon routines over K_3, K_5 and K_7."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralcat import linalg
from dihedralcat.bimodule import (BimoduleMorphism, direct_sum, is_invertible,
                                  regular)
from dihedralcat.field import FieldScalar, field_for
from dihedralcat.ring import RingElement

FIELDS = (field_for(3), field_for(5), field_for(7))  # degrees 1, 2, 3

exact = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def matrices(draw, square=False):
    """(field, nested rows) with small entries, about half of them zero."""
    field = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))

    def scalar():
        if draw(st.booleans()):
            return field.zero()
        return FieldScalar(field, tuple(draw(st.fractions(-3, 3,
                                                          max_denominator=4))
                                        for _ in range(field.degree)))

    return field, [[scalar() for _ in range(ncols)] for _ in range(nrows)]


def sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def integer(rows, field):
    return [field.integer_row(row) for row in sparse(rows)]


def dense_rank(rows):
    """Rank by plain Gaussian elimination, independent of linalg."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / pivot[c]
            rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank


def mat_vec(rows, vec, field):
    return [sum((a * b for a, b in zip(row, vec)), field.zero())
            for row in rows]


@exact
@given(matrices())
def test_kernel_vectors_are_annihilated(case):
    field, rows = case
    ncols = len(rows[0])
    for vec in linalg.sparse_kernel_basis(integer(rows, field), ncols, field):
        assert not any(mat_vec(rows, vec, field))


@exact
@given(matrices())
def test_kernel_has_full_dimension_in_reduced_form(case):
    field, rows = case
    ncols = len(rows[0])
    basis = linalg.sparse_kernel_basis(integer(rows, field), ncols, field)
    assert len(basis) == ncols - dense_rank(rows)
    # each vector ends in a 1 at its own free column, the free columns
    # increase, and no other vector touches them
    free = [max(c for c, v in enumerate(vec) if v) for vec in basis]
    assert free == sorted(set(free))
    for k, vec in enumerate(basis):
        assert vec[free[k]] == field.one()
        assert all(not basis[l][free[k]] for l in range(len(basis)) if l != k)


@exact
@given(matrices())
def test_kernel_basis_does_not_depend_on_the_nullity_given(case):
    # with the right nullity the elimination stops at the rank and checks
    # the rows left; one too high stops too early and the check sends the
    # rest through; one too low never stops.  All give the full solve.
    field, rows = case
    ncols = len(rows[0])
    full = linalg.sparse_kernel_basis(integer(rows, field), ncols, field)
    for nullity in (len(full) - 1, len(full), len(full) + 1):
        assert linalg.sparse_kernel_basis(integer(rows, field), ncols, field,
                                          nullity) == full, nullity


@exact
@given(matrices(square=True))
def test_inverse_or_none_exactly_when_singular(case):
    field, rows = case
    n = len(rows)
    inv = linalg.inverse(sparse(rows), field)
    if dense_rank(rows) < n:
        assert inv is None
        return
    assert inv is not None
    ident = [[field.one() if i == j else field.zero() for j in range(n)]
             for i in range(n)]
    cols = [[inv[i][j] for i in range(n)] for j in range(n)]
    assert [mat_vec(rows, col, field) for col in cols] == ident


@exact
@given(matrices(square=True))
def test_is_invertible_agrees_with_inverse(case):
    field, rows = case
    m = field.m
    total = direct_sum([regular(m)] * len(rows))
    phi = BimoduleMorphism(total, total,
                           [[RingElement(field, {(0, 0): c}) for c in row]
                            for row in rows])
    assert is_invertible(phi) == \
        (linalg.inverse(sparse(rows), field) is not None)


class ReferenceEchelon:
    """The FieldScalar Gauss-Jordan elimination the integer Echelon
    replaced: rows are {column: FieldScalar}, each pivot row is scaled to
    pivot entry 1 on insertion and stored without it."""

    def __init__(self):
        self.pivots = {}

    def insert(self, row):
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


@exact
@given(matrices())
def test_echelon_matches_the_reference_rref(case):
    field, rows = case
    ech, ref = linalg.Echelon(field), ReferenceEchelon()
    for row in sparse(rows):
        assert ech.insert(field.integer_row(row)) == ref.insert(dict(row))
    assert ech.reduce().pivots == ref.reduce().pivots
