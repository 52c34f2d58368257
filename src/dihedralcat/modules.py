"""Graded module computations over R = K_m[a_s, a_t].

Submodules of free modules are handled by Buchberger's algorithm with a
position-over-term, degrevlex (a_s > a_t) order.  One Groebner basis per
matrix yields image membership and Hilbert series; with a tracking
coordinate attached to some of its columns, it also yields syzygies
(kernels) projected to those columns, and with one on every column, lifts.

Vectors are flat sparse maps {(position, i, j): coefficient}.  Inside
ModuleGB the coefficients are integer K_m elements, a vector being known up
to a positive factor as linalg's rows are; FieldScalars are built only for
what leaves it, syzygies and lifts.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd, lcm

from .linalg import Echelon
from .ring import RingElement


def _key(mono):
    pos, i, j = mono
    return (-pos, i + j, i)


def vec_from_column(col):
    out = {}
    for pos, f in enumerate(col):
        for (i, j), c in f.terms.items():
            out[(pos, i, j)] = c
    return out


def column_from_vec(vec, rank, field):
    polys = [{} for _ in range(rank)]
    for (pos, i, j), c in vec.items():
        polys[pos][(i, j)] = c
    return [RingElement(field, p) for p in polys]


def _lm(vec):
    return max(vec, key=_key)


def _axpy(target, coeff, di, dj, items, heap=None):
    """target -= coeff * x^di y^dj * (the (mono, c) items), in place, for
    integer K_m coefficients.  A monomial new to target is pushed on heap,
    when one is given."""
    for (pos, i, j), c in items:
        key = (pos, i + di, j + dj)
        cur = target.get(key)
        val = c * coeff
        if cur is None:
            target[key] = -val
            if heap is not None:
                heappush(heap, (pos, -key[1] - key[2], -key[1], key))
        else:
            cur = cur - val
            if cur:
                target[key] = cur
            else:
                del target[key]


def _tail(vec):
    """The items of a basis vector after its leading term."""
    return islice(vec.items(), 1, None)


class ModuleGB:
    """Groebner data for the column span of a matrix inside R^rank.

    The first `tracked` columns (by default all) carry tracking
    positions: generator j is stored as (column_j, e_j) for j < tracked and
    as (column_j, 0) otherwise, the main block dominating the tracking block
    in the term order.  The basis vectors leading in the main block are a
    basis of the image; those leading in the tracking block generate the
    syzygies projected to the tracked columns, {c : M[:, :tracked] c lies
    in the span of the other columns}.  Lifts need every column tracked.

    Basis vectors are integer vectors with their leading monomial stored
    as the first key, a positive int leading coefficient (kept in _leads)
    and coprime numerators; S-pairs are formed within one position only
    and pruned by the Gebauer-Moller criteria B, M and F (the product
    criterion does not hold for modules).  The result is the reduced
    basis, sorted by leading monomial, which is unique for the term order.
    """

    def __init__(self, columns, rank, field, tracked=None):
        self.rank = rank
        self.ncols = len(columns)
        self.tracked = self.ncols if tracked is None else tracked
        self.field = field
        gens = []
        for jcol, col in enumerate(columns):
            v = vec_from_column(col)
            if jcol < self.tracked:
                v[(rank + jcol, 0, 0)] = field.one()
            if v:
                gens.append(field.integer_row(v))
        self._basis, self._leads, self._lms, self._by_pos = [], [], [], {}
        self._run_buchberger(gens)

    # -- construction ---------------------------------------------------

    def _add_basis(self, v):
        """Store a normal form v (leading monomial first), made primitive
        with a positive int leading coefficient."""
        lm = next(iter(v))
        p, v = self.field.primitive(v[lm], v)
        self._basis.append(v)
        self._leads.append(p)
        self._lms.append(lm)
        self._by_pos.setdefault(lm[0], []).append((lm[1], lm[2], p, v))
        return len(self._basis) - 1

    def _run_buchberger(self, gens):
        pairs = []  # heap of (degree, b, a, pos, lcm i, lcm j)
        live = {}   # position -> basis indices whose lm no later lm divides
        for g in sorted(gens, key=lambda v: _key(_lm(v)), reverse=True):
            g = self._reduce(g)[0]
            if g:
                pairs = self._update(pairs, live, g)
        while pairs:
            _, ib, ia, _, li, lj = heappop(pairs)
            s = self._reduce(self._spoly(ia, ib, li, lj))[0]
            if s:
                pairs = self._update(pairs, live, s)
        lms = self._lms
        order = sorted((k for ks in live.values() for k in ks),
                       key=lambda k: _key(lms[k]))
        self._interreduce([self._basis[k] for k in order])

    def _update(self, pairs, live, v):
        """Insert v; return the pair queue pruned by the Gebauer-Moller
        criteria, with v's new pairs."""
        h = self._add_basis(v)
        lms = self._lms
        pos, hi, hj = lms[h]
        kept = []
        for pair in pairs:
            # B: drop (a, b) when lm(h) divides its lcm L and neither
            # lcm(a, h) nor lcm(b, h) equals L
            _, b, a, ppos, li, lj = pair
            if ppos == pos and hi <= li and hj <= lj \
                    and (max(lms[a][1], hi), max(lms[a][2], hj)) != (li, lj) \
                    and (max(lms[b][1], hi), max(lms[b][2], hj)) != (li, lj):
                continue
            kept.append(pair)
        group = live.setdefault(pos, [])
        lcms = {}
        for g in group:  # F: one new pair per lcm
            lcms.setdefault((max(lms[g][1], hi), max(lms[g][2], hj)), g)
        for (li, lj), g in lcms.items():  # M: no other new lcm divides it
            if not any(a <= li and b <= lj and (a, b) != (li, lj)
                       for a, b in lcms):
                kept.append((li + lj, h, g, pos, li, lj))
        live[pos] = [g for g in group
                     if not (hi <= lms[g][1] and hj <= lms[g][2])] + [h]
        heapify(kept)
        return kept

    def _spoly(self, ia, ib, li, lj):
        (_, ai, aj), (_, bi, bj) = self._lms[ia], self._lms[ib]
        pa, pb = self._leads[ia], self._leads[ib]
        g = gcd(pa, pb)
        ka, di, dj = pb // g, li - ai, lj - aj
        out = {(p, i + di, j + dj): ka * c
               for (p, i, j), c in _tail(self._basis[ia])}
        _axpy(out, pa // g, li - bi, lj - bj, _tail(self._basis[ib]))
        return out

    def _reducer(self, mono):
        """(i, j, leading coefficient, vector) of the first basis vector
        whose leading monomial x^i y^j e_pos divides mono, or None."""
        _, i, j = mono
        for red in self._by_pos.get(mono[0], ()):
            if red[0] <= i and red[1] <= j:
                return red
        return None

    def _reduce(self, v, stop=None):
        """Normal form of an integer vector v (consumed) against the basis,
        leading monomial first, times a positive int factor: returns
        (vector, factor).  With stop given, reduction ends at the first
        leading term at a position >= stop and the vector is what is left
        of v; the result is None at an irreducible term below stop."""
        content = self.field.content
        heap = [(m[0], -m[1] - m[2], -m[1], m) for m in v]
        heapify(heap)
        out, factor = {}, 1
        while heap:
            mono = heappop(heap)[3]
            c = v.get(mono)
            if c is None:
                continue
            if stop is not None and mono[0] >= stop:
                break
            del v[mono]
            red = self._reducer(mono)
            if red is None:
                if stop is not None:
                    return None
                out[mono] = c
                continue
            # v <- k*v - (c/g) x^di y^dj b, with g = gcd(p, c), k = p/g
            bi, bj, p, b = red
            g = gcd(p, content((c,)))
            k = p // g
            if k != 1:
                factor *= k
                for w in (v, out):
                    for m, x in w.items():
                        w[m] = k * x
            _axpy(v, c // g, mono[1] - bi, mono[2] - bj, _tail(b), heap)
        return (out if stop is None else v), factor

    def _interreduce(self, basis):
        """Reduce the tails of a minimal basis sorted by leading monomial."""
        self._basis, self._leads, self._lms, self._by_pos = [], [], [], {}
        for v in basis:
            self._add_basis(self._reduce(v)[0])

    # -- queries --------------------------------------------------------

    def lift(self, column):
        """Coefficients c with M*c = column, or None if column is not in the
        span."""
        if self.tracked < self.ncols:
            raise ValueError("lift needs every column tracked")
        vec = vec_from_column(column)
        den = lcm(*(c.den for c in vec.values()))
        found = self._reduce(self.field.integer_row(vec, den), stop=self.rank)
        if found is None:
            return None
        rest, factor = found
        coeffs = {(pos - self.rank, i, j): self.field.scalar(-c, den * factor)
                  for (pos, i, j), c in rest.items()}
        return column_from_vec(coeffs, self.ncols, self.field)

    def contains(self, column):
        """Membership in the image, decided by the main block alone."""
        vec = self.field.integer_row(vec_from_column(column))
        return self._reduce(vec, stop=self.rank) is not None

    def syzygies(self):
        """Columns generating the syzygies projected to R^tracked: the basis
        vectors that lead in the tracking block, made monic."""
        rank, field = self.rank, self.field
        return [column_from_vec({(m[0] - rank, m[1], m[2]): field.scalar(c, p)
                                 for m, c in v.items()}, self.tracked, field)
                for v, p, lm in zip(self._basis, self._leads, self._lms)
                if lm[0] >= rank]

    def image_leading_monomials(self):
        """Per-position monomial generators of the leading-term module."""
        out = {}
        for pos, i, j in self._lms:
            if pos < self.rank:
                out.setdefault(pos, []).append((i, j))
        return out


def kernel(columns, rank, field):
    """Columns generating the kernel of the matrix with the given columns."""
    if not columns:
        return []
    return ModuleGB(columns, rank, field).syzygies()


def minimalize_columns(columns, degrees):
    """A minimal generating subset of the given homogeneous columns, whose
    positions have the given degrees; ValueError on an inhomogeneous one.

    Columns are taken by ascending degree (graded Nakayama): one is dropped
    when it lies in the K_m-span of the monomial multiples of the kept
    columns in its degree, one Echelon per degree.
    """
    degs = [column_degree(col, degrees) for col in columns]
    kept, out, at = [], [], None
    for k in sorted((k for k, d in enumerate(degs) if d is not None),
                    key=degs.__getitem__):
        d, field = degs[k], columns[k][0].field
        vec = field.integer_row(vec_from_column(columns[k]))
        if d != at:
            ech, at = Echelon(field), d
            for dk, kv in kept:
                if (d - dk) % 2 == 0:
                    e = (d - dk) // 2
                    for a in range(e + 1):
                        ech.insert({(p, i + a, j + e - a): c
                                    for (p, i, j), c in kv.items()})
        if ech.insert(dict(vec)):
            kept.append((d, vec))
            out.append(columns[k])
    return out


def column_degree(col, degrees):
    """Total degree of a homogeneous free-module vector; None when zero."""
    degs = set()
    for pos, f in enumerate(col):
        if f:
            degs.add(f.degree() + degrees[pos])
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("inhomogeneous vector")
    return degs.pop()


class PresentedModule:
    """Graded module given by generator degrees and relation columns."""

    def __init__(self, degrees, relations, field):
        self.degrees = list(degrees)
        self.relations = [list(col) for col in relations]
        self.field = field
        self._gb = None

    @property
    def rank(self):
        return len(self.degrees)

    def gb(self):
        """The untracked Groebner basis of the relations: membership and
        leading monomials only."""
        if self._gb is None:
            self._gb = ModuleGB(self.relations, self.rank, self.field, 0)
        return self._gb

    def is_zero(self):
        if self.rank == 0:
            return True
        return all(self.gb().contains(self._unit(i)) for i in range(self.rank))

    def _unit(self, i):
        col = [RingElement.zero(self.field)] * self.rank
        col[i] = RingElement.constant(self.field, 1)
        return col

    def minimalize(self):
        degrees, relations, _, _ = minimal_presentation(
            self.degrees, self.relations, self.field)
        return PresentedModule(degrees, relations, self.field)

    def hilbert_series(self):
        from .series import QSeries
        lead = self.gb().image_leading_monomials()
        total = QSeries.zero()
        for pos in range(self.rank):
            num = _staircase_numerator(lead.get(pos, []))
            for q2, c in num.items():
                total = total + QSeries({self.degrees[pos] + q2: c}, 2)
        return total.canonical()


def _staircase_numerator(monos):
    """Numerator of the Hilbert series of R/(monomial ideal) over (1-Q^2)^2."""
    monos = _minimal_monomials(monos)
    monos.sort()
    num = {0: 1}
    for (i, j) in monos:
        d = 2 * (i + j)
        num[d] = num.get(d, 0) - 1
    for k in range(len(monos) - 1):
        d = 2 * (monos[k + 1][0] + monos[k][1])
        num[d] = num.get(d, 0) + 1
    return {d: c for d, c in num.items() if c}


def _minimal_monomials(monos):
    out = []
    for m in sorted(set(monos), key=lambda e: (e[0] + e[1], e[0])):
        if not any(o[0] <= m[0] and o[1] <= m[1] for o in out):
            out.append(m)
    return out


def minimal_presentation(degrees, relations, field):
    """Collapse unit entries in relations (graded Nakayama).

    Returns (new_degrees, new_relations, incl, proj) where incl maps new
    generator coordinates into old ones and proj the other way; both are
    nested row x col lists over R.  The pivot is the first relation with a
    constant entry at a live generator, at the lowest such generator.
    """
    n = len(degrees)
    cols = [list(c) for c in relations]
    zero = RingElement.zero(field)
    one = RingElement.constant(field, 1)
    live = list(range(n))
    # each old generator as a combination of the live ones
    proj = [{i: one} for i in range(n)]
    while True:
        pivot = next(((ci, ri) for ci, col in enumerate(cols) for ri in live
                      if col[ri] and col[ri].is_constant()), None)
        if pivot is None:
            break
        ci, unit_at = pivot
        col = cols.pop(ci)
        live.remove(unit_at)
        # gen_unit = -(1/u) * sum_{k != unit} col[k] gen_k
        inv = col[unit_at].constant_coefficient().inverse()
        expr = {k: col[k].scale(-inv) for k in live if col[k]}
        new_cols = []
        for c2 in cols:
            f = c2[unit_at]
            if f:
                for k, coef in expr.items():
                    c2[k] = c2[k] + f * coef
                c2[unit_at] = zero
            if any(c2[k] for k in live):
                new_cols.append(c2)
        cols = new_cols
        for p in proj:
            f = p.pop(unit_at, None)
            if f is not None:
                for k, coef in expr.items():
                    p[k] = p.get(k, zero) + f * coef
                    if not p[k]:
                        del p[k]
    new_index = {g: a for a, g in enumerate(live)}
    incl = [[zero] * len(live) for _ in range(n)]
    for a, g in enumerate(live):
        incl[g][a] = one
    proj_mat = [[zero] * n for _ in live]
    for i, p in enumerate(proj):
        for k, coef in p.items():
            proj_mat[new_index[k]][i] = coef
    new_relations = [[col[g] for g in live] for col in cols]
    return [degrees[g] for g in live], new_relations, incl, proj_mat
