"""Graded module computations over R = K_m[a_s, a_t].

Submodules of free modules are handled by Buchberger's algorithm with a
position-over-term, degrevlex (a_s > a_t) order.  One augmented Groebner
basis per matrix yields image membership, lifts, and syzygies (kernels).

Internally vectors are flat sparse maps {(position, i, j): FieldScalar}.
"""

from __future__ import annotations

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


def _mono_mul(mono, di, dj):
    return (mono[0], mono[1] + di, mono[2] + dj)


def _axpy(target, coeff, di, dj, source):
    """target -= coeff * x^di y^dj * source, in place."""
    for mono, c in source.items():
        key = _mono_mul(mono, di, dj)
        cur = target.get(key)
        val = c * coeff
        if cur is None:
            target[key] = -val
        else:
            cur = cur - val
            if cur:
                target[key] = cur
            else:
                del target[key]


class ModuleGB:
    """Groebner data for the column span of a matrix inside R^rank.

    Augmented with tracking positions so that lifts and syzygies come for
    free: generator j is stored as (column_j, e_j) with the main block
    dominating the tracking block in the term order.
    """

    def __init__(self, columns, rank, field):
        self.rank = rank
        self.ncols = len(columns)
        self.field = field
        gens = []
        for jcol, col in enumerate(columns):
            v = vec_from_column(col)
            w = {(rank + jcol, 0, 0): field.one()}
            v.update(w)
            gens.append(v)
        self._basis = []
        self._by_pos = {}
        self._run_buchberger(gens)
        self.image_basis = [g for g in self._basis if _lm(g)[0] < rank]
        self.syzygy_vectors = [
            {(m[0] - rank, m[1], m[2]): c for m, c in g.items()}
            for g in self._basis if _lm(g)[0] >= rank
        ]

    # -- construction ---------------------------------------------------

    def _add_basis(self, v):
        idx = len(self._basis)
        self._basis.append(v)
        self._by_pos.setdefault(_lm(v)[0], []).append(idx)
        return idx

    def _run_buchberger(self, gens):
        pairs = []
        for g in sorted(gens, key=lambda v: _key(_lm(v)), reverse=True):
            g = self._reduce(g)
            if g:
                self._spawn_pairs(pairs, g)
        while pairs:
            pairs.sort(key=lambda p: p[0])
            deg, ia, ib = pairs.pop(0)
            s = self._spoly(self._basis[ia], self._basis[ib])
            s = self._reduce(s)
            if s:
                self._spawn_pairs(pairs, s)
        self._interreduce()

    def _spawn_pairs(self, pairs, v):
        lm = _lm(v)
        idx = self._add_basis(v)
        for other in self._by_pos.get(lm[0], []):
            if other == idx:
                continue
            om = _lm(self._basis[other])
            li = max(lm[1], om[1])
            lj = max(lm[2], om[2])
            pairs.append((li + lj, other, idx))

    def _spoly(self, a, b):
        ma, mb = _lm(a), _lm(b)
        li, lj = max(ma[1], mb[1]), max(ma[2], mb[2])
        ca, cb = a[ma], b[mb]
        out = {}
        _axpy(out, -ca.inverse(), li - ma[1], lj - ma[2], a)
        _axpy(out, cb.inverse(), li - mb[1], lj - mb[2], b)
        return out

    def _reduce(self, v):
        """Full normal form of v against the current basis."""
        v = dict(v)
        remainder = {}
        while v:
            mono = _lm(v)
            red = None
            for idx in self._by_pos.get(mono[0], ()):
                bm = _lm(self._basis[idx])
                if bm[1] <= mono[1] and bm[2] <= mono[2]:
                    red = self._basis[idx]
                    break
            if red is None:
                remainder[mono] = v.pop(mono)
            else:
                bm = _lm(red)
                coeff = v[mono] * red[bm].inverse()
                _axpy(v, coeff, mono[1] - bm[1], mono[2] - bm[2], red)
        remainder.update(v)
        return remainder

    def _interreduce(self):
        basis = sorted(self._basis, key=lambda v: _key(_lm(v)))
        self._basis, self._by_pos = [], {}
        for v in basis:
            v = self._reduce(v)
            if v:
                # normalize leading coefficient
                lc = v[_lm(v)]
                if lc != self.field.one():
                    inv = lc.inverse()
                    v = {m: c * inv for m, c in v.items()}
                self._add_basis(v)

    # -- queries --------------------------------------------------------

    def lift_vec(self, vec):
        """Coefficients c with M*c = vec, or None if vec is not in the span."""
        v = dict(vec)
        coeffs = {}
        while v:
            mono = _lm(v)
            if mono[0] >= self.rank:
                # pure tracking part: this is the certificate
                break
            red = None
            for idx in self._by_pos.get(mono[0], ()):
                bm = _lm(self._basis[idx])
                if bm[1] <= mono[1] and bm[2] <= mono[2]:
                    red = self._basis[idx]
                    break
            if red is None:
                return None
            bm = _lm(red)
            coeff = v[mono] * red[bm].inverse()
            _axpy(v, coeff, mono[1] - bm[1], mono[2] - bm[2], red)
        for (pos, i, j), c in v.items():
            if pos < self.rank:
                return None
            coeffs[(pos - self.rank, i, j)] = -c
        return column_from_vec(coeffs, self.ncols, self.field)

    def lift(self, column):
        return self.lift_vec(vec_from_column(column))

    def contains(self, column):
        return self.lift(column) is not None

    def syzygies(self):
        """Columns generating ker(M) in R^ncols."""
        return [column_from_vec(v, self.ncols, self.field)
                for v in self.syzygy_vectors]

    def image_leading_monomials(self):
        """Per-position monomial generators of the leading-term module."""
        out = {}
        for g in self.image_basis:
            pos, i, j = _lm(g)
            out.setdefault(pos, []).append((i, j))
        return out


def kernel(columns, rank, field):
    """Columns generating the kernel of the matrix with the given columns."""
    if not columns:
        return []
    return ModuleGB(columns, rank, field).syzygies()


def matrix_kernel(matrix, field):
    """Kernel of a matrix given as rows x cols nested lists."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    cols = [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]
    return kernel(cols, nrows, field)


def minimalize_columns(columns, rank, field, degrees=None):
    """A minimal generating subset of the given (homogeneous) columns.

    Columns are processed by ascending generator degree (graded Nakayama);
    a column already in the span of the kept ones is dropped.
    """
    if not columns:
        return []

    def coldeg(col):
        degs = set()
        for pos, f in enumerate(col):
            if f:
                d = f.degree()
                degs.add(d + (degrees[pos] if degrees else 0))
        return min(degs) if degs else 0

    order = sorted(range(len(columns)), key=lambda k: coldeg(columns[k]))
    kept = []
    for k in order:
        if kept:
            gb = ModuleGB(kept, rank, field)
            if gb.contains(columns[k]):
                continue
        if any(columns[k]):
            kept.append(columns[k])
    return kept


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
        if self._gb is None:
            self._gb = ModuleGB(self.relations, self.rank, self.field)
        return self._gb

    def is_zero(self):
        if self.rank == 0:
            return True
        return all(self.gb().contains(self._unit(i)) for i in range(self.rank))

    def _unit(self, i):
        col = [RingElement.zero(self.field)] * self.rank
        col[i] = RingElement.constant(self.field, 1)
        return col

    def is_free(self):
        """True when the (minimalized) presentation has no relations left."""
        mod = self.minimalize()
        return not any(any(col) for col in mod.relations)

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
    nested row x col lists over R.
    """
    n = len(degrees)
    degrees = list(degrees)
    cols = [list(c) for c in relations]
    zero = RingElement.zero(field)
    one = RingElement.constant(field, 1)
    # incl: rows = original gens, cols = surviving gens (as expressions)
    live = list(range(n))
    # proj rows grow as substitutions are recorded; represent proj as
    # substitution of each original generator by a column over surviving ones.
    subst = {i: None for i in range(n)}  # None: still its own generator

    changed = True
    while changed:
        changed = False
        for ci, col in enumerate(cols):
            unit_at = None
            for ri in live:
                f = col[ri]
                if f and f.is_constant():
                    unit_at = ri
                    break
            if unit_at is None:
                continue
            u = col[unit_at].constant_coefficient()
            inv = u.inverse()
            # gen_unit = -(1/u) * sum_{k != unit} col[k] gen_k
            expr = {k: col[k].scale(-inv) for k in live
                    if k != unit_at and col[k]}
            subst[unit_at] = expr
            live.remove(unit_at)
            del cols[ci]
            new_cols = []
            for c2 in cols:
                f = c2[unit_at]
                if f:
                    c2 = list(c2)
                    for k, coef in expr.items():
                        c2[k] = c2[k] + f * coef
                    c2[unit_at] = zero
                if any(c2[k] for k in live):
                    new_cols.append(c2)
            cols = new_cols
            changed = True
            break

    # resolve chained substitutions
    def resolve(i):
        if subst[i] is None:
            return {i: one}
        out = {}
        for k, coef in subst[i].items():
            if subst[k] is None:
                out[k] = out.get(k, zero) + coef
            else:
                for k2, coef2 in resolve(k).items():
                    out[k2] = out.get(k2, zero) + coef * coef2
        return {k: v for k, v in out.items() if v}

    new_index = {g: a for a, g in enumerate(live)}
    new_degrees = [degrees[g] for g in live]
    new_relations = [[col[g] for g in live] for col in cols]
    incl = [[zero] * len(live) for _ in range(n)]
    for a, g in enumerate(live):
        incl[g][a] = one
    proj = [[zero] * n for _ in range(len(live))]
    for i in range(n):
        for k, coef in resolve(i).items():
            proj[new_index[k]][i] = proj[new_index[k]][i] + coef
    return new_degrees, new_relations, incl, proj
