"""Executable checks of the structural theorems.

Full-twist complexes, vanishing of partial traces on Rouquier complexes,
pi_s^+ of the relative full twist, relative Serre duality, Hom complexes,
and the Serre-duality series identity.  Every check returns a JSON-ready
report dict with a "status" of "pass" or "fail", decided exactly:
isomorphism on the chain-map grid of complexes_isomorphic, vanishing by
a null-homotopy solve (is_contractible).
"""

from __future__ import annotations

from functools import lru_cache

from .bimodule import (HomSpace, _lift_images, b_generator, mat_mul, mat_neg,
                       mat_zero, regular)
from .complexes import (MAX_WORD_LENGTH, complexes_isomorphic,
                        is_contractible, minimal_form, rouquier_braid,
                        simplify, simplify_product, single_object)
from .homology import complex_series
from .modules import ModuleGB
from .ring import realization
from .series import QSeries
from .trace import pi_on_complex


# ---------------------------------------------------------------------------
# full twists


@lru_cache(maxsize=None)
def full_twist(m):
    """FT = F_{w0}^2, the Rouquier complex of (st)^m."""
    return rouquier_braid(m, " ".join(["s", "t"] * m), split=True)


@lru_cache(maxsize=None)
def full_twist_inverse(m):
    return rouquier_braid(m, " ".join(["t^-1", "s^-1"] * m), split=True)


@lru_cache(maxsize=None)
def ft_over_t(m):
    """FT_{{s,t}/t} = F_{(st)^m} F_t^{-2}."""
    return rouquier_braid(m, " ".join(["s", "t"] * m) + " t^-1 t^-1",
                          split=True)


def _overall(statuses):
    return "fail" if "fail" in statuses else "pass"


def _is_zero_up_to_homotopy(cplx):
    mf = minimal_form(cplx)
    return "pass" if mf.is_zero() or is_contractible(mf) else "fail"


def _is_boxed_regular(cplx):
    """Is the complex exactly [R] in degree 0?  A rank-one atom is R only
    when its left action is R's, which for rank one does not depend on the
    basis: a twisted R_x has a generator of degree 0 too."""
    degs = [d for d, obs in cplx.objects.items() if obs]
    if degs != [0] or len(cplx.objects[0]) != 1:
        return False
    return cplx.objects[0][0] == regular(cplx.m, 0)


# ---------------------------------------------------------------------------
# vanishing suite


def _traced_vanishes(m, braid, letter, sign):
    cplx = rouquier_braid(m, braid, split=True)
    traced = pi_on_complex(cplx, letter, sign)
    return _is_zero_up_to_homotopy(traced)


def check_vanishing(m):
    """pi_s^+ on F_{(st)^k}, F_{(st)^k s} (and pi_s^- on the inverses)
    vanishes for 1 <= k <= floor(m/2); alternating-word vanishing for
    lengths 2..2m-3."""
    checks = []

    def record(name, status):
        checks.append({"name": name, "status": status})

    for k in range(1, m // 2 + 1):
        pos_even = " ".join(["s", "t"] * k)
        pos_odd = pos_even + " s"
        neg_even = " ".join(["t^-1", "s^-1"] * k)
        neg_odd = "s^-1 " + neg_even
        record("pi_s_plus(F_(st)^%d) ~ 0" % k,
               _traced_vanishes(m, pos_even, "s", 1))
        record("pi_s_minus(F_(ts)^-%d) ~ 0" % k,
               _traced_vanishes(m, neg_even, "s", -1))
        if 2 * k + 1 <= 2 * m - 3:
            # the odd word (st)^k s must stay within the alternating-word
            # range; at m = 2 the family is empty (sts is not reduced)
            record("pi_s_plus(F_(st)^%d_s) ~ 0" % k,
                   _traced_vanishes(m, pos_odd, "s", 1))
            record("pi_s_minus(F_s^-1_(ts)^-%d) ~ 0" % k,
                   _traced_vanishes(m, neg_odd, "s", -1))
    for length in range(2, 2 * m - 2):
        word = " ".join(("s", "t")[i % 2] for i in range(length))
        record("pi_s_plus(F_%s) ~ 0" % word.replace(" ", ""),
               _traced_vanishes(m, word, "s", 1))
        inverse = " ".join(tok + "^-1" for tok in reversed(word.split()))
        record("pi_s_minus(F_%s^-1) ~ 0" % word.replace(" ", ""),
               _traced_vanishes(m, inverse, "s", -1))
    return {"suite": "vanishing", "m": m,
            "status": _overall(c["status"] for c in checks), "checks": checks}


def check_pift(m):
    """Minimal form of pi_s^+(FT_{{s,t}/t}) is exactly [R]."""
    traced = pi_on_complex(ft_over_t(m), "s", 1)
    mf = minimal_form(traced)
    ok = _is_boxed_regular(mf)
    return {"suite": "pift", "m": m,
            "status": "pass" if ok else "fail",
            "minimal_form": repr(mf)}


# ---------------------------------------------------------------------------
# relative Serre duality


def serre_test_objects(m):
    """The test set {[R], [B_s], [B_t], F_s, F_t, F_s F_t}."""
    return {
        "[R]": single_object(m, regular(m, 0)),
        "[B_s]": single_object(m, b_generator(m, "s")),
        "[B_t]": single_object(m, b_generator(m, "t")),
        "F_s": rouquier_braid(m, "s"),
        "F_t": rouquier_braid(m, "t"),
        "F_sF_t": rouquier_braid(m, "s t"),
    }


def check_relative_serre(x_complex, m):
    """pi_s^-(X) ~ pi_s^+(FT_{{s,t}/t} (x) X): a pass carries the witness
    isomorphism of minimal forms that complexes_isomorphic finds, and a
    fail means there is none."""
    lhs = minimal_form(pi_on_complex(simplify(x_complex), "s", -1))
    prod = simplify_product(ft_over_t(m), x_complex)
    rhs = minimal_form(pi_on_complex(prod, "s", 1))
    verdict, witness = complexes_isomorphic(lhs, rhs)
    report = {"suite": "relative-serre", "m": m,
              "lhs": repr(lhs), "rhs": repr(rhs)}
    if verdict == "yes":
        report["status"] = "pass"
        report["witness"] = {str(d): [[repr(x) for x in row]
                                      for row in phi.matrix]
                             for d, phi in witness.items()}
    else:
        report["status"] = "fail"
    return report


# ---------------------------------------------------------------------------
# Hom complexes


# Hom(atom, atom) up to shifts: shifting dom by k and cod by l moves every
# generator degree by k - l and changes no matrix.
_HOM_BLOCKS = {}


def _hom_block(dom, cod):
    """(generators, degrees, ModuleGB of the generators or None when there
    are none) of HomSpace(dom, cod), solved once per pair of
    Bimodule.up_to_shift keys."""
    (lo_d, key_d), (lo_c, key_c) = dom.up_to_shift(), cod.up_to_shift()
    hit = _HOM_BLOCKS.get((key_d, key_c))
    if hit is None:
        hs = HomSpace(dom, cod)
        gb = ModuleGB(hs.generators, dom.rank * cod.rank, dom.field) \
            if hs.generators else None
        hit = _HOM_BLOCKS[key_d, key_c] = (
            hs.generators, [d + lo_d - lo_c for d in hs.degrees], gb)
    gens, degrees, gb = hit
    return gens, [d - lo_d + lo_c for d in degrees], gb


class HomComplex:
    """Total complex of Hom(X^p, Y^q) with D(f) = d_Y f - (-1)^n f d_X.

    Hom(sum X^p, sum Y^q) is the sum of the Hom blocks of its atom pairs,
    each a free right R-module (Soergel 2007): its generators are theirs,
    codomain atom first, then domain atom.  D takes a generator f of
    Hom(x, y) to each d_Y block after f and each d_X block before it, and
    lifts every image through its own pair's generators, where the lift is
    unique.  Homology goes through the presented-module machinery with
    empty relation sets.
    """

    def __init__(self, x_complex, y_complex):
        self.m = x_complex.m
        self.field = field = realization(self.m).field
        xs, ys = x_complex.objects, y_complex.objects
        self.degrees = {}
        offset = {}  # (p, c, q, r): Hom(X^p[c], Y^q[r]) in degrees[q - p]
        for p in sorted(xs):
            for q in sorted(ys):
                degs = self.degrees.setdefault(q - p, [])
                for r, y in enumerate(ys[q]):
                    for c, x in enumerate(xs[p]):
                        offset[p, c, q, r] = len(degs)
                        degs.extend(_hom_block(x, y)[1])
        self.maps = {n: mat_zero(field, len(self.degrees[n + 1]), len(dn))
                     for n, dn in sorted(self.degrees.items())
                     if n + 1 in self.degrees}
        for (p, c, q, r), col in offset.items():
            n, x, y = q - p, xs[p][c], ys[q][r]
            if n not in self.maps:
                continue
            gens = [[g[i * x.rank:(i + 1) * x.rank] for i in range(y.rank)]
                    for g in _hom_block(x, y)[0]]
            images = []  # (target atom pair, the images of gens there)
            for r2, blocks in enumerate(y_complex.diffs.get(q, ())):
                if blocks[r] is not None:  # d_Y f
                    images.append(((p, c, q + 1, r2), [
                        mat_mul(blocks[r].matrix, f, field) for f in gens]))
            if p - 1 in x_complex.diffs:
                for c2, blk in enumerate(x_complex.diffs[p - 1][c]):
                    if blk is not None:  # -(-1)^n f d_X
                        dx = blk.matrix if n % 2 else mat_neg(blk.matrix)
                        images.append(((p - 1, c2, q, r), [
                            mat_mul(f, dx, field) for f in gens]))
            for (p2, c2, q2, r2), imgs in images:
                gb = _hom_block(xs[p2][c2], ys[q2][r2])[2]
                lifted = _lift_images(gb, [[e for row in img for e in row]
                                           for img in imgs], ArithmeticError)
                row0 = offset[p2, c2, q2, r2]
                for i, row in enumerate(lifted):
                    self.maps[n][row0 + i][col:col + len(row)] = row

    def homology_series(self):
        return complex_series(self.degrees, self.maps, self.field)


# ---------------------------------------------------------------------------
# Serre duality on series


def _qtext(qs):
    """Raw rational-function text; duals may expand downward, so the
    canonical graded formatter does not apply."""
    c = qs.canonical()
    num = " + ".join("%d*Q^%d" % (v, q) for q, v in sorted(c.num.items()))
    if not num:
        return "0"
    return "(%s)/(1-Q^2)^%d" % (num, c.e) if c.e else "(%s)" % num


def dual_homology_series(series_by_degree):
    """The graded dual of a bigraded homology series, termwise by stratum.

    Local duality over R (two variables in degree 2, omega = R(-4)[2]):
    a stratum c Q^q/(1-Q^2)^e in H^n dualizes to
    c Q^{2e-4-q}/(1-Q^2)^e in H^{-n+2-e}.
    """
    out = {}
    for n, qs in series_by_degree.items():
        for q, e, c in qs.terms():
            tgt = -n + 2 - e
            piece = QSeries({2 * e - 4 - q: c}, e)
            out[tgt] = out.get(tgt, QSeries.zero()) + piece
    return {d: qs for d, qs in out.items() if qs}


def check_serre(x_complex, y_complex, m, twisted_x=None):
    """Bigraded homology series of Hom(X, Y) against the graded dual of
    Hom(Y, FT^{-1} (x) X): Q -> 1/Q with the local-duality twist and
    codimension reindexing of dual_homology_series.

    twisted_x: optional precomputed simplified FT^{-1} (x) X (reusable
    across the Y loop)."""
    lhs = HomComplex(x_complex, y_complex).homology_series()
    twisted = twisted_x
    if twisted is None:
        twisted = simplify_product(full_twist_inverse(m), x_complex)
    rhs_raw = HomComplex(y_complex, twisted).homology_series()
    rhs = dual_homology_series(rhs_raw)
    report = {"suite": "serre-series", "m": m,
              "lhs": {str(n): _qtext(qs) for n, qs in sorted(lhs.items())},
              "rhs_dual": {str(n): _qtext(qs)
                           for n, qs in sorted(rhs.items())}}
    residuals = {}
    for n in set(lhs) | set(rhs):
        diff = lhs.get(n, QSeries.zero()) - rhs.get(n, QSeries.zero())
        if diff:
            residuals[str(n)] = _qtext(diff)
    if residuals:
        report["status"] = "fail"
        report["residuals"] = residuals
    else:
        report["status"] = "pass"
    return report


# ---------------------------------------------------------------------------
# property instances


def check_semiorthogonality(m):
    """Hom(X, iota M) ~ 0 for X killed by pi_s^+ and iota M a parabolic
    generator: the adjunction hom(X, iota M) = hom(pi_s^+ X, M)."""
    killed = {"F_s": rouquier_braid(m, "s")}
    if m >= 3:
        killed["F_sF_t"] = rouquier_braid(m, "s t")
    induced = {"[R]": single_object(m, regular(m, 0)),
               "[B_t]": single_object(m, b_generator(m, "t"))}
    checks = []
    for xn, xc in killed.items():
        for yn, yc in induced.items():
            series = HomComplex(xc, yc).homology_series()
            checks.append({"name": "hom(%s, %s) ~ 0" % (xn, yn),
                           "status": "pass" if not series else "fail",
                           "series": {str(n): repr(q)
                                      for n, q in series.items()}})
    return {"suite": "semiorthogonality", "m": m,
            "status": _overall(c["status"] for c in checks), "checks": checks}


def check_equivalence_instance(m):
    """ft_over_t (x) X lands in ker pi_s^+ for X in the negative-word
    generators killed by pi_s^- (word length <= m).  The product is the
    shared ft_over_t(m) times F_w^-1, simplified one letter at a time."""
    checks = []
    for length in range(1, m + 1):
        word = [("s", "t")[i % 2] for i in range(length)]
        prod = simplify_product(ft_over_t(m), rouquier_braid(
            m, [(x, -1) for x in reversed(word)]))
        status = _is_zero_up_to_homotopy(pi_on_complex(prod, "s", 1))
        checks.append({"name": "pi_s_plus(ft_over_t (x) F_%s^-1) ~ 0"
                       % "".join(word), "status": status})
    return {"suite": "equivalence", "m": m,
            "status": _overall(c["status"] for c in checks), "checks": checks}


def run_suite(name, m):
    # pift, relative and full read ft_over_t(m), a word of 2m + 2 letters
    if name in ("pift", "relative", "full") and 2 * m + 2 > MAX_WORD_LENGTH:
        raise ValueError("suite %s at m = %d needs ft_over_t's %d-letter "
                         "word, more than the maximum of %d"
                         % (name, m, 2 * m + 2, MAX_WORD_LENGTH))
    realization(m)  # refuses an m without a dihedral realization
    if name == "vanishing":
        return check_vanishing(m)
    if name == "pift":
        return check_pift(m)
    if name == "relative":
        objs = serre_test_objects(m)
        checks = []
        for xn, xc in objs.items():
            rep = check_relative_serre(xc, m)
            rep["object"] = xn
            checks.append(rep)
        return {"suite": "relative", "m": m,
                "status": _overall(c["status"] for c in checks),
                "checks": checks}
    if name == "full":
        parts = [check_vanishing(m), check_pift(m),
                 run_suite("relative", m),
                 check_semiorthogonality(m), check_equivalence_instance(m)]
        return {"suite": "full", "m": m,
                "status": _overall(p["status"] for p in parts),
                "parts": parts}
    raise ValueError("unknown suite %r" % name)
