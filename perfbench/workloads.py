"""The four benchmark workloads.

Each workload object has ``inputs(seed)``, which builds the job list during
set-up; ``run(job)``, the timed call; ``check(job, answer)``, the exact
answer test; ``digest(answer)``, for comparing the answers of two runs; and
``corrupt(answer)``, which spoils an answer for the checker self-test.

Every job goes through public dihedralcat entry points only.  Checks run
after the timed jobs, so they add no time and warm no cache a job uses.
"""

import hashlib
import json
import random

# Entry points are looked up on their modules at call time, so that the
# tracer's wrappers see the calls.
from dihedralcat import bimodule, complexes, hecke, homology, serre
from dihedralcat.series import PoincareSeries, QSeries

WHITEHEAD = "s^-2 t s^-1 t"

# A^a T^t Q^q / (1-Q^2)^e pieces of the Whitehead series, as pinned by the
# acceptance test of criterion 01.
WHITEHEAD_PIECES = ((0, 1, -1, 0), (0, 2, -3, 0), (1, -1, -1, 0),
                    (1, 0, -3, 0), (1, 0, -3, 1), (1, 1, -5, 0),
                    (1, 2, -7, 0), (2, -1, -5, 0), (2, 0, -7, 1))

# The braid sweep runs the 50 words of acceptance criterion 08a, in that
# order.  A random word costs from 1 ms to 4 s, so 50 freshly drawn words
# would move the total by about 30% from seed to seed.  The seed instead
# decides, per word, whether to take it or its mirror image (every exponent
# negated, about the same cost): the inputs change, the cost profile stays.
SWEEP_SEED = 20240401
SWEEP_TOKENS = ("s", "t", "s^-1", "t^-1")
MIRROR = {"s": "s^-1", "t": "t^-1", "s^-1": "s", "t^-1": "t"}


def sweep_words(seed):
    base = random.Random(SWEEP_SEED)
    words = [[base.choice(SWEEP_TOKENS) for _ in range(base.randint(1, 6))]
             for _ in range(50)]
    rng = random.Random(seed)
    return [" ".join(MIRROR[x] for x in w) if rng.random() < 0.5
            else " ".join(w) for w in words]


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _complex_digest(cplx):
    return _digest([repr(cplx), cplx.to_json()])


class WhiteheadHHH:
    name = "whitehead-hhh"

    def inputs(self, seed):
        return [WHITEHEAD]

    def run(self, braid):
        cplx = complexes.rouquier_braid(3, braid, split=True)
        return homology.hhh(braid, 3, precomputed=cplx)

    def check(self, braid, series):
        golden = PoincareSeries.zero()
        for a, t, q, e in WHITEHEAD_PIECES:
            golden = golden.add_piece(a, t, QSeries({q: 1}, e))
        if series != golden:
            return False
        ok, residual = hecke.euler_check(series, braid)
        return ok and residual == 0

    def digest(self, series):
        return _digest(series.to_json())

    def corrupt(self, series):
        return PoincareSeries.from_terms(series.terms()[1:])


class BraidSweep:
    name = "braid-sweep-m3"

    def inputs(self, seed):
        return sweep_words(seed)

    def run(self, word):
        return complexes.rouquier_braid(3, word, split=True)

    def check(self, word, cplx):
        braid = complexes.parse_braid(word)
        return hecke.class_of_complex(cplx) == hecke.delta_product(3, braid)

    def digest(self, cplx):
        return _complex_digest(cplx)

    def corrupt(self, cplx):
        return cplx.shift_internal(1)


class IndecomposablesM5:
    """Every B_w at m = 5 with 1 <= l(w) <= 4, shortest first; w0 = ststs
    is left out (149 s)."""

    name = "indecomposables-m5"

    def inputs(self, seed):
        return sorted((w for w in hecke.group_elements(5)
                       if 1 <= len(w) <= 4), key=lambda w: (len(w), w))

    def run(self, word):
        return complexes.indecomposable_b(5, word)

    def check(self, word, bmod):
        expect = sorted(2 * len(y) - len(word)
                        for y in hecke.kl_basis(5, word).terms)
        return (sorted(bmod.degrees) == expect
                and len(bimodule.hom_degree_basis(bmod, bmod, 0)) == 1)

    def digest(self, bmod):
        return _digest([repr(bmod), bmod.to_json()])

    def corrupt(self, bmod):
        return bmod.shifted(1)


class SerreRelativeM3:
    """run_suite("relative", 3), one job per test object."""

    name = "serre-relative-m3"

    def inputs(self, seed):
        return list(serre.serre_test_objects(3).items())

    def run(self, job):
        return serre.check_relative_serre(job[1], 3)

    def check(self, job, report):
        return report["status"] == "pass" and bool(report.get("witness"))

    def digest(self, report):
        return _digest(report)

    def corrupt(self, report):
        return dict(report, status="inconclusive-pass")


WORKLOADS = {w.name: w for w in (WhiteheadHHH(), BraidSweep(),
                                 IndecomposablesM5(), SerreRelativeM3())}
