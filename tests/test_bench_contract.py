"""The benchmark's traced-run contract, on one cheap job per workload.

perfbench/run.py judges a traced pass incorrect when a per-layer counter it
requires of the workload reads 0, or when the traced answers' digests differ
from an untraced pass's.  This installs perfbench's tracer, runs a few of
the workload's own jobs, checks those counters and compares the answers by
the workload's digest with a cold untraced run of the same jobs; it reads
perfbench/ and changes nothing there.
"""

import os
import sys

import pytest

from dihedralcat import complexes

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

JOBS = {
    "whitehead-hhh": [workloads.WHITEHEAD],
    "braid-sweep-m3": workloads.sweep_words(1)[:3],
    # a word is keyed by its letters: B_tsts reads B_sts and B_ts, which
    # the first job built
    "indecomposables-m5": ["sts", "tsts"],
    "serre-relative-m3": [("[R]", workloads.serre.serre_test_objects(3)[
        "[R]"])],
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_required_counters_are_nonzero(name):
    workload = workloads.WORKLOADS[name]
    # before install: the tracer's wrapper of an lru_cache has no cache_clear
    complexes.clear_caches()
    tracer = Tracer()
    try:
        tracer.install()
        answers = [workload.run(job) for job in JOBS[name]]
    finally:
        tracer.uninstall()
    assert all(workload.check(job, answer)
               for job, answer in zip(JOBS[name], answers))
    counters = tracer.metrics()
    required = run.REQUIRED["*"] + run.REQUIRED[name]
    assert {key: counters.get(key, 0) for key in required
            if not counters.get(key)} == {}
    complexes.clear_caches()
    untraced = [workload.run(job) for job in JOBS[name]]
    assert [workload.digest(a) for a in answers] == \
        [workload.digest(a) for a in untraced]
