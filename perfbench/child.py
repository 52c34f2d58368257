"""One pass of one workload in a fresh interpreter, so every in-process
cache (the indecomposable_b and full-twist lru_caches, each Bimodule's
power cache) starts empty, as in a CLI call.

Protocol: the child prints ``READY`` once imports and inputs are done, then
runs the jobs one at a time and prints one JSON line with its job times
(reference samples taken out), the host's slowdown measured meanwhile
(hostspeed.py), answer digests, check results and, when traced, the
per-layer counters.

    python3 perfbench/child.py --workload NAME --seed N [--trace]
                               [--setup-only] [--limit K] [--corrupt]
"""

import argparse
import json
import os
import resource
import sys
import traceback

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_engine():
    """Import dihedralcat from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import dihedralcat.complexes
    where = os.path.realpath(list(dihedralcat.__path__)[0])
    if where != os.path.realpath(os.path.join(SRC, "dihedralcat")):
        raise ImportError("dihedralcat imported from %s, not %s"
                          % (where, SRC))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first LIMIT jobs")
    ap.add_argument("--corrupt", action="store_true",
                    help="spoil the first answer before it is checked")
    args = ap.parse_args()

    _import_engine()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    jobs = workload.inputs(args.seed)[:args.limit]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # A traced pass takes no host-speed samples: they would land in the
    # self times of whatever call they interrupt.
    tracer = None
    speed = HostSpeed()
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        speed.start()

    answers, job_s, spans, errors = [], [], [], []
    for job in jobs:
        t0, s0 = speed.clock()
        try:
            answers.append(workload.run(job))
        except Exception:
            answers.append(None)
            errors.append(traceback.format_exc())
        t1, s1 = speed.clock()
        job_s.append((t1 - t0) - (s1 - s0))
        spans.append((t0, t1))
    speed.stop()
    job_norm_s = [t / speed.slowdown(*span) for t, span in zip(job_s, spans)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = {}
    if tracer is not None:
        metrics = tracer.metrics()
        tracer.uninstall()

    if args.corrupt and answers[0] is not None:
        answers[0] = workload.corrupt(answers[0])
    passed = []
    for job, answer in zip(jobs, answers):
        ok = False
        if answer is not None:
            try:
                ok = bool(workload.check(job, answer))
            except Exception:
                errors.append(traceback.format_exc())
        passed.append(ok)

    print(json.dumps({
        "job_s": job_s, "job_norm_s": job_norm_s,
        "slowdown": speed.slowdown(),
        "ref_samples": len(speed.times),
        "peak_rss_mib": peak_rss_mib, "passed": passed,
        "digests": [None if a is None else workload.digest(a)
                    for a in answers],
        "errors": errors, "trace": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
