"""Benchmark harness for the dihedralcat exact engine.

One closed-loop client: the parent starts one single-threaded child at a
time (perfbench/child.py), and each child runs one pass of a workload, one
job at a time, with every in-process cache empty.  The parent turns the
passes into metrics and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
        end-to-end metrics from as many whole passes as fit in S seconds
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
        one untraced and one traced pass: per-layer metrics and the
        tracing overhead; the traced answers must equal the untraced ones
    python3 perfbench/run.py --workload all ...
        every workload in turn, metrics named WORKLOAD/METRIC
    python3 perfbench/run.py --selftest
        each checker must reject a corrupted answer
    python3 perfbench/run.py --hashseed-check
        traced counts must not depend on PYTHONHASHSEED

Run it from the root of a checkout; it imports the engine from src/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import idle_slowdown

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("whitehead-hhh", "braid-sweep-m3", "indecomposables-m5",
             "serre-relative-m3")
BUDGET_S = 170          # a run must end within 180 s
SETUP_SAMPLES = 11      # set-ups timed per run; setup_s is their median
SETUP_REF_SAMPLES = 6   # reference samples on each side of a set-up
# Job-latency percentiles need many jobs of one kind.  Below this many jobs
# per pass, a percentile would pick one job of a fixed, mixed-size list, so
# the pass counts as the job.
MIN_JOBS_FOR_PERCENTILES = 20
HASH_SEED = "0"         # children get a fixed hash seed, so runs repeat

# Per-layer metrics that must be non-zero on the workload that exercises
# them; the field and ring counts on every workload.
REQUIRED = {
    "*": ("field.FieldScalar.inverse.calls", "field.FieldScalar.mul.calls",
          "field.FieldScalar.add.calls", "ring.RingElement.mul.calls"),
    "whitehead-hhh": (
        "modules.ModuleGB.init.calls", "modules.ModuleGB.lift.calls",
        "modules.minimalize_columns.calls",
        "homology.presented_homology.calls",
        "trace.hochschild_on_complex.calls"),
    "indecomposables-m5": (
        "linalg.sparse_kernel_basis.calls", "bimodule.hom_degree_basis.calls",
        "complexes.indecomposable_b.misses",
        "complexes.indecomposable_b.hits"),
    "braid-sweep-m3": (
        "bimodule.tensor.calls", "bimodule.mat_mul.calls",
        "complexes.tensor_complex.calls", "complexes.minimal_form.calls",
        "complexes.gaussian_eliminate.calls", "bimodule.is_invertible.calls",
        "complexes.split_atoms.calls", "complexes.decompose_bimodule.calls"),
    "serre-relative-m3": (
        "trace.pi_on_complex.calls", "complexes.complexes_isomorphic.calls",
        "complexes.chain_map_basis.calls"),
}


class BenchError(RuntimeError):
    pass


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(workload, seed, deadline, *flags, hash_seed=HASH_SEED):
    """Run one child to completion.  Returns (setup_s, result); result is
    None for a set-up-only child."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget of %d s used up" % BUDGET_S)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    # Let the first child write the bytecode caches, so that every set-up
    # after it imports warm, as a user's repeated CLI calls do, whatever
    # the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + list(flags), stdout=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError("child %s exited with code %s" % (workload, code))
    if "--setup-only" in flags:
        return setup_s, None
    result = json.loads(rest.splitlines()[-1])
    for err in result["errors"]:
        sys.stderr.write(err)
    return setup_s, result


def timed_setup(workload, seed, deadline):
    """One set-up at the reference host speed: a set-up-only child's time
    over the host slowdown measured here just before and just after it."""
    before = idle_slowdown(SETUP_REF_SAMPLES)
    setup_s = spawn(workload, seed, deadline, "--setup-only")[0]
    after = idle_slowdown(SETUP_REF_SAMPLES)
    return setup_s / ((before + after) / 2)


def _p80(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=5, method="inclusive")[3]


def _failed(result):
    return sum(not ok for ok in result["passed"])


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics from whole passes: another pass starts only while
    one more, as long as the last, still ends within `seconds`."""
    start = time.monotonic()
    passes = []
    while True:
        begun = time.monotonic()
        passes.append(spawn(workload, seed, deadline)[1])
        now = time.monotonic()
        if now - start + (now - begun) > seconds:
            break
    setups = [timed_setup(workload, seed, deadline)
              for _ in range(SETUP_SAMPLES)]
    solve = [sum(p["job_norm_s"]) for p in passes]
    if len(passes[0]["job_s"]) >= MIN_JOBS_FOR_PERCENTILES:
        job_s = [t for p in passes for t in p["job_norm_s"]]
    else:
        job_s = solve

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_norm_s": (statistics.median(solve), "s"),
        "job_p50_norm_s": (statistics.median(job_s), "s"),
        "job_p80_norm_s": (_p80(job_s), "s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"]
                                           for p in passes), "MiB"),
    }
    attempted = sum(len(p["passed"]) for p in passes)
    failed = sum(_failed(p) for p in passes)
    same = all(p["digests"] == passes[0]["digests"] for p in passes)
    if not same:
        sys.stderr.write("# %s: passes gave different answers\n" % workload)
    sys.stderr.write("# %s: %d passes, %d latency samples, %d set-ups, "
                     "fail_frac %g (%d/%d)\n"
                     % (workload, len(passes), len(job_s), len(setups),
                        failed / attempted, failed, attempted))
    for p in passes:
        sys.stderr.write("#   pass: solve %.4f s as measured, host slowdown "
                         "%.4f from %d reference samples\n"
                         % (sum(p["job_s"]), p["slowdown"],
                            p["ref_samples"]))
    return same and failed == 0, attempted, failed, metrics


def measure_traced(workload, seed, deadline, per_layer):
    """Per-layer metrics from one traced pass, checked against an untraced
    pass of the same inputs."""
    plain = spawn(workload, seed, deadline)[1]
    traced = spawn(workload, seed, deadline, "--trace")[1]
    counters = traced["trace"]
    plain_s, traced_s = sum(plain["job_s"]), sum(traced["job_s"])
    overhead = traced_s / plain_s
    counters["tracing_overhead"] = overhead
    ok = True
    if traced["digests"] != plain["digests"]:
        sys.stderr.write("# %s: traced answers differ from untraced\n"
                         % workload)
        ok = False
    for name in REQUIRED["*"] + REQUIRED.get(workload, ()):
        if not counters.get(name):
            sys.stderr.write("# %s: %s is 0\n" % (workload, name))
            ok = False
    metrics = {m["name"]: (counters.get(m["name"], 0), m["unit"])
               for m in per_layer}
    attempted = len(plain["passed"]) + len(traced["passed"])
    failed = _failed(plain) + _failed(traced)
    sys.stderr.write("# %s: tracing overhead %.3f (traced solve %.4f s / "
                     "untraced %.4f s), fail_frac %g (%d/%d)\n"
                     % (workload, overhead, traced_s,
                        plain_s, failed / attempted, failed,
                        attempted))
    return ok and failed == 0, attempted, failed, metrics


def selftest(deadline):
    """Each checker must pass the true answers and reject a corrupted one.
    Runs on the first few jobs of each workload, to stay short."""
    limits = {"whitehead-hhh": 1, "braid-sweep-m3": 4,
              "indecomposables-m5": 4, "serre-relative-m3": 1}
    ok = True
    for workload in WORKLOADS:
        flags = ("--limit", str(limits[workload]))
        good = spawn(workload, 1, deadline, *flags)[1]
        bad = spawn(workload, 1, deadline, "--corrupt", *flags)[1]
        frac_good = _failed(good) / len(good["passed"])
        frac_bad = _failed(bad) / len(bad["passed"])
        passed = frac_good == 0 and frac_bad > 0
        ok = ok and passed
        print("selftest %-20s fail_frac true %g, corrupted %g: %s"
              % (workload, frac_good, frac_bad, "ok" if passed else "FAILED"))
    return ok


def hashseed_check(workloads, deadline):
    """Traced counts (every metric but times) under two hash seeds."""
    ok = True
    for workload in workloads:
        counts = []
        for hash_seed in ("1", "2"):
            trace = spawn(workload, 1, deadline, "--trace",
                          hash_seed=hash_seed)[1]["trace"]
            counts.append({k: v for k, v in trace.items()
                           if not k.endswith("_s")})
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        ok = ok and not diff
        print("hashseed %-20s %d counts, %s"
              % (workload, len(counts[0]),
                 "identical" if not diff else "DIFFER: %s" % diff))
        print(json.dumps({"workload": workload, "counts": counts[0]},
                         sort_keys=True))
    return ok


def report(correct, attempted, failed, metrics):
    for name, (value, unit) in metrics.items():
        sys.stderr.write("%-48s %14.6g %s\n" % (name, value, unit))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--hashseed-check", action="store_true")
    args = ap.parse_args()

    spec = _load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    deadline = time.monotonic() + BUDGET_S
    if args.selftest:
        return 0 if selftest(deadline) else 1
    if args.hashseed_check:
        chosen = WORKLOADS if args.workload in (None, "all") \
            else (args.workload,)
        return 0 if hashseed_check(chosen, time.monotonic() + 4 * BUDGET_S) \
            else 1
    if args.workload is None:
        ap.error("--workload is required")

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    if len(chosen) > 1:
        deadline = time.monotonic() + BUDGET_S * len(chosen)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in chosen:
        if args.trace:
            out = measure_traced(workload, args.seed, deadline,
                                 spec["per_layer"])
        else:
            out = measure(workload, args.seed, seconds, deadline)
        correct = correct and out[0]
        attempted += out[1]
        failed += out[2]
        prefix = workload + "/" if len(chosen) > 1 else ""
        metrics.update({prefix + k: v for k, v in out[3].items()})
    report(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        sys.exit(1)
