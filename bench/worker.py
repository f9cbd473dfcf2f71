"""The workload process: import the package, run one workload, report.

Started by ``run.py`` as a fresh interpreter, so that ``setup_s`` (spawn
to ``import hermitize`` done) is measured in the process that then runs the
workload.  Prints one JSON object as its last line of output.
"""

import time

import hermitize as hz

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def fail_rate_bound(failed, attempted, alpha=0.05):
    """One-sided Clopper-Pearson upper bound on the failure probability.

    The point estimate failed / attempted reads 0 on a clean run, and a
    benchmark metric must never be 0; the upper confidence bound is the
    failure rate the run can rule out, and it falls as more operations
    succeed.  With no failure it is 1 - alpha^(1/attempted).
    """
    if failed >= attempted:
        return 1.0

    def cdf(p):  # P(X <= failed) for X ~ Binomial(attempted, p)
        return sum(math.exp(math.lgamma(attempted + 1) - math.lgamma(k + 1)
                            - math.lgamma(attempted - k + 1)
                            + k * math.log(p)
                            + (attempted - k) * math.log1p(-p))
                   for k in range(failed + 1))

    lo, hi = failed / attempted, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cdf(mid) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def run_one(w, i, op, tr):
    """Time one op, then check it: (index, kind, seconds, failure reason
    or None, whether its class is a known defect)."""
    with tr.span("op", kind=op.kind):
        t0 = time.perf_counter()
        try:
            out, reason = w.run(hz, op, tr), None
        # A raise is a failed operation, and the loop must go on.
        except Exception as exc:  # noqa: BLE001
            out, reason = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    if reason is None:
        try:
            reason = w.check(op, out)
        except Exception as exc:  # noqa: BLE001
            reason = f"check raised {type(exc).__name__}: {exc}"
    return i, op.kind, dt, reason, w.known_defect(op)


def run_pass(w, ops, log):
    log.extend(run_one(w, i, op, NullTracer()) for i, op in enumerate(ops))


def run_paired(w, ops, tr, plain_log, traced_log):
    """Each op untraced and traced back to back, alternating which goes
    first, so drift in machine speed cancels out of the overhead ratio."""
    for i, op in enumerate(ops):
        order = [(NullTracer(), plain_log), (tr, traced_log)]
        for tracer, log in order[::1 if i % 2 == 0 else -1]:
            log.append(run_one(w, i, op, tracer))


def summarize(log):
    """attempted, failed, correct and the failure list of a log."""
    failures = [(kind, reason, known) for _, kind, _, reason, known in log
                if reason is not None]
    correct = all(known for _, _, known in failures)
    return len(log), len(failures), correct, failures


def busy(log):
    return sum(dt for _, _, dt, _, _ in log)


def by_kind(log):
    """Per input class: count, total seconds, median milliseconds."""
    kinds = {}
    for _, kind, dt, _, _ in log:
        kinds.setdefault(kind, []).append(dt)
    return {k: [len(v), sum(v), float(np.median(v)) * 1e3]
            for k, v in sorted(kinds.items())}


def end_to_end(w, log, ops):
    lat = np.array([dt for _, _, dt, _, _ in log])
    # Later passes repeat the same inputs, so the failure rate is taken
    # over distinct inputs: one that failed in any pass counts once.
    failed_inputs = {i for i, _, _, reason, _ in log if reason is not None}
    who = (resource.RUSAGE_CHILDREN if isinstance(w, workloads.CliSession)
           else resource.RUSAGE_SELF)
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB
    return {
        "ops_per_s": (len(lat) / lat.sum(), "1/s"),
        "op_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        "fail_rate": (fail_rate_bound(len(failed_inputs), len(ops)), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    result = {"setup_s": IMPORTED - args.spawned_at,
              "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    w = workloads.make(args.workload, args.root)
    rng = np.random.default_rng(
        [args.seed, workloads.NAMES.index(args.workload)])
    ops = w.build(rng)
    log = []
    passes = 0
    if not args.trace:
        # Whole passes, so the input mix is exact; at least --seconds of
        # operation time.
        while passes == 0 or busy(log) < args.seconds:
            run_pass(w, ops, log)
            passes += 1
        metrics = end_to_end(w, log, ops)
        absent = {}
    else:
        tr = Tracer()
        traced_log = []
        run_paired(w, ops, tr, log, traced_log)
        metrics, absent = layers.measure(tr, args.root)
        # Median over ops of traced / untraced time, so the few slowest
        # ops do not decide it.
        ratio = np.median([t[2] / p[2] for p, t in zip(log, traced_log)])
        metrics["trace.overhead_ratio"] = (float(ratio), "ratio")
        log += traced_log
        passes = 2
        if args.spans:
            tr.write(args.spans)
    attempted, failed, correct, failures = summarize(log)
    result.update(
        attempted=attempted, failed=failed, correct=correct, passes=passes,
        ops_per_pass=len(ops), by_kind=by_kind(log),
        failures=[{"kind": k, "reason": r, "known_defect": known}
                  for k, r, known in failures],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        absent=absent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
