"""Benchmark entry point.

Run from the root of a checkout::

    python3 bench/run.py --workload spectrum-point --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the machine record.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics and writes the span
file.  Records and spans go to ``.bench_out/``.  See bench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Fresh interpreters timed per run; setup_s is their median.
SETUP_SAMPLES = 7
# A run must end within 180 s.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env(root):
    """One BLAS thread, HERMITIZE_THREADS unset, the working tree's package."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env.pop("HERMITIZE_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn_worker(root, env, extra, timeout):
    """Start worker.py in a fresh interpreter and return its last JSON line.

    The worker gets its own process group, so a timeout also stops any
    CLI subprocess it started.
    """
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--spawned-at", repr(spawned_at), *extra]
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "hermitize",
                                              "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def machine_facts(root, args, numpy_version):
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {v: "1" for v in BLAS_THREAD_VARS},
        "blas_threads_note": "pinned to 1 in the workload processes",
        "blas_threads_caller": {v: os.environ.get(v)
                                for v in BLAS_THREAD_VARS},
        "hermitize_threads_caller": os.environ.get("HERMITIZE_THREADS"),
        "hermitize_threads_workload": None,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hermitize",
                                       "__init__.py")):
        print("error: run from the root of a hermitize checkout "
              "(src/hermitize not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = worker_env(root)

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = spawn_worker(root, env, [
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", "0", "--setup-only"], remaining())
                setups.append(probe["setup_s"])
        extra = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", os.path.join(out_dir, stem + ".spans.jsonl")]
        res = spawn_worker(root, env, extra, remaining())
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record = {
        "facts": machine_facts(root, args, res["numpy"]),
        "passes": res["passes"], "ops_per_pass": res["ops_per_pass"],
        "by_kind": res["by_kind"],
        "setup_samples_s": setups, "failures": res["failures"],
        "absent_metrics": res["absent"],
    }
    summary = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(out_dir, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(record, result=summary), fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
