"""Benchmark of the padic-ciphers package.

    python3 bench/run.py --workload {roundtrip,laws,formula,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The package is imported from ``src/``.
The run builds its inputs from the seed, runs whole rounds of the
workload's operations until ``--seconds`` have passed, checks every output
against ``bench/reference.py``, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
the per-layer metrics of the traced run.  The line before it holds the
workload's own figures, the git sha, the Python version and ``nproc``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
LAYERS = ("core", "ciphers", "lipschitz", "analysis", "formula", "cli")


def import_package() -> SimpleNamespace:
    sys.path.insert(0, SRC)
    return SimpleNamespace(**{
        name: importlib.import_module(f"padic_ciphers.{name}")
        for name in ("core", "ciphers", "lipschitz", "analysis", "formula", "cli")
    })


def git_sha() -> str:
    """The checkout's commit, read from .git; "unknown" outside a git clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_ns(workloads) -> float:
    """The calibration's time now: the median of three, the first of which
    also warms it up in a fresh interpreter."""
    return statistics.median(workloads.reference_ns() for _ in range(3))


def setup_seconds(workload: str, seed: int, workloads) -> tuple[float, float]:
    """Median time, as measured and calibrated, that a fresh interpreter takes
    to import the package and build the workload's inputs.  Each child times
    just that, and the calibration around it."""
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    raw, calibrated = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(argv, check=True, timeout=150, capture_output=True, text=True)
        sample = json.loads(out.stdout.splitlines()[-1])
        raw.append(sample["setup_ns"] / 1e9)
        calibrated.append(raw[-1] * workloads.CAL_REF_NS / sample["cal_ns"])
    return statistics.median(raw), statistics.median(calibrated)


def startup_seconds(workloads) -> float:
    """Median wall time of a fresh interpreter importing padic_ciphers.cli."""
    argv = [sys.executable, "-c", "import padic_ciphers.cli"]
    times = []
    for _ in range(SETUP_SAMPLES):
        rc, ns, _ = workloads.launch(argv, dict(os.environ, PYTHONPATH=SRC))
        if rc != 0:
            raise subprocess.CalledProcessError(rc, argv)
        times.append(ns / 1e9)
    return statistics.median(times)


def peak_rss_mib(wl) -> float:
    """Peak resident memory of the benchmark process; for ``cli``, whose work
    happens in the commands it starts, of the largest command.  ru_maxrss is
    in KiB on Linux."""
    if wl.name == "cli":
        return wl.peak_rss_kib / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rounds(wl, tally, tracer, until: float, stop=lambda: False) -> int:
    """Whole rounds until the clock passes ``until`` (at least one)."""
    rounds = 0
    while True:
        wl.run_round(tally, tracer)
        tally.end_round()
        rounds += 1
        if time.perf_counter() >= until or stop():
            return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="how long to measure (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time importing the package and building the inputs, print "
                         "that time, and exit (one sample of setup_s)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "padic_ciphers", "__init__.py")):
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH)
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    workdir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_only:
            before = calibration_ns(workloads)
            t0 = time.perf_counter_ns()
            workloads.WORKLOADS[args.workload](import_package(), args.seed, workdir)
            setup_ns = time.perf_counter_ns() - t0
            cal_ns = statistics.median([before, calibration_ns(workloads)])
            print(json.dumps({"setup_ns": setup_ns, "cal_ns": cal_ns}))
            return 0
        wl = workloads.WORKLOADS[args.workload](import_package(), args.seed, workdir)
        return measure(args, spec, workloads, Tracer, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
        except OSError:
            pass


def measure(args, spec, workloads, Tracer, wl) -> int:
    setup_raw_s, setup_s = setup_seconds(args.workload, args.seed, workloads)
    tally = workloads.Tally(wl.calibration)
    null = workloads.NullTracer()
    if wl.warmup:
        wl.run_round(workloads.Tally(), null)
    tally.calibrate()
    start = time.perf_counter()
    if not args.trace:
        rounds = run_rounds(wl, tally, null, start + args.seconds)
        tally.calibrate()
        metrics = {
            "calibrated_ops_per_s": tally.rate(*wl.KINDS),
            "setup_s": setup_s,
            "peak_rss_mib": peak_rss_mib(wl),
        }
        names = spec["end_to_end"]
    else:
        rounds = tally.plain_rounds = run_rounds(wl, tally, null, start + args.seconds / 2)
        tally.work.clear()  # units of work done under the tracer only
        tracer = Tracer()
        wl.install(tracer)
        try:
            traced_rounds = run_rounds(wl, tally, tracer, start + args.seconds,
                                       lambda: tracer.full)
        finally:
            tracer.restore()
        rounds += traced_rounds
        tally.calibrate()
        round_ns = [ns for _, ns in tally.per_round(wl.KINDS)]
        untraced, traced = round_ns[:tally.plain_rounds], round_ns[tally.plain_rounds:]
        metrics = {name: 0.0 for name in (m["name"] for m in spec["per_layer"])}
        metrics.update(wl.layer_metrics(tracer, tally))
        for layer, ns in tracer.self_ns_by_layer().items():
            if layer in LAYERS:
                metrics[f"{layer}.self_s_per_round"] = ns / 1e9 / traced_rounds
        metrics["cli.startup_s"] = startup_seconds(workloads)
        metrics["trace.overhead_pct"] = 100 * (
            statistics.median(traced) / statistics.median(untraced) - 1)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_out",
                                  f"spans-{args.workload}-seed{args.seed}.tsv"))
        names = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in names}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for line, times in tally.errors.items():
        print(f"failure ({times}x): {line}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "detail": {name: {"value": v, "unit": u} for name, (v, u) in (wl.detail(tally) | {
            "ops_per_s": (tally.rate(*wl.KINDS, calibrated=False), "1/s"),
            "setup_raw_s": (setup_raw_s, "s"),
            "calibration_ms": (statistics.median(c for _, c in tally.cal) / 1e6, "ms"),
        }).items()},
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
