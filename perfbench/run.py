"""Benchmark of timbrebridge: training, the sigma_top sweep, corpus synthesis and scoring.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,sigma_sweep,corpus_eval} \\
        --seed N --seconds S --trace {0,1}

It builds the workload's inputs from the seed (the timed, cold set-up), then
repeats whole rounds of the same work until ``--seconds`` have passed, checks
the outputs, and prints one JSON object as the last line of standard output.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
traces every public function of the package in every round and reports
per-layer figures and the tracing overhead. See README.md in this directory.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: on a small shared machine a second one adds more spread than speed;
# set before anything loads numpy
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "sigma_sweep", "corpus_eval")


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        before_t0 = time.clock_gettime(time.CLOCK_BOOTTIME) - started - (time.perf_counter() - T0)
    except (OSError, ValueError, IndexError, AttributeError):
        before_t0 = 0.0
    return max(before_t0, 0.0) + (time.perf_counter() - T0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "timbrebridge" / "__init__.py").is_file():
        print(f"error: no timbrebridge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    probe = SpeedProbe()
    probe.start()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        return measure(args, probe, workdir, out_dir)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, probe: SpeedProbe, workdir: Path, out_dir: Path) -> int:
    # imported here, once the sources are on the path and the probe samples set-up
    import timbrebridge
    import workloads
    from tracer import PHASE, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer(timbrebridge, workloads.PROBES) if args.trace else None
    with tracer.active("setup") if tracer else contextlib.nullcontext():
        wl.setup()
    t_setup = time.perf_counter()
    spent, factor = probe.interval(T0, t_setup)
    setup_raw = process_age()
    setup_s = (setup_raw - spent) * factor
    factors = {"setup": factor}

    # whole rounds until the time is up; a traced run traces every round
    rounds = []  # (calibrated seconds, wall seconds, completed)
    attempted = failed = 0
    first = None
    summaries = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        index = len(rounds)
        attempted += wl.ops_per_round
        t = time.perf_counter()
        try:
            with tracer.active(index) if tracer else contextlib.nullcontext():
                output = wl.run_round(index)
            good = True
        except Exception:
            traceback.print_exc()
            failed += wl.ops_per_round
            good = False
        t_end = time.perf_counter()
        spent, factors[index] = probe.interval(t, t_end)
        rounds.append(((t_end - t - spent) * factors[index], t_end - t, good))
        if good:
            summaries.append(wl.summary(output))
            if first is None:
                first = output
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.stop()

    correct = first is not None
    t_checks = time.perf_counter()
    if correct:
        try:
            wl.verify(first, summaries)
        except Exception:
            traceback.print_exc()
            correct = False
    t_checks = time.perf_counter() - t_checks

    completed = [i for i, (_, _, good) in enumerate(rounds) if good]
    ops_per_s = statistics.median([wl.ops_per_round / rounds[i][0] for i in completed] or [0.0])
    # the same throughput in uncalibrated wall seconds, to show what calibration did
    wall_ops_per_s = statistics.median([wl.ops_per_round / rounds[i][1] for i in completed] or [0.0])
    if tracer:
        metrics = workloads.layer_figures(tracer.spans, completed, factors)
        phases = set(completed)
        spans_per_round = sum(1 for s in tracer.spans if s[PHASE] in phases) / max(1, len(completed))
        round_s = statistics.median([rounds[i][1] for i in completed] or [float("inf")])
        metrics["trace.overhead_pct"] = (100.0 * tracer.call_cost() * spans_per_round / round_s, "%")
        metrics["trace.spans_per_round"] = (spans_per_round, "count")
        metrics["run.ops_per_s"] = (ops_per_s, "1/s")
        metrics["run.wall_ops_per_s"] = (wall_ops_per_s, "1/s")
        with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(tracer.spans, fh)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_per_s": (ops_per_s, "1/s"),
        }

    print(f"workload {args.workload}: {len(rounds)} rounds of {wl.ops_per_round} x {wl.op}")
    print(f"setup: {setup_raw:.4f} s wall, {setup_s:.4f} s calibrated")
    print(f"ops_per_s: {ops_per_s:.4f} calibrated, {wall_ops_per_s:.4f} per wall second")
    print(
        "rounds (calibrated/wall s): "
        + " ".join(f"{c:.3f}/{w:.3f}{'' if good else ' failed'}" for c, w, good in rounds)
    )
    print(f"checks: {t_checks:.2f} s wall, {'passed' if correct else 'FAILED'}")
    print("environment " + json.dumps(environment()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
