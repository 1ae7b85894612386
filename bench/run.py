"""One run of one prymlab benchmark workload.

    python3 bench/run.py --workload verify --seed 3 --seconds 30 --trace 0

The library is imported from the checkout's src/ directory.  A run sets
the workload up from the seed, repeats passes until --seconds are spent
(at least MIN_PASSES), judges every output exactly, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json:
wall_s (median seconds per pass) and setup_s (median of SETUP_SAMPLES
set-ups, each in a fresh interpreter) are calibrated to a fixed host
speed (see reference.py), peak_rss_mb is this process's peak resident
memory, and pass_ratio is passed over attempted exact verdicts.  With
--trace 1 they are the per_layer list, from spans recorded in separate
traced passes and from one cProfile pass that gives call counts.  The
line before the result stamps the environment and gives the raw,
uncalibrated medians with the pass count; the full record of the run
(every pass, and the spans of a traced run) is written to bench/out/.
Without the sources the run exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
OUT = BENCH_DIR / "out"
MIN_PASSES = 3
SETUP_SAMPLES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "exact-scale", "float-flows"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter, then the reference loop; "
                             "print both in seconds and exit")
    return parser.parse_args(argv)


def _setup(workload: str, seed: int):
    """Import prymlab and generate the seeded inputs; (seconds, jobs)."""
    start = time.perf_counter()
    import workloads
    jobs = workloads.setup(workload, seed)
    return time.perf_counter() - start, jobs


def _fresh_setup(workload: str, seed: int) -> tuple[float, float]:
    """(raw, calibrated) set-up seconds measured inside a fresh interpreter."""
    from reference import REFERENCE_S

    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          capture_output=True, text=True, check=True, timeout=120)
    setup, ref = map(float, done.stdout.split()[-2:])
    return setup, setup * REFERENCE_S / ref


def _commit():
    if not (CHECKOUT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _measure(jobs, seconds: float, traced: bool):
    """Untraced passes, alternating with traced ones when `traced`, until
    the next round would overrun `seconds`; (untraced, traced, tracer)."""
    import spans
    import workloads

    tracer = spans.Tracer()
    untraced, traced_passes = [], []
    start = time.perf_counter()
    while True:
        untraced.append(workloads.run_pass(jobs, calibrate=True))
        if traced:
            with spans.instrument(tracer):
                traced_passes.append(workloads.run_pass(jobs, tracer))
        rounds = len(untraced)
        per_round = statistics.median(p.wall for p in untraced)
        if traced:
            per_round += statistics.median(p.wall for p in traced_passes)
        if (traced or rounds >= MIN_PASSES) and time.perf_counter() - start + per_round > seconds:
            return untraced, traced_passes, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "prymlab" / "__init__.py").is_file():
        print(f"bench: no prymlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        seconds = _setup(args.workload, args.seed)[0]
        from reference import reference_seconds
        print(repr(seconds), repr(reference_seconds()))
        return 0

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    own_setup, jobs = _setup(args.workload, args.seed)
    import spans
    import workloads

    setup_samples = ([] if args.trace else
                     [_fresh_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES)])
    untraced, traced, tracer = _measure(jobs, args.seconds, bool(args.trace))
    counts = spans.count_pass(lambda: workloads.run_pass(jobs)) if args.trace else {}
    judged = [p.verdicts for p in untraced + traced]
    attempted = sum(len(v) for v in judged)
    failures = sorted({name for v in judged for name, ok in v if not ok})
    failed = sum(1 for v in judged for _, ok in v if not ok)

    wall = statistics.median(p.wall for p in untraced)
    raw = {"wall_s": wall, "passes": len(untraced)}
    if setup_samples:
        raw["setup_s"] = statistics.median(s for s, _ in setup_samples)
    if args.trace:
        computed = spans.layer_metrics(tracer, len(traced))
        computed.update(spans.suite_seconds(jobs, untraced))
        computed.update(counts)
        computed["trace.overhead_ratio"] = statistics.median(p.wall for p in traced) / wall
        section = "per_layer"
    else:
        computed = {
            "wall_s": statistics.median(p.calibrated for p in untraced),
            "setup_s": statistics.median(c for _, c in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (attempted - failed) / attempted,
        }
        section = "end_to_end"
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": _commit(), "numpy": importlib.util.find_spec("numpy") is not None,
           "traced_passes": len(traced), "own_setup_s": own_setup}
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "raw": raw, "computed": computed, "failures": failures,
              "setup_samples": setup_samples,
              "jobs": [j.name for j in jobs],
              "passes": [{"wall": p.wall, "calibrated": p.calibrated, "job_seconds": p.job_seconds}
                         for p in untraced],
              "traced_walls": [p.wall for p in traced]}
    if args.trace:
        origin = tracer.spans[0].start
        record["spans"] = [s.to_json(origin) for s in tracer.spans]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    for job_name in failures:
        print(f"bench: failed verdict in {job_name}", file=sys.stderr)

    print(json.dumps({"env": env, "raw": raw}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
