"""Run one workload of the treatalloc benchmark and print its metrics.

    python3 bench/run.py --workload cli-pipeline --seed 0 --seconds 40 --trace 0

The workload's inputs are built from ``--seed`` (set-up, timed as
``setup_s``), then whole rounds of the same operations run until the next
round would end past ``--seconds``. Every output is checked. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics (medians over the rounds)
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The program is imported from ``src/`` next to this directory; without it the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Numeric worker threads, here and in every CLI child (which inherits the
# environment); at most nproc. Set before numpy loads.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
WORKLOAD_NAMES = ("cli-pipeline", "train-dfl", "scale-1m")
END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("train_s", "s"),
    ("decide_s", "s"),
    ("true_revenue", "revenue/row"),
    ("peak_rss_mb", "MB"),
)


def peak_rss_mb(rounds) -> float:
    """Peak resident set of this process plus the largest peak of one child;
    the two may not coincide, so this bounds the peak of the process tree."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + max(r.child_peak_mb for r in rounds)


def typical_round(rounds) -> dict[str, float]:
    """End-to-end timings of a typical round: each timed call's median over
    the rounds, summed per metric. A burst of load on the machine then moves
    one sample of a call, not the figure."""
    values = {"total_s": 0.0, "train_s": 0.0, "decide_s": 0.0}
    for key in rounds[0].times:
        seconds = statistics.median(r.times[key] for r in rounds if key in r.times)
        values["total_s"] += seconds
        if key[0]:
            values[key[0]] += seconds
    return values


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, run rounds; returns rounds, set-up seconds, tracer and the
    number of spans recorded during set-up."""
    from tracer import Tracer
    from workloads import Round

    tracer = Tracer(workload.name) if trace else None
    if tracer:
        tracer.install()
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            setup_dir = workdir / f"setup{i}"
            setup_dir.mkdir()
            ctx = None  # release the previous set-up before building the next
            start = time.perf_counter()
            ctx = workload.setup(seed, setup_dir)
            setups.append(time.perf_counter() - start)
        if tracer:
            tracer.mark_rss("setup")
        setup_spans = len(tracer.spans) if tracer else 0

        rounds = []
        start = time.perf_counter()
        while True:
            rnd = Round(tracer)
            workload.round(ctx, rnd, len(rounds))
            rounds.append(rnd)
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    return rounds, setups, tracer, setup_spans


def report(workload, seed: int, rounds, setups, tracer, setup_spans) -> tuple[dict, list[str]]:
    from tracer import PER_LAYER

    problems = [p for r in rounds for p in r.problems]
    errors = [e for r in rounds for e in r.errors]
    if any(r.revenues != rounds[0].revenues for r in rounds):
        problems.append("true revenue differs between rounds of the same inputs")
    revenues = rounds[0].revenues
    lines = [f"workload {workload.name} seed {seed}: {len(rounds)} rounds, "
             f"{sum(r.attempted for r in rounds)} operations"]
    lines += [f"FAILED CHECK {p}" for p in problems[:20]]
    lines += [f"FAILED {e}" for e in errors[:20]]

    if tracer:
        values = tracer.summary(setup_spans, len(setups), len(rounds))
        # total_s as an untraced run computes it; the difference is the
        # tracing overhead (CLI processes are not traced themselves)
        values["trace.total_s"] = typical_round(rounds)["total_s"]
        units = dict(PER_LAYER)
        absent = [name for name, v in values.items() if v == 0 and name.endswith("_s")]
        if absent:
            lines.append("not run by this workload: " + " ".join(absent))
        path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(path)
        lines.append(f"{len(tracer.spans)} spans written to {path.relative_to(HERE.parent)}")
    else:
        values = typical_round(rounds)
        values["setup_s"] = statistics.median(setups)
        values["true_revenue"] = math.fsum(revenues) / len(revenues) if revenues else 0.0
        values["peak_rss_mb"] = peak_rss_mb(rounds)
        units = dict(END_TO_END)
        values = {name: values[name] for name, _ in END_TO_END}
    lines += [f"{name} = {value!r} {units[name]}" for name, value in values.items()
              if not tracer or value]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treatalloc" / "__init__.py").is_file():
        print(f"error: treatalloc sources not found under {SRC}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    import workloads  # loads numpy, after the thread cap

    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        measured = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result, lines = report(workload, args.seed, *measured)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
