"""Benchmark sepinv's time to a verdict.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload runs in its own fresh single-threaded process, one after
another.  The process repeats the workload's jobs in passes for --seconds
seconds (always whole passes), checks every result, and reports:

    pass_s        median wall seconds of one pass, tracing off
    peak_rss_mib  peak resident set of the workload's process
    setup_s       process start to the first timed pass, median of several
                  starts (importing sepinv and generating the inputs)

With --trace 1 it reports the per-layer metrics of tracing.METRICS instead,
from passes with sepinv's public functions wrapped, and writes the spans to
perfbench/out/.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reproduce", "symmetric", "monomial", "points")
SETUP_STARTS = 8    # set-up-only starts per run, besides the measured one
DEADLINE_S = 170    # a run must end within 180 s
DEFAULT_SEED = 1


class BenchError(Exception):
    pass


def _worker(args, deadline):
    """Run worker.py to completion; return its last JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        # run() has killed the worker and waited for it
        raise BenchError("worker timed out: " + " ".join(args))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {done.returncode}: "
                         + " ".join(args))
    return json.loads(lines[-1])


def _timed_start(args, deadline):
    started = time.monotonic()
    out = _worker(args, deadline)
    return out, out["ready"] - started


def run_workload(name, seed, seconds, trace, deadline):
    base = ["--workload", name, "--seed", str(seed)]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{name}-seed{seed}.bin"
        out, _ = _timed_start(
            base + ["--seconds", str(seconds), "--trace", "1",
                    "--trace-out", str(path)], deadline)
        metrics = {m: {"value": out["layers"][m], "unit": tracing.unit(m)}
                   for m in tracing.METRICS}
        note = (f"{len(out['traced_passes'])} traced and "
                f"{len(out['passes'])} untraced passes; spans in "
                f"{path.relative_to(ROOT)}")
    else:
        setups = [_timed_start(base + ["--setup-only"], deadline)[1]
                  for _ in range(SETUP_STARTS)]
        out, setup = _timed_start(base + ["--seconds", str(seconds)],
                                  deadline)
        setups.append(setup)
        metrics = {
            "pass_s": {"value": median(out["passes"]), "unit": "s"},
            "peak_rss_mib": {"value": out["peak_rss_mib"], "unit": "MiB"},
            "setup_s": {"value": median(setups), "unit": "s"},
        }
        note = (f"pass_s is the median of {len(out['passes'])} passes, "
                f"setup_s the median of {len(setups)} starts")
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics, "note": note}


def _print_block(name, result):
    print(f"{name}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, correct: "
          f"{str(result['correct']).lower()} ({result['note']})")
    for metric, v in result["metrics"].items():
        print(f"  {metric:44s} {v['value']:>14.6g} {v['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sepinv" / "__init__.py").is_file():
        print(f"no sepinv source tree at {ROOT / 'src' / 'sepinv'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, deadline)
            _print_block(name, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        metrics = {f"{name}.{m}": v for name, r in results.items()
                   for m, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
