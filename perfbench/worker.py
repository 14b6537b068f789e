"""One workload in one fresh process: set up, then timed passes.

Run by run.py, which reads the JSON object this prints last.  The object
carries the monotonic clock reading at which set-up ended, so the parent
can time set-up from the moment it started this process.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402  (needs the source tree on sys.path)


def run_pass(jobs, report, tracer=None):
    """Run every job once; return (seconds spent in the jobs, failed, bad).

    Only the operations are timed; the checks on their results are not.
    A job fails when it raises or fails its check; `bad` counts the
    checks that failed.
    """
    spent = 0.0
    failed = bad = 0
    for job in jobs:
        began = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                result = tracer.root("job." + job.name, job.run)
        except Exception:
            spent += time.perf_counter() - began
            failed += 1
            report(job.name, traceback.format_exc())
            continue
        spent += time.perf_counter() - began
        problems = job.check(result)
        if problems:
            failed += 1
            bad += 1
            report(job.name, "; ".join(problems))
    return spent, failed, bad


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jobs = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    reported = set()

    def report(job, message):
        # one message per job and kind is enough to diagnose a run
        if (job, message) not in reported:
            reported.add((job, message))
            print(f"{args.workload}/{job}: {message}", file=sys.stderr)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.prepare()

    plain, traced, layers = [], [], []
    attempted = failed = bad = 0
    began = time.perf_counter()
    while True:
        started = time.perf_counter()
        spent, f, b = run_pass(jobs, report)
        plain.append(spent)
        attempted += len(jobs)
        failed += f
        bad += b
        if tracer is not None:
            # traced passes alternate with untraced ones, so the overhead
            # compares passes run under the same conditions
            begin = tracer.mark()
            tracer.install()
            try:
                spent, f, b = run_pass(jobs, report, tracer)
            finally:
                tracer.uninstall()
            layers.append(tracer.derive(begin, tracer.mark()))
            traced.append(spent)
            attempted += len(jobs)
            failed += f
            bad += b
        # stop before a round like the last one would run past --seconds,
        # so that a run of long passes does not overshoot by most of a pass
        now = time.perf_counter()
        if now - began + (now - started) > args.seconds:
            break

    out = {
        "ready": ready,
        "correct": bad == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": plain,
    }
    if tracer is None:
        out["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        # counts are exact and the same in every pass: keep them integers
        metrics = {name: (median_low if tracing.unit(name) == "count"
                          else median)(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics[tracing.OVERHEAD] = median(traced) - median(plain)
        out["layers"] = metrics
        out["traced_passes"] = traced
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
