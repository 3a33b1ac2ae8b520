"""Moira benchmark: one workload, one fresh process, one JSON line.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the program is imported from
``src/``.  Each run

1. sets the deployment up ``SETUPS`` times (build at the paper's
   10k-user design point, the workload's set-up convergence, warm-up)
   and reports the median as ``setup_s``, keeping the last deployment;
2. runs the workload's closed loop in whole rounds until ``--seconds``
   have passed;
3. checks every output against answers computed apart from the
   program;
4. prints one JSON object as its last line of standard output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` then builds
one more deployment with the benchmark's tracing wrappers installed
(see ``tracing.py``), runs the same loop again, and prints the
per-layer metrics together with ``trace.overhead.*``: the traced minus
the untraced value of each end-to-end metric.  The command exits 1
when a check fails and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lookup", "churn", "propagation"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload_class(name):
    if name == "lookup":
        from lookup import Lookup
        return Lookup
    if name == "churn":
        from churn import Churn
        return Churn
    from propagation import Propagation
    return Propagation


def _measure(workload, seconds):
    from common import timed_phase
    deadline = time.perf_counter() + seconds
    return timed_phase(lambda: workload.run(deadline))


def _setup_once(workload):
    t0 = time.perf_counter()
    parts = workload.setup()
    workload.warmup()
    return time.perf_counter() - t0, parts


def main(argv) -> int:
    args = _parse(argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro.core  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    workload = _workload_class(args.workload)(args.seed, workdir)
    try:
        setups, parts = [], []
        for i in range(SETUPS):
            if i:
                workload.teardown()
                gc.collect()
            seconds, part = _setup_once(workload)
            setups.append(seconds)
            parts.append(part)
        setup_s = statistics.median(setups)
        phase = _measure(workload, args.seconds)
        problems = workload.check()
        e2e = phase.end_to_end(workload.tail_pct, setup_s)
        attempted, failed = phase.attempted, phase.failed
        if args.trace:
            import tracing
            workload.teardown()
            gc.collect()
            tracer = tracing.Tracer(workload)
            with tracer:
                traced_setup, traced_parts = _setup_once(workload)
                tracer.start(workload)
                traced = _measure(workload, args.seconds)
                tracer.stop(workload)
                problems += workload.check()
            metrics = tracer.per_layer(traced, traced_parts,
                                       setup_parts=parts)
            traced_e2e = traced.end_to_end(workload.tail_pct,
                                           traced_setup)
            for key, (value, unit) in e2e.items():
                metrics[f"trace.overhead.{key}"] = (
                    traced_e2e[key][0] - value, unit)
            attempted += traced.attempted
            failed += traced.failed
        else:
            metrics = e2e
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    # A fixed string-hash seed: dict and set layouts then repeat from
    # run to run, which removes one source of process-to-process spread
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__),
                   *sys.argv[1:]], env)
    sys.exit(main(sys.argv[1:]))
