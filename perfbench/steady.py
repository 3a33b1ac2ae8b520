"""Steadiness check: do two sets of fresh-process runs agree?

    python3 perfbench/steady.py --runs 5 [--workloads lookup,churn] [--seconds N]

Runs ``perfbench/run.py`` in fresh processes: two sets of ``--runs``
runs per workload, alternating the workloads inside each set, every run
with its own seed (set one uses seeds 1..N, set two N+1..2N).  For each
end-to-end metric of each workload it prints the median and quartiles
of each set, the spread (interquartile range over the median) of each
set and of both sets together, and whether

* the spread stays within the metric's bound in ``BENCHMARK.json``
  (``setup_s`` is exempt: its bound guards set-up regressions), and
* the second set's median is no worse than the first's by more than
  the bound.

Exit status 0 when every metric agrees, 1 otherwise.  Run it from the
root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    return result


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    sets = [{w: [] for w in workloads}, {w: [] for w in workloads}]
    for index, runs in enumerate(sets):
        for i in range(args.runs):
            seed = index * args.runs + i + 1
            for workload in workloads:
                result = _run(workload, seed, seconds)
                runs[workload].append(result)
                values = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                    for m in metrics)
                print(f"set {index + 1} seed {seed} {workload}: "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']} {values}", flush=True)
    ok = True
    for workload in workloads:
        shares = [[r["failed"] / r["attempted"] for r in s[workload]]
                  for s in sets]
        if len(set(shares[0] + shares[1])) != 1:
            ok = False
            print(f"{workload}: failed share differs between runs: "
                  f"{shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in s[workload]]
                       for s in sets]
            both = per_set[0] + per_set[1]
            rows = []
            for values in per_set + [both]:
                q1, q2, q3 = _quartiles(values)
                rows.append((q1, q2, q3, (q3 - q1) / q2))
            worse = rows[1][1] / rows[0][1] - 1
            if m["better"] == "higher":
                worse = rows[0][1] / rows[1][1] - 1
            spread_ok = name == "setup_s" or all(r[3] <= bound
                                                 for r in rows)
            agree = worse <= bound
            ok = ok and spread_ok and agree
            print(f"{workload:12s} {name:14s} "
                  + " | ".join(f"q1={r[0]:.4g} med={r[1]:.4g} "
                               f"q3={r[2]:.4g} spread={r[3]:.3f}"
                               for r in rows)
                  + f" | worse={worse:+.3f} bound={bound} "
                  + ("ok" if spread_ok and agree else "NOT OK"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
