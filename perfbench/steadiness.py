"""Run-to-run spread of the end-to-end metrics over seeds, against the bounds.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workloads spectrum-nonnormal --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 --out perfbench/results/steadiness.json

Runs ``run.py --trace 0`` once per (set, workload, seed), one at a time, for
``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end metric it
reports the values, their median and the spread (Q3 - Q1) / median, with
Q1 and Q3 from ``statistics.quantiles(values, n=4)``, and whether that
spread is below a third of the metric's bound (``setup_s`` is exempt).  With
two sets it also reports how much worse the second set's median is than the
first's, as a share of the first, against the full bound, and whether
both sets attempted and failed the same operations for each seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    """The result line of one run, with the run's wall time added as ``wall_s``."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    """How much worse the second median is than the first, as a share of the first."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = seed_range(args.seeds)
    report = {"run_seconds": seconds, "seeds": seeds, "sets": args.sets, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [[run_once(workload, seed, seconds) for seed in seeds]
                for _ in range(args.sets)]
        entry = {"attempted": [[r["attempted"] for r in s] for s in runs],
                 "failed": [[r["failed"] for r in s] for s in runs],
                 "wall_s": [[r["wall_s"] for r in s] for s in runs],
                 "correct": all(r["correct"] for s in runs for r in s),
                 "metrics": {}}
        if args.sets == 2:
            entry["counts_agree"] = (entry["attempted"][0] == entry["attempted"][1]
                                     and entry["failed"][0] == entry["failed"][1])
            steady &= entry["counts_agree"]
            print(f"{workload:20s} attempted {entry['attempted']} failed {entry['failed']}",
                  flush=True)
        for name, spec in metrics.items():
            sets = [[r["metrics"][name]["value"] for r in s] for s in runs]
            row = {"bound": spec["bound"], "values": sets,
                   "median": [statistics.median(v) for v in sets],
                   "spread": [spread(v) for v in sets]}
            row["spread_ok"] = name == "setup_s" or all(
                s < spec["bound"] / 3 for s in row["spread"])
            if args.sets == 2:
                row["second_vs_first"] = worsening(sets[0], sets[1], spec["better"])
                row["second_ok"] = row["second_vs_first"] <= spec["bound"]
            steady &= row["spread_ok"] and row.get("second_ok", True)
            entry["metrics"][name] = row
            print(f"{workload:20s} {name:12s} median {row['median']} "
                  f"spread {['%.4f' % s for s in row['spread']]} bound {spec['bound']}"
                  + (f" second-vs-first {row['second_vs_first']:+.4f}" if args.sets == 2 else ""),
                  flush=True)
        report["workloads"][workload] = entry
    report["steady"] = steady
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
