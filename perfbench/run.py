"""curvband benchmark: seeded workloads, end-to-end metrics, traced layer metrics.

Usage, from the root of a checkout (the library is taken from ``src/``):

    python3 perfbench/run.py --workload spectrum-refine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload

One caller runs a closed loop of operations (the next starts when the last
has returned) with OpenBLAS at its default of one thread per core.  The loop
runs a fixed number of whole rounds of the workload, as many as take
``--seconds`` on the reference host, so one seed always repeats the same
operations; every operation's output is checked (see ``workloads.py``).
A ``cli-runs`` operation is timed inside its fresh interpreter, from the
call to ``curvband.cli.main`` to its return; ``setup_s`` times the
interpreter start and import before it.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result, with the environment block, the tail percentile, each
failure and a per-function table, goes to
``.perfbench_out/results/<workload>-s<seed>-t<trace>.json`` (spans to
``spans-*.jsonl`` beside it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo
import tracer as tracer_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("spectrum-refine", "spectrum-nonnormal", "evolve-cn", "cli-runs")
# fresh interpreters timed per run for setup_s; the median is reported
SETUP_SAMPLES = {"cli-runs": 5}
SETUP_SAMPLES_DEFAULT = 3
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def tail(sorted_ms):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples no such percentile lies above
    the median, and the median is reported (percentile 50).
    """
    n = len(sorted_ms)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(sorted_ms), 50.0
    idx = n - TAIL_BEYOND - 1
    return sorted_ms[idx], 100.0 * (idx + 1) / n


def measure_setup(name, seed):
    """Seconds from starting a fresh interpreter to ready, one per sample."""
    from workloads import child_env

    values = []
    for _ in range(SETUP_SAMPLES.get(name, SETUP_SAMPLES_DEFAULT)):
        start = time.monotonic_ns()
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                             cwd=ROOT, env=child_env(), capture_output=True, text=True,
                             timeout=120, check=True)
        values.append((int(out.stdout.split()[-1]) - start) / 1e9)
    return values


def run_op(wl, case, rnd, op_id, tracer, workdir):
    """Time one operation, then check its output outside the timed interval."""
    from curvband import CurvbandError

    import workloads

    spans_path = None
    if tracer is not None:
        tracer.op = op_id
        if not wl.in_process:
            spans_path = workdir / "spans-op.jsonl"
            spans_path.unlink(missing_ok=True)
    error, unexpected, problem = None, False, None
    start = time.perf_counter_ns()
    try:
        result = wl.run(case, spans_path)
    except (CurvbandError, workloads.OperationFailed) as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a failure never aborts the run
        error, unexpected = f"{type(exc).__name__}: {exc}", True
    end = time.perf_counter_ns()
    if tracer is not None:
        tracer.op = None
        if spans_path is not None and spans_path.is_file():
            tracer.spans.extend(tracer_mod.load(spans_path, op_id))
    if error is None:
        try:
            problem = wl.check(case, result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    return {"op": op_id, "round": rnd, "case": case.label(), "params": case.params,
            "ms": wl.op_ns(start, end) / 1e6, "traced": tracer is not None,
            "error": error, "unexpected": unexpected, "check": problem}


def run_workload(name, seed, seconds, trace, rounds=None):
    """Run ``rounds`` whole rounds, by default the workload's count for ``seconds``."""
    import workloads  # imports curvband, so only once src/ is on sys.path

    workdir = OUT / f"{name}-s{seed}-t{trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(name, seed, workdir)
    setup = measure_setup(name, seed)
    wl.warm_up()

    tracer = tracer_mod.Tracer() if trace else None
    records = []
    if rounds is None:
        rounds = wl.rounds(seconds, bool(trace))
    for rnd in range(rounds):
        traced = bool(trace) and rnd % 2 == 0
        cases = wl.round(rnd)
        if traced and wl.in_process:
            tracer.install()
        try:
            for case in cases:
                records.append(run_op(wl, case, rnd, len(records),
                                      tracer if traced else None, workdir))
        finally:
            if traced and wl.in_process:
                tracer.uninstall()

    failures = [r for r in records if r["error"] or r["check"]]
    plain = sorted(r["ms"] for r in records if not r["traced"])
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "attempted": len(records), "failed": len(failures),
        "fail_frac": len(failures) / len(records),
        "correct": not any(r["unexpected"] or r["check"] for r in records),
        "setup_samples_s": setup,
    }
    if not trace:
        tail_ms, tail_pct = tail(plain)
        result["tail"] = {"percentile": tail_pct, "samples": len(plain)}
        values = {
            "op_ms_p50": statistics.median(plain),
            "op_ms_tail": tail_ms,
            "ops_per_s": len(plain) / (sum(plain) / 1e3),
            "peak_rss_mb": wl.peak_rss_mb(),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    else:
        traced_ms = {r["op"]: r["ms"] for r in records if r["traced"]}
        values, table = tracer_mod.layer_metrics(tracer.spans, traced_ms)
        values["trace.op_ms_p50"] = statistics.median(traced_ms.values())
        values["trace.overhead_ms"] = values["trace.op_ms_p50"] - statistics.median(plain)
        result["per_function"] = table
        result["computed"] = list(tracer_mod.COMPUTED)
        units = tracer_mod.PER_LAYER
        tracer.dump(OUT / "results" / f"spans-{name}-s{seed}.jsonl")
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result["operations"] = [[r["case"], r["ms"], r["traced"], not (r["error"] or r["check"])]
                            for r in records]
    result["failures"] = [{k: r[k] for k in ("op", "case", "params", "error", "check")}
                          for r in failures]
    result["environment"] = envinfo.environment(ROOT, seed)
    path = OUT / "results" / f"{name}-s{seed}-t{trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    return result


def print_summary(result):
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['attempted']} operations in {result['rounds']} rounds, "
          f"{result['failed']} failed, correct={result['correct']}")
    print(f"  {'fail_frac':38s} {result['fail_frac']:.6g} 1  (failed / attempted; not bounded)")
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            note = (f"  (p{result['tail']['percentile']:.1f} of "
                    f"{result['tail']['samples']} operations)")
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}{note}")
    for f in result["failures"][:5]:
        print(f"  failed op {f['op']} [{f['case']}]: {f['error'] or f['check']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "curvband" / "__init__.py").is_file():
        print(f"perfbench: no curvband sources at {ROOT / 'src' / 'curvband'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (OUT / "results").mkdir(parents=True, exist_ok=True)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for result in results:
        print_summary(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
