"""The benchmark's own tests: one seed fixes the inputs, counts and failures.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``
(about two minutes: every workload runs two rounds, twice).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT = [name for name, unit in tracer.PER_LAYER.items() if unit in ("count", "B")]


def traced_rounds(name, seed, rounds):
    """run.run_workload in a fresh interpreter, as the benchmark always runs."""
    code = (f"import json, run; r = run.run_workload({name!r}, {seed}, 0, 1, rounds={rounds}); "
            "print(json.dumps(r, default=str))")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=workloads.child_env(),
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_seed_gives_identical_counts_and_failures(name):
    first, second = (traced_rounds(name, seed=3, rounds=2) for _ in range(2))
    for key in EXACT:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["attempted"] == second["attempted"]
    assert first["fail_frac"] == second["fail_frac"]
    assert [f["op"] for f in first["failures"]] == [f["op"] for f in second["failures"]]
    assert first["correct"] and second["correct"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_rounds_depend_only_on_seed_and_index(name, tmp_path):
    a, b, other = (workloads.make(name, seed, tmp_path) for seed in (5, 5, 6))
    for r in range(3):
        assert [c.params for c in a.round(r)] == [c.params for c in b.round(r)]
    assert ([c.params for r in range(3) for c in a.round(r)]
            != [c.params for r in range(3) for c in other.round(r)])


def test_a_run_is_a_fixed_number_of_whole_rounds(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in run.WORKLOAD_NAMES:
        wl = workloads.make(name, 1, tmp_path)
        plain, traced = wl.rounds(bench["run_seconds"]), wl.rounds(bench["run_seconds"], True)
        assert plain >= wl.min_rounds and traced >= plain and traced % 2 == 0
        # every seed runs the same class mix
        other = workloads.make(name, 2, tmp_path)
        assert ([(c.cls, c.m) for r in range(plain) for c in wl.round(r)]
                == [(c.cls, c.m) for r in range(plain) for c in other.round(r)])


def test_seeded_eigs_repeats_the_start_vector():
    wl = workloads.make("spectrum-refine", 1, BENCH)
    case = wl.round(1)[1]
    op = workloads.operator.build_tangential(case.profile, case.field, case.m,
                                             workloads._grid(4000), e=workloads.CHARGE)
    values = []
    for _ in range(2):
        wl.arpack.rng = workloads.np.random.default_rng([1, 2, 3])
        values.append(workloads.solver._sparse_solve(op, workloads.K_EIGEN)[0])
    assert (values[0] == values[1]).all()


def test_cli_latency_is_the_subcommand_without_interpreter_start(tmp_path):
    wl = workloads.make("cli-runs", 1, tmp_path)
    case = wl.round(0)[0]
    start = time.perf_counter_ns()
    out = wl.run(case)
    end = time.perf_counter_ns()
    assert 0 < wl.op_ns(start, end) < end - start
    assert wl.check(case, out) is None


def test_benchmark_json_names_every_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.PER_LAYER


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(30))) == (19, pytest.approx(100 * 20 / 30))
    assert run.tail(list(range(15))) == (7, 50.0)


def test_self_time_subtracts_the_union_of_children():
    spans = [tracer.Span(0, 0, None, "solver.evolve", 0, 100, True, None),
             tracer.Span(0, 1, 0, "solver.eigen_solve", 10, 30, True, None),
             tracer.Span(0, 2, 0, "solver.eigen_solve", 20, 50, True, None)]
    assert tracer._self_ns(spans)[0, 0] == 60


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-runs",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
