"""Config schema, CLI subcommands, CSV determinism."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import curvband
from curvband import (ConfigError, cli, fields, geometry, operator, parse_config,
                      serialize_config, solver)
from curvband.cli import main, write_csv
from curvband.config import make_field, make_grid, make_profile
from oracles import disc_dirichlet_energy

MINIMAL = """
surface:
  kind: flat
  rho_max: 1.0
"""


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def test_minimal_config_resolves_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.surface.kind == "flat"
    assert cfg.surface.rho_max == 1.0
    assert cfg.mode == "hermitian-corrected"
    assert cfg.charge_e == 1.0
    assert cfg.grid.n_points == 1000
    assert cfg.m_list == [0]
    assert cfg.k_eigen == 6


def test_synthetic_field_config():
    cfg = parse_config("""
surface:
  kind: paraboloid
  a: 0.5
field:
  kind: frame-synthetic
  a3: 1.0
""")
    assert cfg.surface.kind == "paraboloid"
    assert cfg.surface.a == 0.5
    assert cfg.field.kind == "frame-synthetic"
    assert cfg.field.a3 == 1.0
    assert cfg.surface.rho_max == 1.0      # default


def test_coarse_grid_rejected_with_named_constraint():
    with pytest.raises(ConfigError, match="n_points.*>= 16"):
        parse_config(MINIMAL + "grid:\n  n_points: 4\n")


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="wibble"):
        parse_config(MINIMAL + "wibble: 3\n")
    with pytest.raises(ConfigError, match="surface.*slope"):
        parse_config("surface:\n  kind: flat\n  slope: 2\n")


def test_missing_required_parameters_rejected():
    with pytest.raises(ConfigError, match="surface.a"):
        parse_config("surface:\n  kind: paraboloid\n")
    with pytest.raises(ConfigError, match="radius"):
        parse_config("surface:\n  kind: sphere-cap\n")
    with pytest.raises(ConfigError, match="field.b"):
        parse_config(MINIMAL + "field:\n  kind: axial-uniform\n")


def test_keys_the_kind_does_not_read_rejected_unless_default():
    with pytest.raises(ConfigError, match=r"^field\.a3: not read by kind 'axial-uniform'$"):
        parse_config(MINIMAL + "field:\n  kind: axial-uniform\n  b: 1.0\n  a3: 5.0\n")
    with pytest.raises(ConfigError, match=r"^surface\.a: not read by kind 'sphere-cap'$"):
        parse_config("surface:\n  kind: sphere-cap\n  radius: 2.0\n  a: 0.7\n")
    # at their defaults they are accepted, and the echo stays as before
    cfg = parse_config("surface:\n  kind: sphere-cap\n  radius: 2.0\n  a: null\n"
                       "field:\n  kind: axial-uniform\n  b: 1.0\n  a1: 0\n  a3: 0.0\n")
    assert serialize_config(cfg) == serialize_config(parse_config(
        "surface:\n  kind: sphere-cap\n  radius: 2.0\nfield:\n  kind: axial-uniform\n  b: 1.0\n"))


def test_k_eigen_bounded_by_the_grid(tmp_path, capsys):
    message = "config.k_eigen: must be <= grid.n_points = 20, got 50"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(MINIMAL + "grid:\n  n_points: 20\nk_eigen: 50\n")
    assert parse_config(MINIMAL + "grid:\n  n_points: 20\nk_eigen: 20\n").k_eigen == 20
    # checked after the flags replace the document's keys
    code, _ = run_cli(tmp_path, MINIMAL + "k_eigen: 50\n", "spectrum", "--n-points", "20")
    assert code == 1
    assert message in capsys.readouterr().err


def test_malformed_yaml_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config("surface:\n  kind: [unclosed\n")


def test_non_finite_and_wrong_typed_values_rejected():
    with pytest.raises(ConfigError, match="rho_max"):
        parse_config("surface:\n  kind: flat\n  rho_max: .nan\n")
    with pytest.raises(ConfigError, match="m_list"):
        parse_config(MINIMAL + "m_list: [0.5]\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config(MINIMAL + "dt: -0.1\n")


def test_gamma_interval_validated():
    with pytest.raises(ConfigError, match="gamma_interval"):
        parse_config(MINIMAL + "field:\n  kind: frame-synthetic\n  gamma_interval: [0.9, 0.2]\n")


def test_rules_across_keys_are_named():
    with pytest.raises(ConfigError, match=r"^surface\.sigma: must be > 0, got 0\.0$"):
        parse_config("surface:\n  kind: gaussian-bump\n  amplitude: 0.3\n  sigma: 0.0\n")
    with pytest.raises(ConfigError, match=r"^field\.gamma_interval: must be a \[lo, hi\] pair, "
                                          r"got \[0\.2, 0\.4, 0\.6\]$"):
        parse_config(MINIMAL + "field:\n  gamma_interval: [0.2, 0.4, 0.6]\n")
    # evolve's shortest span binds dt and steps together, at its exact boundary
    half = curvband.solver.MIN_SPAN / 2
    assert parse_config(MINIMAL + f"dt: {half!r}\nsteps: 2\n").steps == 2
    with pytest.raises(ConfigError, match=r"^config\.dt, config\.steps: dt \* steps must be >= "
                                          r"1\.49167e-154 for the log-norm fit, got "
                                          rf"dt = {half!r}, steps = 1$"):
        parse_config(MINIMAL + f"dt: {half!r}\nsteps: 1\n")


def test_sphere_cap_radius_must_exceed_rho_max():
    with pytest.raises(ConfigError, match="radius"):
        parse_config("surface:\n  kind: sphere-cap\n  rho_max: 1.0\n  radius: 0.8\n")


def test_config_round_trip():
    cfg = parse_config("""
surface:
  kind: sphere-cap
  rho_max: 1.0
  radius: 2.0
field:
  kind: frame-synthetic
  a3: 0.4
  gamma_interval: [0.25, 0.75]
grid:
  n_points: 128
mode: as-written
charge_e: -1.0
m_list: [0, 1, 2]
k_eigen: 4
omega: 100.0
n_normal: 2
dt: 0.002
steps: 50
output_path: out
""")
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_of_defaults():
    cfg = parse_config(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def run_cli(tmp_path, body, command, *extra):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--output", str(out), *extra])
    return code, out


def test_geometry_command_flat_columns_zero(tmp_path):
    code, out = run_cli(tmp_path, MINIMAL + "grid:\n  n_points: 32\n", "geometry")
    assert code == 0
    rows = (out / "geometry.csv").read_text().splitlines()
    assert rows[0] == "rho,Z,H,K,Hsq_minus_K,F_at_q0"
    data = np.loadtxt(rows[1:], delimiter=",")
    assert data.shape == (32, 6)
    np.testing.assert_array_equal(data[:, 1], 1.0)     # Z
    np.testing.assert_array_equal(data[:, 2], 0.0)     # H
    np.testing.assert_array_equal(data[:, 3], 0.0)     # K
    np.testing.assert_array_equal(data[:, 5], 1.0)     # F(0)


def test_spectrum_command_matches_disc_level(tmp_path):
    code, out = run_cli(tmp_path, MINIMAL, "spectrum")
    assert code == 0
    rows = (out / "spectrum.csv").read_text().splitlines()
    assert rows[0] == "m,index,re_E,im_E,residual"
    first = rows[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    exact = disc_dirichlet_energy(0, 1)
    assert abs(float(first[2]) - exact) / exact < 1e-4
    assert float(first[4]) < 1e-8
    summary = (out / "run_summary.txt").read_text()
    assert "hermiticity:" in summary and "decoupling:" in summary


def test_spectrum_honors_m_flag(tmp_path):
    code, out = run_cli(tmp_path, MINIMAL + "grid:\n  n_points: 400\n",
                        "spectrum", "--m", "0,1")
    assert code == 0
    data = np.loadtxt((out / "spectrum.csv").read_text().splitlines()[1:],
                      delimiter=",")
    ms = sorted(set(int(v) for v in data[:, 0]))
    assert ms == [0, 1]
    row_m1 = data[data[:, 0] == 1][0]
    exact = disc_dirichlet_energy(1, 1)
    assert abs(row_m1[2] - exact) / exact < 1e-4


def test_evolve_command_reports_uniform_coupling_slope(tmp_path):
    body = """
surface:
  kind: sphere-cap
  rho_max: 1.0
  radius: 2.0
field:
  kind: frame-synthetic
  a3: 0.4
grid:
  n_points: 150
dt: 0.001
steps: 1000
"""
    code, out = run_cli(tmp_path, body, "evolve")
    assert code == 0
    summary = (out / "run_summary.txt").read_text()
    slope = float(next(l for l in summary.splitlines()
                       if l.startswith("log-norm slope")).split(":")[1])
    assert slope == pytest.approx(0.2, rel=1e-4)
    trace = np.loadtxt((out / "trace.csv").read_text().splitlines()[1:],
                       delimiter=",")
    assert trace.shape == (1001, 3)
    assert trace[-1, 1] / trace[0, 1] == pytest.approx(math.exp(0.2), rel=1e-4)


def test_summary_states_a_folded_chart(tmp_path):
    # paraboloid a = 4 with a3 on [0.5, 0.6] at omega = 1: q* = 1 lies past a focal point
    body = ("surface: {kind: paraboloid, a: 4.0}\n"
            "field: {kind: frame-synthetic, a3: 1.0, gamma_interval: [0.5, 0.6]}\n"
            "grid: {n_points: 64}\nomega: 1.0\n")
    code, out = run_cli(tmp_path, body, "geometry")
    assert code == 0
    assert "decoupling: omega=1 ratio=0.5 passed=False chart_ok=False" in \
        (out / "run_summary.txt").read_text().splitlines()


def test_evolve_below_the_shortest_span_names_dt(tmp_path, capsys):
    # before, every step ran and np.polyfit raised LinAlgError; the config rejects
    # the pair before any solve, and the output directory, made beforehand as in
    # CI, stays empty
    (tmp_path / "out").mkdir()
    code, out = run_cli(tmp_path, MINIMAL + "grid: {n_points: 64}\ndt: 1.0e-200\nsteps: 10\n",
                        "evolve")
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: evolve: config.dt, config.steps: dt * steps must be >= 1.49167e-154 "
                   "for the log-norm fit, got dt = 1e-200, steps = 10\n")
    assert list(out.iterdir()) == []


def test_gauge_check_command(tmp_path):
    body = MINIMAL + """field:
  kind: axial-uniform
  b: 1.0
grid:
  n_points: 64
"""
    # at n = 92 the divergence stencil's outer point rounds to 1.0000000000000002
    for extra in ((), ("--n-points", "92")):
        code, out = run_cli(tmp_path, body, "gauge-check", *extra)
        assert code == 0
        summary = (out / "run_summary.txt").read_text()
        assert "passed=True" in summary
        assert "max_violation=0" in summary


def test_gauge_check_flags_bad_field(tmp_path):
    # constant a1 has radial divergence a1/rho: never divergence-free
    body = MINIMAL + """field:
  kind: frame-synthetic
  a1: 1.0
grid:
  n_points: 64
"""
    code, out = run_cli(tmp_path, body, "gauge-check")
    assert code == 0
    assert "passed=False" in (out / "run_summary.txt").read_text()


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(MINIMAL + "grid:\n  n_points: 4\n", encoding="utf-8")
    code = main(["spectrum", "--config", str(cfg)])
    assert code == 1
    assert "n_points" in capsys.readouterr().err


def test_missing_config_exits_nonzero(tmp_path, capsys):
    code = main(["spectrum", "--config", str(tmp_path / "nope.yaml")])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_named_error(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_bytes(b"\xff\xfe" + MINIMAL.encode())
    code = main(["geometry", "--config", str(cfg), "--output", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# determinism and output hygiene
# ----------------------------------------------------------------------

def test_spectrum_output_is_byte_deterministic(tmp_path):
    body = MINIMAL + "grid:\n  n_points: 200\nm_list: [0, 1]\n"
    _, out1 = run_cli(tmp_path, body, "spectrum")
    cfg = tmp_path / "run.yaml"
    out2 = tmp_path / "out2"
    main(["spectrum", "--config", str(cfg), "--output", str(out2)])
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "run_summary.txt").read_bytes() == (out2 / "run_summary.txt").read_bytes()


def test_flag_overrides_mirror_config_keys(tmp_path):
    code, out = run_cli(tmp_path, MINIMAL, "spectrum",
                        "--n-points", "150", "--mode", "as-written")
    assert code == 0
    summary = (out / "run_summary.txt").read_text()
    assert "mode: as-written" in summary
    assert "n_points: 150" in summary


@pytest.mark.parametrize("flag, value, key", [
    ("--dt", "nan", "dt: .nan"),
    ("--dt", "inf", "dt: .inf"),
    ("--n-points", "4", "grid:\n  n_points: 4"),
], ids=["dt-nan", "dt-inf", "n-points-4"])
def test_flags_are_validated_like_config_keys(tmp_path, capsys, flag, value, key):
    code, _ = run_cli(tmp_path, MINIMAL, "evolve", flag, value)
    assert code == 1
    flag_err = capsys.readouterr().err
    code, _ = run_cli(tmp_path, MINIMAL + key + "\n", "evolve")
    assert code == 1
    assert flag_err == capsys.readouterr().err
    if flag == "--dt":
        assert "config.dt: must be finite" in flag_err
    else:
        assert "grid.n_points: must be >= 16" in flag_err


FLAGS = ("--config", "--output", "--mode", "--m", "--n-points", "--dt", "--steps")


README_USAGE = next(line for line in (Path(__file__).resolve().parents[1] / "README.md")
                    .read_text(encoding="utf-8").splitlines() if line.startswith("curvband {"))


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_help_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "usage: " + README_USAGE
    assert err == ""
    for flag in FLAGS + ("-h",):
        assert flag in out
    with pytest.raises(SystemExit) as exit_info:
        main(["-h", command])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == out


def assert_exits_two(tmp_path, capsys, argv, *named):
    """The command line is refused with exit 2, the usage and one error line naming each of
    named on stderr, nothing on stdout, and no output directory."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["--output", str(out), *argv])
    assert exit_info.value.code == 2
    stdout, err = capsys.readouterr()
    usage, error, *rest = err.splitlines()
    assert (stdout, rest) == ("", [])
    assert usage == "usage: " + README_USAGE
    assert error.startswith("curvband: error: ")
    for word in named:
        assert word in error, error
    assert not out.exists()


def test_unknown_command_exits_two_naming_the_choices(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(MINIMAL, encoding="utf-8")
    assert_exits_two(tmp_path, capsys, ["spectra", "--config", str(cfg)],
                     "'spectra'", *map(repr, cli.COMMANDS))


@pytest.mark.parametrize("argv, named", [
    (["--config", "{cfg}"], ["command"]),
    (["spectrum"], ["--config"]),
    (["spectrum", "--config", "{cfg}", "--dt"], ["--dt"]),
    (["spectrum", "--m", "--config", "{cfg}"], ["--m"]),
    (["spectrum", "--conf", "{cfg}"], ["--conf"]),
    (["spectrum", "--config", "{cfg}", "--n_points", "64"], ["--n_points"]),
    (["spectrum", "evolve", "--config", "{cfg}"], ["evolve"]),
    (["spectrum", "--config", "{cfg}", "--n-points", "64.0"], ["--n-points", "'64.0'"]),
    (["evolve", "--config", "{cfg}", "--steps=ten"], ["--steps", "'ten'"]),
    (["evolve", "--config", "{cfg}", "--dt", "fast"], ["--dt", "'fast'"]),
    (["spectrum", "--config", "{cfg}", "--mode", "hermitian"],
     ["--mode", "'hermitian'", *map(repr, operator.MODES)]),
], ids=["no-command", "no-config", "no-value", "flag-as-value", "prefix", "underscore",
        "second-command", "n-points-float", "steps-word", "dt-word", "mode"])
def test_malformed_command_line_exits_two(tmp_path, capsys, argv, named):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(MINIMAL + "grid: {n_points: 32}\n", encoding="utf-8")
    assert_exits_two(tmp_path, capsys, [arg.format(cfg=cfg) for arg in argv], *named)


def test_flag_equals_value_and_last_flag_win(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(MINIMAL + "grid: {n_points: 32}\n", encoding="utf-8")
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(["spectrum", "--config", str(cfg), "--output", str(spaced), "--m", "-1,1",
                 "--n-points", "48", "--mode", "as-written"]) == 0
    assert main(["--n-points=24", "spectrum", f"--config={cfg}", f"--output={joined}",
                 "--m=-1,1", "--mode=as-written", "--n-points", "48"]) == 0
    for name in ("spectrum.csv", "run_summary.txt"):
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()
    assert "n_points: 48" in (joined / "run_summary.txt").read_text(encoding="utf-8")


def test_flags_before_the_command_give_the_same_outputs(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(MINIMAL + "grid:\n  n_points: 64\n", encoding="utf-8")
    before, after = tmp_path / "before", tmp_path / "after"
    assert main(["--config", str(cfg), "--output", str(before), "--m", "0,1",
                 "spectrum"]) == 0
    assert main(["spectrum", "--config", str(cfg), "--output", str(after),
                 "--m", "0,1"]) == 0
    for name in ("spectrum.csv", "run_summary.txt"):
        assert (before / name).read_bytes() == (after / name).read_bytes()


def test_malformed_m_flag_exits_one(tmp_path, capsys):
    code, _ = run_cli(tmp_path, MINIMAL, "spectrum", "--m", "0,x")
    assert code == 1
    assert "--m expects integers" in capsys.readouterr().err


def test_interrupted_csv_leaves_no_partial_file(tmp_path):
    def rows():
        yield (1.0, 2.0)
        raise RuntimeError("lost midway")

    path = tmp_path / "broken.csv"
    with pytest.raises(RuntimeError, match="lost midway"):
        write_csv(path, ["a", "b"], rows())
    assert list(tmp_path.iterdir()) == []         # no target, no temp file

    write_csv(path, ["a", "b"], [(1.0, 2.0)])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="lost midway"):
        write_csv(path, ["a", "b"], rows())
    assert path.read_bytes() == before            # previous output kept whole
    assert list(tmp_path.iterdir()) == [path]


CSV_VALUES = (st.floats() | st.integers(-10 ** 6, 10 ** 6).map(float)
              | st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310,
                                 1e308, -1e308]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(table=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
                    elements=CSV_VALUES),
       block_rows=st.integers(1, 5) | st.just(cli.BLOCK_ROWS), as_rows=st.booleans())
def test_csv_body_is_each_value_with_17_digits(tmp_path_factory, table, block_rows, as_rows):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = [f"c{j}" for j in range(table.shape[1])]
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        write_csv(path, header, table.tolist() if as_rows else table)
    expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in table.tolist())
    assert path.read_text(encoding="utf-8") == ",".join(header) + "\n" + expected


def _reference_rows(body, command):
    """The rows of command's CSV, each value computed by the library one scalar at a time."""
    config = parse_config(body)
    profile, grid = make_profile(config), make_grid(config)
    field = make_field(config, profile)
    nodes = grid.nodes
    if command == "geometry":
        Z, H, K = geometry.curvatures(profile, nodes)
        return [(nodes[j], Z[j], H[j], K[j], float(H[j]) ** 2 - float(K[j]), 1.0)
                for j in range(len(nodes))]
    if command == "gauge-check":
        report = fields.is_coulomb_gauge(field, profile, grid, cli.GAUGE_TOL)
        return [(nodes[j], report.values[j]) for j in range(len(nodes))]
    op = operator.build_tangential(profile, field, config.m_list[0], grid,
                                   mode=config.mode, e=config.charge_e)
    trace = solver.evolve(op, solver.ground_state(op), config.dt, config.steps,
                          record_states=False)
    return [(trace.times[j], trace.norms[j], float(np.log(trace.norms[j])))
            for j in range(len(trace.times))]


CSV_CASES = {
    "paraboloid": MINIMAL.replace("flat", "paraboloid\n  a: 0.5")
    + "field:\n  kind: axial-uniform\n  b: 1.3\ngrid:\n  n_points: 1000\nsteps: 200\n",
    "cap": "surface:\n  kind: sphere-cap\n  radius: 2.0\nfield:\n  kind: frame-synthetic\n"
           "  a3: 0.4\ngrid:\n  n_points: 1000\nsteps: 200\n",
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
@pytest.mark.parametrize("command, name", [("geometry", "geometry.csv"),
                                           ("gauge-check", "gauge_check.csv"),
                                           ("evolve", "trace.csv")])
def test_cli_csv_matches_rows_built_one_value_at_a_time(tmp_path, case, command, name):
    code, out = run_cli(tmp_path, CSV_CASES[case], command)
    assert code == 0
    body = (out / name).read_text(encoding="utf-8").splitlines()[1:]
    reference = _reference_rows(CSV_CASES[case], command)
    assert body == [",".join(f"{v:.17g}" for v in row) for row in reference]


def test_failed_run_leaves_no_summary(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("serializer lost")

    monkeypatch.setattr("curvband.config.serialize_config", fail)
    with pytest.raises(RuntimeError, match="serializer lost"):
        run_cli(tmp_path, MINIMAL + "grid:\n  n_points: 32\n", "geometry")
    # the config echo is computed before the output directory is made
    assert not (tmp_path / "out").exists()


def assert_failed_cleanly(tmp_path, capsys, body, command, message):
    """The run exits 1 with one error line holding message and makes no output directory."""
    code, out = run_cli(tmp_path, body, command)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: ") and err.count("\n") == 1, err
    assert message in err, err
    assert not out.exists()


def test_failure_after_the_solve_writes_nothing(tmp_path, capsys, monkeypatch):
    # before, spectrum.csv was written before the normal ladder was evaluated
    def fail(*args, **kwargs):
        raise curvband.DomainError("ladder unavailable")

    monkeypatch.setattr("curvband.operator.normal_energy", fail)
    assert_failed_cleanly(tmp_path, capsys, MINIMAL + "grid:\n  n_points: 32\n", "spectrum",
                          "ladder unavailable")


def test_gauge_check_that_cannot_evaluate_writes_nothing(tmp_path, capsys, monkeypatch):
    # is_coulomb_gauge reports the failure with values None; before, the empty
    # output directory was left behind
    def fail(*args, **kwargs):
        raise curvband.EvaluationError("stencil unavailable")

    monkeypatch.setattr("curvband.fields.divergence", fail)
    assert_failed_cleanly(tmp_path, capsys, MINIMAL + "grid:\n  n_points: 32\n", "gauge-check",
                          "gauge check: evaluation failed: EvaluationError: stencil unavailable")


BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("line, key", [
    (f"steps: {BEYOND_FLOAT}", "config.steps"),
    (f"grid: {{n_points: {BEYOND_FLOAT}}}", "grid.n_points"),
    (f"m_list: [{BEYOND_FLOAT}]", "config.m_list"),
    (f"n_normal: {BEYOND_FLOAT}", "config.n_normal"),
], ids=["steps", "n-points", "m-list", "n-normal"])
def test_integer_beyond_float_range_is_a_config_error(tmp_path, capsys, command, line, key):
    # before, each died with an uncaught OverflowError, in parsing or in assembly, or
    # (n_normal) in spectrum after spectrum.csv was written
    assert_failed_cleanly(tmp_path, capsys, MINIMAL + line + "\n", command,
                          f"{key}: must be finite and at most 1.79769e+308 in magnitude, "
                          f"got {BEYOND_FLOAT}")


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("body, message", [
    (MINIMAL + "omega: 1.0e+200\n", "omega must be <= 1.34078e+154 for a finite omega^2"),
    (MINIMAL + f"m_list: [1{'0' * 200}]\n", "azimuthal index m = 1e+200 is too large"),
    pytest.param("surface: {kind: flat, rho_max: 1.0e+200}\n",
                 "operator band measure_weights has a nan or inf entry",
                 # assembly still overflows on its way to the infinite weights
                 marks=pytest.mark.filterwarnings(
                     "ignore:overflow encountered:RuntimeWarning")),
    pytest.param("surface: {kind: flat, rho_max: 1.0e+200}\nmode: as-written\n",
                 "operator band measure_weights has a nan or inf entry",
                 marks=pytest.mark.filterwarnings(
                     "ignore:overflow encountered:RuntimeWarning")),
    pytest.param("surface: {kind: paraboloid, a: 0.5, rho_max: 1.0e+200}\nmode: as-written\n",
                 "operator band measure_weights has a nan or inf entry",
                 marks=pytest.mark.filterwarnings(
                     "ignore:(overflow|invalid value) encountered:RuntimeWarning")),
], ids=["omega", "m", "rho-max", "rho-max-as-written", "rho-max-as-written-curved"])
def test_overflow_in_an_accepted_config_is_named(tmp_path, capsys, command, body, message):
    # before: an uncaught OverflowError from omega ** 2; the band, not m; for rho_max
    # a ValueError from LAPACK, or exit 0 for geometry and gauge-check, and in as-written
    # mode an uncaught OverflowError from the Python float dr ** 2
    assert_failed_cleanly(tmp_path, capsys, body + "grid: {n_points: 32}\n", command, message)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_grid_past_the_node_bound_is_named(tmp_path, capsys, command):
    # before, every command died with a ValueError from np.arange
    assert_failed_cleanly(tmp_path, capsys, MINIMAL + "grid: {n_points: 100000000000000000000}\n",
                          command, "n_points must be <= 4503599627370495 (2^52 - 1)")


def test_normal_energy_that_overflows_is_named(tmp_path, capsys):
    # before, spectrum exited 0 with E_q=inf
    assert_failed_cleanly(tmp_path, capsys, MINIMAL + f"n_normal: 1{'0' * 306}\ngrid: {{n_points: 32}}\n",
                          "spectrum",
                          "omega (n + 1/2) overflows: omega = 1000000.0, n = 1e+306")


def test_unwritable_output_is_a_named_error(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(MINIMAL + "grid:\n  n_points: 32\n", encoding="utf-8")
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n", encoding="utf-8")
    code = main(["geometry", "--config", str(cfg), "--output", str(blocker / "sub")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: geometry: cannot write output: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "run.yaml"]
    assert blocker.read_text(encoding="utf-8") == "a regular file\n"


IMPORT_PATH_RUN = """
import sys
from curvband import cli, solver
for command in ("geometry", "gauge-check", "spectrum", "evolve"):
    assert cli.main([command, "--config", sys.argv[1], "--output", sys.argv[2]]) == 0, command
# as-written, the paraboloid's channels take the certified route
assert cli.main(["spectrum", "--config", sys.argv[1], "--output", sys.argv[3],
                 "--mode", "as-written"]) == 0
assert "numpy.random" not in sys.modules, "a CLI run loaded numpy.random"
assert "scipy.sparse" not in sys.modules, "a CLI run loaded scipy.sparse"
assert "scipy.linalg" not in sys.modules, "a CLI run loaded scipy.linalg"
for name in ("argparse", "gettext", "locale"):
    assert name not in sys.modules, f"a CLI run loaded {name}"
spla = solver.spla
import scipy.sparse.linalg
assert spla is scipy.sparse.linalg
import scipy.linalg
assert scipy.linalg.eigh_tridiagonal([2.0, 2.0], [1.0], eigvals_only=True).tolist() == [1.0, 3.0]
"""


def test_cli_runs_never_load_scipy_sparse(tmp_path):
    # a fresh interpreter, as each curvband command is; the solver loads only scipy's
    # LAPACK extension, and solver.spla, which only the benchmark reads, loads
    # scipy.sparse.linalg on first use; both packages import as usual afterwards.  No
    # eigensolver route draws a random number, so numpy.random stays unloaded
    cfg = tmp_path / "run.yaml"
    cfg.write_text("surface: {kind: paraboloid, a: 0.5}\n"
                   "field: {kind: frame-synthetic, a3: 0.4, gamma_interval: [0.2, 0.6]}\n"
                   "grid: {n_points: 64}\nm_list: [0, 1]\nsteps: 10\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(curvband.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PATH_RUN, str(cfg), str(tmp_path / "out"),
                           str(tmp_path / "as-written")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "gauge_check.csv", "geometry.csv", "run_summary.txt", "spectrum.csv", "trace.csv"]
    assert sorted(p.name for p in (tmp_path / "as-written").iterdir()) == [
        "run_summary.txt", "spectrum.csv"]
