"""Config schema, CLI subcommands, CSV determinism."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import curvband
from curvband import (ConfigError, cli, fields, geometry, operator, parse_config,
                      serialize_config, solver)
from curvband.cli import main, write_csv
from curvband.config import build
from curvband.operator import RHO_MAX_RANGE
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
    # the constructors own these rules; the config names the section of their errors
    with pytest.raises(ConfigError, match=r"^surface: sigma must be positive, got 0\.0$"):
        parse_config("surface:\n  kind: gaussian-bump\n  amplitude: 0.3\n  sigma: 0.0\n")
    with pytest.raises(ConfigError, match=r"^field: gamma_interval must be a \(lo, hi\) pair, "
                                          r"got \[0\.2, 0\.4, 0\.6\]$"):
        parse_config(MINIMAL + "field:\n  gamma_interval: [0.2, 0.4, 0.6]\n")
    with pytest.raises(ConfigError, match=r"^field\.gamma_interval: must lie within "
                                          r"\[0, rho_max = 1\.0\], got \[0\.2, 1\.5\]$"):
        parse_config(MINIMAL + "field:\n  gamma_interval: [0.2, 1.5]\n")


@pytest.mark.parametrize("surface, extra, section, key", [
    ("{kind: gaussian-bump, amplitude: 0.3, sigma: 0.0}", "", "surface", "sigma"),
    ("{kind: gaussian-bump, amplitude: 0.3, sigma: 1.0e-300}", "", "surface", "sigma"),
    ("{kind: gaussian-bump, amplitude: 0.3, sigma: 1.0e+80}", "", "surface", "sigma"),
    ("{kind: gaussian-bump, amplitude: 1.0e+300, sigma: 0.5}", "", "surface", "amplitude"),
    ("{kind: sphere-cap, radius: 1.0}", "", "surface", "radius"),
    ("{kind: sphere-cap, radius: 0.8}", "", "surface", "radius"),
    ("{kind: sphere-cap, radius: 1.0e+200}", "", "surface", "radius"),
    ("{kind: paraboloid, a: 1.0e+308}", "", "surface", "a"),
    ("{kind: flat}", "field: {gamma_interval: [0.2, 0.4, 0.6]}", "field", "gamma_interval"),
    ("{kind: flat}", "field: {gamma_interval: [0.6, 0.2]}", "field", "gamma_interval"),
    ("{kind: flat}", "grid: {n_points: 4}", "grid", "n_points"),
    ("{kind: flat}", "grid: {n_points: 4503599627370496}", "grid", "n_points"),
], ids=["sigma-0", "sigma-1e-300", "sigma-1e80", "amplitude-1e300", "radius-at-rho-max",
        "radius-below-rho-max", "radius-1e200", "a-1e308", "gamma-3-values", "gamma-reversed",
        "n-points-4", "n-points-2^52"])
def test_a_constructor_rule_is_a_config_error_naming_its_section(tmp_path, capsys, surface,
                                                                  extra, section, key):
    # before, the config restated the first, fifth, sixth, ninth, tenth and eleventh of these
    # rules, and the others passed parsing and failed only when a command built the run:
    # radius 1e200 with an uncaught OverflowError, amplitude 1e300 and a 1e308 after
    # RuntimeWarnings.  A command names it in one line and writes nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=rf"^{section}: {key} must "):
            parse_config(f"surface: {surface}\n{extra}\n")
        assert_failed_cleanly(tmp_path, capsys, f"surface: {surface}\n{extra}\n", "geometry",
                              f"error: geometry: {section}: {key} must ")


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


def test_evolve_whose_last_time_overflows_names_dt_and_steps(tmp_path, capsys):
    # before, every step ran, np.polyfit warned three times and raised LinAlgError; evolve
    # rejects the pair before any step, and the output directory, made beforehand as in CI,
    # stays empty
    (tmp_path / "out").mkdir()
    code, out = run_cli(tmp_path, MINIMAL + "grid: {n_points: 16}\ndt: 1.0e+306\nsteps: 1000\n",
                        "evolve")
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: evolve: dt * steps, the trace's last time, overflows float64: "
                   "dt = 1e+306, steps = 1000\n")
    assert list(out.iterdir()) == []


# README's cap.yaml
README_CAP = ("surface:\n  kind: sphere-cap\n  rho_max: 1.0\n  radius: 2.0\nfield:\n"
              "  kind: frame-synthetic\n  a3: 0.4\ngrid:\n  n_points: 400\nsteps: 1000\n")


@pytest.mark.parametrize("dt", ["1.0e-150", "1.0e-200", "1.0e-300"])
def test_evolve_of_the_cap_at_a_dt_too_small_to_step_names_dt(tmp_path, capsys, dt):
    # before, the run exited 0 with `log-norm slope: 0`, since every step returned its
    # input bit for bit while the coupling e A3 H = 0.2 should grow the norm
    assert_failed_cleanly(tmp_path, capsys, README_CAP + f"dt: {dt}\n", "evolve",
                          f"dt = {float(dt):g} is too small to move the state: a "
                          f"Crank-Nicolson step returns its input bit for bit, while the "
                          f"generator is not Hermitian, so its norm should change")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(surface=st.sampled_from(["{kind: flat}", "{kind: sphere-cap, radius: 2.0}"]),
       a3=st.sampled_from([0.4, -0.4]), n_points=st.integers(16, 64),
       dt=st.floats(math.log(5e-324), math.log(1.7e308)).map(math.exp),
       steps=st.integers(1, 2000))
@example(surface="{kind: flat}", a3=0.4, n_points=64, dt=1e-200, steps=1000)
@example(surface="{kind: flat}", a3=0.4, n_points=64, dt=1e160, steps=1000)
@example(surface="{kind: flat}", a3=0.4, n_points=16, dt=1e306, steps=1000)
@example(surface="{kind: flat}", a3=0.4, n_points=64, dt=1e308, steps=1)
def test_evolve_over_dt_and_steps_runs_or_names_dt(tmp_path_factory, surface, a3, n_points, dt,
                                                   steps):
    # every positive float dt: a run writes a finite trace and slope, or fails before any
    # step naming dt (and steps where dt * steps overflows), with no warning and no output
    tmp = tmp_path_factory.mktemp("evolve")
    cfg = tmp / "run.yaml"
    cfg.write_text(f"surface: {surface}\nfield: {{kind: frame-synthetic, a3: {a3}}}\n"
                   f"grid: {{n_points: {n_points}}}\n", encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["evolve", "--config", str(cfg), "--output", str(tmp / "out"),
                     "--dt", repr(dt), "--steps", str(steps)])
    if code == 0:
        table = np.loadtxt(tmp / "out" / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (steps + 1, 3) and np.isfinite(table).all()
        slope = (tmp / "out" / "run_summary.txt").read_text().splitlines()[4]
        assert math.isfinite(float(slope.removeprefix("log-norm slope: ")))
    else:
        assert code == 1 and not (tmp / "out").exists()
        assert re.fullmatch(r"error: evolve: [^\n]*\bdt\b[^\n]*\n", err.getvalue())
        if not math.isfinite(dt * steps):
            assert "steps" in err.getvalue()


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
    # a number YAML 1.1 reads as a string
    assert_failed_cleanly(tmp_path, capsys, MINIMAL + "omega: 1.0e6\n", "spectrum",
                          "config.omega: must be a number, got '1.0e6', which YAML reads as a "
                          "string")


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
        assert "grid: n_points must be >= 16" in flag_err


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


class _LostMidway(np.ndarray):
    """A table whose second block of rows cannot be read."""

    def tolist(self):
        if self[0] == 3.0:
            raise RuntimeError("lost midway")
        return super().tolist()


def test_interrupted_csv_leaves_no_partial_file(tmp_path):
    table = np.array([[1.0, 2.0], [3.0, 4.0]]).view(_LostMidway)

    path = tmp_path / "broken.csv"
    with mock.patch.object(cli, "BLOCK_ROWS", 1), pytest.raises(RuntimeError, match="lost midway"):
        write_csv(path, ["a", "b"], table)
    assert list(tmp_path.iterdir()) == []         # no target, no temp file

    write_csv(path, ["a", "b"], np.array([[1.0, 2.0]]))
    before = path.read_bytes()
    with mock.patch.object(cli, "BLOCK_ROWS", 1), pytest.raises(RuntimeError, match="lost midway"):
        write_csv(path, ["a", "b"], table)
    assert path.read_bytes() == before            # previous output kept whole
    assert list(tmp_path.iterdir()) == [path]


CSV_VALUES = (st.floats() | st.integers(-10 ** 6, 10 ** 6).map(float)
              | st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310,
                                 1e308, -1e308]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(table=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
                    elements=CSV_VALUES),
       block_rows=st.integers(1, 5) | st.just(cli.BLOCK_ROWS))
def test_csv_body_is_each_value_with_17_digits(tmp_path_factory, table, block_rows):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = [f"c{j}" for j in range(table.shape[1])]
    with mock.patch.object(cli, "BLOCK_ROWS", block_rows):
        write_csv(path, header, table)
    expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in table.tolist())
    assert path.read_text(encoding="utf-8") == ",".join(header) + "\n" + expected


def _reference_rows(body, command):
    """The rows of command's CSV, each value computed by the library one scalar at a time."""
    config = parse_config(body)
    profile, field, grid = build(config)
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
    # assembly used to overflow on its way to infinite weights, with RuntimeWarnings first
    ("surface: {kind: flat, rho_max: 1.0e+200}\n", "surface.rho_max: must be <= 1e+75"),
    ("surface: {kind: flat, rho_max: 1.0e+200}\nmode: as-written\n",
     "surface.rho_max: must be <= 1e+75"),
    ("surface: {kind: paraboloid, a: 0.5, rho_max: 1.0e+200}\nmode: as-written\n",
     "surface.rho_max: must be <= 1e+75"),
], ids=["omega", "m", "rho-max", "rho-max-as-written", "rho-max-as-written-curved"])
def test_overflow_in_an_accepted_config_is_named(tmp_path, capsys, command, body, message):
    # before: an uncaught OverflowError from omega ** 2; the band, not m; for rho_max
    # a ValueError from LAPACK, or exit 0 for geometry and gauge-check, and in as-written
    # mode an uncaught OverflowError from the Python float dr ** 2
    assert_failed_cleanly(tmp_path, capsys, body + "grid: {n_points: 32}\n", command, message)


def extreme_body(kind, rho_max, mode):
    return (f"surface: {{kind: {kind}, rho_max: {rho_max}}}\nmode: {mode}\n"
            "grid: {n_points: 64}\nm_list: [0, 1]\nsteps: 10\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", operator.MODES)
@pytest.mark.parametrize("kind", ["flat", "paraboloid, a: 0.5"], ids=["flat", "paraboloid"])
@pytest.mark.parametrize("rho_max", ["1.0e-150", "1.0e-103", "1.0e-90", "1.0e+80", "1.0e+96",
                                     "1.0e+105", "1.0e+150", "1.0e+200"])
def test_rho_max_past_the_supported_range_is_named(tmp_path, capsys, kind, rho_max, mode):
    # before, spectrum and evolve on a flat disc at 1e105-1e150 and on the paraboloid at
    # 1e80-1e96 exited 0 with every level 0 or ~1e-161, as 2 rho Z drho^2 overflowed; the
    # others ended in bare LAPACK or nan errors; 120 of these 128 runs warned
    body = extreme_body(kind, rho_max, mode)
    for command in cli.COMMANDS:
        assert_failed_cleanly(tmp_path, capsys, body, command,
                              f"surface.rho_max: must be {'>=' if '-' in rho_max else '<='} 1e")


FLAT_64 = "surface: {kind: flat}\ngrid: {n_points: 64}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("body, component", [
    (FLAT_64 + "field: {kind: frame-synthetic, a3: 1.0e+300}\n", "A3"),
    (FLAT_64 + "field: {kind: axial-uniform, b: 1.0e+300}\n", "A2"),
    (FLAT_64 + "field: {kind: cartesian-constant, c: 1.0e+300}\n", "A3"),
    # the radial-field term, whose rho A1 / (drho rho Z) overflowed with two warnings first
    ("surface: {kind: paraboloid, a: -4.710960611511412e+39, rho_max: 1.0e-40}\n"
     "field: {kind: cartesian-constant, c: 1.1755179245362536e+298}\n"
     "grid: {n_points: 190}\nm_list: [-3]\n", "A3"),
], ids=["frame-a3", "axial", "cartesian", "radial-term"])
def test_a_field_whose_potential_overflows_is_named_by_every_command(tmp_path, capsys, body,
                                                                     component):
    # before, each command warned of an overflow in the square and then named an inf in
    # the operator's diagonal band; geometry and gauge-check assemble one channel too
    for command in cli.COMMANDS:
        assert_failed_cleanly(tmp_path, capsys, body, command, f"field component {component} ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_steep_as_written_channel_whose_off_diagonal_product_overflows_is_named(tmp_path,
                                                                                  capsys):
    # before, every command warned: geometry and gauge-check in the Hermiticity report's
    # norm, then exited 0 with antihermitian_norm=inf; spectrum and evolve raised a
    # CertificateError reading s = inf and nani
    body = ("surface: {kind: paraboloid, a: 0.5, rho_max: 1.0e+40}\nmode: as-written\n"
            "grid: {n_points: 64}\nm_list: [1]\n")
    for command in ("spectrum", "evolve"):
        assert_failed_cleanly(tmp_path, capsys, body, command,
                              "the off-diagonal product upper_j lower_j of M_w is past "
                              "float64's range")
    for command in ("geometry", "gauge-check"):
        code, out = run_cli(tmp_path, body, command)
        assert code == 0 and capsys.readouterr().err == ""
        summary = (out / "run_summary.txt").read_text(encoding="utf-8")
        norm = float(re.search(r"antihermitian_norm=(\S+)", summary).group(1))
        assert math.isfinite(norm) and norm > 1e161, summary


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_as_written_channel_whose_weighted_off_diagonal_overflows_is_named(tmp_path, capsys):
    # before, M_w's off-diagonal overflowed to inf and nan with five warnings; geometry and
    # gauge-check exited 0 reporting coupling_equality=True, since inf <= inf, and spectrum
    # and evolve named the real symmetric part's off-diagonal
    body = ("surface: {kind: paraboloid, a: 0.5, rho_max: 1.0e+60}\n"
            "field: {kind: frame-synthetic, a3: 4.0e-61}\nmode: as-written\n"
            "grid: {n_points: 64}\nm_list: [1]\n")
    for command in cli.COMMANDS:
        assert_failed_cleanly(tmp_path, capsys, body, command,
                              "the off-diagonal of M_w is past float64's range")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_as_written_drift_term_that_overflows_is_named_by_every_command(tmp_path, capsys):
    # before, assembly warned in Z^4 and every command named an inf in the diagonal band
    body = ("surface: {kind: gaussian-bump, amplitude: 3.3e+76, sigma: 0.5}\n"
            "mode: as-written\ngrid: {n_points: 64}\n")
    for command in cli.COMMANDS:
        assert_failed_cleanly(tmp_path, capsys, body, command,
                              "the as-written drift term S_rho S_rhorho (Z^4 - Z^-4) / 2 "
                              "overflows float64")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", operator.MODES)
def test_flat_disc_at_the_ends_of_the_range_runs_without_warnings(tmp_path, capsys, mode):
    # at 1e75 the levels are the unit disc's over rho_max^2; at 1e-75 no grid meets the
    # absolute residual contract, a named error, while geometry and gauge-check run
    levels = {}
    for rho_max in ("1.0", "1.0e+75"):
        where = tmp_path / rho_max
        where.mkdir()
        for command in cli.COMMANDS:
            code, out = run_cli(where, extreme_body("flat", rho_max, mode), command)
            assert code == 0, capsys.readouterr().err
        levels[rho_max] = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)[:, 2]
    np.testing.assert_allclose(levels["1.0e+75"] * 1e150, levels["1.0"], rtol=1e-12, atol=0.0)
    for command in cli.COMMANDS:
        code, _ = run_cli(tmp_path, extreme_body("flat", "1.0e-75", mode), command)
        err = capsys.readouterr().err
        if command in ("spectrum", "evolve"):
            assert code == 1 and "eigen residual contract violated" in err, err
        else:
            assert code == 0 and err == "", err


# channels whose levels lie far below float64's resolution of the operator, and the error
# each names: a flat disc of radius 1e-60, a uniform frame A2 whose potential is 5e199 or
# 5e307, and an as-written bump whose shifted matrix is singular to rounding
CONTRACT = "eigen residual contract violated: max "
PAST_RANGE = "the eigenpairs left float64's range: a level or its residual is not finite"
BELOW_RESOLUTION = {
    "disc-1e-60": ("surface: {kind: flat, rho_max: 1.0e-60}\ngrid: {n_points: 64}\n", CONTRACT),
    "a2-1e100": (FLAT_64 + "field: {kind: frame-synthetic, a2: 1.0e+100}\nm_list: [1]\n",
                 CONTRACT),
    "a2-1e154": (FLAT_64 + "field: {kind: frame-synthetic, a2: 1.0e+154}\nm_list: [1]\n",
                 PAST_RANGE),
    "bump": ("surface: {kind: gaussian-bump, rho_max: 1.0e+75, amplitude: -1.325005810511576e+74, "
             "sigma: 4.2622105543588964e+74}\nfield: {kind: axial-uniform, "
             "b: 3.872057539080238e+25}\nmode: as-written\ngrid: {n_points: 25}\nm_list: [2]\n"
             "k_eigen: 5\n", PAST_RANGE),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(BELOW_RESOLUTION))
def test_a_channel_below_float64s_resolution_is_named_without_nan(tmp_path, capsys, case):
    # before, spectrum and evolve read "eigen residual contract violated: max nan", after
    # RuntimeWarnings for the field of 1e154 and the bump; a contract error now states a
    # finite residual against the floor, and arithmetic past float64's range is named
    body, message = BELOW_RESOLUTION[case]
    for command in ("spectrum", "evolve"):
        code, out = run_cli(tmp_path, body, command)
        err = capsys.readouterr().err
        assert code == 1 and not out.exists(), err
        assert err.startswith(f"error: {command}: ") and err.count("\n") == 1, err
        assert message in err and "nan" not in err, err
        if message == CONTRACT:
            worst = re.search(r"max (\S+) >= 1e-08, where the rounding floor eps max\|M_w\| is "
                              r"(\S+) ", err)
            assert worst and 1e-8 < float(worst.group(1)) < math.inf, err
            assert float(worst.group(2)) > 1e100, err
    for command in ("geometry", "gauge-check"):  # they solve nothing
        code, _ = run_cli(tmp_path, body, command)
        assert code == 0 and capsys.readouterr().err == ""


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _scaled(draw, typical, unit):
    """A parameter within typical units, its usual size at the drawn rho_max, or about one
    draw in seven a magnitude anywhere up to 1e300 of either sign, past every bound."""
    if draw(st.integers(0, 6)) == 0:
        return draw(st.sampled_from([1.0, -1.0])) * draw(_log_uniform(1e-300, 1e300))
    return draw(st.floats(-typical, typical)) * unit


@st.composite
def run_documents(draw):
    """A whole run document: every surface and field kind, parameters at their usual sizes
    for the drawn rho_max and now and then past their bounds, and the grid, channels, mode,
    omega, dt and steps of a run."""
    rho_max = draw(st.sampled_from(RHO_MAX_RANGE) | _log_uniform(*RHO_MAX_RANGE))
    kind = draw(st.sampled_from(["flat", "paraboloid", "gaussian-bump", "sphere-cap"]))
    surface = {"kind": kind, "rho_max": rho_max}
    if kind == "paraboloid":
        surface["a"] = draw(_scaled(3.0, 1.0 / rho_max))
    elif kind == "gaussian-bump":
        surface["amplitude"] = draw(_scaled(1.0, rho_max))
        surface["sigma"] = abs(draw(_scaled(2.0, rho_max))) or rho_max
    elif kind == "sphere-cap":
        surface["radius"] = rho_max * (1.0 + draw(_log_uniform(1e-3, 1e3)))
    field = {"kind": draw(st.sampled_from(["axial-uniform", "cartesian-constant",
                                           "frame-synthetic"]))}
    if field["kind"] == "axial-uniform":
        field["b"] = draw(_scaled(20.0, rho_max ** -2))
    elif field["kind"] == "cartesian-constant":
        field["c"] = draw(_scaled(8.0, 1.0 / rho_max))
    else:
        for key in ("a1", "a2", "a3"):
            if draw(st.booleans()):
                field[key] = draw(_scaled(20.0, 1.0 / rho_max))
        if draw(st.booleans()):
            field["gamma_interval"] = sorted(draw(st.floats(0.0, 1.0)) * rho_max
                                             for _ in range(2))
    n_points = draw(st.integers(16, 600))
    return {"surface": surface, "field": field, "grid": {"n_points": n_points},
            "mode": draw(st.sampled_from(operator.MODES)),
            "m_list": draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)),
            "k_eigen": draw(st.integers(1, 8)),
            "omega": draw(_log_uniform(1e-300, 1e300)),
            "dt": draw(_log_uniform(1e-300, 1e300)),
            "steps": draw(st.integers(1, 200))}


def _document(surface, field=None, n_points=64, **keys):
    return {"surface": surface, **({"field": field} if field else {}),
            "grid": {"n_points": n_points}, **keys}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(doc=run_documents())
@example(doc=_document({"kind": "paraboloid", "a": -4.710960611511412e+39, "rho_max": 1e-40},
                       {"kind": "cartesian-constant", "c": 1.1755179245362536e+298}, 190,
                       m_list=[-3]))
@example(doc=_document({"kind": "flat", "rho_max": 1e-60}))
@example(doc=_document({"kind": "flat"}, {"kind": "frame-synthetic", "a2": 1e100}, m_list=[1]))
@example(doc=_document({"kind": "flat"}, {"kind": "frame-synthetic", "a2": 1e154}, m_list=[1]))
@example(doc=_document({"kind": "gaussian-bump", "rho_max": 1e75,
                        "amplitude": -1.325005810511576e+74, "sigma": 4.2622105543588964e+74},
                       {"kind": "axial-uniform", "b": 3.872057539080238e+25}, 25,
                       mode="as-written", m_list=[2], k_eigen=5))
# and the documents earlier draws found warning, each now named or run without a warning:
# decoupling_check's h1 h2 at a small omega, the axial field (b/2) x at the wall, a Lanczos
# solve past range, the as-written corrections over drho^2, and the measure quotient w M x
@example(doc=_document({"kind": "sphere-cap", "rho_max": 1e-75, "radius": 2e-75},
                       {"kind": "axial-uniform", "b": 0.0}, 16, omega=1e-236))
@example(doc=_document({"kind": "sphere-cap", "rho_max": 1.0181667117764068e+49,
                        "radius": 1.063796748462136e+49},
                       {"kind": "axial-uniform", "b": -1.2523561552947362e+262}, 161))
@example(doc=_document({"kind": "flat", "rho_max": 10385628832857.672},
                       {"kind": "cartesian-constant", "c": 7.758444157206038e+69}, 485,
                       m_list=[2, 4, 0], k_eigen=4))
@example(doc=_document({"kind": "paraboloid", "rho_max": 1.494665485898418e-74,
                        "a": -1.7510940913907608e+103},
                       {"kind": "axial-uniform", "b": 2.7826204232601946e+148}, 334,
                       mode="as-written", m_list=[-4]))
@example(doc=_document({"kind": "paraboloid", "rho_max": 1.8769541678668106e+67,
                        "a": -6.271266829187802e-68},
                       {"kind": "cartesian-constant", "c": 1.2710963410364118e+130}, 393,
                       m_list=[-4, 3, 3], k_eigen=1))
def test_every_command_on_a_whole_document_runs_or_names_its_error(tmp_path_factory, doc):
    # the four commands on a document drawn from the whole schema: each exits 0, or exits 1
    # with one error line that holds no nan and makes no output directory; a RuntimeWarning,
    # an error under the test policy, or any other exception fails the run
    tmp = tmp_path_factory.mktemp("document")
    cfg = tmp / "run.yaml"
    cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
    for command in cli.COMMANDS:
        out, err = tmp / command, io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--output", str(out)])
        if code == 0:
            assert out.is_dir()
        else:
            assert code == 1 and not out.exists(), err.getvalue()
            assert re.fullmatch(rf"error: {command}: [^\n]*\n", err.getvalue()), err.getvalue()
            assert not re.search(r"\bnan\b", err.getvalue()), err.getvalue()


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


# the runs CI's console-script step made twice, each into its own directory: all four
# commands and as-written spectrum and evolve on one config per surface and field kind, a
# Hermitian tunnelling doublet, a flat disc of radius 1e5, the Hermitian route's Lanczos at
# n = 4000, the certified route's at n = 1000, and README's cap.yaml
FRAME = "{kind: frame-synthetic, a3: 0.4, gamma_interval: [0.2, 0.6]}"
KIND_PAIRS = {
    "flat": ("{kind: flat}", FRAME),
    "paraboloid": ("{kind: paraboloid, a: 0.5}", FRAME),
    "bump": ("{kind: gaussian-bump, amplitude: 0.3, sigma: 0.5}", FRAME),
    "cap": ("{kind: sphere-cap, radius: 2.0}", FRAME),
    "axial": ("{kind: paraboloid, a: 0.5}", "{kind: axial-uniform, b: 1.3}"),
    "cartesian": ("{kind: paraboloid, a: 0.5}", "{kind: cartesian-constant, c: 0.7}"),
}
RUN_CONFIGS = {
    **{name: f"surface: {surface}\nfield: {field}\ngrid: {{n_points: 64}}\nm_list: [0, 1]\n"
             "steps: 10\n" for name, (surface, field) in KIND_PAIRS.items()},
    # a barrier a3^2 / 2 on [0.30, 0.60] splits the disc into a core and an annulus whose
    # lowest levels lie 0.1 apart
    "doublet": "surface: {kind: flat}\nfield: {kind: frame-synthetic, a3: 19.417868840237567, "
               "gamma_interval: [0.29613570389872346, 0.5971578823257306]}\n"
               "grid: {n_points: 200}\n",
    # an operator norm of ~4e-7, where stein, comparing pivots with an absolute epsilon,
    # failed before the locate was scaled
    "wide": "surface: {kind: flat, rho_max: 1.0e+5}\ngrid: {n_points: 64}\n",
    "fine": "surface: {kind: paraboloid, a: 0.5}\nfield: {kind: axial-uniform, b: 1.3}\n"
            "grid: {n_points: 4000}\nm_list: [0, 1, 2]\n",
    "nonnormal": "surface: {kind: paraboloid, a: 0.5}\nfield: {kind: frame-synthetic, a3: 0.3}\n"
                 "grid: {n_points: 1000}\nm_list: [0, 1, 2]\n",
    "readme-cap": README_CAP + "dt: 0.001\n",
}
RUNS = ([(name, command, mode) for name in KIND_PAIRS
         for command, mode in [(command, None) for command in cli.COMMANDS]
         + [("spectrum", "as-written"), ("evolve", "as-written")]]
        + [(name, "spectrum", None) for name in ("doublet", "wide", "fine", "nonnormal",
                                                 "readme-cap")])
# a header and 64 nodes, 2 channels x 6 levels, 10 steps after t = 0, and 3 channels
ROWS = {"geometry.csv": 65, "gauge_check.csv": 65, "spectrum.csv": 13, "trace.csv": 12,
        "fine": 19, "nonnormal": 19, "doublet": 7, "wide": 7, "readme-cap": 7}

IMPORT_PATH_RUN = """
import sys
from pathlib import Path
from curvband import cli, solver
configs, root = Path(sys.argv[1]), Path(sys.argv[2])
for name, command, mode in RUNS:
    out = root / name / (command if mode is None else f"{command}-{mode}")
    argv = [command, "--config", str(configs / f"{name}.yaml"), "--output", str(out)]
    assert cli.main(argv + (["--mode", mode] if mode else [])) == 0, (name, command, mode)
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
    # two fresh interpreters, as each curvband command is, make every run of RUNS: both
    # write the same bytes, with nothing on stderr.  The solver loads only scipy's LAPACK
    # extension, and solver.spla, which only the benchmark reads, loads scipy.sparse.linalg
    # on first use; both packages import as usual afterwards.  No eigensolver route draws
    # a random number, so numpy.random stays unloaded
    configs = tmp_path / "configs"
    configs.mkdir()
    for name, body in RUN_CONFIGS.items():
        (configs / f"{name}.yaml").write_text(body, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(curvband.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = f"RUNS = {RUNS!r}\n" + IMPORT_PATH_RUN
    trees = [tmp_path / "first", tmp_path / "second"]
    procs = [subprocess.Popen([sys.executable, "-c", script, str(configs), str(tree)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for tree in trees]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert (proc.returncode, out, err) == (0, "", ""), err
    files = [sorted(p.relative_to(tree) for p in tree.rglob("*") if p.is_file())
             for tree in trees]
    assert files[0] == files[1] and len(files[0]) == 2 * len(RUNS)
    for relative in files[0]:
        first, second = (tree / relative for tree in trees)
        assert first.read_bytes() == second.read_bytes(), relative
        if relative.suffix == ".csv":
            rows = first.read_text(encoding="utf-8").splitlines()
            assert len(rows) == ROWS.get(relative.parts[0], ROWS[relative.name]), relative
            if relative.name == "spectrum.csv":
                residuals = np.loadtxt(rows[1:], delimiter=",", ndmin=2)[:, 4]
                assert (residuals < 1e-8).all(), relative
