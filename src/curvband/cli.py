"""Command-line entry point: geometry | gauge-check | spectrum | evolve.

Every run is driven by one YAML config (see config module); selected keys
can be overridden by flags.  Outputs are deterministic CSV files plus a
run_summary.txt with the config echo, Hermiticity report and decoupling
ratio.  Numbers are written with 17 significant digits and no timestamps,
so identical inputs produce byte-identical files.  A run computes all of its
output before it makes the output directory, so a failed run writes nothing.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import config as cfgmod
from . import fields as fieldmod
from . import geometry, operator, solver
from .errors import CurvbandError

COMMANDS = ("geometry", "gauge-check", "spectrum", "evolve")
GAUGE_TOL = 1e-10
BLOCK_ROWS = 4096


def _fmt(x) -> str:
    return f"{x:.17g}"


@contextmanager
def _replacing(path: Path):
    """Text file written to a sibling temp file and moved over path by
    os.replace once complete; on failure the temp file is removed and path
    is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: Path, header, table: np.ndarray) -> None:
    """Write the 2-D float array table under header, each number as _fmt does, with one %
    per BLOCK_ROWS rows; a failure leaves no partial file behind."""
    template = ",".join(["%.17g"] * len(header)) + "\n"
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for block in np.split(table, range(BLOCK_ROWS, len(table), BLOCK_ROWS)):
            fh.write(template * len(block) % tuple(block.ravel().tolist()))


def run_command(config: cfgmod.RunConfig, command: str, output_dir=None) -> int:
    """Execute one subcommand; returns the process exit status.  Every number is
    computed before anything is written, so a failed run writes nothing, not even
    its output directory."""
    if command not in COMMANDS:
        raise CurvbandError(f"unknown command {command!r}")

    profile, field, grid = cfgmod.build(config)
    op0 = operator.build_tangential(profile, field, config.m_list[0], grid,
                                    mode=config.mode, e=config.charge_e)
    herm = solver.hermiticity_report(op0)
    dec = operator.decoupling_check(config.omega, field, profile, grid)
    lines = [
        f"command: {command}",
        f"mode: {config.mode}",
        f"hermiticity: max_asymmetry={_fmt(herm.max_asymmetry)} "
        f"relative={_fmt(herm.relative_asymmetry)} "
        f"antihermitian_norm={_fmt(herm.antihermitian_norm)} "
        f"coupling_equality={herm.coupling_equality}",
        f"decoupling: omega={_fmt(dec.omega)} ratio={_fmt(dec.ratio)} "
        f"passed={dec.passed} chart_ok={dec.chart_ok}",
    ]

    if command == "geometry":
        nodes = grid.nodes
        Z, H, K = geometry.curvatures(profile, nodes)
        # scalar h ** 2 is libm pow; an array H ** 2 (np.square) moves a few last digits
        hsq_minus_k = [h ** 2 - k for h, k in zip(H.tolist(), K.tolist())]
        name, header = "geometry.csv", ["rho", "Z", "H", "K", "Hsq_minus_K", "F_at_q0"]
        table = np.column_stack([nodes, Z, H, K, hsq_minus_k, np.ones_like(nodes)])
        lines.append(f"geometry.csv: {len(nodes)} nodes")

    elif command == "gauge-check":
        report = fieldmod.is_coulomb_gauge(field, profile, grid, GAUGE_TOL)
        if report.values is None:
            raise CurvbandError(f"gauge check: {report.note}")
        name, header = "gauge_check.csv", ["rho", "divergence"]
        table = np.column_stack([grid.nodes, report.values])
        lines.append(
            f"gauge-check: passed={report.passed} "
            f"max_violation={_fmt(report.max_violation)} "
            f"at_rho={_fmt(report.at_rho)} tol={_fmt(report.tol)}"
        )

    elif command == "spectrum":
        ops = [op0] + [operator.build_tangential(profile, field, m, grid,
                                                 mode=config.mode, e=config.charge_e)
                       for m in config.m_list[1:]]
        results = [(op, solver.eigen_solve(op, config.k_eigen)) for op in ops]
        name, header = "spectrum.csv", ["m", "index", "re_E", "im_E", "residual"]
        table = np.array([(op.m, idx, val.real, val.imag, res) for op, spec in results
                          for idx, (val, res) in enumerate(zip(spec.eigenvalues, spec.residuals))],
                         dtype=float)
        E_q = operator.normal_energy(config.omega, config.n_normal)
        ground = results[0][1].eigenvalues[0]
        combined = ground + E_q
        lines.append(f"normal channel: omega={_fmt(config.omega)} "
                     f"n={config.n_normal} E_q={_fmt(E_q)}")
        lines.append(f"ground total (m={config.m_list[0]}): "
                     f"re={_fmt(combined.real)} im={_fmt(combined.imag)} "
                     f"tangential re={_fmt(ground.real)}")

    elif command == "evolve":
        initial = solver.ground_state(op0)
        trace = solver.evolve(op0, initial, config.dt, config.steps,
                              record_states=False)
        name, header = "trace.csv", ["t", "norm", "log_norm"]
        table = np.column_stack([trace.times, trace.norms, np.log(trace.norms)])
        avg = solver.weighted_coupling(op0, initial)
        lines.append(f"log-norm slope: {_fmt(trace.log_norm_slope)}")
        lines.append(f"weighted coupling <e A3 H>: {_fmt(avg)}")
        lines.append(f"norm ratio: {_fmt(trace.norms[-1] / trace.norms[0])}")

    lines += ["config:"] + ["  " + line for line in cfgmod.serialize_config(config).splitlines()]
    out = Path(output_dir if output_dir is not None else config.output_path)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / name, header, table)
    with _replacing(out / "run_summary.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


# the positional command and the seven flags: converter, choices, metavar, help
ARGUMENTS = {
    "command": (str, COMMANDS, None, "what to compute and write"),
    "--config": (str, None, "FILE", "YAML run configuration (required)"),
    "--output": (str, None, "DIR", "output directory, in place of output_path"),
    "--mode": (str, operator.MODES, None, "operator mode, in place of mode"),
    "--m": (str, None, "M,...", "azimuthal indices, e.g. 0,1,2, in place of m_list"),
    "--n-points": (int, None, "N", "radial nodes, in place of grid.n_points"),
    "--dt": (float, None, "DT", "time step, in place of dt"),
    "--steps": (int, None, "S", "number of time steps, in place of steps"),
}
REQUIRED = ("command", "--config")
HELP = ("-h", "--help")


def _parse_args(argv) -> SimpleNamespace:
    """The command and the flag values (None where absent) of argv, each flag given as
    --flag value or --flag=value, by its exact name, the last one winning.  -h or --help
    prints the usage and every argument to stdout and exits 0; a malformed command line
    prints the usage and the reason to stderr and exits 2.  Parsed here, not by argparse,
    whose import and first use (gettext, regex compiles) cost every command more than this
    (CHANGES.md, "The CLI parses its command and seven flags itself")."""
    shown = {}
    for name, (_, choices, metavar, _) in ARGUMENTS.items():
        word = f"{{{','.join(choices)}}}" if choices else metavar
        shown[name] = word if name == "command" else f"{name} {word}"
    usage = "usage: curvband " + " ".join(
        shown[name] if name in REQUIRED else f"[{shown[name]}]" for name in ARGUMENTS)

    def refuse(reason):
        print(usage, f"curvband: error: {reason}", sep="\n", file=sys.stderr)
        raise SystemExit(2)

    values = dict.fromkeys(ARGUMENTS)
    rest = iter(argv)
    for arg in rest:
        if arg in HELP:
            print(usage, "", "Spectra and norm dynamics of a charged particle bound to an "
                  "axisymmetric curved surface in a static vector potential.", "",
                  *(f"  {shown[name]:<40} {text}" for name, (*_, text) in ARGUMENTS.items()),
                  f"  {', '.join(HELP):<40} show this help and exit", sep="\n")
            raise SystemExit(0)
        name, eq, value = arg.partition("=")
        if not arg.startswith("--"):
            name, value = "command", arg
            if values["command"] is not None:
                refuse(f"unrecognized arguments: {arg}")
        elif name not in ARGUMENTS:
            refuse(f"unrecognized arguments: {arg}")
        elif not eq:
            value = next(rest, None)
            if value is None or value.startswith("--") or value in HELP:
                refuse(f"argument {name}: expected one argument")
        convert, choices = ARGUMENTS[name][:2]
        try:
            values[name] = convert(value)
        except ValueError:
            refuse(f"argument {name}: invalid {convert.__name__} value: {value!r}")
        if choices is not None and value not in choices:
            refuse(f"argument {name}: invalid choice: {value!r} "
                   f"(choose from {', '.join(map(repr, choices))})")
    missing = [name for name in REQUIRED if values[name] is None]
    if missing:
        refuse(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**{name.lstrip("-").replace("-", "_"): value
                              for name, value in values.items()})


def _overrides(args) -> dict:
    """Config keys set by flags; parse_config validates them like the YAML."""
    doc = {key: getattr(args, key) for key in ("mode", "dt", "steps")
           if getattr(args, key) is not None}
    if args.n_points is not None:
        doc["grid"] = {"n_points": args.n_points}
    if args.m is not None:
        try:
            doc["m_list"] = [int(v) for v in args.m.split(",")]
        except ValueError:
            raise CurvbandError(f"--m expects integers like '0,1,2', got {args.m!r}")
    return doc


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = cfgmod.parse_config(text, _overrides(args))
        return run_command(config, args.command, output_dir=args.output)
    except CurvbandError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {args.command}: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
