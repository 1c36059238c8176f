"""The four seeded workloads: their inputs, one operation, and its output check.

A workload is a sequence of *rounds*.  A round is a fixed list of case
classes whose physical parameters are drawn from ``(seed, round)``; grid
sizes, surface kinds and azimuthal numbers follow the round index alone, so
every seed runs the same class mix.  A run is a fixed number of whole rounds
(``Workload.rounds``), so a given seed and ``--seconds`` give the same
inputs, counts and failures every time.

Every output is checked against a reference that does not come from the
solver under test.  The budgets below were calibrated on the library's
seed state and say what was seen there; a failed check is a failed
operation, and so is a ``CurvbandError`` or a non-zero CLI exit.  No
configuration is left out because it fails today.

Library calls go through module attributes (``operator.build_tangential``,
not a name imported once) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from curvband import CurvbandError, fields, geometry, operator, solver

K_EIGEN = 6
RHO_MAX = 1.0
CHARGE = 1.0
CORRECTED = "hermitian-corrected"

# The budgets below hold the largest value seen on the library's seed state
# (3 seeds x every class) with a margin of 3x or more.
# the library's own eigen residual contract, re-checked here with numpy
RESIDUAL_BOUND = 1e-8
# Im E of a Hermitian (plus uniform i e A3 H) channel is applied exactly by
# the solver; seen: 4.9e-13
IM_EXACT_TOL = 1e-10
# flat disc: |E - j_{m,k}^2/2| / E <= BESSEL_REL * (drho / 1e-3)^2 at k <= 6;
# seen: 3.0e-5 (scaled)
BESSEL_REL = 1e-4
# refinement pair: max |Re E(n=1000) - Re E(n=4000)| / max |Re E(n=4000)|;
# seen: 3.0e-5
PAIR_REL = 2e-4
# Im E of any eigenpair of a hermitian-corrected channel equals the
# measure-weighted mean of e A3 H over its eigenvector; seen: 4.4e-10
IM_MEAN_TOL = 1e-8
# ... except that at m = 0 the axis closure folds the radial-field term
# (A1 != 0, here the cartesian-constant field) into the first diagonal
# entry, which adds an O(drho^2) imaginary part: 7.6e-5, 1.9e-5, 4.8e-6 at
# n = 250, 500, 1000.  Budget AXIS_FOLD_TOL * (drho / 1e-3)^2; seen: 6.1e-6
AXIS_FOLD_TOL = 3e-5
# CN log-norm slope against e a3 / R on a cap; seen: 2.6e-6
SLOPE_TOL = 3e-5
# CN norm drift max |norm/norm0 - 1| for a Hermitian generator; seen: 5.1e-14
NORM_TOL = 1e-10


HERE = Path(__file__).resolve().parent


def child_env() -> dict:
    """This environment with the checkout's ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class SeededEigs:
    """``scipy.sparse.linalg`` as ``curvband.solver`` sees it, except that an
    ``eigs`` call given neither ``v0`` nor ``rng`` starts from ``self.rng``.

    ``solver.eigen_solve`` calls ``eigs`` above n = 3000 with neither, so
    scipy draws the start vector from OS entropy and whether a solve meets
    the residual contract changes from run to run.  The benchmark makes the
    start vector part of its seeded input instead, so one seed repeats its
    failures; the distribution of start vectors is scipy's own.
    """

    def __init__(self, module):
        self._module = module
        self.rng = None

    def __getattr__(self, name):
        return getattr(self._module, name)

    def eigs(self, *args, **kwargs):
        if kwargs.get("v0") is None and kwargs.get("rng") is None and self.rng is not None:
            kwargs["rng"] = self.rng
        return self._module.eigs(*args, **kwargs)

    @classmethod
    def install(cls) -> "SeededEigs":
        if not isinstance(solver.spla, cls):
            solver.spla = cls(solver.spla)
        return solver.spla


class OperationFailed(Exception):
    """An operation that ended without a result (a non-zero CLI exit)."""


@dataclass
class Case:
    cls: str
    m: int
    params: dict
    profile: object = None
    field: object = None
    mode: str = CORRECTED
    extra: dict = dc_field(default_factory=dict)

    def label(self) -> str:
        return f"{self.cls} m={self.m}"


def _uniform(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _sign(rng) -> float:
    return float(rng.choice([-1.0, 1.0]))


def _axial_or_zero(rng, profile, params):
    if rng.random() < 0.5:
        params["field"] = "zero"
        return fields.zero_field()
    params["field"] = "axial-uniform"
    params["b"] = _sign(rng) * _uniform(rng, 0.5, 2.0)
    return fields.axial_uniform(params["b"], profile)


def _profile(rng, params, kinds):
    """One of ``kinds`` (flat, paraboloid, gaussian-bump, sphere-cap), drawn with its parameters."""
    kind = kinds[int(rng.integers(len(kinds)))]
    params["surface"] = kind
    if kind == "paraboloid":
        params["a"] = _uniform(rng, 0.3, 0.8)
        return geometry.paraboloid(params["a"], RHO_MAX)
    if kind == "gaussian-bump":
        params["amplitude"] = _uniform(rng, 0.2, 0.4)
        params["sigma"] = _uniform(rng, 0.4, 0.6)
        return geometry.gaussian_bump(params["amplitude"], params["sigma"], RHO_MAX)
    if kind == "sphere-cap":
        params["radius"] = _uniform(rng, 1.5, 3.0)
        return geometry.sphere_cap(params["radius"], RHO_MAX)
    return geometry.flat(RHO_MAX)


def _grid(n):
    return operator.RadialGrid(n_points=n, rho_max=RHO_MAX)


def _residuals(matrix, values, vectors) -> np.ndarray:
    res = matrix @ vectors - vectors * values[None, :]
    return np.linalg.norm(res, axis=0) / np.linalg.norm(vectors, axis=0)


def _check_spectrum(op, spec) -> Optional[str]:
    vals = spec.eigenvalues
    if vals.shape != (K_EIGEN,) or not np.all(np.isfinite(vals)):
        return f"n={op.n}: expected {K_EIGEN} finite eigenvalues"
    if np.any(np.diff(vals.real) < 0):
        return f"n={op.n}: eigenvalues not sorted by real part"
    res = _residuals(op.matrix, vals, spec.eigenvectors).max()
    if not res < RESIDUAL_BOUND:
        return f"n={op.n}: recomputed residual {res:.3e} >= {RESIDUAL_BOUND}"
    return None


def _mean_curvature(profile, rho):
    """H from the profile's own derivatives, independent of geometry.curvatures."""
    sr = np.asarray(profile.S_rho(rho), dtype=float)
    srr = np.asarray(profile.S_rhorho(rho), dtype=float)
    Z = np.sqrt(1.0 + sr * sr)
    return Z, -0.5 * (sr / (Z * rho) + srr / Z ** 3)


class Workload:
    """A seeded sequence of rounds of cases, each run as one operation."""

    name = ""
    in_process = True
    # seconds one round takes on the reference host (2 cores, see README);
    # a run is --seconds worth of rounds, and at least min_rounds
    round_s = 1.0
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r])

    def rounds(self, seconds: float, trace: bool = False) -> int:
        """Whole rounds in a run of ``seconds``: a count, not a deadline, so
        that a seed repeats its operations, counts and failures exactly.
        A traced run alternates traced and untraced rounds, so it runs an
        even number."""
        n = max(self.min_rounds, math.ceil(seconds / self.round_s))
        return n + n % 2 if trace else n

    def round(self, r: int) -> list:
        raise NotImplementedError

    def run(self, case: Case, spans_path=None):
        raise NotImplementedError

    def check(self, case: Case, result) -> Optional[str]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Build the first round's objects and solve one small channel.

        Only the lazy set-up matters here (the first dense solve initialises
        BLAS), so a failed warm-up solve is not an error.
        """
        case = self.round(0)[0]
        op = operator.build_tangential(case.profile, case.field, case.m, _grid(200),
                                       mode=case.mode, e=CHARGE)
        try:
            solver.eigen_solve(op, K_EIGEN)
        except CurvbandError:
            pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op_ns(self, start_ns: int, end_ns: int) -> int:
        """Latency of the operation that just ran between start_ns and end_ns."""
        return end_ns - start_ns


class SpectrumRefine(Workload):
    """One structured channel solved at n=1000 and again at n=4000 with k=6.

    The grid-refinement pair a user runs to check O(drho^2) convergence.
    Dense ``eigh`` (n <= 3000) and dense assembly plus shift-invert
    (n = 4000) do the work.  A round is one class at m = 0, 1, 2; classes
    rotate from round to round.
    """

    name = "spectrum-refine"
    round_s = 1.35
    CLASSES = ("flat-free", "flat-axial", "paraboloid", "gaussian-bump", "cap-a3")
    SIZES = (1000, 4000)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.arpack = SeededEigs.install()

    def round(self, r):
        rng = self.rng(r)
        cls = self.CLASSES[r % len(self.CLASSES)]
        params = {}
        shift = 0.0
        if cls == "flat-free":
            profile = _profile(rng, params, ("flat",))
            field = fields.zero_field()
        elif cls == "flat-axial":
            profile = _profile(rng, params, ("flat",))
            params["field"] = "axial-uniform"
            params["b"] = _sign(rng) * _uniform(rng, 0.5, 2.0)
            field = fields.axial_uniform(params["b"], profile)
        elif cls == "cap-a3":
            profile = _profile(rng, params, ("sphere-cap",))
            params["a3"] = _sign(rng) * _uniform(rng, 0.2, 0.45)
            field = fields.frame_synthetic(a3=params["a3"])
            shift = CHARGE * params["a3"] / params["radius"]
        else:
            profile = _profile(rng, params, (cls,))
            field = _axial_or_zero(rng, profile, params)
        return [Case(cls, m, params, profile, field, extra={"shift": shift, "round": r})
                for m in (0, 1, 2)]

    def run(self, case, spans_path=None):
        out = []
        for n in self.SIZES:
            op = operator.build_tangential(case.profile, case.field, case.m, _grid(n),
                                           mode=case.mode, e=CHARGE)
            self.arpack.rng = np.random.default_rng([self.seed, case.extra["round"], case.m, n])
            out.append((op, solver.eigen_solve(op, K_EIGEN)))
        return out

    def check(self, case, result):
        for op, spec in result:
            problem = _check_spectrum(op, spec)
            if problem:
                return problem
            gap = np.abs(spec.eigenvalues.imag - case.extra["shift"]).max()
            if not gap <= IM_EXACT_TOL:
                return f"n={op.n}: |Im E - e a3 H| = {gap:.3e} > {IM_EXACT_TOL}"
            if case.cls == "flat-free":
                from scipy.special import jn_zeros  # not part of set-up

                ref = jn_zeros(case.m, K_EIGEN) ** 2 / (2.0 * RHO_MAX ** 2)
                rel = np.abs(spec.eigenvalues.real - ref) / ref
                budget = BESSEL_REL * (op.grid.spacing / 1e-3) ** 2
                if not rel.max() <= budget:
                    return f"n={op.n}: Bessel-level error {rel.max():.3e} > {budget:.3e}"
        coarse, fine = (spec.eigenvalues.real for _, spec in result)
        rel = np.abs(coarse - fine).max() / np.abs(fine).max()
        if not rel <= PAIR_REL:
            return f"refinement pair differs by {rel:.3e} > {PAIR_REL}"
        return None


class SpectrumNonnormal(Workload):
    """One genuinely non-normal channel at n=1000, m alternating 0 and 1.

    Dense ``sla.eig`` does nearly all the work; a structured-solver change
    should leave this workload unchanged.  A round is one case of each class.
    """

    name = "spectrum-nonnormal"
    round_s = 13.0
    # 15 operations of ~2.5 s; fewer leave the median too noisy to bound
    min_rounds = 3
    CLASSES = ("paraboloid-a3", "gaussian-a3", "cap-interval", "cap-cartesian",
               "as-written")
    N = 1000

    def round(self, r):
        rng = self.rng(r)
        cases = []
        for c, cls in enumerate(self.CLASSES):
            params = {}
            mode = CORRECTED
            if cls in ("paraboloid-a3", "gaussian-a3"):
                kind = "paraboloid" if cls == "paraboloid-a3" else "gaussian-bump"
                profile = _profile(rng, params, (kind,))
                params["a3"] = _sign(rng) * _uniform(rng, 0.2, 0.45)
                field = fields.frame_synthetic(a3=params["a3"])
            elif cls == "cap-interval":
                profile = _profile(rng, params, ("sphere-cap",))
                params["a3"] = _sign(rng) * _uniform(rng, 0.2, 0.45)
                params["interval"] = [_uniform(rng, 0.1, 0.3), _uniform(rng, 0.5, 0.8)]
                field = fields.frame_synthetic(a3=params["a3"],
                                               gamma_interval=tuple(params["interval"]))
            elif cls == "cap-cartesian":
                profile = _profile(rng, params, ("sphere-cap",))
                params["c"] = _sign(rng) * _uniform(rng, 0.5, 1.0)
                field = fields.cartesian_constant(params["c"], profile)
            else:
                kinds = ("paraboloid", "gaussian-bump", "sphere-cap")
                profile = _profile(rng, params, (kinds[r % len(kinds)],))
                field = fields.zero_field()
                mode = "as-written"
            cases.append(Case(cls, (r + c) % 2, params, profile, field, mode))
        return cases

    def _coupling(self, case, rho):
        """e A3 H per node from the drawn parameters, and the measure rho Z."""
        Z, H = _mean_curvature(case.profile, rho)
        p = case.params
        if case.cls == "cap-cartesian":
            a3 = p["c"] / Z                    # (0, 0, c) . e3
        elif case.cls == "cap-interval":
            lo, hi = p["interval"]
            a3 = np.where((rho >= lo) & (rho <= hi), p["a3"], 0.0)
        else:
            a3 = np.full_like(rho, p["a3"])
        return CHARGE * a3 * H, rho * Z

    def run(self, case, spans_path=None):
        op = operator.build_tangential(case.profile, case.field, case.m, _grid(self.N),
                                       mode=case.mode, e=CHARGE)
        return op, solver.eigen_solve(op, K_EIGEN)

    def check(self, case, result):
        op, spec = result
        problem = _check_spectrum(op, spec)
        if problem or case.mode != CORRECTED:
            return problem
        coupling, weight = self._coupling(case, op.grid.nodes)
        density = weight[:, None] * np.abs(spec.eigenvectors) ** 2
        mean = (coupling @ density) / density.sum(axis=0)
        gap = np.abs(spec.eigenvalues.imag - mean).max()
        budget = IM_MEAN_TOL
        if case.cls == "cap-cartesian" and case.m == 0:
            budget += AXIS_FOLD_TOL * (op.grid.spacing / 1e-3) ** 2
        if not gap <= budget:
            return f"|Im E - <e A3 H>| = {gap:.3e} > {budget:.3e}"
        return None


class EvolveCN(Workload):
    """Ground state plus 1000 Crank-Nicolson steps (dt = 1e-3) at n = 1000.

    A round is a cap with uniform +a3 (norm growth), a cap with uniform -a3
    (decay) and a Hermitian generator (norm conservation).  The operation
    also assembles its operator, which costs a few ms.
    """

    name = "evolve-cn"
    round_s = 5.9
    CLASSES = ("cap-grow", "cap-decay", "hermitian")
    N, DT, STEPS = 1000, 1e-3, 1000

    def round(self, r):
        rng = self.rng(r)
        cases = []
        for c, cls in enumerate(self.CLASSES):
            params = {}
            m = (r + c) % 2
            if cls == "hermitian":
                kinds = ("flat", "paraboloid", "gaussian-bump")
                profile = _profile(rng, params, (kinds[r % len(kinds)],))
                field = _axial_or_zero(rng, profile, params)
                rate = 0.0
            else:
                profile = _profile(rng, params, ("sphere-cap",))
                sign = 1.0 if cls == "cap-grow" else -1.0
                params["a3"] = sign * _uniform(rng, 0.2, 0.45)
                field = fields.frame_synthetic(a3=params["a3"])
                rate = CHARGE * params["a3"] / params["radius"]
            cases.append(Case(cls, m, params, profile, field, extra={"rate": rate}))
        return cases

    def run(self, case, spans_path=None):
        op = operator.build_tangential(case.profile, case.field, case.m, _grid(self.N),
                                       mode=case.mode, e=CHARGE)
        initial = solver.ground_state(op)
        return solver.evolve(op, initial, self.DT, self.STEPS, record_states=False)

    def check(self, case, trace):
        norms = trace.norms
        if norms.shape != (self.STEPS + 1,) or not np.all(np.isfinite(norms)):
            return "norm trace has the wrong length or non-finite values"
        if case.cls == "hermitian":
            drift = np.abs(norms / norms[0] - 1.0).max()
            if not drift <= NORM_TOL:
                return f"norm drift {drift:.3e} > {NORM_TOL} for a Hermitian generator"
            return None
        gap = abs(trace.log_norm_slope - case.extra["rate"])
        if not gap <= SLOPE_TOL:
            return f"|slope - e a3/R| = {gap:.3e} > {SLOPE_TOL}"
        return None


class CliRuns(Workload):
    """One ``curvband <subcommand>`` run in a fresh interpreter.

    A round runs all four subcommands on each of two seeded structured
    configs with ``n_points: 1000``: a flat, paraboloid or gaussian-bump
    surface (in turn, round by round) in an axial-uniform field (a projected Cartesian field, whose
    gauge check costs the most) and a sphere cap with uniform +-a3.  Fixing
    that mix, and giving ``evolve`` only STEPS steps, keeps the four
    subcommands' costs overlapping, so the median does not sit on a gap
    between classes.  Only here do ``config``, ``cli``, the gauge check and
    the interpreter's import floor run.
    """

    name = "cli-runs"
    in_process = False
    round_s = 7.6
    # 32 operations; the 24 of a 20 s run left the median's run-to-run
    # spread near its bound
    min_rounds = 4
    COMMANDS = ("geometry", "gauge-check", "spectrum", "evolve")
    N, STEPS = 1000, 10
    OUTPUTS = {"geometry": "geometry.csv", "gauge-check": "gauge_check.csv",
               "spectrum": "spectrum.csv", "evolve": "trace.csv"}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.dir = workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.launcher = str(HERE / "cli_launcher.py")
        self.timing = self.dir / "main_ns"
        self.env = child_env()

    def round(self, r):
        rng = self.rng(r)
        cases = []
        for c, kind in enumerate((("flat", "paraboloid", "gaussian-bump")[r % 3],
                                  "sphere-cap")):
            surface = {"kind": kind, "rho_max": RHO_MAX}
            if kind == "sphere-cap":
                surface["radius"] = _uniform(rng, 1.5, 3.0)
                fld = {"kind": "frame-synthetic", "a3": _sign(rng) * _uniform(rng, 0.2, 0.45)}
            else:
                if kind == "paraboloid":
                    surface["a"] = _uniform(rng, 0.3, 0.8)
                elif kind == "gaussian-bump":
                    surface["amplitude"] = _uniform(rng, 0.2, 0.4)
                    surface["sigma"] = _uniform(rng, 0.4, 0.6)
                fld = {"kind": "axial-uniform", "b": _sign(rng) * _uniform(rng, 0.5, 2.0)}
            m = (r + c) % 3
            doc = {"surface": surface, "field": fld, "grid": {"n_points": self.N},
                   "m_list": [m], "k_eigen": K_EIGEN, "dt": 1e-3, "steps": self.STEPS}
            config = self.dir / f"config-{len(cases) // len(self.COMMANDS)}.yaml"
            config.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
            params = {"surface": surface, "field": fld}
            cases += [Case(cmd, m, params, extra={"config": str(config)})
                      for cmd in self.COMMANDS]
        return cases

    def _rows(self, command):
        return {"geometry": self.N, "gauge-check": self.N, "spectrum": K_EIGEN,
                "evolve": self.STEPS + 1}[command]

    def run(self, case, spans_path=None):
        out = self.dir / "out"
        self.timing.unlink(missing_ok=True)
        argv = [sys.executable, self.launcher, "--timing", str(self.timing)]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        argv += [case.cls, "--config", case.extra["config"], "--output", str(out)]
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, env=self.env, timeout=120)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:]
            raise OperationFailed(f"exit {proc.returncode}: {' '.join(tail)}")
        return out

    def check(self, case, out):
        path = out / self.OUTPUTS[case.cls]
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = lines[1:]
        if len(rows) != self._rows(case.cls):
            return f"{path.name}: {len(rows)} rows, expected {self._rows(case.cls)}"
        try:
            values = [float(v) for row in rows for v in row.split(",")]
        except ValueError as exc:
            return f"{path.name}: unparsable value ({exc})"
        if not all(math.isfinite(v) for v in values):
            return f"{path.name}: non-finite value"
        if not (out / "run_summary.txt").is_file():
            return "run_summary.txt missing"
        return None

    def warm_up(self):
        """One untimed run of the first case, so the first timed one does
        not pay for cold file caches."""
        case = self.round(0)[0]
        self.run(case)

    def peak_rss_mb(self):
        """Largest child so far; the setup probes (a bare import) are smaller."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def op_ns(self, start_ns, end_ns):
        """How long ``curvband.cli.main`` ran in the child, as the launcher
        measured it.  The interpreter start and ``import curvband.cli``
        before it are what ``setup_s`` measures; they vary by +-15% from run
        to run on a shared host and would swamp the subcommand's own time.
        A child that failed before writing its timing counts in full."""
        try:
            return int(self.timing.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return end_ns - start_ns


WORKLOADS = {w.name: w for w in (SpectrumRefine, SpectrumNonnormal, EvolveCN, CliRuns)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
