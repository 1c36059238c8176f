"""Radial discretization of the surface-bound Hamiltonian.

For a fixed azimuthal integer m the tangential wavefunction chi(rho) e^{i m phi}
obeys a one-dimensional operator on (0, R) built from:

    kinetic    -(1/2) c_Z (chi'' + chi'/rho)
    drift      +(1/2) c_S S_rho S_rhorho chi'
    potential  +(1/2) m^2/rho^2 - (1/2)(H^2 - K)
    field      + e m A2/rho  - i e (A1/Z) d/drho (symmetrized)
               + i e A3 H  + (e^2/2)(A1^2 + A2^2 + A3^2)

Two coefficient conventions are shipped.  "hermitian-corrected" takes
c_Z = 1/Z^2, c_S = 1/Z^4, which is the Laplace-Beltrami reduction of the
surface metric; its kinetic block is discretized in conservative (flux)
form and is self-adjoint under the surface measure rho Z drho up to
rounding.  "as-written" takes c_Z = Z^2, c_S = Z^4 and is assembled as the
corrected operator plus explicit central-difference corrections, so the
two modes coincide bit-for-bit on a flat profile where Z = 1.

Grid: interior nodes rho_j = j * drho, j = 1..n, drho = R/(n+1), with a
hard wall (Dirichlet) at rho = R.  At the axis the stencil closes by
parity, chi(-rho) = (-1)^m chi(rho): for m != 0 regularity forces
chi(0) = 0 and the ghost term is dropped; for m = 0 the ghost value is
folded as chi(0) := chi(drho), which zeroes the flux into the axis cell
and preserves second-order eigenvalue convergence.  The radial-field term
carries no flux there either: its face coefficient rho A1 is 0 on the
axis, so the channel stays measure-Hermitian up to i e A3 H.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CoarseGridWarning, DomainError, EvaluationError
from .geometry import SurfaceProfile, _finite, _positive, _surface, offset_scale_factors

MODES = ("as-written", "hermitian-corrected")
MIN_N_POINTS = 16


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid of interior nodes j*spacing, j = 1..n_points.

    No node sits at the axis; the outer boundary rho = rho_max carries a
    Dirichlet condition.
    """

    n_points: int
    rho_max: float

    def __post_init__(self):
        _whole("n_points", self.n_points, 1)
        _positive("rho_max", self.rho_max)

    @property
    def spacing(self) -> float:
        return self.rho_max / (self.n_points + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.n_points + 1)


@dataclass(frozen=True, eq=False)
class TangentialOperator:
    """Discretized tangential operator for one azimuthal channel.

    The operator is tridiagonal and is its complex bands:
    lower[j] = M[j+1, j], diag[j] = M[j, j], upper[j] = M[j, j+1].
    measure_weights are the surface-measure quadrature weights rho Z drho;
    the corrected operator with no field is self-adjoint under them.
    diag.imag is e * A3 * H per node, the coefficient of the imaginary
    potential responsible for norm growth or decay.
    """

    m: int
    mode: str
    measure_weights: np.ndarray
    grid: RadialGrid
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def bands(self):
        return self.lower, self.diag, self.upper

    @property
    def matrix(self) -> np.ndarray:
        """Dense n x n copy of the operator, built on each access."""
        n = self.n
        mat = np.zeros((n, n), dtype=complex)
        flat = mat.reshape(-1)
        flat[::n + 1], flat[1::n + 1], flat[n::n + 1] = self.diag, self.upper, self.lower
        return mat


def _whole(name: str, value, minimum=None) -> int:
    """value as an int; DomainError naming the argument unless it is an integer type (a bool
    or a whole float is not, as in the config) and, if minimum is given, at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def normal_energy(omega: float, n: int) -> float:
    """Analytic confinement ladder omega (n + 1/2); no discretization."""
    _positive("omega", omega)
    return omega * (_whole("level index n", n, 0) + 0.5)


def _finite_on_grid(*components) -> None:
    """EvaluationError unless every vector potential component is finite."""
    if not all(np.all(np.isfinite(c)) for c in components):
        raise EvaluationError("vector potential components non-finite on the grid")


def build_tangential(profile: SurfaceProfile, A: Callable, m: int,
                     grid: RadialGrid, mode: str = "hermitian-corrected",
                     e: float = 1.0) -> TangentialOperator:
    """Assemble the three bands of the complex tangential operator at q = 0."""
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    m = _whole("azimuthal index m", m)
    _finite("e", e)
    if grid.n_points < MIN_N_POINTS:
        warnings.warn(
            f"n_points = {grid.n_points} < {MIN_N_POINTS}; "
            "spectra will be poorly resolved",
            CoarseGridWarning, stacklevel=2,
        )

    n = grid.n_points
    dr = grid.spacing
    rho = grid.nodes
    # the surface and the field at the nodes plus ghost radii at the axis and at the wall
    rho_ext = np.concatenate(([0.0], rho, [grid.rho_max]))
    surf = _surface(profile, rho_ext)
    a1_ext, a2_ext, a3_ext = (np.asarray(v, dtype=float) for v in A(rho_ext, 0.0))
    inner = slice(1, n + 1)
    Z, H, K = (v[inner] for v in surf.curvatures())
    wt = rho * Z

    # means above and below each node of the face coefficients: rho/Z of the
    # corrected kinetic flux (0 exactly on the axis) and rho*A1 of the radial field
    faces = np.array([rho_ext / surf.Z, rho_ext * a1_ext])
    gbar_up, sbar_up = 0.5 * (faces[:, 1:-1] + faces[:, 2:])
    gbar_lo, sbar_lo = 0.5 * (faces[:, :-2] + faces[:, 1:-1])

    up = -gbar_up / (2.0 * wt * dr * dr)          # coupling to chi_{j+1}
    lo = -gbar_lo / (2.0 * wt * dr * dr)          # coupling to chi_{j-1}
    diag = (gbar_up + gbar_lo) / (2.0 * wt * dr * dr)

    if mode == "as-written":
        # difference between the printed coefficients and the corrected
        # ones; identically zero on a flat profile
        sr, srr = surf.S_rho[inner], surf.S_rhorho[inner]
        delta_kin = Z ** 2 - 1.0 / Z ** 2
        delta_drift = 0.5 * sr * srr * (Z ** 4 - 1.0 / Z ** 4)
        up = up - 0.5 * delta_kin * (1.0 / dr ** 2 + 1.0 / (2.0 * rho * dr)) \
            + delta_drift / (2.0 * dr)
        lo = lo - 0.5 * delta_kin * (1.0 / dr ** 2 - 1.0 / (2.0 * rho * dr)) \
            - delta_drift / (2.0 * dr)
        diag = diag + delta_kin / dr ** 2

    # radial field term -i e (A1/Z) d/drho, written in the skew form
    # whose midpoint coefficients are means of rho*A1; exactly
    # anti-self-adjoint under the surface measure.  The axis face carries
    # no flux: at m = 0 the fold below closes it like the axis itself,
    # where rho*A1 is 0 (its mean, drho A1(drho)/2, would put an O(1/drho)
    # imaginary entry on diag[0]); at m != 0 lo[0] is dropped anyway
    sbar_lo[0] = 0.0
    up = up - 1j * e * sbar_up / (2.0 * dr * wt)
    lo = lo + 1j * e * sbar_lo / (2.0 * dr * wt)

    a1, a2, a3 = a1_ext[inner], a2_ext[inner], a3_ext[inner]
    _finite_on_grid(a1_ext, a2, a3)
    diag = diag + 0.5 * m * m / rho ** 2 \
        - 0.5 * (H ** 2 - K) \
        + e * m * a2 / rho \
        + 1j * (e * a3 * H) \
        + 0.5 * e * e * (a1 ** 2 + a2 ** 2 + a3 ** 2)

    if m == 0:
        diag[0] += lo[0]        # fold the axis ghost chi(0) := chi(drho)

    return TangentialOperator(
        m=m, mode=mode, measure_weights=wt * dr, grid=grid,
        lower=lo[1:], diag=diag, upper=up[:-1],
    )


@dataclass(frozen=True)
class DecouplingReport:
    """Separability diagnostic of the normal confinement channel.

    Compares the confinement energy V_n at the ground-state width
    q* = omega^(-1/2) against the worst normal-field drive
    |A3| * |d/dq ln chi_n(q*)| = |A3| * omega * q*.  Separation is rated
    adequate when the ratio reaches 100.  chart_ok is h1 h2 > 0 at q* at
    the node of the worst drive.
    """

    omega: float
    q_star: float
    v_n: float
    max_abs_a3: float
    drive: float
    ratio: float
    passed: bool
    chart_ok: bool


def decoupling_check(omega: float, A: Callable,
                     profile: SurfaceProfile, grid: RadialGrid) -> DecouplingReport:
    """Ratio test for tangential/normal separation at confinement omega."""
    _positive("omega", omega)
    q_star = omega ** -0.5
    v_n = 0.5 * omega ** 2 * q_star ** 2
    a3 = np.abs(np.asarray(A(grid.nodes, 0.0)[2], dtype=float))
    _finite_on_grid(a3)
    worst = int(np.argmax(a3))
    max_a3 = float(a3[worst])
    drive = max_a3 * omega * q_star
    ratio = math.inf if drive == 0.0 else v_n / drive
    # the radii assembly checks, every node and the wall, past the worst node, named first
    _surface(profile, np.concatenate(([grid.nodes[worst]], grid.nodes, [grid.rho_max])))
    h1, h2 = offset_scale_factors(profile, grid.nodes[worst], q_star)
    return DecouplingReport(
        omega=omega, q_star=q_star, v_n=v_n, max_abs_a3=max_a3,
        drive=drive, ratio=ratio, passed=bool(ratio >= 100.0), chart_ok=bool(h1 * h2 > 0.0),
    )
