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
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .geometry import SurfaceProfile, _finite, _positive, _surface, offset_scale_factors

MODES = ("as-written", "hermitian-corrected")
MIN_N_POINTS = 16
# up to it the last node, n spacing = n R / (n + 1) rounded twice, lies inside the wall R:
# with a normal spacing each rounding is within u = 2^-53, and (1 + u)^2 < 1 + 1/n for every
# n < 2^52; at n = 2^53 and R = 1 the last node is the wall itself
MAX_N_POINTS = 2 ** 52 - 1
OMEGA_MAX = math.sqrt(sys.float_info.max)  # decoupling_check squares omega
# the radii an operator may span: its entries scale like n^2 / rho_max^2 and its measure
# weights like rho_max^2 / n^2, and within this range the solver's products of them stay
# finite and nonzero; past it a flat disc assembles a zero or infinite operator
RHO_MAX_RANGE = (1e-75, 1e75)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid of interior nodes j*spacing, j = 1..n_points.

    No node sits at the axis; the outer boundary rho = rho_max carries a
    Dirichlet condition.  n_points must be at least MIN_N_POINTS, as in the
    config, so every operator on a grid has at least that many rows, and at
    most MAX_N_POINTS, so every node lies inside the wall.
    """

    n_points: int
    rho_max: float

    def __post_init__(self):
        if _whole("n_points", self.n_points, MIN_N_POINTS) > MAX_N_POINTS:
            raise DomainError(f"n_points must be <= {MAX_N_POINTS} (2^52 - 1), so that the last "
                              f"node lies inside the wall, got {self.n_points}")
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
    or a whole float is not, as in the config) within float range and, if minimum is given,
    at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if abs(value) > sys.float_info.max:  # math.log10 reads an int of any size
        raise DomainError(f"{name} exceeds float range: about 10^{math.log10(abs(value)):.0f}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def normal_energy(omega: float, n: int) -> float:
    """Analytic confinement ladder omega (n + 1/2); no discretization."""
    _positive("omega", omega)
    energy = omega * (_whole("level index n", n, 0) + 0.5)
    if not math.isfinite(energy):
        raise DomainError(f"omega (n + 1/2) overflows: omega = {omega}, n = {float(n):.6g}")
    return energy


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
    if not RHO_MAX_RANGE[0] <= grid.rho_max <= RHO_MAX_RANGE[1]:
        raise DomainError(f"rho_max must be within [{RHO_MAX_RANGE[0]:g}, "
                          f"{RHO_MAX_RANGE[1]:g}], got {grid.rho_max}")

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

    # means above and below each node of the corrected kinetic flux's face coefficient
    # rho/Z, 0 exactly on the axis
    faces = rho_ext / surf.Z
    gbar_up, gbar_lo = 0.5 * (faces[1:-1] + faces[2:]), 0.5 * (faces[:-2] + faces[1:-1])
    # finite: rho <= 1e75 (RHO_MAX_RANGE), Z <= 2^255 (_surface) and drho <= rho_max / 17,
    # so 2 rho Z drho^2 < 4.1e299
    kinetic = 2.0 * wt * dr * dr
    up = -gbar_up / kinetic          # coupling to chi_{j+1}
    lo = -gbar_lo / kinetic          # coupling to chi_{j-1}
    diag = (gbar_up + gbar_lo) / kinetic

    if mode == "as-written":
        # difference between the printed coefficients and the corrected
        # ones; identically zero on a flat profile
        sr, srr = surf.S_rho[inner], surf.S_rhorho[inner]
        delta_kin = Z ** 2 - 1.0 / Z ** 2
        with np.errstate(over="ignore", invalid="ignore"):  # named just below
            delta_drift = 0.5 * sr * srr * (Z ** 4 - 1.0 / Z ** 4)
        if not np.isfinite(delta_drift).all():
            raise DomainError(f"the as-written drift term S_rho S_rhorho (Z^4 - Z^-4) / 2 "
                              f"overflows float64: the surface is too steep for the printed "
                              f"coefficients, Z = {float(Z.max()):.6g}")
        # libm's pow, as a Python float's ** calls it
        dr2 = np.float64(dr) ** 2
        with np.errstate(over="ignore", invalid="ignore"):  # named just below
            up = up - 0.5 * delta_kin * (1.0 / dr2 + 1.0 / (2.0 * rho * dr)) \
                + delta_drift / (2.0 * dr)
            lo = lo - 0.5 * delta_kin * (1.0 / dr2 - 1.0 / (2.0 * rho * dr)) \
                - delta_drift / (2.0 * dr)
            diag = diag + delta_kin / dr2
        if not (np.isfinite(up).all() and np.isfinite(lo).all() and np.isfinite(diag).all()):
            raise DomainError(f"the as-written corrections (Z^2 - Z^-2) / drho^2 and the drift "
                              f"term over 2 drho overflow float64 at drho = {dr:.6g}: the "
                              f"surface is too steep for the printed coefficients on this "
                              f"grid, Z = {float(Z.max()):.6g}")

    # the field's rules come before its terms: with e^2/2 |A|^2 finite, |e A1| is at most
    # sqrt(2 max float) ~ 1.9e154 at every node, so the radial-field entries below, at most
    # 3/4 |e A1| / drho with drho >= 1e-75 / 2^52, stay below ~6.4e244
    a1, a2, a3 = a1_ext[inner], a2_ext[inner], a3_ext[inner]
    _finite_on_grid(a1_ext, a2, a3)
    centrifugal = 0.5 * m * m / rho ** 2      # largest at the first node, m^2 / (2 drho^2)
    if centrifugal[0] == math.inf:
        raise DomainError(f"azimuthal index m = {float(m):.6g} is too large for the grid: "
                          f"m^2 / (2 drho^2) overflows at drho = {dr:.6g}")
    half_e2 = 0.5 * float(e) * float(e)  # Python floats overflow to inf without a warning
    if half_e2 == math.inf:
        raise DomainError(f"charge e = {float(e):.6g} is too large: e^2/2 overflows float64")
    with np.errstate(over="ignore", invalid="ignore"):  # named just below
        potential = half_e2 * (a1 ** 2 + a2 ** 2 + a3 ** 2)
    if not np.isfinite(potential).all():
        peaks = [float(np.abs(a).max()) for a in (a1, a2, a3)]
        i = int(np.argmax(peaks))
        raise DomainError(f"field component A{i + 1} reaches {peaks[i]:.6g} on the grid, where "
                          f"e^2/2 (A1^2 + A2^2 + A3^2) overflows float64 (e = {e})")

    # radial field term -i e (A1/Z) d/drho, written in the skew form
    # whose midpoint coefficients are means of rho*A1; exactly
    # anti-self-adjoint under the surface measure.  The axis face carries
    # no flux: at m = 0 the fold below closes it like the axis itself,
    # where rho*A1 is 0 (its mean, drho A1(drho)/2, would put an O(1/drho)
    # imaginary entry on diag[0]); at m != 0 lo[0] is dropped anyway.  Only
    # the dropped up[n - 1] reads the wall's face, so it carries none either
    flux = np.concatenate(([0.0], rho * a1, [0.0]))
    sbar_up, sbar_lo = 0.5 * (flux[1:-1] + flux[2:]), 0.5 * (flux[:-2] + flux[1:-1])
    sbar_lo[0] = 0.0
    up = up - 1j * e * sbar_up / (2.0 * dr * wt)
    lo = lo + 1j * e * sbar_lo / (2.0 * dr * wt)

    diag = diag + centrifugal \
        - 0.5 * (H ** 2 - K) \
        + e * m * a2 / rho \
        + 1j * (e * a3 * H) \
        + potential

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
    if omega > OMEGA_MAX:
        raise DomainError(f"omega must be <= {OMEGA_MAX:.6g} for a finite omega^2, got {omega}")
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
    with np.errstate(over="ignore"):  # at a small omega, a product past range keeps its sign
        chart_ok = bool(h1 * h2 > 0.0)
    return DecouplingReport(
        omega=omega, q_star=q_star, v_n=v_n, max_abs_a3=max_a3,
        drive=drive, ratio=ratio, passed=bool(ratio >= 100.0), chart_ok=chart_ok,
    )
