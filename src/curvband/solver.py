"""Spectra and time evolution of the tangential operator.

All work is done on the operator's three bands.  Eigensolves are
verified: every reported pair must satisfy the residual contract
||M v - lambda v|| / ||v|| < 1e-8 or the solve raises.  When the
measure-weighted operator is Hermitian, or Hermitian up to a constant
imaginary diagonal (the uniform-coupling case), a diagonal phase gauge
makes it real symmetric tridiagonal; its lowest pairs are computed
directly, the imaginary shift is applied exactly, and one
inverse-iteration step refines each pair.  Non-normal operators take a
general dense solve, or shift-invert iteration above DENSE_LIMIT points.

Propagation is Crank-Nicolson, with the left side factored once,

    (I + i dt/2 M) chi_{t+dt} = (I - i dt/2 M) chi_t,

which is exactly norm-preserving for measure-Hermitian generators.  Norms
are taken under the surface measure, ||chi|| = sqrt(sum w_j |chi_j|^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InstabilityWarning, SolveError
from .operator import NormalChannel, TangentialOperator

RESIDUAL_TOL = 1e-8
# non-normal operators above this many points use shift-invert iteration
DENSE_LIMIT = 3000
# relative threshold for classifying the weighted matrix as Hermitian
# (possibly up to a constant imaginary diagonal)
HERMITIAN_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Verified eigenpairs of one azimuthal channel, sorted by (Re, Im).

    eigenvectors are columns, normalized under the surface measure.  path
    is the route that computed them: "tridiagonal", "dense" or
    "shift-invert".
    """

    m: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    path: str


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Crank-Nicolson history: states, surface-measure norms, fitted slope.

    norms[k] is ||chi(t_k)|| under the surface measure; log_norm_slope is
    the least-squares slope of ln ||chi|| against time.
    """

    times: np.ndarray
    states: Optional[np.ndarray]
    norms: np.ndarray
    log_norm_slope: float


@dataclass(frozen=True)
class HermiticityReport:
    """Structure of the measure-weighted matrix M_w = W^1/2 M W^-1/2.

    max_asymmetry is max |M_w - M_w^dag| (absolute), relative_asymmetry the
    same scaled by max |M_w|.  antihermitian_norm is the Frobenius norm of
    (M_w - M_w^dag)/2.  coupling_equality states whether that anti-Hermitian
    part equals the diagonal i e A3 H contribution to within 1e-10; on very
    fine grids plain rounding in the kinetic block can exceed that bound.
    """

    mode: str
    max_asymmetry: float
    relative_asymmetry: float
    antihermitian_norm: float
    coupling_equality: bool
    coupling_equality_gap: float


def _matvec(lower, diag, upper, x) -> np.ndarray:
    """Tridiagonal (lower, diag, upper) times a vector or the columns of x."""
    if x.ndim == 2:
        lower, diag, upper = lower[:, None], diag[:, None], upper[:, None]
    y = diag * x
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


def _tridiag_solver(lower, diag, upper):
    """Solver for one right-hand side from one LAPACK gttrf factorization,
    or None if the matrix is exactly singular.  Fewer than 3 rows, which the
    wrapper rejects, are padded with decoupled identity rows."""
    n, pad = diag.size, np.zeros(max(0, 3 - diag.size))
    *lu, info = lapack.zgttrf(np.append(lower, pad), np.append(diag, pad + 1.0),
                              np.append(upper, pad))

    def solve(b):
        return lapack.zgttrs(*lu, np.append(b, pad) if pad.size else b)[0][:n]
    return None if info else solve


def _weighted(operator: TangentialOperator):
    """Bands of M_w = W^1/2 M W^-1/2, |M_w - M_w^dag| above its diagonal,
    and max(1, max |M_w|)."""
    d = np.sqrt(operator.measure_weights)
    lower = (d[1:] * operator.lower) / d[:-1]
    diag = (d * operator.diag) / d
    upper = (d[:-1] * operator.upper) / d[1:]
    scale = max(1.0, np.abs(diag).max(), np.abs(lower).max(initial=0.0),
                np.abs(upper).max(initial=0.0))
    return lower, diag, upper, np.abs(upper - lower.conj()), scale


def _structured_shift(operator: TangentialOperator) -> Optional[complex]:
    """i c if M_w is Hermitian up to the constant diagonal i c (exactly 0 if
    Hermitian), to HERMITIAN_RTOL of max |M_w|; None if it is not."""
    _, diag, _, off_gap, scale = _weighted(operator)
    tol = HERMITIAN_RTOL * scale
    if 0.5 * off_gap.max(initial=0.0) <= tol:
        for c in (0.0, float(np.mean(diag.imag))):
            if np.abs(diag.imag - c).max() <= tol:
                return 1j * c
    return None


def eigen_solve(operator: TangentialOperator, k: int) -> Spectrum:
    """k verified eigenpairs with smallest real parts."""
    n = operator.n
    if not 1 <= k <= n:
        raise SolveError(f"k = {k} not in [1, {n}]")

    shift = _structured_shift(operator)
    if shift is not None:
        path, (values, vectors) = "tridiagonal", _tridiagonal_solve(operator, k, shift)
    elif n > DENSE_LIMIT:
        path, (values, vectors) = "shift-invert", _sparse_solve(operator, k)
    else:
        path, (values, vectors) = "dense", sla.eig(operator.matrix)

    order = np.lexsort((values.imag, values.real))[:k]
    values = values[order]
    vectors = vectors[:, order]
    # normalize under the surface measure
    wnorm = np.sqrt(operator.measure_weights @ (np.abs(vectors) ** 2))
    vectors = vectors / wnorm[None, :]

    res = _matvec(*operator.bands, vectors) - vectors * values
    residuals = np.linalg.norm(res, axis=0) / np.linalg.norm(vectors, axis=0)
    if np.any(residuals >= RESIDUAL_TOL):
        raise SolveError(
            f"eigen residual contract violated: max {residuals.max():.3e} "
            f">= {RESIDUAL_TOL}"
        )
    return Spectrum(m=operator.m, eigenvalues=values, eigenvectors=vectors,
                    residuals=residuals, path=path)


def _tridiagonal_solve(operator: TangentialOperator, k: int, shift: complex):
    """Structured case: M_w - shift is Hermitian tridiagonal.

    The phase gauge ph[j+1] = ph[j] conj(b_j)/|b_j| makes its off-diagonal b
    real and non-negative; the k lowest pairs of that real symmetric matrix
    get the imaginary shift exactly.  One inverse-iteration step on M at
    each eigenvalue, with a Rayleigh quotient whose left vector is
    w conj(x), brings each residual down towards the float64 floor.
    """
    lower, diag, upper, _, _ = _weighted(operator)
    off = 0.5 * (upper + lower.conj())
    mag = np.abs(off)
    phase = np.cumprod(np.append(1.0 + 0.0j, np.divide(
        off.conj(), mag, out=np.ones_like(off), where=mag > 0.0)))
    theta, y = sla.eigh_tridiagonal(diag.real, mag, select="i", select_range=(0, k - 1))
    values = theta + shift
    vectors = phase[:, None] * y / np.sqrt(operator.measure_weights)[:, None]
    for i, lam in enumerate(values):
        shifted = (operator.lower, operator.diag - lam, operator.upper)
        solve = _tridiag_solver(*shifted)
        if solve is not None:       # else M - lam is exactly singular: lam is exact
            v = vectors[:, i]
            x = solve(v)
            # one step of iterative refinement of the solve: without it the
            # solve's rounding, not the float64 floor of x, sets the residual
            x += solve(v - _matvec(*shifted, x))
            left = operator.measure_weights * x.conj()
            values[i] = (left @ _matvec(*operator.bands, x) / (left @ x)).real + shift
            vectors[:, i] = x
    return values, vectors


def _sparse_solve(operator: TangentialOperator, k: int):
    """Shift-invert iteration targeting the smallest real parts."""
    sparse = sp.diags(operator.bands, [-1, 0, 1], format="csc")
    # Gershgorin-style lower bound keeps the shift left of the spectrum
    offsum = np.abs(np.append(operator.upper, 0.0)) + np.abs(np.append(0.0, operator.lower))
    sigma = float((operator.diag.real - offsum).min()) - 1.0
    # a fixed start vector makes the result repeatable
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, operator.n)
    try:
        values, vectors = spla.eigs(sparse, k=k, sigma=sigma, which="LM", v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise SolveError(f"shift-invert iteration failed to converge: {exc}") from exc
    return values, vectors


def evolve(operator: TangentialOperator, initial: np.ndarray, dt: float,
           steps: int, record_states: bool = True) -> EvolutionTrace:
    """Crank-Nicolson propagation of an initial state over steps * dt."""
    if dt <= 0:
        raise SolveError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise SolveError(f"steps must be >= 1, got {steps}")
    chi = np.asarray(initial, dtype=complex).copy()
    n = operator.n
    if chi.shape != (n,):
        raise SolveError(f"initial state has shape {chi.shape}, expected ({n},)")

    half = 0.5j * dt
    solve = _tridiag_solver(half * operator.lower, 1.0 + half * operator.diag,
                            half * operator.upper)
    if solve is None:
        raise SolveError("Crank-Nicolson factorization failed: I + i dt/2 M is singular")
    back = (-half * operator.lower, 1.0 - half * operator.diag, -half * operator.upper)

    w = operator.measure_weights

    def wnorm(v):
        return math.sqrt(float(w @ np.abs(v) ** 2))

    norms = np.empty(steps + 1)
    norms[0] = wnorm(chi)
    states = np.empty((steps + 1, n), dtype=complex) if record_states else None
    if record_states:
        states[0] = chi
    warned = False
    for s in range(1, steps + 1):
        chi = solve(_matvec(*back, chi))
        norms[s] = wnorm(chi)
        if record_states:
            states[s] = chi
        if not warned and (norms[s] > 10.0 * norms[s - 1]
                           or norms[s] < 0.1 * norms[s - 1]):
            warnings.warn(
                f"norm changed by more than 10x in one step at t = {s * dt}",
                InstabilityWarning, stacklevel=2,
            )
            warned = True

    if not np.all(np.isfinite(norms)) or np.any(norms <= 0.0):
        raise SolveError("propagation produced non-positive or non-finite norms")

    times = dt * np.arange(steps + 1)
    slope = float(np.polyfit(times, np.log(norms), 1)[0])
    return EvolutionTrace(times=times, states=states, norms=norms,
                          log_norm_slope=slope)


def hermiticity_report(operator: TangentialOperator) -> HermiticityReport:
    """Measure, report and classify the operator's non-Hermitian content."""
    _, diag, _, off_gap, scale = _weighted(operator)
    # M_w - M_w^dag is 2i Im(diag) on the diagonal and off_gap in size off it
    max_asym = float(max(2.0 * np.abs(diag.imag).max(), off_gap.max(initial=0.0)))
    gap = float(max(np.abs(diag.imag - operator.coupling_diag).max(),
                    0.5 * off_gap.max(initial=0.0)))
    return HermiticityReport(
        mode=operator.mode,
        max_asymmetry=max_asym,
        relative_asymmetry=max_asym / scale,
        antihermitian_norm=math.sqrt(diag.imag @ diag.imag + 0.5 * off_gap @ off_gap),
        coupling_equality=bool(gap <= 1e-10),
        coupling_equality_gap=gap,
    )


def total_energy(spectrum: Spectrum, normal: NormalChannel) -> np.ndarray:
    """Combined levels E_t + E_q for every tangential eigenvalue."""
    return spectrum.eigenvalues + normal.energy


def weighted_coupling(operator: TangentialOperator, state: np.ndarray) -> float:
    """Surface-measure average of e A3 H weighted by |chi|^2.

    For spatially varying coupling this is the only quantitative handle on
    the expected norm-growth rate; the exponential law itself holds only
    for coupling that is uniform over the whole domain.
    """
    w = operator.measure_weights
    density = w * np.abs(np.asarray(state)) ** 2
    total = float(density.sum())
    if total == 0.0:
        raise SolveError("state has zero norm")
    return float((density @ operator.coupling_diag) / total)


def ground_state(operator: TangentialOperator) -> np.ndarray:
    """Eigenvector of smallest real part, normalized under the measure."""
    return eigen_solve(operator, 1).eigenvectors[:, 0]
