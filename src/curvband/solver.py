"""Spectra and time evolution of the tangential operator.

All work is done on the operator's three bands.  Eigensolves are
verified: every reported pair must satisfy the residual contract
||M v - lambda v|| / ||v|| < 1e-8 or the solve raises.  One route serves
every channel.  A diagonal similarity makes the tridiagonal M complex
symmetric, R + iJ; bisection locates the lowest levels of the real symmetric
R coarsely, and a few inverse-iteration steps on M's own bands give each
pair.  When the measure-weighted operator is Hermitian, or Hermitian up to a
constant imaginary diagonal (the uniform-coupling case), J is that constant
and the shift is applied exactly.  Otherwise Bauer-Fike discs of radius
||J - c||_inf around the levels must be disjoint, which certifies that the
pairs found are those of smallest real part, and each level is refined at
its Rayleigh quotient.  The route calls LAPACK's tridiagonal routines and
one-dimensional products only, and leaves scipy's BLAS thread count alone.

Propagation is Crank-Nicolson,

    (I + i dt/2 M) chi_{t+dt} = (I - i dt/2 M) chi_t,

which is exactly norm-preserving for measure-Hermitian generators.  It runs
in the measure gauge z = W^1/2 chi, where M becomes M_w and the surface
norm ||chi|| = sqrt(sum w_j |chi_j|^2) is the Euclidean ||z||.  As
I - i dt/2 M_w = 2I - A with A = I + i dt/2 M_w, a step is z <- 2 A^-1 z - z:
one solve with A / 2, factored once per run, and one subtraction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.linalg.lapack as lapack
import scipy.sparse.linalg as spla  # unused: perfbench wraps solver.spla (ROADMAP item 6)

from .errors import CertificateError, InstabilityWarning, SolveError
from .operator import NormalChannel, TangentialOperator, _whole

RESIDUAL_TOL = 1e-8
# relative threshold for classifying the weighted matrix as Hermitian
# (possibly up to a constant imaginary diagonal)
HERMITIAN_RTOL = 1e-13
# bisection tolerance in units of max |off(R)| / n^2 ~ 1 / (2 R^2) (the level
# spacing), inverse-iteration steps, span of projected levels in tolerances,
# and steps after a non-normal level is refactored at its Rayleigh quotient
LOCATE_RTOL, INVERSE_STEPS, PROJECT_SPAN, REFINE_STEPS = 1e-3, 3, 1e5, 2


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Verified eigenpairs of one azimuthal channel, sorted by (Re, Im).

    They are the k of smallest real part, certified so where the channel is
    non-normal.  eigenvectors are columns, normalized under the surface
    measure; residuals[j] is ||M v_j - lambda_j v_j|| / ||v_j||.
    """

    m: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray


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
    """Structure of the measure-weighted M_w = W^1/2 M W^-1/2, whose diagonal is M's.

    max_asymmetry is max |M_w - M_w^dag| (absolute), relative_asymmetry the
    same scaled by max(1, max |M_w|).  antihermitian_norm is the Frobenius
    norm of (M_w - M_w^dag)/2, which is i Im(diag), the coupling i e A3 H, on
    the diagonal.  coupling_equality_gap is its largest entry off the
    diagonal, and coupling_equality whether that is within HERMITIAN_RTOL of
    max(1, max |M_w|): rounding in the kinetic block grows with that scale,
    like (n + 1)^2, so no absolute bound fits every grid.
    """

    mode: str
    max_asymmetry: float
    relative_asymmetry: float
    antihermitian_norm: float
    coupling_equality: bool
    coupling_equality_gap: float


def _matvec(lower, diag, upper, x) -> np.ndarray:
    """Tridiagonal (lower, diag, upper) times the vector x."""
    y = diag * x
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


def _tridiag_solver(lower, diag, upper):
    """Solver for one right-hand side from one LAPACK gttrf factorization,
    or None if the matrix is exactly singular.  Fewer than 3 rows, which the
    wrapper rejects, are padded with decoupled identity rows."""
    n, pad = diag.size, np.zeros(max(0, 3 - diag.size))
    if n < 3:
        lower, diag, upper = np.append(lower, pad), np.append(diag, pad + 1), np.append(upper, pad)
    *lu, info = lapack.zgttrf(lower, diag, upper)

    def solve(b):
        return lapack.zgttrs(*lu, np.append(b, pad) if n < 3 else b)[0][:n]
    return None if info else solve


def _weighted(operator: TangentialOperator):
    """W^1/2 and M_w = W^1/2 M W^-1/2 off its diagonal, which is M's, with off_gap, scale, gap
    and hermitian = gap <= HERMITIAN_RTOL scale, the one test of measure-Hermiticity."""
    for name, band in zip(("lower", "diag", "upper"), operator.bands):
        if not np.isfinite(band).all():
            raise SolveError(f"operator band {name} has a nan or inf entry")
    d = np.sqrt(operator.measure_weights)
    lower = (d[1:] * operator.lower) / d[:-1]
    upper = (d[:-1] * operator.upper) / d[1:]
    off_gap = np.abs(upper - lower.conj())
    scale = max(1.0, np.abs(operator.diag).max(), np.abs(lower).max(initial=0.0),
                np.abs(upper).max(initial=0.0))
    gap = 0.5 * float(off_gap.max(initial=0.0))
    return d, lower, upper, off_gap, scale, gap, bool(gap <= HERMITIAN_RTOL * scale)


def _symmetric_form(operator: TangentialOperator):
    """(hermitian, i c, off, s, max |M_w|): the eigenvalues of M - i c lie
    within s of those of the real symmetric tridiagonal R = (Re diag, off).

    A diagonal similarity with off-diagonals sqrt(upper_j lower_j) makes M
    complex symmetric, R + iJ with R and J real symmetric and M's diagonal,
    and by Bauer-Fike (Numer. Math. 2 (1960) 137) every eigenvalue of M - i c
    lies within s = ||J - c||_inf >= ||J - c||_2 of one of R's; c minimizes s.
    Where M_w passes _weighted's test and Im diag is constant to HERMITIAN_RTOL
    of max |M_w|, hermitian is True, c is that constant (exactly 0 if M_w is
    Hermitian), R is the real part of M_w and s = 0.
    """
    _, lower, upper, _, scale, _, hermitian = _weighted(operator)
    diag = operator.diag
    if hermitian:
        for c in (0.0, float(np.mean(diag.imag))):
            if np.abs(diag.imag - c).max() <= HERMITIAN_RTOL * scale:
                return True, 1j * c, np.abs(upper + lower.conj()) / 2, 0.0, scale
    off = np.sqrt(upper * lower)
    radii = np.abs(np.append(off.imag, 0.0)) + np.abs(np.append(0.0, off.imag))
    top, bottom = float((diag.imag + radii).max()), float((diag.imag - radii).min())
    return False, 0.5j * (top + bottom), off.real, 0.5 * (top - bottom), scale


def eigen_solve(operator: TangentialOperator, k: int) -> Spectrum:
    """k verified eigenpairs with smallest real parts."""
    n, k = operator.n, _whole("k", k)
    if not 1 <= k <= n:
        raise SolveError(f"k = {k} not in [1, {n}]")

    values, vectors = _sparse_solve(operator, k)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    # normalize under the surface measure
    wnorm = np.sqrt(operator.measure_weights @ (np.abs(vectors) ** 2))
    vectors = vectors / wnorm[None, :]

    residuals = _residuals(operator, values, vectors)
    if not np.all(residuals < RESIDUAL_TOL):
        raise SolveError(
            f"eigen residual contract violated: max {residuals.max():.3e} "
            f">= {RESIDUAL_TOL}"
        )
    return Spectrum(m=operator.m, eigenvalues=values, eigenvectors=vectors,
                    residuals=residuals)


def _residuals(operator: TangentialOperator, values, vectors) -> np.ndarray:
    """||M v - lambda v|| / ||v|| for each column v of vectors."""
    res = np.empty_like(vectors)
    for j, (lam, v) in enumerate(zip(values, vectors.T)):
        res[:, j] = _matvec(*operator.bands, v) - v * lam
    return np.linalg.norm(res, axis=0) / np.linalg.norm(vectors, axis=0)


def _sparse_solve(operator: TangentialOperator, k: int):
    """The k eigenpairs of smallest real part, from M's bands.

    Bisection locates the lowest levels lev of R (_symmetric_form) to within
    tol = LOCATE_RTOL max(off) / n^2.  Each level then takes INVERSE_STEPS
    steps of inverse iteration on M's bands through one factorization at
    lev + i c - tol, from a start vector of its own.

    Where M_w is Hermitian up to i c, the levels found within PROJECT_SPAN
    tol are projected out before each step in the measure inner product
    sum w conj(u) x, and the eigenvalue is the real Rayleigh quotient plus
    i c; farther levels shrink by (1.5 / PROJECT_SPAN)^3 unaided.

    Otherwise the discs of radius s around lev + i c, up to the (k+1)-th,
    must be disjoint: lev[j+1] - lev[j] > 2 s + tol for j < k.  As the
    eigenvalues move continuously along R + i t (J - c), t in [0, 1], each
    disc then holds exactly one, and the k lowest discs hold those of
    smallest real part; if not, CertificateError is raised.  The levels are
    separated, so nothing is projected.  A second factorization at the
    Rayleigh quotient minus tol takes REFINE_STEPS more steps.  The quotient
    is two-sided, with left vector D^2 x (transposed) where D M D^-1 is the
    complex symmetric form, (D_{j+1} / D_j)^2 = upper_j / lower_j: that is
    the left eigenvector's form, so the eigenvalue's error is quadratic in
    the vector's, where the measure quotient's is linear.
    """
    n, w, (lower, diag, upper) = operator.n, operator.measure_weights, operator.bands
    hermitian, shift, off, s, scale = _symmetric_form(operator)
    tol = LOCATE_RTOL * (off.max(initial=0.0) or scale) / n ** 2
    count = k if hermitian else min(k + 1, n)
    located = sla.eigh_tridiagonal(diag.real, off, eigvals_only=True, select="i",
                                   select_range=(0, count - 1), tol=tol)
    gaps = np.diff(located)
    if not hermitian and gaps.size and gaps.min() <= 2.0 * s + tol:
        j = int(np.argmin(gaps))
        raise CertificateError(
            f"cannot certify the {k} smallest real parts: levels {j} and {j + 1} of the "
            f"real symmetric part are {gaps[j]:.6g} apart, not more than 2 s + tol, where "
            f"every eigenvalue lies within s = {s:.6g} of a level plus {shift.imag:.6g}i "
            f"(tol = {tol:.3g})"
        )

    d2 = None if hermitian else np.concatenate(([1.0], np.cumprod(upper / lower)))

    def quotient(x):
        if hermitian:
            left = w * x.conj() / np.vdot(x, w * x).real
        else:
            left = d2 * x
            left /= left @ x
        return left, left @ _matvec(lower, diag, upper, x)

    # fixed start vectors; lefts[i] = w conj(x_i) / sum w |x_i|^2 projects out x_i
    basis = np.random.default_rng(0).uniform(-1.0, 1.0, (k, n)).astype(complex)
    lefts, quotients = np.empty_like(basis), np.empty(k, dtype=complex)
    for i, lam in enumerate(located[:k] + shift):
        # lam - tol is tol/2 to 3 tol/2 off the level, too far for the solve's rounding
        # to set the residual; projecting before each solve lets it damp their rounding
        solve = _tridiag_solver(lower, diag - (lam - tol), upper)
        x = basis[i]
        near = np.searchsorted(located, located[i] - PROJECT_SPAN * tol) if hermitian else i
        for _ in range(INVERSE_STEPS):
            for left, u in zip(lefts[near:i], basis[near:i]):
                x -= (left @ x) * u
            x = solve(x)
        left, quotients[i] = quotient(x)
        if not hermitian:
            # lam is only within s of the eigenvalue; the quotient is within ~tol
            solve = _tridiag_solver(lower, diag - (quotients[i] - tol), upper)
            for _ in range(REFINE_STEPS):
                x = solve(x)
            left, quotients[i] = quotient(x)
        basis[i], lefts[i] = x, left
    return (quotients.real + shift if hermitian else quotients), basis.T


def evolve(operator: TangentialOperator, initial: np.ndarray, dt: float,
           steps: int, record_states: bool = True) -> EvolutionTrace:
    """Crank-Nicolson propagation of an initial state over steps * dt."""
    if not (dt > 0 and math.isfinite(dt)):
        raise SolveError(f"dt must be positive and finite, got {dt}")
    steps = _whole("steps", steps)
    if steps < 1:
        raise SolveError(f"steps must be >= 1, got {steps}")
    chi = np.asarray(initial, dtype=complex)
    n = operator.n
    if chi.shape != (n,):
        raise SolveError(f"initial state has shape {chi.shape}, expected ({n},)")

    d, lower, upper, *_ = _weighted(operator)
    quarter = 0.25j * dt
    solve = _tridiag_solver(quarter * lower, 0.5 + quarter * operator.diag, quarter * upper)
    if solve is None:
        raise SolveError("Crank-Nicolson factorization failed: I + i dt/2 M is singular")

    # step s writes row s of the states, or row s % 2 of a two-row buffer
    rows = np.empty((steps + 1 if record_states else 2, n), dtype=complex)
    rows[0] = z = d * chi
    norms = np.empty(steps + 1)
    norms[0] = math.sqrt(np.vdot(z, z).real)
    for s in range(1, steps + 1):
        z = np.subtract(solve(z), z, out=rows[s % len(rows)])
        norms[s] = math.sqrt(np.vdot(z, z).real)
    jumps = np.flatnonzero((norms[1:] > 10.0 * norms[:-1]) | (norms[1:] < 0.1 * norms[:-1]))
    if jumps.size:
        warnings.warn(
            f"norm changed by more than 10x in one step at t = {(int(jumps[0]) + 1) * dt}",
            InstabilityWarning, stacklevel=2,
        )
    states = np.divide(rows, d, out=rows) if record_states else None

    if not np.all(np.isfinite(norms)) or np.any(norms <= 0.0):
        raise SolveError("propagation produced non-positive or non-finite norms")

    times = dt * np.arange(steps + 1)
    slope = float(np.polyfit(times, np.log(norms), 1)[0])
    return EvolutionTrace(times=times, states=states, norms=norms,
                          log_norm_slope=slope)


def hermiticity_report(operator: TangentialOperator) -> HermiticityReport:
    """Measure, report and classify the operator's non-Hermitian content."""
    _, _, _, off_gap, scale, gap, hermitian = _weighted(operator)
    im = operator.diag.imag
    # M_w - M_w^dag is 2i Im(diag) on the diagonal and off_gap = 2 gap at most off it
    max_asym = 2.0 * max(float(np.abs(im).max()), gap)
    return HermiticityReport(
        mode=operator.mode,
        max_asymmetry=max_asym,
        relative_asymmetry=max_asym / scale,
        antihermitian_norm=math.sqrt(im @ im + 0.5 * off_gap @ off_gap),
        coupling_equality=hermitian,
        coupling_equality_gap=gap,
    )


def total_energy(spectrum: Spectrum, normal: NormalChannel) -> np.ndarray:
    """Combined levels E_t + E_q for every tangential eigenvalue."""
    return spectrum.eigenvalues + normal.energy


def weighted_coupling(operator: TangentialOperator, state: np.ndarray) -> float:
    """Surface-measure average of e A3 H, the operator's Im diag, weighted by |chi|^2.

    For spatially varying coupling this is the only quantitative handle on
    the expected norm-growth rate; the exponential law itself holds only
    for coupling that is uniform over the whole domain.
    """
    d, *_ = _weighted(operator)  # also the band check of the other entry points
    density = np.abs(d * np.asarray(state)) ** 2
    total = float(density.sum())
    if total == 0.0:
        raise SolveError("state has zero norm")
    # contiguous: BLAS sums a strided vector in another order
    return float((density @ np.ascontiguousarray(operator.diag.imag)) / total)


def ground_state(operator: TangentialOperator) -> np.ndarray:
    """Eigenvector of smallest real part, normalized under the measure."""
    return eigen_solve(operator, 1).eigenvectors[:, 0]
