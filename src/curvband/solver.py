"""Spectra and time evolution of the tangential operator.

All work is done on the operator's three bands.  Eigensolves are
verified: every reported pair must satisfy the residual contract
||M v - lambda v|| / ||v|| < 1e-8 or the solve raises.  When the
measure-weighted operator is Hermitian, or Hermitian up to a constant
imaginary diagonal (the uniform-coupling case), bisection locates its lowest
levels coarsely, a few inverse-iteration steps on the bands give each pair,
and the imaginary shift is applied exactly.  Non-normal operators take
shift-invert Arnoldi iteration through one tridiagonal factorization, one
refined inverse-iteration step, and a certificate that no eigenvalue left out
has a smaller real part; only problems too small for Arnoldi are solved densely.

Propagation is Crank-Nicolson,

    (I + i dt/2 M) chi_{t+dt} = (I - i dt/2 M) chi_t,

which is exactly norm-preserving for measure-Hermitian generators.  It runs
in the measure gauge z = W^1/2 chi, where M becomes M_w and the surface
norm ||chi|| = sqrt(sum w_j |chi_j|^2) is the Euclidean ||z||.  As
I - i dt/2 M_w = 2I - A with A = I + i dt/2 M_w, a step is z <- 2 A^-1 z - z:
one solve with A / 2, factored once per run, and one subtraction.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.linalg.lapack as lapack
import scipy.sparse.linalg as spla

from .errors import InstabilityWarning, SolveError
from .operator import NormalChannel, TangentialOperator

RESIDUAL_TOL = 1e-8
# eigenvalues computed beyond the k requested in shift-invert iteration;
# below k + ARNOLDI_EXTRA + 2 points a non-normal channel is solved densely
ARNOLDI_EXTRA = 4
# relative threshold for classifying the weighted matrix as Hermitian
# (possibly up to a constant imaginary diagonal)
HERMITIAN_RTOL = 1e-13
# structured route: bisection tolerance in units of max |off(M_w)| / n^2 ~ 1 / (2 R^2)
# (the level spacing), inverse-iteration steps, span of projected levels in tolerances
LOCATE_RTOL, INVERSE_STEPS, PROJECT_SPAN = 1e-3, 3, 1e5


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Verified eigenpairs of one azimuthal channel, sorted by (Re, Im).

    eigenvectors are columns, normalized under the surface measure.  path
    is the route that computed them: "tridiagonal" (Hermitian, or Hermitian
    up to a constant imaginary diagonal), "shift-invert" (non-normal) or
    "dense" (non-normal with k + ARNOLDI_EXTRA >= n - 1).
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
    if n < 3:
        lower, diag, upper = np.append(lower, pad), np.append(diag, pad + 1), np.append(upper, pad)
    *lu, info = lapack.zgttrf(lower, diag, upper)

    def solve(b):
        return lapack.zgttrs(*lu, np.append(b, pad) if n < 3 else b)[0][:n]
    return None if info else solve


@functools.cache
def _scipy_blas_threads():
    """(get, set) of the thread count of the OpenBLAS that scipy calls, or
    None where scipy's BLAS is not an OpenBLAS whose symbols can be found."""
    try:
        from scipy.linalg import _fblas
        lib = ctypes.CDLL(_fblas.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(lib, f"{prefix}_get_num_threads", None)
        put = getattr(lib, f"{prefix}_set_num_threads", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


class _OneBlasThread:
    """Holds scipy's BLAS, for the whole process, at one thread while any
    caller is inside the block, and restores the count when the last leaves.

    Arnoldi's products are n x 21 for k = 6, too small to gain from a second
    thread, and a threaded call waits for its slowest thread: with another
    thread pool still busy (numpy's OpenBLAS spins for ~0.1 s after each
    threaded call), solves of ~7 ms took 12-140 ms in a loop that also
    multiplied dense matrices with numpy.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0
        self._before = None

    def __enter__(self):
        threads = _scipy_blas_threads()
        if threads is not None:
            with self._lock:
                if self._inside == 0:
                    self._before = threads[0]()
                    threads[1](1)
                self._inside += 1

    def __exit__(self, *exc):
        threads = _scipy_blas_threads()
        if threads is not None:
            with self._lock:
                self._inside -= 1
                if self._inside == 0:
                    threads[1](self._before)


_one_blas_thread = _OneBlasThread()


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


def _structured(operator: TangentialOperator) -> Optional[tuple]:
    """(i c, Re diag(M_w), |off-diagonal of M_w|, max |M_w|) if M_w is
    Hermitian up to the constant diagonal i c (exactly 0 if Hermitian), to
    HERMITIAN_RTOL of max |M_w|; None if it is not."""
    lower, diag, upper, off_gap, scale = _weighted(operator)
    tol = HERMITIAN_RTOL * scale
    if 0.5 * off_gap.max(initial=0.0) <= tol:
        for c in (0.0, float(np.mean(diag.imag))):
            if np.abs(diag.imag - c).max() <= tol:
                return 1j * c, diag.real, np.abs(upper + lower.conj()) / 2, scale
    return None


def eigen_solve(operator: TangentialOperator, k: int) -> Spectrum:
    """k verified eigenpairs with smallest real parts."""
    n = operator.n
    if not 1 <= k <= n:
        raise SolveError(f"k = {k} not in [1, {n}]")

    structured = _structured(operator)
    if structured is not None:
        path, (values, vectors) = "tridiagonal", _tridiagonal_solve(operator, k, *structured)
    elif k + ARNOLDI_EXTRA < n - 1:
        path, (values, vectors) = "shift-invert", _sparse_solve(operator, k)
    else:
        path, (values, vectors) = "dense", sla.eig(operator.matrix)

    order = np.lexsort((values.imag, values.real))[:k]
    values = values[order]
    vectors = vectors[:, order]
    # normalize under the surface measure
    wnorm = np.sqrt(operator.measure_weights @ (np.abs(vectors) ** 2))
    vectors = vectors / wnorm[None, :]

    residuals = _residuals(operator, values, vectors)
    if np.any(residuals >= RESIDUAL_TOL):
        raise SolveError(
            f"eigen residual contract violated: max {residuals.max():.3e} "
            f">= {RESIDUAL_TOL}"
        )
    return Spectrum(m=operator.m, eigenvalues=values, eigenvectors=vectors,
                    residuals=residuals, path=path)


def _residuals(operator: TangentialOperator, values, vectors) -> np.ndarray:
    """||M v - lambda v|| / ||v|| for each column v of vectors."""
    res = _matvec(*operator.bands, vectors) - vectors * values
    return np.linalg.norm(res, axis=0) / np.linalg.norm(vectors, axis=0)


def _refine(operator: TangentialOperator, values, vectors) -> np.ndarray:
    """One inverse-iteration step on M at each eigenvalue, in place on the
    columns of vectors; returns the Rayleigh quotients with left vector
    w conj(x).

    The linear solve gets one step of iterative refinement: without it the
    solve's rounding, not the float64 floor of x, sets the residual.  Where
    M - lam is exactly singular, lam is exact and the pair is kept.
    """
    quotients = np.array(values, dtype=complex)
    for i, lam in enumerate(values):
        shifted = (operator.lower, operator.diag - lam, operator.upper)
        solve = _tridiag_solver(*shifted)
        if solve is not None:
            v = vectors[:, i]
            x = solve(v)
            x += solve(v - _matvec(*shifted, x))
            left = operator.measure_weights * x.conj()
            quotients[i] = left @ _matvec(*operator.bands, x) / (left @ x)
            vectors[:, i] = x
    return quotients


def _tridiagonal_solve(operator: TangentialOperator, k: int, shift, diag, off, scale):
    """Structured case: M_w - shift has the eigenvalues of the real symmetric
    tridiagonal (diag, off).  Bisection locates the k lowest to within
    tol = LOCATE_RTOL max(off) / n^2; each then takes INVERSE_STEPS steps of
    inverse iteration on M's bands from a start vector of its own, projecting
    out the levels found within PROJECT_SPAN tol in the measure inner product
    sum w conj(u) x.  The eigenvalue is the real Rayleigh quotient plus the
    exact shift.  Farther levels shrink by (1.5 / PROJECT_SPAN)^3 unaided."""
    n, w = operator.n, operator.measure_weights
    tol = LOCATE_RTOL * (off.max(initial=0.0) or scale) / n ** 2
    located = sla.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                   select_range=(0, k - 1), tol=tol)
    # fixed start vectors; lefts[i] = w conj(x_i) / sum w |x_i|^2 projects out x_i
    basis = np.random.default_rng(0).uniform(-1.0, 1.0, (k, n)).astype(complex)
    lefts, quotients = np.empty_like(basis), np.empty(k, dtype=complex)
    for i, lam in enumerate(located + shift):
        # lam - tol is tol/2 to 3 tol/2 off the level, too far for the solve's rounding
        # to set the residual; projecting before each solve lets it damp their rounding
        solve = _tridiag_solver(operator.lower, operator.diag - (lam - tol), operator.upper)
        x, near = basis[i], np.searchsorted(located, located[i] - PROJECT_SPAN * tol)
        for _ in range(INVERSE_STEPS):
            for left, u in zip(lefts[near:i], basis[near:i]):
                x -= (left @ x) * u
            x = solve(x)
        left = w * x.conj() / np.vdot(x, w * x).real
        quotients[i] = left @ _matvec(*operator.bands, x)
        basis[i], lefts[i] = x, left
    return quotients.real + shift, basis.T


def _sparse_solve(operator: TangentialOperator, k: int):
    """Non-normal case: the k + ARNOLDI_EXTRA eigenvalues nearest a shift
    sigma left of the spectrum, by Arnoldi iteration on (M - sigma)^-1
    applied through one tridiagonal factorization.

    The k of smallest real part are refined once (_refine), keeping
    Arnoldi's pair where the refined one misses the residual contract and
    Arnoldi's is closer, and certified to be the k smallest of the whole
    spectrum, or SolveError is raised.
    Gershgorin's row discs put every eigenvalue right of sigma + 1.  The
    diagonal similarity with off-diagonals off_j = sqrt(upper_j lower_j)
    makes M complex symmetric, R + iJ with R and J real symmetric, so every
    eigenvalue has |Im| <= s = ||J||_inf.  Arnoldi returns the eigenvalues
    nearest sigma; every other one lies at least r = max |lambda_i - sigma|
    from sigma, hence has Re >= sigma + sqrt(r^2 - s^2).
    """
    n, (lower, diag, upper) = operator.n, operator.bands
    offsum = np.abs(np.append(upper, 0.0)) + np.abs(np.append(0.0, lower))
    sigma = float((diag.real - offsum).min()) - 1.0
    # diagonally dominant, so the factorization cannot break down
    solve = _tridiag_solver(lower, diag - sigma, upper)
    inverse = spla.LinearOperator((n, n), matvec=solve, dtype=complex)
    forward = spla.LinearOperator((n, n), matvec=lambda x: _matvec(lower, diag, upper, x),
                                  dtype=complex)
    # a fixed start vector makes the result repeatable
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        with _one_blas_thread:
            found, vectors = spla.eigs(forward, k=k + ARNOLDI_EXTRA, sigma=sigma, which="LM",
                                       v0=v0, OPinv=inverse)
    except spla.ArpackNoConvergence as exc:
        raise SolveError(f"shift-invert iteration failed to converge: {exc}") from exc

    order = np.lexsort((found.imag, found.real))[:k]
    selected, vectors = found[order], vectors[:, order]
    arnoldi = vectors.copy()
    values = _refine(operator, selected, vectors)
    # at the float64 floor (max |M| ~ 1e6 in as-written mode) refinement can
    # lose accuracy: 1 pair in ~4000 at n = 1000 missed the contract after it
    refined_res = _residuals(operator, values, vectors)
    back = (refined_res >= RESIDUAL_TOL) & (_residuals(operator, selected, arnoldi) < refined_res)
    values[back], vectors[:, back] = selected[back], arnoldi[:, back]

    off = np.sqrt(upper * lower)
    s = float((np.abs(diag.imag) + np.abs(np.append(off.imag, 0.0))
               + np.abs(np.append(0.0, off.imag))).max())
    r = float(np.abs(found - sigma).max())
    bound = sigma + math.sqrt(r * r - s * s) if r > s else -math.inf
    if not values.real.max() < bound:
        raise SolveError(
            f"shift-invert cannot certify the {k} smallest real parts: the "
            f"eigenvalues not computed may have Re as low as {bound:.6g}, the "
            f"computed ones reach Re {values.real.max():.6g} (r = {r:.6g}, |Im| <= {s:.6g})"
        )
    return values, vectors


def evolve(operator: TangentialOperator, initial: np.ndarray, dt: float,
           steps: int, record_states: bool = True) -> EvolutionTrace:
    """Crank-Nicolson propagation of an initial state over steps * dt."""
    if dt <= 0:
        raise SolveError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise SolveError(f"steps must be >= 1, got {steps}")
    chi = np.asarray(initial, dtype=complex)
    n = operator.n
    if chi.shape != (n,):
        raise SolveError(f"initial state has shape {chi.shape}, expected ({n},)")

    d = np.sqrt(operator.measure_weights)
    lower, diag, upper, _, _ = _weighted(operator)
    quarter = 0.25j * dt
    solve = _tridiag_solver(quarter * lower, 0.5 + quarter * diag, quarter * upper)
    if solve is None:
        raise SolveError("Crank-Nicolson factorization failed: I + i dt/2 M is singular")

    z = d * chi
    norms = np.empty(steps + 1)
    norms[0] = math.sqrt(np.vdot(z, z).real)
    states = np.empty((steps + 1, n), dtype=complex) if record_states else None
    if record_states:
        states[0] = z
    warned = False
    for s in range(1, steps + 1):
        z = solve(z) - z
        norms[s] = math.sqrt(np.vdot(z, z).real)
        if record_states:
            states[s] = z
        if not warned and (norms[s] > 10.0 * norms[s - 1] or norms[s] < 0.1 * norms[s - 1]):
            warnings.warn(
                f"norm changed by more than 10x in one step at t = {s * dt}",
                InstabilityWarning, stacklevel=2,
            )
            warned = True
    if record_states:
        states /= d

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
