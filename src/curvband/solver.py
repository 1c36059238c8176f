"""Spectra and time evolution of the tangential operator.

All work is done on the operator's three bands.  Eigensolves are verified: every
reported pair must satisfy the residual contract ||M v - lambda v|| / ||v|| < 1e-8 or
the solve raises.  eigen_solve states its routes, one per structure class.

Propagation is Crank-Nicolson,

    (I + i dt/2 M) chi_{t+dt} = (I - i dt/2 M) chi_t,

which is exactly norm-preserving for measure-Hermitian generators.  It runs
in the measure gauge z = W^1/2 chi, where M becomes M_w and the surface
norm ||chi|| = sqrt(sum w_j |chi_j|^2) is the Euclidean ||z||.  As
I - i dt/2 M_w = 2I - A with A = I + i dt/2 M_w, a step is z <- 2 A^-1 z - z:
one solve with A / 2, factored once per run, and one subtraction.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateError, DomainError, InstabilityWarning, RefinementError, SolveError
from .geometry import _positive
from .operator import TangentialOperator, _whole

RESIDUAL_TOL = 1e-8
# relative threshold for classifying the weighted matrix as Hermitian
# (possibly up to a constant imaginary diagonal)
HERMITIAN_RTOL = 1e-13
# bisection tolerance in units of max |off(R)| / n^2 ~ 1 / (2 R^2) (the level spacing);
# inverse-iteration steps of each round of a non-normal level; a Hermitian level's one
# step is factored STEP_OFFSET tol below it: other levels shrink by STEP_OFFSET tol / gap,
# and a pair split by < tol mixes as ~1 / STEP_OFFSET, which bound it from both sides
# (CHANGES.md, "The Hermitian route takes its vectors from LAPACK's stein")
LOCATE_RTOL, INVERSE_STEPS, STEP_OFFSET = 1e-3, 2, 8.0
# a non-normal level takes rounds, each factored at its last quotient, until its residual
# is at most REFINE_TARGET, a decade inside the contract, or for REFINE_ROUNDS rounds
REFINE_TARGET, REFINE_ROUNDS = 1e-9, 6
# Lanczos locates the k' levels (k, one more where discs certify the selection) where
# k' + LANCZOS_CROSSOVER <= sqrt(n): its reorthogonalization costs O(n k^2) against
# bisection's O(n k), so the rule keeps it inside the measured crossing.  Its Hermitian stop,
# Ritz residuals of LANCZOS_RTOL times their values, bounds a Ritz vector's error, which
# enters the final residual times STEP_OFFSET tol ~ rho_max^-2 against the absolute
# contract.  A test (a dstev, cubic in the step) waits until the residuals could have fallen
# to their bound at LANCZOS_GAIN decades a step, the fastest seen.  The cap of
# LANCZOS_STEPS[0] k + LANCZOS_STEPS[1] steps lies above every converging channel measured,
# degenerate twins included; steep m = 0 paraboloids, whose levels crowd below 0, pay it and
# then bisect (CHANGES.md, "The Hermitian route locates its levels by shift-invert Lanczos")
LANCZOS_CROSSOVER, LANCZOS_RTOL, LANCZOS_STEPS, LANCZOS_GAIN = 20.0, 1e-12, (2, 24), 2.0
# a Lanczos step subtracts its three-term recurrence, then takes one pass of Gram-Schmidt
# against the whole basis, which removes the rounding left along it; a pass from the solve's
# output alone loses orthogonality step by step.  The pass is repeated only where it cancels,
# ||v_1|| < REORTH_ETA ||v_0|| (J. W. Daniel, W. B. Gragg, L. Kaufman and G. W. Stewart,
# Math. Comp. 30 (1976) 772): one pass leaves v_1 out of the basis by about
# eps ||v_0|| / ||v_1||, at 0.1 by ~10 eps, far below LANCZOS_RTOL.  It cancels where the
# Krylov space is nearly invariant, as at step n (CHANGES.md, "One locate for both
# structure classes")
REORTH_ETA = 0.1


def _flapack():
    """scipy's LAPACK extension, scipy/linalg/_flapack, loaded from its file.

    The scipy.linalg package's import is most of a command's wall time, many times the
    extension's alone (CHANGES.md, "Load scipy's LAPACK extension from its file").  Neither
    scipy nor scipy.linalg is imported, and sys.modules is left as it was, so a later import
    of scipy.linalg runs as if this one had not happened.  ImportError names the directory
    searched where the extension is missing.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("curvband needs scipy's LAPACK extension, and scipy is not installed")
    where = os.path.join(scipy.submodule_search_locations[0], "linalg")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader, suffixes))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension is missing: no _flapack with a suffix in "
                          f"{suffixes} in {where}")
    previous = sys.modules.get(spec.name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython enters a single-phase extension module in sys.modules as it creates it
    if previous is None:
        sys.modules.pop(spec.name, None)
    else:
        sys.modules[spec.name] = previous
    return module


lapack = _flapack()


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
    the least-squares slope of ln ||chi|| against time, fitted in step units
    centred on the middle step, s = k - steps/2: (s . ln(norm_k / norm_0)) /
    (s . s) / dt, which forms no power of dt.
    """

    times: np.ndarray
    states: Optional[np.ndarray]
    norms: np.ndarray
    log_norm_slope: float


@dataclass(frozen=True)
class HermiticityReport:
    """Structure of the measure-weighted M_w = W^1/2 M W^-1/2, whose diagonal is M's.

    max_asymmetry is max |M_w - M_w^dag| (absolute), relative_asymmetry the
    same scaled by max |M_w| (0 for a zero operator).  antihermitian_norm is
    the Frobenius norm of (M_w - M_w^dag)/2, which is i Im(diag), the coupling
    i e A3 H, on the diagonal.  coupling_equality_gap is its largest entry off
    the diagonal, and coupling_equality whether that is within HERMITIAN_RTOL
    of max |M_w|: rounding in the kinetic block grows with that scale, like
    (n + 1)^2 / rho_max^2, so no absolute bound fits every grid.
    """

    mode: str
    max_asymmetry: float
    relative_asymmetry: float
    antihermitian_norm: float
    coupling_equality: bool
    coupling_equality_gap: float


def __getattr__(name):
    # solver.spla exists only for perfbench's SeededEigs, and solver._sparse_solve, now
    # eigen_solve's eigenvalues, for its test; both go with it (ROADMAP item 6)
    if name == "spla":
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    if name == "_sparse_solve":
        return lambda operator, k: (eigen_solve(operator, k).eigenvalues,)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _matvec(lower, diag, upper, x) -> np.ndarray:
    """Tridiagonal (lower, diag, upper) times the vector x."""
    y = diag * x
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


def _tridiag_solver(lower, diag, upper):
    """Solver for one right-hand side from one LAPACK gttrf factorization;
    SolveError if the matrix is exactly singular.  Its callers pass the bands
    _weighted has checked against a grid, so the matrix has at least
    MIN_N_POINTS rows, more than the 3 the wrapper needs."""
    *lu, info = lapack.zgttrf(lower, diag, upper)
    if info:
        raise SolveError(f"the tridiagonal matrix is singular: gttrf's pivot {info} is 0")
    return lambda b: lapack.zgttrs(*lu, b)[0]


def _weighted(operator: TangentialOperator):
    """W^1/2 and M_w = W^1/2 M W^-1/2 off its diagonal, which is M's, with off_gap, scale =
    max |M_w|, gap and hermitian = gap <= HERMITIAN_RTOL scale, the one test of
    measure-Hermiticity, relative at every scale of the operator.
    SolveError names a band or the measure weights where its length disagrees with the
    grid's node count or an entry is not finite; the weights come first, since bands built
    from infinite weights are a symptom of them.  It also names M_w's off-diagonal where an
    entry passes half of float64's range, as R's off-diagonal (_symmetric_form) adds two."""
    n = operator.grid.n_points
    for name, size in (("measure_weights", n), ("diag", n), ("lower", n - 1), ("upper", n - 1)):
        band = getattr(operator, name)
        if len(band) != size:
            raise SolveError(f"operator band {name} has {len(band)} entries, not {size}: "
                             f"the grid has {n} nodes")
        if not np.isfinite(band).all():
            raise SolveError(f"operator band {name} has a nan or inf entry")
    d = np.sqrt(operator.measure_weights)
    with np.errstate(over="ignore", invalid="ignore"):  # named just below
        lower = (d[1:] * operator.lower) / d[:-1]
        upper = (d[:-1] * operator.upper) / d[1:]
        off_gap = np.abs(upper - lower.conj())
        peak = max(np.abs(lower).max(initial=0.0), np.abs(upper).max(initial=0.0))
    gap = 0.5 * float(off_gap.max(initial=0.0))
    half = 0.5 * sys.float_info.max
    if not (gap < math.inf and peak <= half):  # a nan or inf in lower or upper makes gap so
        j = int(np.argmin(np.maximum(np.abs(lower), np.abs(upper)) <= half))
        raise SolveError(f"the off-diagonal of M_w is past float64's range at j = {j}: "
                         f"|lower_j| = {abs(lower[j]):.6g}, |upper_j| = {abs(upper[j]):.6g}, "
                         f"where the real symmetric part's off-diagonal, half their sum, needs "
                         f"each within {half:.6g}")
    scale = max(np.abs(operator.diag).max(), peak)
    return d, lower, upper, off_gap, scale, gap, bool(gap <= HERMITIAN_RTOL * scale)


def _symmetric_form(operator: TangentialOperator):
    """(i c, off, s, max |M_w|, gauge): the eigenvalues of M - i c lie within s of those
    of the real symmetric tridiagonal R = (Re diag, Re off).

    A diagonal similarity D, D_0 = 1, D_{j+1} / D_j = upper_j / off_j with off_j =
    sqrt(upper_j lower_j), makes M complex symmetric, R + iJ with R and J real symmetric,
    and by Bauer-Fike (Numer. Math. 2 (1960) 137) every eigenvalue of M - i c lies within
    s = ||J - c||_inf >= ||J - c||_2 of one of R's; c minimizes s.  Where M_w passes
    _weighted's test and Im diag is constant to HERMITIAN_RTOL of max |M_w|, c is that
    constant (exactly 0 if M_w is Hermitian), s = 0, off is real and gauge = e^{i phi} /
    sqrt(w), phi_0 = 0, phi_{j+1} = phi_j - arg(upper_w + conj(lower_w))_j, maps R's
    eigenvectors to M's; otherwise gauge is None.
    """
    d, lower, upper, _, scale, _, hermitian = _weighted(operator)
    diag = operator.diag
    if hermitian:
        for c in (0.0, float(np.mean(diag.imag))):
            if np.abs(diag.imag - c).max() <= HERMITIAN_RTOL * scale:
                off = upper + lower.conj()
                phi = -np.concatenate(([0.0], np.cumsum(np.angle(off))))
                return 1j * c, np.abs(off) / 2, 0.0, scale, np.exp(1j * phi) / d
    with np.errstate(over="ignore", invalid="ignore"):  # named just below
        product = upper * lower
    if not np.isfinite(product).all():
        j = int(np.argmin(np.isfinite(product)))
        raise SolveError(f"the off-diagonal product upper_j lower_j of M_w is past float64's "
                         f"range at j = {j}: |upper_j| = {abs(upper[j]):.6g}, |lower_j| = "
                         f"{abs(lower[j]):.6g}")
    off = np.sqrt(product)
    radii = np.abs(np.append(off.imag, 0.0)) + np.abs(np.append(0.0, off.imag))
    top, bottom = float((diag.imag + radii).max()), float((diag.imag - radii).min())
    return 0.5j * (top + bottom), off, 0.5 * (top - bottom), scale, None


def eigen_solve(operator: TangentialOperator, k: int) -> Spectrum:
    """k verified eigenpairs with smallest real parts, by one route per structure class.

    _symmetric_form picks the class once, by _weighted's test and a constant Im diag, and
    neither route tests it again.  One locate serves both classes.  It finds the k lowest levels of R (_symmetric_form) where M_w is
    Hermitian up to i c, and one more for the certificate (_certify) elsewhere, and the
    vectors of the k lowest.  Where those k' levels meet k' + LANCZOS_CROSSOVER <= sqrt(n),
    shift-invert Lanczos (_lanczos) locates them, certified as the k' lowest by one Sturm
    count.  Its steps stop at Ritz residuals of LANCZOS_RTOL on the Hermitian route, and on
    the certified route once each level is within tol = LOCATE_RTOL max(Re off) / n^2, since
    its rounds refine every start.  Elsewhere, and wherever the factorization, a convergence
    test or the count fails or the steps reach their cap, bisection (_bisected) locates the
    k' levels to within tol, and stein gives the vectors of the k lowest.

    A non-normal channel whose disc radius s is 0 (as-written, no field) bisects too: D^-1
    maps stein's vectors of R to M's to rounding, so its levels take no round.  This is not
    for speed, as Lanczos plus its rounds solved such channels faster at n = 1000 in paired
    runs (CHANGES.md, "One home for each solver rule"), but for an outcome rounding decides
    (ROADMAP item 3): at n = 8000 an m = 0 paraboloid meets the contract from stein's
    starts and ends in a floor RefinementError from Lanczos's.

    Each level then takes inverse iteration on M's own bands: _hermitian_pairs from the
    gauge-mapped vector where M_w is Hermitian up to i c, else _certified_pairs from D^-1 y.
    Each route returns its vectors with their residuals (_normalized), and every residual
    must be below RESIDUAL_TOL, checked once, here.  Neither route draws a random number;
    both use LAPACK's tridiagonal routines and products with vectors and the Krylov basis
    only, and leave scipy's BLAS thread count alone.
    """
    n, k = operator.n, _whole("k", k, 1)
    if k > n:
        raise DomainError(f"k = {k} exceeds the operator's n = {n}")
    shift, off, s, scale, gauge = _symmetric_form(operator)
    d, e = operator.diag.real, off.real
    tol = LOCATE_RTOL * (e.max(initial=0.0) or scale) / n ** 2
    # both locates see R scaled by the power of two 2^-p that brings max |R| into [0.5, 1),
    # since stein compares pivots with an absolute epsilon; both ways are exact
    p = math.frexp(max(np.abs(d).max(), np.abs(e).max(initial=0.0)))[1]
    d, e = np.ldexp(d, -p), np.ldexp(e, -p)
    located, scaled_tol = None, math.ldexp(tol, -p)
    wanted = k if gauge is not None else k + 1
    if (gauge is not None or s > 0.0) and wanted + LANCZOS_CROSSOVER <= math.sqrt(n):
        # phi ~ R^'s ground state: M_w's is sqrt(w) chi, and a disc's chi at m = 0 is near
        # cos(pi rho / (2 rho_max)); the 1e-3 keeps phi off 0 at the wall, where cos is ~1 / n
        angle = np.arange(1, n + 1) * (0.5 * math.pi / (n + 1))
        phi = np.sqrt(operator.measure_weights) * (np.cos(angle) + 1e-3)
        # a solve or a sum past float64's range ends the attempt, which then bisects
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            located = _lanczos(d, e, phi, wanted, None if gauge is not None else scaled_tol)
    if located is None:
        located = _bisected(d, e, scaled_tol, k, gauge is not None)
    levels, y = np.ldexp(located[0], p), located[1][:, :k]
    if gauge is None:
        _certify(operator, levels, shift, s, tol, k)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # named just below
        values, vectors, residuals = (
            _certified_pairs(operator, levels, y, off, shift, s, tol) if gauge is None
            else _hermitian_pairs(operator, levels, y, gauge, shift, tol))
    if not (np.isfinite(values).all() and np.isfinite(residuals).all()):
        raise SolveError(f"the eigenpairs left float64's range: a level or its residual is "
                         f"not finite, where max|M_w| = {scale:.6g} and the measure weights "
                         f"reach {operator.measure_weights.max():.6g}")
    if not np.all(residuals < RESIDUAL_TOL):
        raise SolveError(f"eigen residual contract violated: max {residuals.max():.3e} "
                         f">= {RESIDUAL_TOL}, where the rounding floor eps max|M_w| is "
                         f"{np.finfo(float).eps * scale:.3e} (max|M_w| = {scale:.6g})")
    order = np.lexsort((values.imag, values.real))
    return Spectrum(m=operator.m, eigenvalues=values[order], eigenvectors=vectors[:, order],
                    residuals=residuals[order])


def _collatz_wielandt(d, e, phi) -> float:
    """min_j (R^ phi)_j / phi_j for the positive phi, a lower bound on the lowest level of
    R = (d, e), e >= 0 (Collatz-Wielandt): R^ = S R S, S = diag((-1)^j), has the off-diagonal
    -e, so R^ = c I - N with N >= 0 entrywise, and N's Perron root c - lambda_1 is at most
    max_j (N phi)_j / phi_j."""
    return float((_matvec(-e, d, -e, phi) / phi).min())


def _count_below(d, e, x) -> int:
    """The number of the levels of R = (d, e), max |R| < 1, at or below x: stebz over
    (-3, x], which holds every level below x by Gershgorin, with abstol the interval's width,
    takes the two Sturm counts at its ends and bisects no further."""
    return _lapack_call("dstebz", d, e, 1, -3.0, x, 0, 0, x + 3.0, "B")[0]


def _orthogonalized(basis, v):
    """One pass of classical Gram-Schmidt: v, in place, less its components along the
    orthonormal rows of basis, which it returns."""
    h = basis @ v
    v -= h @ basis
    return h


def _lanczos(d, e, phi, k, tol=None):
    """The k lowest levels of R = (d, e), e >= 0 and max |R| < 1, ascending, and their
    vectors as columns, by Lanczos on (R - sigma)^-1 (T. Ericsson and A. Ruhe, Math. Comp.
    35 (1980) 1251) with full reorthogonalization, or None.

    sigma is _collatz_wielandt's bound, so R - sigma is positive definite; ptrf factors it
    once.  The start is S phi, R's ground state where phi is R^'s.  Each step subtracts its
    three-term recurrence and takes one Gram-Schmidt pass against the whole basis, twice
    where that pass cancels below REORTH_ETA.  Each Ritz value sigma + 1 / theta_i is an
    upper bound on the i-th level; the Lanczos steps stop at a test (stev on T, from step k
    on, spaced by LANCZOS_GAIN) that finds each of the k largest theta_i converged by its
    residual r_i = |beta s_i|: r_i <= LANCZOS_RTOL theta_i, or where tol is given, the bound
    r_i / (theta_i (theta_i - r_i)) <= tol on its level's error.  One Sturm count at the midpoint of Ritz values k and
    k + 1 must then find exactly k levels below it.  None where k >= n, ptrf or a stev
    fails, the k largest theta_i do not converge within the cap LANCZOS_STEPS sets, or the
    count is not k.
    """
    n = d.size
    if n <= k:  # no Ritz value k + 1 to count at
        return None
    sigma = _collatz_wielandt(d, e, phi)
    *factor, info = lapack.dpttrf(d - sigma, e)
    if info:
        return None
    steps = min(n, LANCZOS_STEPS[0] * k + LANCZOS_STEPS[1])
    basis = np.empty((steps + 1, n))
    start = np.where(np.arange(n) % 2, -phi, phi)
    basis[0] = start / math.sqrt(start @ start)
    alpha, beta = np.empty(steps), np.empty(steps)
    test = k
    for j in range(steps):
        v, _ = lapack.dpttrs(*factor, basis[j])
        # the three-term recurrence, then a pass against the whole basis (REORTH_ETA)
        if j:
            v -= beta[j - 1] * basis[j - 1]
        alpha[j] = basis[j] @ v
        v -= alpha[j] * basis[j]
        size = math.sqrt(v @ v)
        alpha[j] += _orthogonalized(basis[:j + 1], v)[j]
        beta[j] = math.sqrt(v @ v)
        if beta[j] < REORTH_ETA * size:
            alpha[j] += _orthogonalized(basis[:j + 1], v)[j]
            beta[j] = math.sqrt(v @ v)
        if not 0.0 < beta[j] < math.inf:  # a breakdown, or a solve past float64's range
            return None
        if j >= test:
            theta, s, info = lapack.dstev(alpha[:j + 1], beta[:j])
            if info:
                return None
            # the largest of the k residuals over their bounds; no test until it could
            # have fallen to 1 at LANCZOS_GAIN decades a step, and none past the cap.
            # r / (theta (theta - r)) <= tol is r <= tol theta^2 / (1 + tol theta), which
            # stays finite and positive where r >= theta
            r, theta_k = np.abs(beta[j] * s[-1, -k:]), theta[-k:]
            bound = (LANCZOS_RTOL * theta_k if tol is None
                     else tol * theta_k * theta_k / (1.0 + tol * theta_k))
            behind = (r / bound).max()
            if behind <= 1.0:
                break
            test = j + math.log10(behind) / LANCZOS_GAIN
            if test > steps - 1:
                return None
        basis[j + 1] = v / beta[j]
    else:
        return None
    levels = sigma + 1.0 / theta[:-k - 2:-1]
    if _count_below(d, e, 0.5 * (levels[k - 1] + levels[k])) != k:
        return None
    return levels[:k], basis[:j + 1].T @ s[:, :-k - 1:-1]


def _bisected(d, e, tol, k, hermitian):
    """The lowest levels of R = (d, e), ascending, located by bisection (stebz) to within
    tol, and stein's vectors of the k lowest as columns: k levels where hermitian, else one
    more for the certificate.  Where hermitian, a pair within two step offsets
    (2 STEP_OFFSET tol) is located again to stebz's full accuracy, which the step's shift,
    still STEP_OFFSET tol, then keeps apart; Lanczos's levels, at Ritz residuals of
    LANCZOS_RTOL, need no second locate."""
    lowest = (d, e, 2, 0.0, 1.0, 1, k if hermitian else min(k + 1, d.size))
    found, levels, block, split = _lapack_call("dstebz", *lowest, tol, "B")
    close = np.diff(np.sort(levels[:found])).min(initial=math.inf)
    if hermitian and close <= 2.0 * STEP_OFFSET * tol:
        found, levels, block, split = _lapack_call("dstebz", *lowest, 0.0, "B")
    order = np.argsort(levels[:found])
    # the k lowest, in blocks as stebz gave them: stein reads only block's first k entries
    take = np.sort(order[:k])
    block[:take.size] = block[take]
    (y,) = _lapack_call("dstein", d, e, levels[take], block, split)
    return levels[order], y[:, np.argsort(levels[take])]


def _lapack_call(routine: str, *args):
    """The outputs of the LAPACK routine but its info; SolveError names the routine and a
    nonzero info: < 0 an illegal argument, > 0 levels or vectors that did not converge."""
    *out, info = getattr(lapack, routine)(*args)
    if info:
        raise SolveError(f"LAPACK {routine} failed with info = {info}")
    return out


def _rescaled(x) -> np.ndarray:
    """The complex vector x, in place, times the power of two that brings its largest real or
    imaginary part into [0.5, 1): exact, so x's quotients and residuals keep their bytes, and
    a solve, which scales x by ~1 / tol ~ rho_max^2, neither overflows nor underflows when
    repeated."""
    parts = x.view(float)  # a real factor: complex * complex(f, 0) makes inf * 0 a nan
    parts *= math.ldexp(1.0, -math.frexp(np.abs(parts).max())[1])
    return x


def _residual(mx, x, lam) -> float:
    """||M x - lam x|| / ||x|| from mx = M x: the contract's residual.  Where a square
    overflows, each sum is taken again at its own power of two, as in hermiticity_report:
    exact, and only there, so every residual whose sums are finite keeps its bytes."""
    mx = mx - lam * x
    top, bottom = np.vdot(mx, mx).real, np.vdot(x, x).real
    if top < math.inf and bottom < math.inf:
        return math.sqrt(top / bottom)
    p, q = (math.frexp(max(np.abs(v.real).max(), np.abs(v.imag).max()))[1] for v in (mx, x))
    mx, x = mx * math.ldexp(1.0, -p), x * math.ldexp(1.0, -q)
    return math.ldexp(math.sqrt(np.vdot(mx, mx).real / np.vdot(x, x).real), p - q)


def _normalized(operator: TangentialOperator, values, basis):
    """A route's vectors, the rows of basis as columns normalized under the
    surface measure, and the residual of each with its value."""
    vectors = basis.T / np.sqrt(operator.measure_weights @ (np.abs(basis.T) ** 2))
    return vectors, np.array([_residual(_matvec(*operator.bands, v), v, lam)
                              for lam, v in zip(values, vectors.T)])


def _hermitian_pairs(operator: TangentialOperator, located, vectors, gauge, shift, tol):
    """Pairs where M_w is Hermitian up to i c, from R's levels and their vectors y: the
    Lanczos Ritz vectors, or where bisection located the levels stein's, which stein
    reorthogonalizes where levels are close and whose close pairs bisection locates again;
    either way degenerate levels get orthonormal y.  Each gauge y takes one
    inverse-iteration step on M's bands at lev + i c - STEP_OFFSET tol, which damps y's
    rounding as W^-1/2 scales it near the axis, by ~1 / drho.  The eigenvalue is the real
    measure quotient plus i c.
    """
    w, (lower, diag, upper) = operator.measure_weights, operator.bands
    basis = gauge * vectors.T
    quotients = np.empty(len(basis), dtype=complex)
    for i, lam in enumerate(located + shift):
        solve = _tridiag_solver(lower, diag - (lam - STEP_OFFSET * tol), upper)
        x = basis[i] = _rescaled(solve(basis[i]))
        quotients[i] = np.vdot(x, w * _matvec(lower, diag, upper, x)) / np.vdot(x, w * x).real
    values = quotients.real + shift
    return (values, *_normalized(operator, values, basis))


def _certify(operator: TangentialOperator, located, shift, s, tol, k):
    """CertificateError unless the discs of radius s around lev + i c, up to the (k+1)-th,
    are disjoint, lev[j+1] - lev[j] > 2 s + tol for j < k: as the eigenvalues move along
    R + i t (J - c), t in [0, 1], each disc then holds one, the k lowest those of smallest
    real part.  It names where Re(upper_j lower_j) < 0: sqrt(upper_j lower_j) is imaginary
    and enters s."""
    gaps = np.diff(located)
    if gaps.size and gaps.min() <= 2.0 * s + tol:
        j = int(np.argmin(gaps))
        message = (
            f"cannot certify the {k} smallest real parts: levels {j} and {j + 1} of the real "
            f"symmetric part are {gaps[j]:.6g} apart, not more than 2 s + tol, where every "
            f"eigenvalue lies within s = {s:.6g} of a level plus {shift.imag:.6g}i "
            f"(tol = {tol:.3g})")
        upper = operator.upper
        flips = int(np.count_nonzero((upper * operator.lower).real < 0.0))
        if flips:
            message += (f"; Re(upper_j lower_j) < 0 on {flips} of the {upper.size} off-diagonal "
                        "pairs, where sqrt(upper_j lower_j) is imaginary and widens the discs")
        raise CertificateError(message)


def _certified_pairs(operator: TangentialOperator, located, vectors, off, shift, s, tol):
    """Pairs of a non-normal channel whose levels _certify has separated, each from R's
    stein vector mapped by D^-1 (_symmetric_form), near M's eigenvector.  x's two-sided
    quotient has left vector D^2 x, so the eigenvalue's error is quadratic in the vector's.
    A round factors at the last quotient minus tol (at lev + i c - tol while the quotient
    lies outside the disc, radius s + tol, maybe nearer a neighbour), takes INVERSE_STEPS
    steps and ends with the new quotient and residual.  One that does not lower the
    residual of a pair kept inside the disc is dropped: the level is at the rounding floor.
    Rounds go on until the kept pair is inside with a residual <= REFINE_TARGET, or for
    REFINE_ROUNDS.  RefinementError names a pair outside its disc or the contract, and the
    floor where a round was dropped; SolveError names a D^-1 or D^2 past float64's range.
    """
    lower, diag, upper = operator.bands
    with np.errstate(all="ignore"):  # |D_{j+1} / D_j| = sqrt|upper_j / lower_j| can drift
        similarity = np.cumprod(np.append(1.0, upper / off))
        gauge, left = 1.0 / similarity, similarity * similarity
    if not (np.isfinite(gauge).all() and np.isfinite(left).all() and left.all()):
        raise SolveError(f"the similarity D that makes the channel complex symmetric spans "
                         f"|D_j / D_0| = {np.abs(similarity).min():.3g} to "
                         f"{np.abs(similarity).max():.3g}, past float64's range")

    def quotient(x):
        mx, lx = _matvec(lower, diag, upper, x), left * x
        q = (lx @ mx) / (lx @ x)
        return q, _residual(mx, x, q)

    basis, centres = gauge * vectors.T, located[:vectors.shape[1]] + shift
    values, floor = np.empty(len(basis), dtype=complex), np.zeros(len(basis), dtype=bool)
    for i, lam in enumerate(centres):
        x, q, _ = kept = (basis[i], *quotient(basis[i]))
        for _ in range(REFINE_ROUNDS):
            kept_inside = abs(kept[1] - lam) <= s + tol
            if kept_inside and kept[2] <= REFINE_TARGET:
                break
            solve = _tridiag_solver(
                lower, diag - ((q if abs(q - lam) <= s + tol else lam) - tol), upper)
            for _ in range(INVERSE_STEPS):
                x = _rescaled(solve(x))
            q, res = quotient(x)
            floor[i] |= kept_inside and res >= kept[2]
            kept = kept if kept_inside and res >= kept[2] else (x, q, res)
        basis[i], values[i], _ = kept
    far = np.abs(values - centres)
    vectors, residuals = _normalized(operator, values, basis)
    failed = (residuals >= RESIDUAL_TOL) | (far > s + tol)
    if failed.any():
        i = int(np.argmax(failed))
        if floor[i]:
            raise RefinementError(f"level {i} stopped at the float64 rounding floor, where a "
                                  f"further round no longer lowers its residual: residual "
                                  f"{residuals[i]:.3e} (contract {RESIDUAL_TOL}) at "
                                  f"{values[i]:.6g}")
        ratio = np.diff(located).min(initial=math.inf) / (2.0 * s) if s else math.inf
        raise RefinementError(
            f"level {i} did not converge inside its disc: residual {residuals[i]:.3e} "
            f"(contract {RESIDUAL_TOL}) at {values[i]:.6g}, {far[i]:.6g} from the disc's "
            f"centre, whose radius is s = {s:.6g}; disc ratio min gap/(2s) = {ratio:.4g}")
    return values, vectors, residuals


def _weighted_state(name: str, state, d):
    """z = W^1/2 chi of the state chi and its norm ||z||, the surface norm of chi.
    SolveError names a shape other than d's, a nan or inf entry, or a norm that is 0 or
    overflows."""
    chi = np.asarray(state, dtype=complex)
    if chi.shape != d.shape:
        raise SolveError(f"{name} has shape {chi.shape}, expected {d.shape}")
    bad = np.flatnonzero(~np.isfinite(chi))
    if bad.size:
        raise SolveError(f"{name} has a nan or inf entry: {chi[bad[0]]} at index {bad[0]}")
    z = d * chi
    norm = math.sqrt(np.vdot(z, z).real)
    if not 0.0 < norm < math.inf:
        raise SolveError(f"{name} has norm {norm}, not positive and finite")
    return z, norm


def evolve(operator: TangentialOperator, initial: np.ndarray, dt: float,
           steps: int, record_states: bool = True) -> EvolutionTrace:
    """Crank-Nicolson propagation of an initial state over steps * dt.  DomainError names
    dt where the last time dt * steps or the step matrix's largest entry dt/4 max |M_w|
    overflows, and where the generator is not Hermitian (a nonzero Im diag, or M_w failing
    _weighted's test) but the first step returns its input bit for bit: so would every
    step, and the norm that should change would not."""
    _positive("dt", dt)
    dt, steps = float(dt), _whole("steps", steps, 1)  # Python floats overflow without a warning
    if not math.isfinite(dt * steps):
        raise DomainError(f"dt * steps, the trace's last time, overflows float64: "
                          f"dt = {dt}, steps = {steps}")
    d, lower, upper, _, scale, _, hermitian = _weighted(operator)
    if not math.isfinite(0.25 * dt * float(scale)):
        raise DomainError(f"dt = {dt} overflows the Crank-Nicolson step matrix: dt/4 times "
                          f"its operator's largest entry {scale:.6g} is past float64's range")
    z, norm = _weighted_state("initial state", initial, d)
    quarter = 0.25j * dt
    solve = _tridiag_solver(quarter * lower, 0.5 + quarter * operator.diag, quarter * upper)

    # step s writes row s of the states, or row s % 2 of a two-row buffer
    rows = np.empty((steps + 1 if record_states else 2, operator.n), dtype=complex)
    rows[0] = z
    norms = np.empty(steps + 1)
    norms[0] = norm
    for s in range(1, steps + 1):
        z = np.subtract(solve(z), z, out=rows[s % len(rows)])
        norms[s] = math.sqrt(np.vdot(z, z).real)
        if s == 1 and np.array_equal(z, rows[0]) and (operator.diag.imag.any() or not hermitian):
            raise DomainError(f"dt = {dt} is too small to move the state: a Crank-Nicolson "
                              f"step returns its input bit for bit, while the generator is "
                              f"not Hermitian, so its norm should change")
    jumps = np.flatnonzero((norms[1:] > 10.0 * norms[:-1]) | (norms[1:] < 0.1 * norms[:-1]))
    if jumps.size:
        warnings.warn(
            f"norm changed by more than 10x in one step at t = {(int(jumps[0]) + 1) * dt}",
            InstabilityWarning, stacklevel=2,
        )
    # a finite start can still overflow; checked before the states are unweighted
    if not np.all(np.isfinite(norms)) or np.any(norms <= 0.0):
        raise SolveError("propagation produced non-positive or non-finite norms")
    states = np.divide(rows, d, out=rows) if record_states else None

    k = np.arange(steps + 1)
    centred, y = k - 0.5 * steps, np.log(norms)
    slope = float(centred @ (y - y[0])) / float(centred @ centred) / dt
    return EvolutionTrace(times=dt * k, states=states, norms=norms, log_norm_slope=slope)


def hermiticity_report(operator: TangentialOperator) -> HermiticityReport:
    """Measure, report and classify the operator's non-Hermitian content."""
    _, _, _, off_gap, scale, gap, hermitian = _weighted(operator)
    im = operator.diag.imag
    # M_w - M_w^dag is 2i Im(diag) on the diagonal and off_gap = 2 gap at most off it
    max_asym = 2.0 * max(float(np.abs(im).max()), gap)
    # the norm is summed with every entry below 2^480, scaled by a power of two 2^-p, exact:
    # the squares stay in range; where every entry is below it, nothing is scaled or copied,
    # since BLAS sums the strided im in another order than a contiguous copy
    p = max(0, math.frexp(max_asym)[1] - 480)
    if p:
        im, off_gap = np.ldexp(im, -p), np.ldexp(off_gap, -p)
    return HermiticityReport(
        mode=operator.mode,
        max_asymmetry=max_asym,
        relative_asymmetry=max_asym / scale if scale else 0.0,
        antihermitian_norm=math.ldexp(math.sqrt(im @ im + 0.5 * off_gap @ off_gap), p),
        coupling_equality=hermitian,
        coupling_equality_gap=gap,
    )


def weighted_coupling(operator: TangentialOperator, state: np.ndarray) -> float:
    """Surface-measure average of e A3 H, the operator's Im diag, weighted by |chi|^2.

    For spatially varying coupling this is the only quantitative handle on
    the expected norm-growth rate; the exponential law itself holds only
    for coupling that is uniform over the whole domain.
    """
    d, *_ = _weighted(operator)  # also the band check of the other entry points
    density = np.abs(_weighted_state("state", state, d)[0]) ** 2
    total = float(density.sum())
    # contiguous: BLAS sums a strided vector in another order
    return float((density @ np.ascontiguousarray(operator.diag.imag)) / total)


def ground_state(operator: TangentialOperator) -> np.ndarray:
    """Eigenvector of smallest real part, normalized under the measure."""
    return eigen_solve(operator, 1).eigenvectors[:, 0]
