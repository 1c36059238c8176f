"""Spectra and time evolution of the tangential operator.

All work is done on the operator's three bands.  Eigensolves are verified: every
reported pair must satisfy the residual contract ||M v - lambda v|| / ||v|| < 1e-8 or
the solve raises.  Bisection locates the lowest levels of a real symmetric tridiagonal R
coarsely, and inverse iteration on M's own bands gives each pair from R's stein vectors,
by one route per structure class (eigen_solve): mapped by a gauge where M is Hermitian up
to i c, else by D^-1, with Bauer-Fike discs to certify the selection.  The routes use
LAPACK's tridiagonal routines and one-dimensional products only, and leave scipy's BLAS
thread count alone.  The routines come from scipy's LAPACK extension, which _flapack
loads from its file: the scipy.linalg package is never imported.

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
# inverse-iteration steps of each round of a non-normal level;
# a Hermitian level's one step is factored STEP_OFFSET tol below it: other levels shrink by
# STEP_OFFSET tol / gap (at 100, a channel at n = 8000 missed the contract), and a pair split
# by < tol mixes as ~1 / STEP_OFFSET (at 1, twins missed W-orthonormality); 2-30 held both
LOCATE_RTOL, INVERSE_STEPS, STEP_OFFSET = 1e-3, 2, 8.0
# a non-normal level takes rounds, each factored at its last quotient, until its residual
# is at most REFINE_TARGET, a decade inside the contract, or for REFINE_ROUNDS rounds
REFINE_TARGET, REFINE_ROUNDS = 1e-9, 6
# the shortest run evolve accepts, sqrt of the smallest normal float: the slope fit
# scales its time column by sqrt(sum t^2) >= dt * steps, so the sum stays a normal float
MIN_SPAN = math.sqrt(np.finfo(float).tiny)


def _flapack():
    """scipy's LAPACK extension, scipy/linalg/_flapack, loaded from its file.

    The scipy.linalg package takes ~0.3 s to import, most of a command's wall
    time, and the extension alone ~10 ms.  Neither scipy nor scipy.linalg is
    imported, and sys.modules is left as it was, so a later import of
    scipy.linalg runs as if this one had not happened.  ImportError names the
    directory searched where the extension is missing.
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
    """W^1/2 and M_w = W^1/2 M W^-1/2 off its diagonal, which is M's, with off_gap, scale, gap
    and hermitian = gap <= HERMITIAN_RTOL scale, the one test of measure-Hermiticity.
    SolveError names a band or the measure weights where its length disagrees with the
    grid's node count or an entry is not finite; the weights come first, since bands built
    from infinite weights are a symptom of them."""
    n = operator.grid.n_points
    for name, size in (("measure_weights", n), ("diag", n), ("lower", n - 1), ("upper", n - 1)):
        band = getattr(operator, name)
        if len(band) != size:
            raise SolveError(f"operator band {name} has {len(band)} entries, not {size}: "
                             f"the grid has {n} nodes")
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
    off = np.sqrt(upper * lower)
    radii = np.abs(np.append(off.imag, 0.0)) + np.abs(np.append(0.0, off.imag))
    top, bottom = float((diag.imag + radii).max()), float((diag.imag - radii).min())
    return 0.5j * (top + bottom), off, 0.5 * (top - bottom), scale, None


def eigen_solve(operator: TangentialOperator, k: int) -> Spectrum:
    """k verified eigenpairs with smallest real parts.

    Bisection (stebz) locates the lowest levels of R (_symmetric_form) to within tol =
    LOCATE_RTOL max(Re off) / n^2: k, and one more for the certificate (_certify) where M_w
    is not Hermitian up to i c; then stein gives the vectors of the k lowest.
    """
    n, k = operator.n, _whole("k", k, 1)
    if k > n:
        raise DomainError(f"k = {k} exceeds the operator's n = {n}")
    shift, off, s, scale, gauge = _symmetric_form(operator)
    d, e = operator.diag.real, off.real
    if not np.isfinite(e).all():
        raise SolveError("the off-diagonal of the real symmetric part has a nan or inf entry")
    tol = LOCATE_RTOL * (e.max(initial=0.0) or scale) / n ** 2
    count = k if gauge is not None else min(k + 1, n)
    found, levels, block, split = _lapack_call("dstebz", d, e, 2, 0.0, 1.0, 1, count, tol, "B")
    order = np.argsort(levels[:found])
    if gauge is None:
        _certify(operator, levels[order], shift, s, tol, k)
    # the k lowest, in blocks as stebz gave them: stein reads only block's first k entries
    take = np.sort(order[:k])
    block[:take.size] = block[take]
    (y,) = _lapack_call("dstein", d, e, levels[take], block, split)
    y = y[:, np.argsort(levels[take])]
    values, vectors, residuals = (
        _certified_pairs(operator, levels[order], y, off, shift, s, tol) if gauge is None
        else _hermitian_pairs(operator, levels[order], y, gauge, shift, tol))
    if not np.all(residuals < RESIDUAL_TOL):
        raise SolveError(f"eigen residual contract violated: max {residuals.max():.3e} "
                         f">= {RESIDUAL_TOL}")
    order = np.lexsort((values.imag, values.real))
    return Spectrum(m=operator.m, eigenvalues=values[order], eigenvectors=vectors[:, order],
                    residuals=residuals[order])


def _lapack_call(routine: str, *args):
    """The outputs of the LAPACK routine but its info; SolveError names the routine and a
    nonzero info: < 0 an illegal argument, > 0 levels or vectors that did not converge."""
    *out, info = getattr(lapack, routine)(*args)
    if info:
        raise SolveError(f"LAPACK {routine} failed with info = {info}")
    return out


def _residual(mx, x, lam) -> float:
    """||M x - lam x|| / ||x|| from mx = M x: the contract's residual."""
    mx = mx - lam * x
    return math.sqrt(np.vdot(mx, mx).real / np.vdot(x, x).real)


def _normalized(operator: TangentialOperator, values, basis):
    """A route's vectors, the rows of basis as columns normalized under the
    surface measure, and the residual of each with its value."""
    vectors = basis.T / np.sqrt(operator.measure_weights @ (np.abs(basis.T) ** 2))
    return vectors, np.array([_residual(_matvec(*operator.bands, v), v, lam)
                              for lam, v in zip(values, vectors.T)])


def _hermitian_pairs(operator: TangentialOperator, located, vectors, gauge, shift, tol):
    """Pairs where M_w is Hermitian up to i c, from R's levels and their stein vectors y,
    reorthogonalized where levels are close.  Each gauge y takes one inverse-iteration step
    on M's bands at lev + i c - STEP_OFFSET tol, which damps y's rounding as W^-1/2 scales
    it near the axis, by ~1 / drho.  The eigenvalue is the real measure quotient plus i c.
    """
    w, (lower, diag, upper) = operator.measure_weights, operator.bands
    basis = gauge * vectors.T
    quotients = np.empty(len(basis), dtype=complex)
    for i, lam in enumerate(located + shift):
        solve = _tridiag_solver(lower, diag - (lam - STEP_OFFSET * tol), upper)
        x = basis[i] = solve(basis[i])
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
                x = solve(x)
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
    """Crank-Nicolson propagation of an initial state over steps * dt."""
    _positive("dt", dt)
    steps = _whole("steps", steps, 1)
    if dt * steps < MIN_SPAN:
        raise DomainError(f"dt * steps must be >= {MIN_SPAN:.6g} for the log-norm fit, got "
                          f"dt = {dt}, steps = {steps}")
    d, lower, upper, *_ = _weighted(operator)
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
