"""Verified spectra, Crank-Nicolson propagation, Hermiticity reporting."""

import dataclasses
import itertools
import math
import re
import sys
import warnings
from importlib.machinery import ModuleSpec

import numpy as np
import pytest

import curvband.solver as solver_mod
from curvband import (
    DomainError,
    InstabilityWarning,
    RadialGrid,
    SolveError,
    TangentialOperator,
    axial_uniform,
    build_tangential,
    eigen_solve,
    evolve,
    flat,
    frame_synthetic,
    ground_state,
    hermiticity_report,
    paraboloid,
    sphere_cap,
    weighted_coupling,
    zero_field,
)
from oracles import cap_dirichlet_energy, disc_dirichlet_energy


def shifted_copy(op, shift):
    return dataclasses.replace(op, diag=op.diag + shift)


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------

def test_flat_disc_ground_states_match_bessel_oracle():
    grid = RadialGrid(2000, 1.0)
    for m in (0, 1):
        op = build_tangential(flat(1.0), zero_field(), m, grid)
        spec = eigen_solve(op, 1)
        exact = disc_dirichlet_energy(m, 1)
        assert abs(spec.eigenvalues[0].real - exact) / exact < 1e-4
        assert abs(spec.eigenvalues[0].imag) < 1e-9


def test_flat_disc_in_a_radial_field_matches_bessel_oracle():
    # a radial A1 is a pure gauge, at m = 0 as elsewhere: the levels stay real
    # and those of the disc, to criterion 3's tolerance
    grid = RadialGrid(2000, 1.0)
    for a1 in (0.3, 1.0):
        spec = eigen_solve(build_tangential(flat(1.0), frame_synthetic(a1=a1), 0, grid), 3)
        for k in (1, 2, 3):
            exact = disc_dirichlet_energy(0, k)
            assert abs(spec.eigenvalues[k - 1].real - exact) / exact < 1e-4, (a1, k)
        assert np.all(spec.eigenvalues.imag == 0.0)


def test_flat_disc_reference_numbers():
    # j_{0,1}^2/2 = 2.891593, j_{1,1}^2/2 = 7.340985
    assert disc_dirichlet_energy(0, 1) == pytest.approx(2.891592, abs=2e-6)
    assert disc_dirichlet_energy(1, 1) == pytest.approx(7.340976, abs=2e-5)


# the sphere cap R = 2 over rho_max = 1 in zero field: umbilic, so H^2 - K = 0 and the
# hermitian-corrected channel is -1/2 the Laplace-Beltrami operator, whose levels
# cap_dirichlet_energy gives exactly.  Its relative errors, measured once at these n over
# m = 0-2 and k = 1-3, reach 3.08e-5, 7.69e-6 and 1.92e-6; each bound is 1.25 times that
CAP_N = (500, 1001, 2003)
CAP_BOUND = {500: 3.9e-5, 1001: 9.7e-6, 2003: 2.4e-6}


def _cap_levels(m, n, a3=0.0, e=1.0):
    op = build_tangential(sphere_cap(2.0, 1.0), frame_synthetic(a3=a3), m, RadialGrid(n, 1.0),
                          e=e)
    return op, eigen_solve(op, 3).eigenvalues


@pytest.mark.parametrize("m", [0, 1, 2])
def test_sphere_cap_levels_match_the_legendre_oracle(m):
    exact = np.array([cap_dirichlet_energy(m, k, 2.0, 1.0) for k in (1, 2, 3)])
    errors = {}
    for n in CAP_N:
        levels = _cap_levels(m, n)[1]
        assert np.all(levels.imag == 0.0)
        errors[n] = (levels.real - exact) / exact
        assert np.abs(errors[n]).max() < CAP_BOUND[n], (n, errors[n])
    # second order: halving the spacing (n -> 2n + 1) divides every error by 4; the measured
    # ratios lie within 6.8e-4 of it
    for coarse, fine in zip(CAP_N, CAP_N[1:]):
        np.testing.assert_allclose(errors[coarse] / errors[fine], 4.0, rtol=0.0, atol=3e-3)


@pytest.mark.parametrize("e, a3", [(1.0, 0.4), (-1.3, -0.7)])
def test_uniform_frame_a3_on_the_cap_shifts_every_level_exactly(e, a3):
    # H = 1/R on the cap, so a uniform a3 adds e^2 a3^2 / 2 + i e a3 / R to the diagonal, and
    # to every level: the route that is Hermitian up to i c, on a curved profile.  The shift
    # holds to the rounding of the diagonal, eps max|diag| (measured: at most 0.27 of it), and
    # in Im to 4 eps (measured: at most 0.25 eps)
    shift = 0.5 * e * e * a3 * a3 + 1j * e * a3 / 2.0
    for m, n in itertools.product((0, 1, 2), CAP_N):
        op, bare = _cap_levels(m, n, e=e)
        moved = _cap_levels(m, n, a3, e)[1]
        floor = np.finfo(float).eps * np.abs(op.diag).max()
        assert np.abs((moved - bare - shift).real).max() <= floor, (m, n)
        assert np.abs((moved - bare - shift).imag).max() <= 4 * np.finfo(float).eps, (m, n)


def test_eigenpairs_verified_and_sorted():
    op = build_tangential(paraboloid(0.5, 1.0), frame_synthetic(a3=0.3), 0,
                          RadialGrid(180, 1.0))
    spec = eigen_solve(op, 8)
    assert np.all(spec.residuals < 1e-8)
    assert np.all(np.diff(spec.eigenvalues.real) >= 0.0)
    # eigenvectors normalized under the surface measure
    norms = op.measure_weights @ (np.abs(spec.eigenvectors) ** 2)
    np.testing.assert_allclose(norms, 1.0, rtol=1e-12)


def test_hermitian_input_gives_real_spectrum():
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 2, RadialGrid(200, 1.0))
    spec = eigen_solve(op, 10)
    assert np.abs(spec.eigenvalues.imag).max() < 1e-9


def test_constant_imaginary_shift_moves_spectrum_exactly():
    op = build_tangential(sphere_cap(2.0, 1.0), zero_field(), 0, RadialGrid(100, 1.0))
    base = eigen_solve(op, 100)
    c = 0.2
    shifted = eigen_solve(shifted_copy(op, 1j * c), 100)
    assert np.abs(shifted.eigenvalues - base.eigenvalues - 1j * c).max() < 1e-10


def test_complex_shift_covariance_on_nonhermitian_operator():
    # grid kept modest: general eigensolves of the non-normal variant
    # only resolve pairwise shifts to ~ machine_eps * ||M|| * kappa
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0,
                          RadialGrid(48, 1.0), mode="as-written")
    shift = 0.125 - 0.375j
    base = eigen_solve(op, 48)
    moved = eigen_solve(shifted_copy(op, shift), 48)
    assert np.abs(moved.eigenvalues - shift - base.eigenvalues).max() < 1e-10


def test_k_out_of_range_rejected():
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(32, 1.0))
    with pytest.raises(DomainError, match="^k = 33 exceeds the operator's n = 32$"):
        eigen_solve(op, 33)
    with pytest.raises(DomainError, match="^k must be >= 1, got 0$"):
        eigen_solve(op, 0)


def test_non_integer_k_is_a_named_error_before_solving(monkeypatch):
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(32, 1.0))
    monkeypatch.setattr(solver_mod.lapack, "dstebz", None)  # calling it fails the test
    with pytest.raises(DomainError, match="k must be an integer, got 2.5"):
        eigen_solve(op, 2.5)


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lapack_failure_is_a_named_error(monkeypatch, routine):
    # before, scipy raised numpy's LinAlgError, which the CLI does not catch
    run = getattr(solver_mod.lapack, routine)
    monkeypatch.setattr(solver_mod.lapack, routine, lambda *args: (*run(*args)[:-1], 1))
    # a flat channel takes the Hermitian route, an as-written paraboloid the certified one;
    # both take stein's vectors
    grid = RadialGrid(32, 1.0)
    for op in (build_tangential(flat(1.0), zero_field(), 0, grid),
               build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, grid, mode="as-written")):
        with pytest.raises(SolveError, match=f"^LAPACK {routine} failed with info = 1$"):
            eigen_solve(op, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("power", [0, 200, 400, 600, -400])
def test_a_residual_whose_squares_overflow_keeps_its_value(power):
    # before, |M x - E x|^2 overflowed in the sum and the residual read nan (the contract
    # error "max nan"); each sum is now taken again at its own power of two, so a pair
    # scaled by any power of two has the residual of the unscaled pair, bit for bit
    rng = np.random.default_rng(7)
    x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    mx = 3.0 * x + 1e-9 * rng.standard_normal(50)
    expected = solver_mod._residual(mx, x, 3.0)
    assert 1e-10 < expected < 1e-8
    scale = math.ldexp(1.0, power)
    assert solver_mod._residual(mx * scale, x * scale, 3.0) == expected
    # only the residual's own scale moves where M x alone is scaled
    assert solver_mod._residual(mx * 2.0 ** 600, x, 3.0 * 2.0 ** 600) == expected * 2.0 ** 600


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinite_symmetric_part_is_a_named_error():
    # finite bands whose measure weighting overflows: scipy's finiteness check raised a
    # ValueError here, and LAPACK is never handed an inf
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(32, 1.0))
    big = np.full(31, -1.5e308, dtype=complex)
    with pytest.raises(SolveError, match=re.escape(
            "the off-diagonal of M_w is past float64's range at j = 0: |lower_j| = inf, "
            "|upper_j| = 1.06066e+308, where the real symmetric part's off-diagonal, half "
            "their sum, needs each within 8.98847e+307") + "$"):
        eigen_solve(dataclasses.replace(op, lower=big, upper=big), 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("report", [hermiticity_report, lambda op: eigen_solve(op, 1),
                                    lambda op: evolve(op, np.ones(op.n), 1e-3, 1)],
                         ids=["hermiticity-report", "eigen-solve", "evolve"])
def test_an_infinite_weighted_off_diagonal_is_named_before_any_classification(report):
    # a steep as-written paraboloid whose M_w leaves float64: before, the report warned and
    # classified it Hermitian, as inf <= HERMITIAN_RTOL inf
    op = build_tangential(paraboloid(0.5, 1e60), frame_synthetic(a3=4e-61), 1,
                          RadialGrid(64, 1e60), mode="as-written")
    with pytest.raises(SolveError, match="^the off-diagonal of M_w is past float64's range "):
        report(op)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_weighted_off_diagonal_past_half_of_float64s_range_is_named():
    # finite entries whose pairwise sum, R's off-diagonal, would overflow
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(32, 1.0))
    w = op.measure_weights
    lower = np.sqrt(w[:-1] / w[1:]) * 0.6 * sys.float_info.max
    half = dataclasses.replace(op, lower=lower * 0.5, upper=lower * 0.5 * w[1:] / w[:-1])
    assert hermiticity_report(half).coupling_equality
    full = dataclasses.replace(op, lower=lower, upper=lower * w[1:] / w[:-1])
    with pytest.raises(SolveError, match="^the off-diagonal of M_w is past float64's range "):
        hermiticity_report(full)


def test_missing_lapack_extension_names_the_directory(monkeypatch, tmp_path):
    scipy = ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(solver_mod.importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        solver_mod._flapack()


def test_both_routes_agree_with_dense():
    grid = RadialGrid(400, 1.0)
    flat_disc = build_tangential(flat(1.0), zero_field(), 0, grid)
    non_normal = build_tangential(paraboloid(0.5, 1.0), frame_synthetic(a3=0.3), 0, grid)
    for op in (flat_disc, non_normal):
        dense = np.linalg.eigvals(op.matrix)
        dense = dense[np.lexsort((dense.imag, dense.real))][:4]
        sparse = eigen_solve(op, 4)
        np.testing.assert_allclose(sparse.eigenvalues, dense, rtol=1e-9, atol=1e-9)
        assert np.all(sparse.residuals < 1e-8)


# ----------------------------------------------------------------------
# time evolution
# ----------------------------------------------------------------------

def test_hermitian_generator_conserves_norm():
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, RadialGrid(150, 1.0))
    psi = ground_state(op)
    trace = evolve(op, psi, dt=1e-3, steps=10_000, record_states=False)
    drift = np.abs(trace.norms - trace.norms[0]).max() / trace.norms[0]
    assert drift < 1e-9
    assert abs(trace.log_norm_slope) < 1e-9


def test_uniform_coupling_growth_and_decay():
    grid = RadialGrid(200, 1.0)
    prof = sphere_cap(2.0, 1.0)     # H = 1/2
    for c in (0.2, -0.2):
        op = build_tangential(prof, frame_synthetic(a3=2.0 * c), 0, grid, e=1.0)
        psi = ground_state(op)
        trace = evolve(op, psi, dt=1e-3, steps=1000, record_states=False)
        assert abs(trace.log_norm_slope - c) / abs(c) < 1e-4
        # the closed-form fit is the least-squares line through (t, ln ||chi||)
        reference = np.polyfit(trace.times, np.log(trace.norms), 1)[0]
        assert abs(trace.log_norm_slope - reference) <= 1e-15
        ratio = trace.norms[-1] / trace.norms[0]
        assert abs(ratio - math.exp(c)) / math.exp(c) < 1e-4


# |slope - ln|g|/dt| measured at dt = 1e-3, 1000 steps: at most 3.8e-13
# (n <= 1000) and 3.6e-12 (n = 4000) with the step (I + i dt/2 M)^-1 (I - i dt/2 M),
# 5.4e-13 and 7.0e-12 with the measure-gauge step 2 A^-1 z - z
SLOPE_BUDGET = {400: 2e-12, 1000: 2e-12, 4000: 2.5e-11}


@pytest.mark.parametrize("n", sorted(SLOPE_BUDGET))
def test_slope_from_an_eigenvector_is_the_cn_amplification(n):
    # CN multiplies an eigenvector of eigenvalue lam exactly by
    # g = (1 - i tau lam) / (1 + i tau lam), tau = dt/2, at every step
    dt, cap, bowl = 1e-3, sphere_cap(2.0, 1.0), paraboloid(0.5, 1.0)
    cases = ((cap, frame_synthetic(a3=0.4)), (cap, frame_synthetic(a3=-0.4)),
             (bowl, axial_uniform(1.0, bowl)), (flat(1.0), zero_field()))
    for (prof, field), m in itertools.product(cases, (0, 1)):
        op = build_tangential(prof, field, m, RadialGrid(n, 1.0))
        spec = eigen_solve(op, 1)
        tau_lam = 0.5 * dt * spec.eigenvalues[0]
        predicted = math.log(abs((1 - 1j * tau_lam) / (1 + 1j * tau_lam))) / dt
        trace = evolve(op, spec.eigenvectors[:, 0], dt, 1000, record_states=False)
        assert abs(trace.log_norm_slope - predicted) < SLOPE_BUDGET[n]


def test_trace_is_fully_recorded():
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(40, 1.0))
    psi = ground_state(op)
    trace = evolve(op, psi, dt=1e-2, steps=25)
    assert trace.times.shape == (26,)
    assert trace.norms.shape == (26,)
    assert trace.states.shape == (26, 40)
    assert np.all(trace.norms > 0.0)
    np.testing.assert_allclose(trace.states[0], psi)


def test_gamma_localized_coupling_reported_not_asserted():
    # coupling confined to [0.2, 0.6]: the norm grows at some rate between
    # zero and the uniform value; the weighted average is the diagnostic
    grid = RadialGrid(200, 1.0)
    prof = sphere_cap(2.0, 1.0)
    op = build_tangential(prof, frame_synthetic(a3=0.4, gamma_interval=(0.2, 0.6)),
                          0, grid, e=1.0)
    psi = ground_state(build_tangential(prof, zero_field(), 0, grid))
    trace = evolve(op, psi, dt=1e-3, steps=400, record_states=False)
    avg = weighted_coupling(op, psi)
    assert 0.0 < avg < 0.2
    assert 0.0 < trace.log_norm_slope < 0.2


def test_instability_warning_on_violent_growth():
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(24, 1.0))
    wild = shifted_copy(op, 1800.0j)
    psi = np.full(24, 1.0 + 0.0j)
    psi /= math.sqrt(float(wild.measure_weights @ np.abs(psi) ** 2))
    with pytest.warns(InstabilityWarning) as record:
        evolve(wild, psi, dt=1e-3, steps=3, record_states=False)
    assert len(record) == 1
    assert str(record[0].message).endswith("at t = 0.001")


def test_singular_crank_nicolson_matrix_is_a_named_error():
    # uncoupled nodes with M = 2i: at dt = 1, I + i dt/2 M is exactly 0
    n = 16
    op = TangentialOperator(m=0, mode="hermitian-corrected", measure_weights=np.ones(n),
                            grid=RadialGrid(n, 1.0), lower=np.zeros(n - 1, dtype=complex),
                            diag=np.full(n, 2j), upper=np.zeros(n - 1, dtype=complex))
    with pytest.raises(SolveError, match="is singular"):
        evolve(op, np.ones(n), dt=1.0, steps=1)


def test_evolve_validates_arguments():
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(24, 1.0))
    psi = ground_state(op)
    with pytest.raises(DomainError):
        evolve(op, psi, dt=-1e-3, steps=10)
    with pytest.raises(DomainError):
        evolve(op, psi, dt=1e-3, steps=0)
    with pytest.raises(SolveError):
        evolve(op, psi[:-1], dt=1e-3, steps=10)


@pytest.mark.parametrize("bad, message", [
    (math.nan, r"^initial state has a nan or inf entry: \(nan\+0j\) at index 5$"),
    (math.inf, r"^initial state has a nan or inf entry: \(inf\+0j\) at index 5$"),
    (0.0, "^initial state has norm 0.0, not positive and finite$"),
    (1e200, "^initial state has norm inf, not positive and finite$"),
], ids=["nan", "inf", "zero", "overflow"])
def test_evolve_bad_initial_state_fails_before_any_step(monkeypatch, bad, message):
    # before, 20 000 steps at n = 400 ran (0.34 s) to end in "non-finite norms"
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(24, 1.0))
    psi = ground_state(op)
    if math.isfinite(bad):
        psi[:] = bad
    else:
        psi[5] = bad
    monkeypatch.setattr(solver_mod, "_tridiag_solver", None)  # calling it fails the test
    with pytest.raises(SolveError, match=message):
        evolve(op, psi, dt=1e-3, steps=20000)


@pytest.mark.parametrize("state, message", [
    (np.ones(23), r"^state has shape \(23,\), expected \(24,\)$"),
    (np.ones((24, 1)), r"^state has shape \(24, 1\), expected \(24,\)$"),
    (np.where(np.arange(24) == 9, math.nan, 1.0), r"^state has a nan or inf entry: "
                                                   r"\(nan\+0j\) at index 9$"),
    (np.zeros(24), "^state has norm 0.0, not positive and finite$"),
    (np.full(24, 1e200), "^state has norm inf, not positive and finite$"),
], ids=["short", "column", "nan", "zero", "overflow"])
def test_weighted_coupling_checks_its_state(state, message):
    # before, a wrong shape failed in numpy broadcasting and a nan gave nan
    op = build_tangential(sphere_cap(2.0, 1.0), frame_synthetic(a3=0.4), 0, RadialGrid(24, 1.0))
    with pytest.raises(SolveError, match=message):
        weighted_coupling(op, state)


@pytest.mark.parametrize("dt, steps, error, message", [
    (1e-3, 2.5, DomainError, "steps must be an integer, got 2.5"),
    (math.inf, 10, DomainError, "dt must be positive and finite, got inf"),
    (math.nan, 10, DomainError, "dt must be positive and finite, got nan"),
    (1e-3, 0, DomainError, "steps must be >= 1, got 0"),
    (1e-3, 6.0, DomainError, "steps must be an integer, got 6.0"),
    (1e306, 1000, DomainError,
     "^dt \\* steps, the trace's last time, overflows float64: dt = 1e\\+306, steps = 1000$"),
    (1e308, 1, DomainError, "^dt = 1e\\+308 overflows the Crank-Nicolson step matrix: dt/4 "
                            "times its operator's largest entry [0-9.]+ is past float64's range$"),
])
def test_evolve_arguments_fail_before_any_step(monkeypatch, dt, steps, error, message):
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(24, 1.0))
    psi = ground_state(op)
    monkeypatch.setattr(solver_mod, "_tridiag_solver", None)  # calling it fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message) as caught:
            evolve(op, psi, dt=dt, steps=steps)
    # perfbench reads "max <number>" in a SolveError as a residual
    assert "max" not in str(caught.value)


@pytest.mark.parametrize("dt", [1e-200, 1e160])
def test_evolve_fits_a_finite_slope_at_extreme_steps(dt):
    # the slope is fitted in step units and divided by dt once. Before, np.polyfit scaled
    # its time column by sqrt(sum t^2): at dt = 1e-200 every t^2 underflowed to 0 and lstsq
    # raised LinAlgError (so dt * steps had a floor), and at 1e160 the sum overflowed with a
    # RuntimeWarning and a RankWarning
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(64, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = evolve(op, ground_state(op), dt=dt, steps=10, record_states=False)
    # to float64's precision a step maps z to z (dt = 1e-200) or to -z (dt = 1e160)
    assert trace.log_norm_slope == 0.0
    assert trace.times[-1] == dt * 10


@pytest.mark.parametrize("record_states", [True, False])
@pytest.mark.parametrize("profile, field, mode", [
    (sphere_cap(2.0, 1.0), frame_synthetic(a3=0.4), "hermitian-corrected"),   # Im diag = 0.2
    # Im diag = 0, and M_w is not Hermitian: its ground level is 2.665 - 0.195i
    (paraboloid(0.5, 1.0), frame_synthetic(a1=0.3), "as-written"),
], ids=["cap-coupling", "as-written-radial-field"])
def test_evolve_whose_steps_cannot_move_a_non_hermitian_state_names_dt(profile, field, mode,
                                                                       record_states):
    # before, every step returned its input bit for bit and the run reported a slope of
    # exactly 0 where the norm should grow or decay
    op = build_tangential(profile, field, 0, RadialGrid(64, 1.0), mode=mode)
    psi = ground_state(op)
    for dt in (1e-150, 1e-200, 1e-300):
        with pytest.raises(DomainError, match=rf"^dt = {dt:g} is too small to move the state: "):
            evolve(op, psi, dt=dt, steps=10, record_states=record_states)
    # a step that moves the state runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = evolve(op, psi, dt=1e-3, steps=10, record_states=record_states)
    assert trace.log_norm_slope != 0.0


@pytest.mark.parametrize("record_states", [True, False])
def test_overflowing_norms_are_a_named_error(record_states):
    # |g| = 1.9 / 0.1 = 19 per step, so the norm overflows within 400 steps; before,
    # unweighting the recorded states raised an overflow RuntimeWarning first
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(24, 1.0))
    psi = ground_state(op)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(InstabilityWarning, match="at t = 0.001$"):
            with pytest.raises(SolveError, match="^propagation produced non-positive or "
                                                 "non-finite norms$"):
                evolve(shifted_copy(op, 1800j), psi, dt=1e-3, steps=400,
                       record_states=record_states)


# ----------------------------------------------------------------------
# hermiticity report
# ----------------------------------------------------------------------

def test_report_clean_for_corrected_field_free():
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, RadialGrid(250, 1.0))
    rep = hermiticity_report(op)
    assert rep.max_asymmetry < 1e-10
    assert rep.coupling_equality


def test_report_reads_the_diagonal_exactly():
    # no off-diagonal coupling: M_w = M, and the similarity must not round the diagonal
    rng = np.random.default_rng(3)
    n = 50
    op = TangentialOperator(m=0, mode="hermitian-corrected",
                            measure_weights=rng.uniform(1e-4, 3e-2, n),
                            grid=RadialGrid(n, 1.0), lower=np.zeros(n - 1, dtype=complex),
                            diag=rng.uniform(-5.0, 5.0, n) + 1j * rng.uniform(-0.7, 0.7, n),
                            upper=np.zeros(n - 1, dtype=complex))
    rep = hermiticity_report(op)
    assert rep.coupling_equality_gap == 0.0
    assert rep.max_asymmetry == 2.0 * np.abs(op.diag.imag).max()
    assert rep.coupling_equality


def test_report_identifies_uniform_coupling():
    n = 160
    op = build_tangential(sphere_cap(2.0, 1.0), frame_synthetic(a3=0.4), 0,
                          RadialGrid(n, 1.0), e=1.0)
    rep = hermiticity_report(op)
    # anti-Hermitian part is the diagonal i c with c = 0.2
    assert rep.antihermitian_norm == pytest.approx(0.2 * math.sqrt(n), rel=1e-9)
    assert rep.coupling_equality
    assert rep.max_asymmetry == pytest.approx(0.4, rel=1e-9)


@pytest.mark.parametrize("n", [1000, 4000])
def test_report_coupling_equality_holds_on_fine_grids(n):
    # measure-Hermitian up to rounding, which grows with max |M_w| like
    # (n + 1)^2: the gap is ~1.5e-10 at n = 1000 and ~2.3e-9 at n = 4000
    op = build_tangential(paraboloid(0.5, 1.0), frame_synthetic(a1=0.3, a2=0.2), 1,
                          RadialGrid(n, 1.0))
    rep = hermiticity_report(op)
    assert rep.relative_asymmetry < 1e-15
    assert rep.coupling_equality, rep.coupling_equality_gap


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_report_is_relative_to_the_operator_scale():
    # the scale is max |M_w|, not max(1, max |M_w|): the same channel with every length
    # times 1e8 reports the same relative asymmetry (before, 1e16 times smaller); a zero
    # operator reports 0
    reports = []
    for lam in (1.0, 1e8):
        prof = paraboloid(0.5 / lam, lam)
        op = build_tangential(prof, frame_synthetic(a3=0.4 / lam), 1, RadialGrid(64, lam))
        reports.append(hermiticity_report(op))
    assert reports[1].relative_asymmetry == pytest.approx(reports[0].relative_asymmetry,
                                                          rel=1e-12)
    zero = dataclasses.replace(op, lower=0.0 * op.lower, diag=0.0 * op.diag, upper=0.0 * op.upper)
    rep = hermiticity_report(zero)
    assert rep.relative_asymmetry == 0.0 and rep.coupling_equality


def test_moved_diagonal_is_the_coupling():
    # the coupling is Im diag: a shift of diag moves it, with no copy left behind
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 1, RadialGrid(400, 1.0))
    moved = shifted_copy(op, 0.3j)
    assert weighted_coupling(moved, ground_state(moved)) == pytest.approx(0.3, rel=1e-12)
    assert hermiticity_report(moved).coupling_equality


@pytest.mark.parametrize("band", ["lower", "diag", "upper", "measure_weights"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("entry", ["eigen_solve", "evolve", "hermiticity_report",
                                   "weighted_coupling"])
def test_non_finite_band_is_a_named_error(entry, bad, band):
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 1, RadialGrid(50, 1.0))
    values = getattr(op, band).copy()
    values[7] = bad
    broken = dataclasses.replace(op, **{band: values})
    call = {"eigen_solve": lambda: eigen_solve(broken, 3),
            "evolve": lambda: evolve(broken, np.ones(50), dt=1e-3, steps=10),
            "hermiticity_report": lambda: hermiticity_report(broken),
            "weighted_coupling": lambda: weighted_coupling(broken, np.ones(50))}[entry]
    with pytest.raises(SolveError, match=f"band {band} ") as caught:
        call()
    # perfbench reads "max <number>" in a SolveError as a residual
    assert "max" not in str(caught.value)


@pytest.mark.parametrize("band", ["lower", "diag", "upper", "measure_weights"])
@pytest.mark.parametrize("entry", ["eigen_solve", "evolve", "hermiticity_report",
                                   "weighted_coupling"])
def test_band_of_the_wrong_length_is_a_named_error(entry, band):
    # each band is checked against the grid, so a short diag is named itself
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 1, RadialGrid(50, 1.0))
    broken = dataclasses.replace(op, **{band: getattr(op, band)[:-1]})
    n = broken.n
    call = {"eigen_solve": lambda: eigen_solve(broken, 3),
            "evolve": lambda: evolve(broken, np.ones(n), dt=1e-3, steps=10),
            "hermiticity_report": lambda: hermiticity_report(broken),
            "weighted_coupling": lambda: weighted_coupling(broken, np.ones(n))}[entry]
    size, expected = {"lower": (48, 49), "diag": (49, 50), "upper": (48, 49),
                      "measure_weights": (49, 50)}[band]
    with pytest.raises(SolveError, match=f"^operator band {band} has {size} entries, "
                                         f"not {expected}: the grid has 50 nodes$"):
        call()


def test_report_flags_as_written_asymmetry():
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0,
                          RadialGrid(200, 1.0), mode="as-written")
    rep = hermiticity_report(op)
    assert rep.max_asymmetry > 1e-6
    assert not rep.coupling_equality
    assert rep.mode == "as-written"
