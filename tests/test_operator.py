"""Assembly of the tangential operator and the normal channel."""

import math

import numpy as np
import pytest

from curvband import (
    CoarseGridWarning,
    DomainError,
    EvaluationError,
    RadialGrid,
    axial_uniform,
    build_tangential,
    decoupling_check,
    eigen_solve,
    evolve,
    flat,
    frame_synthetic,
    gaussian_bump,
    normal_energy,
    paraboloid,
    sphere_cap,
    zero_field,
)
from curvband.geometry import offset_scale_factors

SQRT2 = math.sqrt(2.0)


def weighted(op):
    d = np.sqrt(op.measure_weights)
    return (d[:, None] * op.matrix) / d[None, :]


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------

def test_grid_nodes_exclude_axis_and_wall():
    grid = RadialGrid(99, 2.0)
    assert grid.spacing == 2.0 / 100
    assert grid.nodes[0] == pytest.approx(grid.spacing)
    assert grid.nodes[-1] == pytest.approx(2.0 - grid.spacing)
    assert np.all(grid.nodes > 0.0)


def test_grid_rejects_bad_parameters():
    with pytest.raises(DomainError):
        RadialGrid(0, 1.0)
    with pytest.raises(DomainError):
        RadialGrid(100, -1.0)
    with pytest.raises(DomainError, match="n_points"):
        RadialGrid(10.5, 1.0)


def test_coarse_grid_warns():
    with pytest.warns(CoarseGridWarning):
        build_tangential(flat(1.0), zero_field(), 0, RadialGrid(8, 1.0))


def test_invalid_mode_rejected():
    with pytest.raises(DomainError):
        build_tangential(flat(1.0), zero_field(), 0, RadialGrid(32, 1.0),
                         mode="sloppy")


@pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
def test_non_finite_charge_rejected(e):
    with pytest.raises(DomainError, match="^e must be finite, got"):
        build_tangential(flat(1.0), zero_field(), 0, RadialGrid(32, 1.0), e=e)


# ----------------------------------------------------------------------
# structure of the assembled matrix
# ----------------------------------------------------------------------

def test_flat_operator_is_radial_laplacian():
    # with no field and m = 0 the stencil must match -(D2 + D1/rho)/2
    # with the axis ghost folded onto the first diagonal entry
    n = 50
    grid = RadialGrid(n, 1.0)
    op = build_tangential(flat(1.0), zero_field(), 0, grid)
    dr = grid.spacing
    rho = grid.nodes
    expected = np.zeros((n, n))
    for j in range(n):
        expected[j, j] = 1.0 / dr ** 2
        if j + 1 < n:
            expected[j, j + 1] = -0.5 * (1.0 / dr ** 2 + 1.0 / (2 * rho[j] * dr))
        if j - 1 >= 0:
            expected[j, j - 1] = -0.5 * (1.0 / dr ** 2 - 1.0 / (2 * rho[j] * dr))
    expected[0, 0] += -0.5 * (1.0 / dr ** 2 - 1.0 / (2 * rho[0] * dr))
    assert np.abs(op.matrix - expected).max() < 1e-9 / dr ** 2
    assert np.abs(op.matrix.imag).max() == 0.0


def test_modes_identical_on_flat_profile():
    grid = RadialGrid(300, 1.0)
    A = frame_synthetic(a3=0.7)
    m_aw = build_tangential(flat(1.0), A, 1, grid, mode="as-written").matrix
    m_hc = build_tangential(flat(1.0), A, 1, grid, mode="hermitian-corrected").matrix
    assert np.array_equal(m_aw, m_hc)


def test_modes_differ_on_curved_profile():
    grid = RadialGrid(100, 1.0)
    m_aw = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, grid,
                            mode="as-written").matrix
    m_hc = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, grid,
                            mode="hermitian-corrected").matrix
    assert np.abs(m_aw - m_hc).max() > 1.0


@pytest.mark.parametrize("make", [
    lambda: paraboloid(0.5, 1.0),
    lambda: gaussian_bump(0.3, 0.5, 1.0),
    lambda: sphere_cap(2.0, 1.0),
])
def test_corrected_operator_self_adjoint_under_measure(make):
    for m in (0, 1):
        op = build_tangential(make(), zero_field(), m, RadialGrid(250, 1.0))
        mw = weighted(op)
        assert np.abs(mw - mw.conj().T).max() < 1e-10


def test_as_written_operator_not_self_adjoint_when_curved():
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0,
                          RadialGrid(250, 1.0), mode="as-written")
    mw = weighted(op)
    assert np.abs(mw - mw.conj().T).max() > 1e-6


def test_measure_weights_are_surface_measure():
    grid = RadialGrid(64, 1.0)
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, grid)
    Z = np.sqrt(1.0 + grid.nodes ** 2)        # S_rho = rho for a = 1/2
    np.testing.assert_allclose(op.measure_weights, grid.nodes * Z * grid.spacing,
                               rtol=1e-14)


def test_diamagnetic_shift_only_on_flat_profile():
    # flat: H = 0 kills the coupling, leaving the +e^2 A3^2/2 diagonal
    grid = RadialGrid(64, 1.0)
    base = build_tangential(flat(1.0), zero_field(), 0, grid, e=1.0)
    shifted = build_tangential(flat(1.0), frame_synthetic(a3=0.7), 0, grid, e=1.0)
    delta = shifted.matrix - base.matrix
    # diagonal extracted by cancellation against the kinetic block, so
    # tolerate a few ulp of the large entries
    np.testing.assert_allclose(np.diagonal(delta).real, 0.5 * 0.7 ** 2, atol=1e-11)
    assert np.abs(delta.imag).max() == 0.0
    assert np.abs(delta - np.diag(np.diagonal(delta))).max() == 0.0


def test_field_diagonal_on_paraboloid_node():
    # A3 = 1, e = 1 near rho = 1: the diagonal gains i H(rho) and
    # 1/2 e^2 A3^2 on top of the field-free operator
    grid = RadialGrid(399, 2.0)
    prof = paraboloid(0.5, 2.0)
    base = build_tangential(prof, zero_field(), 0, grid, e=1.0)
    op = build_tangential(prof, frame_synthetic(a3=1.0), 0, grid, e=1.0)
    delta = np.diagonal(op.matrix - base.matrix)
    j = int(np.argmin(np.abs(grid.nodes - 1.0)))
    rho = grid.nodes[j]
    Z = math.sqrt(1.0 + rho ** 2)
    H = -0.5 * (1.0 / Z + 1.0 / Z ** 3)
    assert delta[j].imag == pytest.approx(H, rel=1e-12)
    assert H == pytest.approx(-0.530330, abs=1e-6)
    assert delta[j].real == pytest.approx(0.5, rel=1e-12)


def test_curvature_well_sits_on_diagonal():
    # field-free diagonal difference between curved and its flat-kinetic
    # counterpart contains -(H^2 - K)/2; spot value -1/64 at rho = 1
    grid = RadialGrid(399, 2.0)
    prof = paraboloid(0.5, 2.0)
    op = build_tangential(prof, zero_field(), 0, grid)
    j = int(np.argmin(np.abs(grid.nodes - 1.0)))
    rho = grid.nodes[j]
    Z2 = 1.0 + rho ** 2
    H = -0.5 * (1.0 / math.sqrt(Z2) + Z2 ** -1.5)
    K = 1.0 / Z2 ** 2
    # strip the kinetic part of the diagonal to isolate the potential
    kinetic = -(op.matrix[j, j - 1] + op.matrix[j, j + 1]).real
    well = (op.matrix[j, j].real - kinetic)
    assert well == pytest.approx(-0.5 * (H * H - K), rel=1e-6)
    assert -0.5 * (H * H - K) == pytest.approx(-1.0 / 64.0, rel=1e-3)


def test_azimuthal_field_enters_through_m():
    # landau-like term e m A2 / rho with A2 = B rho / 2 is constant e m B/2
    grid = RadialGrid(64, 1.0)
    prof = flat(1.0)
    A = axial_uniform(2.0, prof)
    for m in (-1, 0, 2):
        op = build_tangential(prof, A, m, grid, e=1.0)
        base = build_tangential(prof, zero_field(), m, grid, e=1.0)
        delta = np.diagonal(op.matrix - base.matrix)
        np.testing.assert_allclose(delta.real, m * 1.0 + 0.5 * grid.nodes ** 2,
                                   atol=1e-11)


def test_radial_field_term_is_measure_antihermitian():
    # with only A1 present the non-kinetic field block must not disturb
    # self-adjointness: i e (A1/Z) d/drho enters in skew form
    grid = RadialGrid(128, 1.0)
    prof = paraboloid(0.5, 1.0)
    A = frame_synthetic(a1=lambda r, q: r * (1.0 - r))
    op = build_tangential(prof, A, 1, grid, e=1.3)
    mw = weighted(op)
    assert np.abs(mw - mw.conj().T).max() < 1e-10


@pytest.mark.parametrize("m", [0, 1])
def test_as_written_levels_depend_on_the_radial_gauge(m):
    # a radial A1 is a pure gauge, which the corrected levels follow to
    # O(drho^2) (test_radial_a1_is_a_pure_gauge); the as-written correction
    # stencils use a plain d/drho, so its levels move by a grid-independent
    # amount: max |dRe| = 0.0146 (m = 0) and 0.0168 (m = 1), max |dIm| = 0.209
    # and 0.242 at n = 250, 1000 and 4000.  A known property of the mode as
    # printed: changing it needs the printed equation
    prof = paraboloid(0.5, 1.0)
    shifts = []
    for n in (250, 1000):
        grid = RadialGrid(n, 1.0)
        gauged, plain = (eigen_solve(build_tangential(prof, field, m, grid, mode="as-written"),
                                     3).eigenvalues
                         for field in (frame_synthetic(a1=0.3), zero_field()))
        shift = gauged - plain
        assert np.all(np.abs(shift.real) > 0.01) and np.all(np.abs(shift.imag) > 0.1), shift
        shifts.append(shift)
    for part in (np.real, np.imag):
        coarse, fine = np.abs(part(shifts[0])), np.abs(part(shifts[1]))
        assert np.all(np.abs(coarse - fine) < 0.01 * fine), (coarse, fine)


def test_constant_coupling_shifts_spectrum_exactly():
    # uniform c = e a3 H on the umbilic cap: every eigenvalue moves by
    # i e c + e^2 a3^2 / 2
    grid = RadialGrid(160, 1.0)
    prof = sphere_cap(2.0, 1.0)
    base = eigen_solve(build_tangential(prof, zero_field(), 0, grid, e=1.0), 160)
    a3 = 0.44
    op = build_tangential(prof, frame_synthetic(a3=a3), 0, grid, e=1.0)
    shifted = eigen_solve(op, 160)
    expected = base.eigenvalues + 0.5 * a3 ** 2 + 1j * (a3 * 0.5)
    assert np.abs(shifted.eigenvalues - expected).max() < 1e-10


def test_centrifugal_raises_ground_state():
    grid = RadialGrid(200, 1.0)
    prof = flat(1.0)
    e0 = eigen_solve(build_tangential(prof, zero_field(), 0, grid), 1).eigenvalues[0]
    e1 = eigen_solve(build_tangential(prof, zero_field(), 1, grid), 1).eigenvalues[0]
    assert e1.real > e0.real


def test_non_integer_m_rejected():
    with pytest.raises(DomainError):
        build_tangential(flat(1.0), zero_field(), 0.5, RadialGrid(32, 1.0))
    for m in (math.nan, math.inf):
        with pytest.raises(DomainError, match="index m"):
            build_tangential(flat(1.0), zero_field(), m, RadialGrid(32, 1.0))


def test_non_finite_field_rejected():
    # assembly and the decoupling diagnostic name the same fault
    grid = RadialGrid(32, 1.0)
    for value in (np.inf, np.nan):
        bad = frame_synthetic(a3=lambda r, q: np.where(r > 0.5, value, 0.0))
        with pytest.raises(EvaluationError, match="non-finite on the grid"):
            build_tangential(flat(1.0), bad, 0, grid)
        with pytest.raises(EvaluationError, match="non-finite on the grid"):
            decoupling_check(1e4, bad, flat(1.0), grid)


# ----------------------------------------------------------------------
# normal channel
# ----------------------------------------------------------------------

def test_oscillator_ladder():
    assert normal_energy(1.0, 0) == 0.5
    assert normal_energy(1.0, 2) == 2.5
    assert normal_energy(10.0, 1) == 15.0


def test_ladder_spacing_exact():
    for n in range(6):
        assert normal_energy(3.7, n + 1) - normal_energy(3.7, n) == pytest.approx(3.7, rel=1e-15)


def test_normal_energy_domain_errors():
    with pytest.raises(DomainError):
        normal_energy(-1.0, 0)
    with pytest.raises(DomainError):
        normal_energy(1.0, -2)
    with pytest.raises(DomainError):
        normal_energy(0.0, 1)
    for n in (math.inf, math.nan):
        with pytest.raises(DomainError, match="level index n"):
            normal_energy(1.0, n)


# ----------------------------------------------------------------------
# decoupling diagnostic
# ----------------------------------------------------------------------

def test_decoupling_infinite_without_normal_field():
    rep = decoupling_check(1e4, zero_field(), flat(1.0), RadialGrid(32, 1.0))
    assert rep.ratio == math.inf
    assert rep.passed


def test_decoupling_ratio_is_half_sqrt_omega():
    # V_n(q*) = omega/2 against drive sqrt(omega): borderline at 1e4
    rep = decoupling_check(1e4, frame_synthetic(a3=1.0), flat(1.0), RadialGrid(32, 1.0))
    assert rep.ratio == pytest.approx(50.0, rel=1e-12)
    assert not rep.passed
    rep8 = decoupling_check(1e8, frame_synthetic(a3=1.0), flat(1.0), RadialGrid(32, 1.0))
    assert rep8.ratio == pytest.approx(5000.0, rel=1e-12)
    assert rep8.passed
    assert rep8.ratio / rep.ratio == pytest.approx(100.0, rel=1e-12)


def test_decoupling_monotone_in_omega():
    ratios = [decoupling_check(w, frame_synthetic(a3=1.0), sphere_cap(2.0, 1.0),
                               RadialGrid(32, 1.0)).ratio
              for w in (1e2, 1e4, 1e6)]
    assert ratios[0] < ratios[1] < ratios[2]


def test_decoupling_rejects_bad_omega():
    with pytest.raises(DomainError):
        decoupling_check(0.0, zero_field(), flat(1.0), RadialGrid(32, 1.0))


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_decoupling_applies_the_ladders_omega_rule(omega):
    # the rule normal_energy applies: a named error, not ratio = nan, passed = False
    with pytest.raises(DomainError, match="omega"):
        normal_energy(omega, 0)
    with pytest.raises(DomainError, match="omega"):
        decoupling_check(omega, frame_synthetic(a3=1.0), flat(1.0), RadialGrid(32, 1.0))


@pytest.mark.parametrize("call, name", [
    (lambda op: RadialGrid(True, 1.0), "n_points"),
    (lambda op: eigen_solve(op, True), "k"),
    (lambda op: evolve(op, np.ones(op.n), dt=1e-3, steps=True), "steps"),
    (lambda op: build_tangential(flat(1.0), zero_field(), True, op.grid), "azimuthal index m"),
    (lambda op: normal_energy(1.0, True), "level index n"),
], ids=["grid-n-points", "eigen-k", "evolve-steps", "assembly-m", "ladder-n"])
def test_bool_is_not_an_integer(call, name):
    # as in the config; before, True ran as 1 at every entry point
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(20, 1.0))
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got True$"):
        call(op)


@pytest.mark.parametrize("call, message", [
    (lambda op: RadialGrid(16.0, 1.0), "n_points must be an integer, got 16.0"),
    (lambda op: eigen_solve(op, 6.0), "k must be an integer, got 6.0"),
    (lambda op: build_tangential(flat(1.0), zero_field(), 1.0, op.grid),
     "azimuthal index m must be an integer, got 1.0"),
    (lambda op: normal_energy(1.0, 2.0), "level index n must be an integer, got 2.0"),
    (lambda op: RadialGrid(0, 1.0), "n_points must be >= 1, got 0"),
    (lambda op: normal_energy(1.0, -2), "level index n must be >= 0, got -2"),
], ids=["grid-n-points", "eigen-k", "assembly-m", "ladder-n", "grid-minimum", "ladder-minimum"])
def test_one_integer_rule(call, message):
    # a whole float is not an integer, as for RadialGrid and the config; before, eigen_solve,
    # build_tangential and normal_energy ran 6.0 as 6
    op = build_tangential(flat(1.0), zero_field(), 0, RadialGrid(20, 1.0))
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(op)
    assert eigen_solve(op, np.int64(2)).eigenvalues.size == 2


def test_decoupling_chart_ok_is_the_product_h1_h2():
    # paraboloid a = 4, a3 on [0.5, 0.6] and q* = 1: at the node of largest |A3| the
    # offset q* lies past a focal point, where F(q*) = h1 h2 / (rho Z) < 0
    grid = RadialGrid(64, 1.0)
    field = frame_synthetic(a3=1.0, gamma_interval=(0.5, 0.6))
    steep = paraboloid(4.0, 1.0)
    report = decoupling_check(1.0, field, steep, grid)
    assert report.q_star == 1.0 and not report.chart_ok
    node = grid.nodes[int(np.argmax(field(grid.nodes, 0.0)[2]))]
    h1, h2 = offset_scale_factors(steep, node, 1.0)
    assert h1 * h2 < 0.0
    assert decoupling_check(1.0, field, flat(1.0), grid).chart_ok


def test_decoupling_names_a_node_past_the_profile():
    # the node of largest |A3| is checked against the profile, as in assembly
    field = frame_synthetic(a3=1.0, gamma_interval=(1.5, 1.9))
    with pytest.raises(DomainError, match="^rho = 1.50769.* outside \\[0, 1.0\\]"):
        decoupling_check(1.0, field, flat(1.0), RadialGrid(64, 2.0))


def test_decoupling_rejects_a_grid_that_assembly_rejects():
    # the largest |A3| sits inside the profile, but the grid runs past it to rho = 2:
    # the check names the first node outside, as build_tangential does
    field = frame_synthetic(a3=1.0, gamma_interval=(0.1, 0.5))
    grid = RadialGrid(64, 2.0)
    stated = "^rho = 1.01538.* outside \\[0, 1.0\\]"
    with pytest.raises(DomainError, match=stated):
        build_tangential(flat(1.0), field, 0, grid)
    with pytest.raises(DomainError, match=stated):
        decoupling_check(1e4, field, flat(1.0), grid)
