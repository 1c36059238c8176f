"""Geometry of the profile catalog: curvatures, frames, scale factors."""

import math

import numpy as np
import pytest

from curvband import (
    DomainError,
    EvaluationError,
    ChartDegenerateError,
    SurfaceProfile,
    catalog,
    curvatures,
    divergence,
    flat,
    gaussian_bump,
    paraboloid,
    sphere_cap,
    zero_field,
)
from curvband.fields import _frame_components
from curvband.geometry import offset_scale_factors
from oracles import fd_curvatures, open_chart

SQRT2 = math.sqrt(2.0)


def frame(profile, rho, phi):
    """(e1, e2, e3) at (rho, phi), each of shape rho.shape + (3,): the frame components
    of the Cartesian unit fields x, y and z, the formula that projects every field."""
    def unit(axis):
        def field(x, y, z):
            zero = np.zeros_like(np.asarray(z, float))
            return tuple(zero + (i == axis) for i in range(3))
        return field
    columns = [_frame_components(unit(axis), profile, rho, phi, 0.0) for axis in range(3)]
    return tuple(np.stack([col[i] for col in columns], axis=-1) for i in range(3))


# ----------------------------------------------------------------------
# pointwise values
# ----------------------------------------------------------------------

def test_flat_profile_is_curvature_free():
    Z, H, K = curvatures(flat(1.0), 0.37)
    assert Z == 1.0
    assert H == 0.0
    assert K == 0.0


def test_paraboloid_values_at_unit_radius():
    # S = rho^2/2 at rho = 1: Z = sqrt(2), H = -3/(4 sqrt(2)), K = 1/4
    Z, H, K = curvatures(paraboloid(0.5, 2.0), 1.0)
    assert Z == pytest.approx(SQRT2, rel=1e-14)
    assert H == pytest.approx(-3.0 / (4.0 * SQRT2), rel=1e-13)
    assert K == pytest.approx(0.25, rel=1e-13)
    assert H ** 2 - K == pytest.approx(1.0 / 32.0, rel=1e-12)


def test_paraboloid_axis_is_umbilic():
    _, H, K = curvatures(paraboloid(0.5, 2.0), 0.0)
    assert H == pytest.approx(-1.0, abs=1e-13)
    assert K == pytest.approx(1.0, abs=1e-13)
    assert H ** 2 - K == pytest.approx(0.0, abs=1e-12)


def test_sphere_cap_curvatures_are_constant():
    prof = sphere_cap(2.0, 1.0)
    rho = np.linspace(0.0, 1.0, 301)
    _, H, K = curvatures(prof, rho)
    np.testing.assert_allclose(H, 0.5, rtol=1e-12)
    np.testing.assert_allclose(K, 0.25, rtol=1e-12)
    assert np.abs(H ** 2 - K).max() < 1e-10      # umbilic everywhere


def test_axis_limits_are_continuous():
    for prof in catalog(1.0).values():
        _, H0, K0 = curvatures(prof, 0.0)
        for rho in (1e-3, 1e-4, 1e-5):
            _, H, K = curvatures(prof, rho)
            assert abs(H - H0) <= 5.0 * rho * max(1.0, abs(H0))
            assert abs(K - K0) <= 5.0 * rho * max(1.0, abs(K0))


def test_z_at_least_one_and_bound_states_well_defined():
    rng = np.random.default_rng(7)
    for prof in catalog(1.0).values():
        rho = rng.uniform(0.0, 1.0, size=400)
        Z, H, K = curvatures(prof, rho)
        assert np.all(Z >= 1.0)
        assert np.min(H ** 2 - K) >= -1e-14


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------

def test_flat_frame_is_cartesian():
    e1, e2, e3 = frame(flat(1.0), 0.4, 0.0)
    np.testing.assert_array_equal(e1, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(e2, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(e3, [0.0, 0.0, 1.0])


def test_paraboloid_frame_at_unit_slope():
    e1, _, e3 = frame(paraboloid(0.5, 2.0), 1.0, 0.0)
    np.testing.assert_allclose(e1, np.array([1.0, 0.0, 1.0]) / SQRT2, rtol=1e-14)
    np.testing.assert_allclose(e3, np.array([-1.0, 0.0, 1.0]) / SQRT2, rtol=1e-14)


def test_frame_orthonormal_and_right_handed_on_grid():
    rho = np.linspace(0.0, 1.0, 100)
    for prof in catalog(1.0).values():
        for phi in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            e1, e2, e3 = frame(prof, rho, phi)
            rows = np.stack([e1, e2, e3], axis=1)
            gram = rows @ rows.transpose(0, 2, 1)
            assert np.abs(gram - np.eye(3)).max() < 1e-12
            assert np.abs(np.cross(e1, e2) - e3).max() < 1e-12


def test_frame_follows_the_surface():
    # e1 along the central-difference tangent of r(rho) = (rho cos phi, rho sin phi, S),
    # e2 along phi, e3 normal to both
    rho, h, phi = np.linspace(0.05, 0.95, 19), 1e-5, 0.7
    c, s = math.cos(phi), math.sin(phi)
    for prof in catalog(1.0).values():
        e1, e2, e3 = frame(prof, rho, phi)
        dS = (prof.S(rho + h) - prof.S(rho - h)) / (2.0 * h)
        tangent = np.column_stack([np.full_like(rho, c), np.full_like(rho, s), dS])
        tangent /= np.linalg.norm(tangent, axis=1)[:, None]
        assert np.abs(np.sum(e1 * tangent, axis=1) - 1.0).max() < 1e-9
        assert np.abs(np.sum(e3 * tangent, axis=1)).max() < 1e-9
        np.testing.assert_allclose(e2, np.broadcast_to([-s, c, 0.0], e2.shape), atol=1e-15)


# ----------------------------------------------------------------------
# scale factors and the offset-chart identity
# ----------------------------------------------------------------------

def test_scale_factors_on_surface():
    for prof in catalog(1.0).values():
        Z, _, _ = curvatures(prof, 0.55)
        h1, h2 = offset_scale_factors(prof, 0.55, 0.0)
        assert h1 == pytest.approx(Z, rel=1e-14)
        assert h2 == pytest.approx(0.55, rel=1e-14)


def test_flat_scale_factors_at_any_offset():
    for q in (-0.3, 0.0, 0.2, 5.0):
        h1, h2 = offset_scale_factors(flat(1.0), 0.7, q)
        assert h1 == 1.0
        assert h2 == pytest.approx(0.7, rel=1e-15)


def test_paraboloid_offset_jacobian_value():
    # at rho = 1, q = 0.1: F = 1 + 2 q H + q^2 K with the values above
    h1, h2 = offset_scale_factors(paraboloid(0.5, 2.0), 1.0, 0.1)
    F = 1.0 + 2.0 * 0.1 * (-3.0 / (4.0 * SQRT2)) + 0.01 * 0.25
    assert F == pytest.approx(0.8964339828, rel=1e-9)
    assert h1 * h2 == pytest.approx(1.0 * SQRT2 * F, rel=1e-12)


def test_offset_identity_h1h2_on_random_chart_points():
    rng = np.random.default_rng(42)
    for prof in catalog(1.0).values():
        rho = rng.uniform(1e-3, 1.0, 500)
        q = 0.9 * rng.uniform(-0.5, 0.5, 500)
        Z, H, K = curvatures(prof, rho)
        keep = open_chart(H, K, q)
        assert keep.sum() >= 250
        h1, h2 = offset_scale_factors(prof, rho[keep], q[keep])
        F = 1.0 + 2.0 * q * H + q * q * K
        np.testing.assert_allclose(h1 * h2, (rho * Z * F)[keep], rtol=1e-12, atol=0.0)


def test_chart_degenerates_outside_q_range():
    # paraboloid a = 4 at rho = 0.55: F(1) = 1 + 2H + K < 0, past a focal point; the
    # divergence applies the one chart test, h1 h2 <= 0
    steep = paraboloid(4.0, 1.0)
    _, H, K = curvatures(steep, 0.55)
    assert 1.0 + 2.0 * H + K < 0.0
    h1, h2 = offset_scale_factors(steep, 0.55, 1.0)
    assert h1 * h2 < 0.0
    with pytest.raises(ChartDegenerateError, match="^chart degenerate at rho=0.55, q=1.0$"):
        divergence(zero_field(), steep, 0.55, 1.0)


# ----------------------------------------------------------------------
# derivative sources
# ----------------------------------------------------------------------

def test_curvatures_match_finite_difference_oracle():
    rho = np.linspace(0.05, 0.95, 181)
    for prof in catalog(1.0).values():
        Z, H, K = curvatures(prof, rho)
        Z_fd, H_fd, K_fd = fd_curvatures(prof.S, rho, h=1e-4)
        assert np.abs(H - H_fd).max() < 1e-6
        assert np.abs(K - K_fd).max() < 1e-6
        assert np.abs(Z - Z_fd).max() < 1e-6


def test_central_difference_truncation_is_second_order():
    analytic = gaussian_bump(0.3, 0.5, 1.0)
    rho = np.linspace(0.1, 0.9, 33)

    def fd_err(h):
        fd = (analytic.S(rho + h) - analytic.S(rho - h)) / (2.0 * h)
        return np.abs(fd - analytic.S_rho(rho)).max()

    ratio = fd_err(1e-3) / fd_err(5e-4)
    assert 3.5 < ratio < 4.5


# ----------------------------------------------------------------------
# domain errors
# ----------------------------------------------------------------------

def test_rho_outside_domain_rejected():
    prof = paraboloid(0.5, 1.0)
    with pytest.raises(DomainError):
        curvatures(prof, 1.5)
    with pytest.raises(DomainError):
        curvatures(prof, -0.1)
    with pytest.raises(DomainError, match="rho = nan outside"):
        curvatures(prof, math.nan)


@pytest.mark.parametrize("make, name", [
    (lambda: sphere_cap(math.inf, 1.0), "radius"),
    (lambda: sphere_cap(math.nan, 1.0), "radius"),
    (lambda: sphere_cap(2.0, math.nan), "rho_max"),
    (lambda: gaussian_bump(0.3, math.nan), "sigma"),
    (lambda: gaussian_bump(math.nan, 0.5), "amplitude"),
    (lambda: gaussian_bump(math.inf, 0.5), "amplitude"),
    (lambda: paraboloid(math.nan), "a"),
    (lambda: paraboloid(math.inf), "a"),
], ids=["cap-radius-inf", "cap-radius-nan", "cap-rho-max-nan", "bump-sigma-nan", "bump-amplitude-nan",
        "bump-amplitude-inf", "paraboloid-a-nan", "paraboloid-a-inf"])
def test_constructor_names_the_bad_parameter(make, name):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        make()


def test_infinite_sigma_is_a_flat_bump():
    prof = gaussian_bump(0.3, math.inf, 1.0)
    rho = np.array([0.0, 0.5, 1.0])
    np.testing.assert_array_equal(prof.S(rho), 0.3)
    np.testing.assert_array_equal(prof.S_rhorho(rho), 0.0)


def test_non_finite_profile_rejected():
    bad = SurfaceProfile(
        name="bad",
        S=lambda r: np.zeros_like(np.asarray(r, float)),
        S_rho=lambda r: np.where(np.asarray(r, float) > 0.5, np.nan, 0.0),
        S_rhorho=lambda r: np.zeros_like(np.asarray(r, float)),
        rho_max=1.0,
    )
    with pytest.raises(EvaluationError):
        curvatures(bad, np.array([0.6]))


def test_axis_slope_enforced_for_analytic_profiles():
    with pytest.raises(EvaluationError):
        SurfaceProfile(
            name="cone",
            S=lambda r: np.asarray(r, float),
            S_rho=lambda r: np.ones_like(np.asarray(r, float)),
            S_rhorho=lambda r: np.zeros_like(np.asarray(r, float)),
            rho_max=1.0,
        )
