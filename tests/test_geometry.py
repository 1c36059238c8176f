"""Geometry of the profile catalog: curvatures, frames, scale factors."""

import math
import re

import numpy as np
import pytest

from curvband import (
    DomainError,
    EvaluationError,
    ChartDegenerateError,
    RadialGrid,
    SurfaceProfile,
    build_tangential,
    catalog,
    curvatures,
    decoupling_check,
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


@pytest.mark.parametrize("sigma, rho_max, low", [
    (1e80, 1.0, "1.73e-77"),
    (2.0 ** 256, 1.0, "1.73e-77"),
    (np.nextafter(2.0 ** -255, 0.0), 1.0, "1.73e-77"),
    (1e-100, 1.0, "1.73e-77"),
    (3.8e-40, 1e75, "3.86e-40"),
], ids=["1e80", "2^256", "below-2^-255", "1e-100", "rho-max-1e75"])
def test_sigma_outside_its_range_is_named(sigma, rho_max, low):
    # before, sigma ** 4 raised an uncaught OverflowError from sigma ~1e77 on, and a small
    # sigma divided by a zero power or overflowed with RuntimeWarnings
    message = f"sigma must be within [{low}, 1.16e+77) at rho_max = {rho_max}, "
    with pytest.raises(DomainError, match=f"^{re.escape(message)}.* got {re.escape(str(sigma))}$"):
        gaussian_bump(0.3, float(sigma), rho_max)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma, rho_max", [(2.0 ** -255, 1.0), (3.9e-40, 1e75),
                                            (np.nextafter(2.0 ** 256, 0.0), 1e75)],
                         ids=["2^-255", "rho-max-1e75", "below-2^256"])
def test_sigma_at_the_ends_of_its_range_evaluates(sigma, rho_max):
    prof = gaussian_bump(0.3, float(sigma), rho_max)
    rho = np.linspace(0.0, rho_max, 64)
    assert all(np.isfinite(values).all() for values in curvatures(prof, rho))


STEEP = "must keep max |S_rho| below 2^255 ~ 5.79e+76 and max |S_rhorho| below 2^511 ~ 6.7e+153"


@pytest.mark.parametrize("make, name, value", [
    (lambda v: gaussian_bump(v, 0.5, 1.0), "amplitude", 1e300),      # three warnings before
    (lambda v: gaussian_bump(v, 0.5, 1.0), "amplitude", -3.5e76),    # |S_rho| ~ 6.0e76
    (lambda v: gaussian_bump(v, 2.0 ** -255, 1.0), "amplitude", 1.1),  # |S_rhorho| ~ 7.4e153
    (lambda v: gaussian_bump(v, 1e70, 1e75), "amplitude", 1e307),    # 2 A rho / sigma^2 is inf
    (lambda v: paraboloid(v, 1e75), "a", 1e25),                      # K overflowed to 0 before
    (lambda v: paraboloid(v, 1.0), "a", 1.7976931348623157e308),     # S_rho(0) was nan before
], ids=["bump-1e300", "bump-slope", "bump-bend", "bump-reach", "paraboloid-1e25",
        "paraboloid-max"])
def test_a_surface_too_steep_for_float64_is_named(make, name, value):
    match = f"^{name} {re.escape(STEEP)}.*, got {re.escape(str(value))}, "
    with pytest.raises(DomainError, match=match):
        make(value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("prof", [
    gaussian_bump(3.3e76, 0.5, 1.0), gaussian_bump(-0.99, 2.0 ** -255, 1.0),
    gaussian_bump(1e120, 1e75, 1e75), paraboloid(2.8e76, 1.0), paraboloid(-2.8e1, 1e75),
    sphere_cap(2.2e102, 1.0),
], ids=["bump-slope", "bump-bend", "bump-broad", "paraboloid-slope", "paraboloid-wide",
        "cap-radius"])
def test_a_surface_inside_the_steepness_bound_evaluates(prof):
    rho = np.linspace(0.0, prof.rho_max, 257)
    assert all(np.isfinite(values).all() for values in curvatures(prof, rho))


def _steep_profile(slope, bend):
    """A hand-built profile with S_rho = slope rho and S_rhorho = bend, which no constructor
    bounds."""
    return SurfaceProfile("steep", lambda r: 0.5 * slope * np.asarray(r, float) ** 2,
                          lambda r: slope * np.asarray(r, float),
                          lambda r: np.full_like(np.asarray(r, float), bend), 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("slope, bend, named", [(1e80, 1e80, "1e+80 and 1e+80"),
                                                (1.0, 1e200, "1 and 1e+200")],
                         ids=["slope", "bend"])
def test_a_hand_built_profile_past_the_steepness_bound_is_named(slope, bend, named):
    # before, curvatures warned "overflow encountered in power" and returned K = 0, and
    # build_tangential assembled after the same warning; the check is the constructors'
    prof = _steep_profile(slope, bend)
    match = (f"^profile 'steep' {re.escape(STEEP)}.*; at the radii evaluated they are "
             f"{re.escape(named)}$")
    with pytest.raises(DomainError, match=match):
        curvatures(prof, np.linspace(0.0, 1.0, 65))
    with pytest.raises(DomainError, match=match):
        build_tangential(prof, zero_field(), 0, RadialGrid(64, 1.0))
    with pytest.raises(DomainError, match=match):
        decoupling_check(1.0, zero_field(), prof, RadialGrid(64, 1.0))
    # just inside both bounds the profile evaluates, with no warning
    inside = _steep_profile(float(np.nextafter(2.0 ** 255, 0.0)),
                            float(np.nextafter(2.0 ** 511, 0.0)))
    assert all(np.isfinite(v).all() for v in curvatures(inside, np.linspace(0.0, 1.0, 65)))


def test_sphere_cap_radius_is_named_past_its_range():
    # radius ** 2 raised an uncaught OverflowError from ~1.3e154, and S_rhorho overflowed
    # with a RuntimeWarning from ~5.6e102
    for radius in (1.0, 0.5, 2.0 ** 340, 1e200):
        with pytest.raises(DomainError, match=rf"^radius must exceed rho_max = 1\.0 and be "
                                              rf"below 2\^340 ~ 2\.24e\+102, got "):
            sphere_cap(radius, 1.0)


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
