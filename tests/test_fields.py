"""Frame projection, gauge diagnostic, and the coupling e A3 H on the diagonal."""

import math

import numpy as np
import pytest

from curvband import fields
from curvband import (
    DomainError,
    EvaluationError,
    RadialGrid,
    axial_uniform,
    build_tangential,
    cartesian_constant,
    catalog,
    divergence,
    flat,
    frame_synthetic,
    from_cartesian,
    is_coulomb_gauge,
    paraboloid,
    zero_field,
)
from curvband.fields import _frame_components

SQRT2 = math.sqrt(2.0)


def project(cartesian_field, profile, rho, phi, q):
    """Frame components of a Cartesian field at one offset-chart point, as floats."""
    return tuple(float(v) for v in _frame_components(cartesian_field, profile, rho, phi, q))


def axial_gauge(b):
    def field(x, y, z):
        zero = np.zeros_like(np.asarray(z, float))
        return -0.5 * b * np.asarray(y, float), 0.5 * b * np.asarray(x, float), zero
    return field


# ----------------------------------------------------------------------
# projection
# ----------------------------------------------------------------------

def test_axial_gauge_projects_to_pure_azimuthal():
    # (B/2)(-y, x, 0) has frame components (0, B rho/2, 0) on the surface;
    # away from phi = 0 the cancellation leaves rounding dust only
    for prof in catalog(1.0).values():
        a1, a2, a3 = project(axial_gauge(2.0), prof, 0.5, 0.9, 0.0)
        assert a1 == pytest.approx(0.0, abs=1e-14)
        assert a3 == pytest.approx(0.0, abs=1e-14)
        assert a2 == pytest.approx(0.5, rel=1e-14)


def test_axial_gauge_azimuthal_at_any_offset():
    for prof in catalog(1.0).values():
        for q in (-0.1, 0.05, 0.2):
            a1, a2, a3 = project(axial_gauge(2.0), prof, 0.6, 2.2, q)
            assert a1 == pytest.approx(0.0, abs=1e-14)
            assert a3 == pytest.approx(0.0, abs=1e-14)


def test_constant_axial_field_on_paraboloid():
    # (0, 0, c) at unit slope splits evenly between e1 and e3
    prof = paraboloid(0.5, 2.0)
    c = 0.8

    def field(x, y, z):
        zz = np.asarray(z, float)
        return np.zeros_like(zz), np.zeros_like(zz), np.full_like(zz, c)

    a1, a2, a3 = project(field, prof, 1.0, 0.0, 0.0)
    assert a1 == pytest.approx(c / SQRT2, rel=1e-14)
    assert a2 == 0.0
    assert a3 == pytest.approx(c / SQRT2, rel=1e-14)


def test_zero_field_projects_to_zero():
    def field(x, y, z):
        zz = np.zeros_like(np.asarray(z, float))
        return zz, zz, zz

    assert project(field, flat(1.0), 0.3, 1.0, 0.1) == (0.0, 0.0, 0.0)


def test_projection_preserves_magnitude():
    rng = np.random.default_rng(11)

    def field(x, y, z):
        return (np.sin(x) + z, np.cos(y) - x, x * y + 0.5)

    for prof in catalog(1.0).values():
        for _ in range(50):
            rho, phi, q = rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi), rng.uniform(-0.1, 0.1)
            a1, a2, a3 = project(field, prof, rho, phi, q)
            sr = float(prof.S_rho(rho))
            Z = math.sqrt(1.0 + sr * sr)
            rad = rho - q * sr / Z
            x, y = rad * math.cos(phi), rad * math.sin(phi)
            z = float(prof.S(rho)) + q / Z
            fx, fy, fz = field(x, y, z)
            assert a1 ** 2 + a2 ** 2 + a3 ** 2 == pytest.approx(
                float(fx) ** 2 + float(fy) ** 2 + float(fz) ** 2, rel=1e-12, abs=1e-12
            )


def test_axial_uniform_constructor_matches_projection():
    for prof in catalog(1.0).values():
        A = axial_uniform(2.0, prof)
        a1, a2, a3 = A(0.5, 0.0)
        assert float(a2) == pytest.approx(0.5, rel=1e-14)
        assert float(a1) == 0.0
        assert float(a3) == 0.0


def test_cartesian_constant_constructor():
    prof = paraboloid(0.5, 2.0)
    A = cartesian_constant(1.0, prof)
    a1, _, a3 = A(1.0, 0.0)
    assert float(a1) == pytest.approx(1.0 / SQRT2, rel=1e-14)
    assert float(a3) == pytest.approx(1.0 / SQRT2, rel=1e-14)


def test_cartesian_field_is_projected_once_per_point():
    calls = []
    field = axial_gauge(1.0)

    def counting(x, y, z):
        calls.append(np.shape(x))
        return field(x, y, z)

    prof = paraboloid(0.5, 1.0)
    A = from_cartesian(counting, prof)
    calls.clear()                     # the axisymmetry spot check
    grid = RadialGrid(40, 1.0)
    op = build_tangential(prof, A, 1, grid)
    # all three components at the nodes and the two ghost radii, in one call
    assert calls == [(42,)]
    ref = build_tangential(prof, axial_uniform(1.0, prof), 1, grid)
    np.testing.assert_array_equal(op.diag, ref.diag)
    # every call of the field projects once
    for rho, q in ((0.5, 0.0), (0.5, 0.0), (0.5, 0.1), (0.25, 0.1)):
        assert A(rho, q)[1] == project(counting, prof, rho, 0.0, q)[1]
    assert len(calls) == 1 + 4 + 4


def test_fields_axisymmetric_by_construction_project_lazily(monkeypatch):
    calls = []
    project = fields._frame_components

    def counting(*args):
        calls.append(np.shape(args[2]))
        return project(*args)

    monkeypatch.setattr(fields, "_frame_components", counting)
    prof = paraboloid(0.5, 1.0)
    specs = [axial_uniform(1.0, prof), cartesian_constant(0.7, prof)]
    assert calls == []
    for A in specs:
        build_tangential(prof, A, 1, RadialGrid(40, 1.0))
    assert calls == [(42,)] * 2


def test_non_axisymmetric_cartesian_field_rejected():
    def field(x, y, z):
        one = np.ones_like(np.asarray(z, float))
        return one, np.zeros_like(one), np.zeros_like(one)

    with pytest.raises(EvaluationError):
        from_cartesian(field, paraboloid(0.5, 1.0))


def test_gamma_interval_masks_support():
    A = frame_synthetic(a3=1.5, gamma_interval=(0.3, 0.6))
    rho = np.array([0.1, 0.3, 0.45, 0.6, 0.8])
    np.testing.assert_array_equal(A(rho, 0.0)[2], [0.0, 1.5, 1.5, 1.5, 0.0])


@pytest.mark.parametrize("make, name", [
    (lambda: axial_uniform(math.nan, PARABOLOID), "b"),
    (lambda: axial_uniform(math.inf, PARABOLOID), "b"),
    (lambda: cartesian_constant(math.inf, PARABOLOID), "c"),
    (lambda: cartesian_constant(math.nan, PARABOLOID), "c"),
    (lambda: frame_synthetic(a3=math.nan), "a3"),
    (lambda: frame_synthetic(a1=-math.inf, a3=lambda r, q: r), "a1"),
    (lambda: frame_synthetic(a3=0.4, gamma_interval=(math.nan, 0.5)), "gamma_interval lo"),
    (lambda: frame_synthetic(a3=0.4, gamma_interval=(0.2, math.inf)), "gamma_interval hi"),
    (lambda: frame_synthetic(a3=0.4, gamma_interval=(0.2, 0.6, 0.9)), "gamma_interval"),
], ids=["axial-b-nan", "axial-b-inf", "cartesian-c-inf", "cartesian-c-nan", "frame-a3-nan",
        "frame-a1-inf", "gamma-lo-nan", "gamma-hi-inf", "gamma-triple"])
def test_field_constructor_names_the_bad_constant(make, name):
    # before, a non-finite constant gave a nan field, which the gauge check
    # reported as max_violation = nan with an empty note
    with pytest.raises(DomainError, match=f"^{name} must be"):
        make()


# ----------------------------------------------------------------------
# divergence and gauge check
# ----------------------------------------------------------------------

def test_divergence_of_azimuthal_field_is_exactly_zero():
    A = frame_synthetic(a2=lambda r, q: 0.7 * r)
    for prof in catalog(1.0).values():
        for rho in (0.2, 0.5, 0.9):
            assert divergence(A, prof, rho, 0.0) == 0.0


def test_divergence_of_linear_radial_field_is_two():
    # flat chart: div(rho e1) = (1/rho) d/drho (rho^2) = 2, exact for
    # central differences on a quadratic
    A = frame_synthetic(a1=lambda r, q: r)
    prof = flat(1.0)
    for rho in (0.25, 0.5, 0.75):
        assert divergence(A, prof, rho, 0.0) == pytest.approx(2.0, abs=1e-10)


def test_divergence_of_zero_field_is_zero():
    assert divergence(zero_field(), paraboloid(0.5, 1.0), 0.4, 0.0) == 0.0


def test_divergence_of_constant_cartesian_field_is_small():
    # a constant vector field is divergence-free in any chart; numeric
    # differencing leaves only truncation error
    prof = paraboloid(0.5, 1.0)
    A = cartesian_constant(1.0, prof)
    for rho in (0.3, 0.6, 0.9):
        assert abs(divergence(A, prof, rho, 0.0)) < 1e-5


PARABOLOID = paraboloid(0.5, 1.0)


@pytest.mark.parametrize("evaluate, name", [
    (lambda: divergence(zero_field(), PARABOLOID, 0.5, math.nan), "q"),
    (lambda: divergence(zero_field(), PARABOLOID, 0.5, 0.0, step_rho=0.0), "step_rho"),
    (lambda: divergence(zero_field(), PARABOLOID, 0.5, 0.0, step_rho=math.nan), "step_rho"),
], ids=["divergence-q-nan", "divergence-step-0", "divergence-step-nan"])
def test_evaluation_argument_is_named_not_nan(evaluate, name):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        evaluate()


def test_gauge_check_passes_for_axial_uniform_everywhere():
    # at n = 92 and 116 the divergence stencil's outer point, the last node plus one
    # spacing, rounds past rho_max: the chart there is evaluated unchecked
    for n in (64, 92, 116):
        grid = RadialGrid(n, 1.0)
        assert (grid.nodes[-1] + grid.spacing > grid.rho_max) == (n != 64)
        for prof in catalog(1.0).values():
            report = is_coulomb_gauge(axial_uniform(1.3, prof), prof, grid, tol=1e-10)
            assert report.passed, report.note
            assert report.max_violation == 0.0


def test_gauge_check_flags_non_solenoidal_field():
    grid = RadialGrid(64, 1.0)
    report = is_coulomb_gauge(frame_synthetic(a1=lambda r, q: r), flat(1.0),
                              grid, tol=1e-10)
    assert not report.passed
    assert report.max_violation == pytest.approx(2.0, abs=1e-6)


def test_gauge_check_accepts_zero_field():
    report = is_coulomb_gauge(zero_field(), flat(1.0), RadialGrid(32, 1.0), tol=1e-10)
    assert report.passed
    assert report.max_violation == 0.0


def test_gauge_check_never_raises():
    def explode(r, q):
        raise RuntimeError("boom")

    report = is_coulomb_gauge(frame_synthetic(a1=explode), flat(1.0),
                              RadialGrid(32, 1.0), tol=1e-10)
    assert not report.passed
    assert report.note != ""


# ----------------------------------------------------------------------
# coupling e A3 H, the operator's Im diag
# ----------------------------------------------------------------------

def coupling(A, profile, grid):
    return build_tangential(profile, A, 0, grid).diag.imag


def test_coupling_vanishes_on_flat_surface():
    grid = RadialGrid(32, 1.0)
    values = coupling(frame_synthetic(a3=3.0), flat(1.0), grid)
    np.testing.assert_array_equal(values, np.zeros(32))


def test_coupling_vanishes_without_normal_component():
    grid = RadialGrid(32, 1.0)
    values = coupling(frame_synthetic(a2=1.0), paraboloid(0.5, 1.0), grid)
    np.testing.assert_array_equal(values, np.zeros(32))


def test_coupling_value_on_paraboloid():
    grid = RadialGrid(399, 2.0)       # grid over [0, 2] with a node near rho = 1
    values = coupling(frame_synthetic(a3=1.0), paraboloid(0.5, 2.0), grid)
    j = int(np.argmin(np.abs(grid.nodes - 1.0)))
    assert values[j] == pytest.approx(-3.0 / (4.0 * SQRT2), rel=1e-10)
