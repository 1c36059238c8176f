"""Property tests of the assembled tangential operator (Hypothesis).

Channels are drawn over the catalog profiles (parameter ranges as in the
benchmark's workloads), the field kinds, m in 0..2, charge e in [0.5, 2]
and n in [32, 160]; strong-field frame channels draw |a3| <= 30 and n in
{200, 1000}.  Examples are derandomized, so every run checks the same
cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvband import (CertificateError, RadialGrid, axial_uniform,
                      build_tangential, cartesian_constant, eigen_solve, evolve, flat,
                      frame_synthetic, gaussian_bump, hermiticity_report, paraboloid,
                      sphere_cap, zero_field)
from curvband.operator import MODES
from oracles import smallest_real_parts

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)
RHO_MAX = 1.0


def signed(lo, hi):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


profiles = st.one_of(
    st.just(flat(RHO_MAX)),
    st.floats(0.3, 0.8).map(lambda a: paraboloid(a, RHO_MAX)),
    st.builds(lambda amp, sigma: gaussian_bump(amp, sigma, RHO_MAX),
              st.floats(0.2, 0.4), st.floats(0.4, 0.6)),
    st.floats(1.5, 3.0).map(lambda radius: sphere_cap(radius, RHO_MAX)),
)


@st.composite
def fields_on(draw, profile, normal=True):
    """A field on profile and its A3 on the surface as a map of (rho, Z);
    with normal=False every field drawn has A3 = 0."""
    kinds = ("zero", "axial", "cartesian", "frame") if normal else ("zero", "axial", "frame")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return zero_field(), lambda rho, Z: 0.0 * rho
    if kind == "axial":
        return axial_uniform(draw(signed(0.5, 2.0)), profile), lambda rho, Z: 0.0 * rho
    if kind == "cartesian":
        c = draw(signed(0.5, 1.0))
        return cartesian_constant(c, profile), lambda rho, Z: c / Z
    component = st.just(0.0) | signed(0.1, 1.0)
    a1, a2 = draw(component), draw(component)
    a3 = draw(component) if normal else 0.0
    interval = draw(st.none() | st.tuples(st.floats(0.1, 0.4), st.floats(0.5, 0.9)))
    field = frame_synthetic(a1, a2, a3, gamma_interval=interval)
    if interval is None:
        return field, lambda rho, Z: a3 + 0.0 * rho
    lo, hi = interval
    return field, lambda rho, Z: np.where((rho >= lo) & (rho <= hi), a3, 0.0)


@st.composite
def channels(draw, mode=None, normal=True):
    """(profile, field, A3 map, m, e, grid) of one drawn channel."""
    profile = draw(profiles)
    field, a3 = draw(fields_on(profile, normal))
    m = draw(st.integers(0, 2))
    e = draw(st.floats(0.5, 2.0))
    grid = RadialGrid(draw(st.integers(32, 160)), RHO_MAX)
    return profile, field, a3, m, e, grid, mode or draw(st.sampled_from(MODES))


@st.composite
def strong_channels(draw):
    """(profile, field, m, grid, mode) of a frame channel with |a3| <= 30, on a
    gamma_interval or everywhere, with a radial a1 in half of the draws."""
    profile = draw(profiles)
    a1 = draw(st.just(0.0) | signed(0.1, 1.0))
    interval = draw(st.none() | st.tuples(st.floats(0.1, 0.4), st.floats(0.5, 0.9)))
    field = frame_synthetic(a1, a3=draw(st.floats(-30.0, 30.0)), gamma_interval=interval)
    grid = RadialGrid(draw(st.sampled_from((200, 1000))), RHO_MAX)
    return profile, field, draw(st.integers(0, 2)), grid, draw(st.sampled_from(MODES))


@PROPERTY
@given(channels())
def test_im_diag_is_e_a3_h(channel):
    profile, field, a3, m, e, grid, mode = channel
    op = build_tangential(profile, field, m, grid, mode=mode, e=e)
    rho = grid.nodes
    sr, srr = profile.S_rho(rho), profile.S_rhorho(rho)
    Z = np.sqrt(1.0 + sr * sr)
    H = -0.5 * (sr / (rho * Z) + srr / Z ** 3)
    np.testing.assert_allclose(op.diag.imag, e * a3(rho, Z) * H,
                               rtol=1e-12, atol=1e-15)


@PROPERTY
@given(channels(mode="hermitian-corrected"))
def test_corrected_anti_hermitian_part_is_the_coupling(channel):
    profile, field, _, m, e, grid, mode = channel
    op = build_tangential(profile, field, m, grid, mode=mode, e=e)
    report = hermiticity_report(op)
    assert report.coupling_equality, report.coupling_equality_gap


@PROPERTY
@given(channels(mode="hermitian-corrected", normal=False), st.integers(0, 2 ** 32 - 1))
def test_corrected_evolution_without_a3_conserves_the_norm(channel, seed):
    profile, field, _, m, e, grid, mode = channel
    op = build_tangential(profile, field, m, grid, mode=mode, e=e)
    rng = np.random.default_rng(seed)
    initial = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    trace = evolve(op, initial, dt=1e-3, steps=200, record_states=False)
    drift = np.abs(trace.norms / trace.norms[0] - 1.0).max()
    assert drift < 1e-10, drift


@PROPERTY
@given(channels())
def test_eigen_solve_returns_the_smallest_real_parts(channel):
    profile, field, _, m, e, grid, mode = channel
    op = build_tangential(profile, field, m, grid, mode=mode, e=e)
    spec = eigen_solve(op, 6)
    np.testing.assert_allclose(spec.eigenvalues, smallest_real_parts(op.matrix, 6),
                               rtol=1e-9, atol=1e-9)


@PROPERTY
@given(strong_channels())
def test_strong_field_channels_meet_the_contract_or_name_the_certificate(channel):
    profile, field, m, grid, mode = channel
    try:
        spec = eigen_solve(build_tangential(profile, field, m, grid, mode=mode), 6)
    except CertificateError:
        return
    assert spec.residuals.max() < 1e-8


def negated(field):
    """The field with every frame component negated."""
    return lambda rho, q: tuple(-np.asarray(c, dtype=float) for c in field(rho, q))


@PROPERTY
@given(channels())
def test_negating_m_and_the_field_conjugates_the_channel(channel):
    # (m, A1, A2, A3) -> (-m, -A1, -A2, -A3) maps every band entry to its
    # conjugate: the m A2 and A^2 terms keep their sign, the i e A1 and i e A3 H
    # terms change it
    profile, field, _, m, e, grid, mode = channel
    op = build_tangential(profile, field, m, grid, mode=mode, e=e)
    mirror = build_tangential(profile, negated(field), -m, grid, mode=mode, e=e)
    for band, mirrored in zip(op.bands, mirror.bands):
        np.testing.assert_array_equal(mirrored, band.conj())
    levels = eigen_solve(op, 6).eigenvalues
    mirrored = eigen_solve(mirror, 6).eigenvalues
    assert np.abs(mirrored - levels.conj()).max() <= 1e-12 * np.abs(levels).max()


@PROPERTY
@given(profiles, signed(0.1, 1.0), st.integers(0, 2), st.floats(0.5, 2.0),
       st.integers(32, 160))
def test_radial_a1_is_a_pure_gauge(profile, a1, m, e, n):
    # A1 that does not depend on phi has no surface curl (it is a1 times the
    # gradient of the meridian arc length), so the levels are those at
    # A1 = 0; the grid reaches them at second order in the spacing
    differences = []
    for points in (n, 2 * n + 1):           # half the spacing
        grid = RadialGrid(points, RHO_MAX)
        gauged = eigen_solve(build_tangential(profile, frame_synthetic(a1=a1), m, grid, e=e), 3)
        plain = eigen_solve(build_tangential(profile, zero_field(), m, grid, e=e), 3)
        assert np.all(gauged.eigenvalues.imag == 0.0)
        differences.append(np.abs(gauged.eigenvalues - plain.eigenvalues))
    ratio = differences[0] / differences[1]
    assert np.all((3.5 < ratio) & (ratio < 4.5)), ratio
