"""The banded eigensolver and Crank-Nicolson on structured and non-normal
channels, against dense references built in the test from the materialized
matrix."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvband.operator as operator_mod
import curvband.solver as solver_mod
from curvband import (
    CertificateError,
    DomainError,
    RadialGrid,
    RefinementError,
    SolveError,
    axial_uniform,
    build_tangential,
    cartesian_constant,
    catalog,
    divergence,
    eigen_solve,
    evolve,
    flat,
    frame_synthetic,
    gaussian_bump,
    ground_state,
    hermiticity_report,
    is_coulomb_gauge,
    paraboloid,
    sphere_cap,
    zero_field,
)
from curvband.cli import main
from curvband.operator import MODES
from oracles import smallest_real_parts, two_sided_quotient

CAP_YAML = """surface:
  kind: sphere-cap
  rho_max: 1.0
  radius: 2.0
field:
  kind: frame-synthetic
  a3: 0.4
grid:
  n_points: 400
dt: 0.001
steps: 1000
"""


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def weighted(op):
    """Dense M_w = W^1/2 M W^-1/2; a diagonal similarity leaves M's diagonal as it is."""
    d = np.sqrt(op.measure_weights)
    mw = (d[:, None] * op.matrix) / d[None, :]
    np.fill_diagonal(mw, op.diag)
    return mw


def structured_cases(n, ms=(0, 1, 2)):
    """Every catalog profile with no field and an axial-uniform field, plus
    uniform a3 on the umbilic cap and a radial a1 field (complex couplings),
    at each m in ms."""
    grid = RadialGrid(n, 1.0)
    for name, prof in catalog(1.0).items():
        for field in (zero_field(), axial_uniform(1.0, prof)):
            for m in ms:
                yield name, build_tangential(prof, field, m, grid)
    cap = sphere_cap(2.0, 1.0)
    for m in ms:
        yield "cap-a3", build_tangential(cap, frame_synthetic(a3=0.4), m, grid)
    for m in ms:
        yield "paraboloid-a1", build_tangential(paraboloid(0.5, 1.0),
                                                frame_synthetic(a1=0.7, a2=0.3), m, grid)


# ----------------------------------------------------------------------
# band storage
# ----------------------------------------------------------------------

def test_matrix_is_built_from_the_bands():
    op = build_tangential(paraboloid(0.5, 1.0), axial_uniform(1.0, paraboloid(0.5, 1.0)),
                          1, RadialGrid(40, 1.0))
    mat = op.matrix
    expected = np.diag(op.diag) + np.diag(op.upper, 1) + np.diag(op.lower, -1)
    np.testing.assert_array_equal(mat, expected)
    assert op.n == 40 and mat.shape == (40, 40)


# ----------------------------------------------------------------------
# eigensolve routes
# ----------------------------------------------------------------------

def test_tridiagonal_route_matches_dense_eigh():
    for name, op in structured_cases(300):
        spec = eigen_solve(op, 5)
        mw = weighted(op)
        shift = float(np.mean(np.diagonal(mw).imag))
        ref = np.linalg.eigh(0.5 * (mw + mw.conj().T))[0][:5]
        np.testing.assert_allclose(spec.eigenvalues.real, ref, rtol=1e-10, atol=1e-10,
                                   err_msg=f"{name} m={op.m}")
        assert np.all(spec.eigenvalues.imag == shift), (name, op.m)
        assert np.all(spec.residuals < 1e-8)


def non_normal_cases(n, ms=(0, 1)):
    """Every catalog profile with uniform a3 (except the umbilic cap, where
    it is structured), a3 on a gamma_interval and a cartesian-constant
    field, in both modes, at each m in ms.  On the flat disc H = 0, so its
    channels are structured."""
    grid = RadialGrid(n, 1.0)
    for name, prof in catalog(1.0).items():
        fields = [("gamma", frame_synthetic(a3=0.4, gamma_interval=(0.2, 0.6))),
                  ("cartesian", cartesian_constant(0.7, prof))]
        if name != "sphere-cap":
            fields.append(("a3", frame_synthetic(a3=0.4)))
        for kind, field in fields:
            for mode in MODES:
                for m in ms:
                    yield (name, kind, mode, m), build_tangential(prof, field, m, grid,
                                                                  mode=mode)


def test_non_normal_operators_take_the_general_solvers():
    grid = RadialGrid(400, 1.0)
    prof = paraboloid(0.5, 1.0)
    nonuniform = build_tangential(prof, frame_synthetic(a3=0.3), 0, grid)
    as_written = build_tangential(prof, zero_field(), 1, grid, mode="as-written")
    for op in (nonuniform, as_written):
        spec = eigen_solve(op, 3)
        np.testing.assert_allclose(spec.eigenvalues, smallest_real_parts(op.matrix, 3),
                                   rtol=1e-9, atol=1e-9)


def test_certified_route_agrees_with_dense_on_non_normal_operator():
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, RadialGrid(400, 1.0),
                          mode="as-written")
    spec = eigen_solve(op, 4)
    np.testing.assert_allclose(spec.eigenvalues, smallest_real_parts(op.matrix, 4),
                               rtol=1e-9, atol=1e-9)
    assert np.all(spec.residuals < 1e-8)


def force_the_bisection(monkeypatch):
    """Make every Lanczos count miss, so either route falls back to bisection."""
    monkeypatch.setattr(solver_mod, "_count_below", lambda *args: -1)


def force_the_lanczos(monkeypatch):
    """Let every channel Lanczos may locate try it, where the crossover would bisect it too."""
    monkeypatch.setattr(solver_mod, "LANCZOS_CROSSOVER", -math.inf)


def test_located_levels_and_vectors_are_scipys_bit_for_bit(monkeypatch):
    # the solver calls LAPACK's stebz and stein itself, as scipy.linalg's
    # eigh_tridiagonal does, and scipy.linalg still imports beside it; the Hermitian
    # route takes them only where its Lanczos count fails
    import scipy.linalg as sla

    located = {}
    for route in ("_hermitian_pairs", "_certified_pairs"):
        def spy(op, *args, route=route, run=getattr(solver_mod, route)):
            located[route] = args
            return run(op, *args)
        monkeypatch.setattr(solver_mod, route, spy)
    force_the_bisection(monkeypatch)
    grid = RadialGrid(400, 1.0)
    cap = build_tangential(sphere_cap(2.0, 1.0), frame_synthetic(a3=0.4), 1, grid)
    eigen_solve(cap, 6)
    levels, vectors, *_, tol = located["_hermitian_pairs"]
    expected = sla.eigh_tridiagonal(cap.diag.real, solver_mod._symmetric_form(cap)[1],
                                    select="i", select_range=(0, 5), tol=tol,
                                    lapack_driver="stebz")
    assert same_bits(levels, expected[0]) and same_bits(vectors, expected[1])

    # the certified route locates one level more for its certificate, and takes the
    # vectors of the 6 lowest: on one block, stein's first 6 of the 7
    as_written = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, grid, mode="as-written")
    eigen_solve(as_written, 6)
    levels, vectors, _, _, _, tol = located["_certified_pairs"]
    expected = sla.eigh_tridiagonal(as_written.diag.real,
                                    solver_mod._symmetric_form(as_written)[1].real,
                                    select="i", select_range=(0, 6), tol=tol,
                                    lapack_driver="stebz")
    assert same_bits(levels, expected[0])
    assert same_bits(vectors, expected[1][:, :6])


def test_a_missed_count_gives_the_bisection_route_bit_for_bit(monkeypatch):
    # where the Lanczos count misses, the Hermitian route is bisection and stein, as
    # scipy.linalg's eigh_tridiagonal runs them, then the same step on M's bands
    import scipy.linalg as sla

    force_the_bisection(monkeypatch)
    for name, op in structured_cases(300, ms=(0, 1)):
        spec = eigen_solve(op, 6)
        shift, off, _, _, gauge = solver_mod._symmetric_form(op)
        tol = solver_mod.LOCATE_RTOL * off.max() / op.n ** 2
        levels, vectors = sla.eigh_tridiagonal(op.diag.real, off, select="i",
                                               select_range=(0, 5), tol=tol,
                                               lapack_driver="stebz")
        values, vectors, residuals = solver_mod._hermitian_pairs(op, levels, vectors, gauge,
                                                                 shift, tol)
        order = np.lexsort((values.imag, values.real))
        assert same_bits(spec.eigenvalues, values[order]), (name, op.m)
        assert same_bits(spec.eigenvectors, vectors[:, order]), (name, op.m)
        assert same_bits(spec.residuals, residuals[order]), (name, op.m)


def test_certified_route_is_deterministic():
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, RadialGrid(400, 1.0),
                          mode="as-written")
    first = eigen_solve(op, 4)
    second = eigen_solve(op, 4)
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)


def test_certified_route_returns_smallest_real_parts_of_full_spectrum():
    for key, op in non_normal_cases(300, ms=(0,)):
        if key[0] == "flat":
            continue
        spec = eigen_solve(op, 6)
        np.testing.assert_allclose(spec.eigenvalues, smallest_real_parts(op.matrix, 6),
                                   rtol=1e-9, atol=1e-9, err_msg=str(key))


@pytest.mark.parametrize("n", [2000, 4000])
def test_non_normal_channels_meet_contract(n):
    for key, op in non_normal_cases(n):
        spec = eigen_solve(op, 6)
        assert spec.residuals.max() < 1e-8, key


@pytest.mark.parametrize("n", [1000, 4000])
def test_radial_field_channels_at_m0_meet_contract(n):
    # the axis face carries no radial-field flux, so these channels are
    # measure-Hermitian (corrected mode) or certify (as-written)
    for name, prof in catalog(1.0).items():
        for a1 in (0.3, 1.0):
            for mode in MODES:
                op = build_tangential(prof, frame_synthetic(a1=a1), 0, RadialGrid(n, 1.0),
                                      mode=mode)
                spec = eigen_solve(op, 6)
                assert spec.residuals.max() < 1e-8, (name, a1, mode)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
def test_non_normal_eigenvalues_reach_the_rounding_floor():
    # the reference re-evaluates, in long double, a quotient that is exact to
    # second order in the error of the returned vectors; measure quotients
    # on the same vectors stopped at 5-8e-12 relative on these channels
    prof = paraboloid(0.8, 1.0)
    for field in (zero_field(), frame_synthetic(a3=0.4)):
        for m in (0, 1):
            op = build_tangential(prof, field, m, RadialGrid(4000, 1.0), mode="as-written")
            spec = eigen_solve(op, 6)
            ref = np.array([two_sided_quotient(*op.bands, v) for v in spec.eigenvectors.T])
            assert np.abs(spec.eigenvalues - ref).max() <= 1e-12 * np.abs(ref).max(), m


def test_steep_cap_channel_meets_contract_on_every_pair():
    # a channel whose 4th pair once stopped at a residual of 2.4e-8 after one
    # refined inverse-iteration step
    op = build_tangential(sphere_cap(2.706451214352734, 1.0), zero_field(), 0,
                          RadialGrid(1000, 1.0), mode="as-written")
    spec = eigen_solve(op, 6)
    assert spec.residuals.max() < 1e-8


@pytest.mark.parametrize("m", [0, 1, 2])
def test_levels_at_the_rounding_floor_meet_the_contract_or_name_the_refinement(m):
    # residuals here sit near 1e-8, all rounding: m = 2 was once accepted at
    # just under 1e-8 on its unnormalized vector and read 1.008e-08 normalized.
    # Each level keeps its best round: m = 0, 1 and 2 meet the contract at
    # 9.86e-09, 9.97e-09 and 9.77e-09.  A level left above it after a round that
    # did not lower its residual is named at that floor, not by its disc
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), m, RadialGrid(8000, 1.0),
                          mode="as-written")
    try:
        spec = eigen_solve(op, 6)
    except RefinementError as caught:
        assert m > 0, "m = 0 meets the contract"
        stated = (rf"^level {(None, 3, 1)[m]} stopped at the float64 rounding floor, where a "
                  r"further round no longer lowers its residual: residual (\S+) "
                  r"\(contract 1e-08\) at \S+$")
        found = re.match(stated, str(caught))
        assert found, str(caught)
        assert float(found.group(1)) >= 1e-8
        return
    assert spec.residuals.max() < 1e-8


def test_steep_profile_certificate_error_names_the_sign_change():
    # on a steep paraboloid the as-written off-diagonal products upper_j lower_j
    # turn negative near the axis; their imaginary square roots widen the discs
    # to s = 3.23e7 and 6.97e7, far beyond the level gap
    for n, flips in ((250, 127), (2000, 24)):
        op = build_tangential(paraboloid(4.0, 1.0), zero_field(), 1, RadialGrid(n, 1.0),
                              mode="as-written")
        stated = (rf"levels 0 and 1 .*; Re\(upper_j lower_j\) < 0 on {flips} of the {n - 1} "
                  r"off-diagonal pairs, where sqrt\(upper_j lower_j\) is imaginary")
        with pytest.raises(CertificateError, match=stated) as info:
            eigen_solve(op, 6)
        assert re.search(r"max [0-9]", str(info.value)) is None


def test_uncertified_selection_raises():
    # a wide imaginary diagonal spread, or one off-diagonal pair of opposite
    # signs (an imaginary off_j = sqrt(upper_j lower_j)), gives Bauer-Fike
    # discs wider than the level spacing, so the selection is not certain
    op = build_tangential(paraboloid(0.5, 1.0), frame_synthetic(a3=0.3), 0,
                          RadialGrid(300, 1.0))
    spread = dataclasses.replace(op, diag=op.diag + 1e4j * np.linspace(-1.0, 1.0, op.n))
    upper = op.upper.copy()
    upper[150] = -upper[150]
    flip = dataclasses.replace(op, upper=upper)
    for moved in (spread, flip):
        with pytest.raises(SolveError, match="cannot certify"):
            eigen_solve(moved, 6)


def test_certificate_error_states_the_gap_and_the_disc_radius():
    op = build_tangential(paraboloid(0.5, 1.0), frame_synthetic(a3=0.3), 0,
                          RadialGrid(300, 1.0))
    spread = dataclasses.replace(op, diag=op.diag + 1e4j * np.linspace(-1.0, 1.0, op.n))
    stated = r"levels 0 and 1 .* apart, .* s = 1000\d\."
    # k = 1 too: the disc of the level left out must be clear of the k kept
    for k in (1, 6):
        with pytest.raises(CertificateError, match=stated) as info:
            eigen_solve(spread, k)
        # perfbench's tracer reads "max <number>" in a failed solve's message as its residual
        assert re.search(r"max [0-9]", str(info.value)) is None
        # every off-diagonal product is positive here, so no sign change is named
        assert "upper_j lower_j" not in str(info.value)


def test_similarity_past_float_range_is_a_named_error():
    # as-written on a steep paraboloid, |D_{j+1} / D_j| = sqrt|upper_j / lower_j| takes D
    # to ~1e-237 over the grid, where D^2 underflows; the level gaps certify, so the error
    # comes before the rounds
    op = build_tangential(paraboloid(4.0, 1.0), zero_field(), 0, RadialGrid(4000, 1.0),
                          mode="as-written")
    stated = (r"^the similarity D that makes the channel complex symmetric spans \|D_j / D_0\| "
              r"= 4\.74e-238 to 13\.4, past float64's range$")
    with pytest.raises(SolveError, match=stated) as info:
        eigen_solve(op, 6)
    assert not isinstance(info.value, (CertificateError, RefinementError))


def test_full_spectrum_of_a_small_non_normal_channel_matches_dense():
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0, RadialGrid(48, 1.0),
                          mode="as-written")
    spec = eigen_solve(op, 48)
    np.testing.assert_allclose(spec.eigenvalues, smallest_real_parts(op.matrix, 48),
                               rtol=1e-9, atol=1e-9)


def test_structured_channels_meet_contract_at_n2500():
    worst = 0.0
    for name, op in structured_cases(2500, ms=(0, 1)):
        spec = eigen_solve(op, 6)
        worst = max(worst, float(spec.residuals.max()))
    assert worst < 1e-8


def test_structured_channels_meet_contract_at_n4000():
    # channels whose residual sat at 1.0-1.5e-8 with a single unrefined
    # linear solve in the inverse-iteration step
    flat_disc = flat(1.0)
    cases = [(gaussian_bump(0.39780681718321453, 0.4338020330052859, 1.0), zero_field(), 1),
             (flat_disc, axial_uniform(1.1107957869229923, flat_disc), 1),
             (flat_disc, axial_uniform(-1.7490055345676845, flat_disc), 0),
             (flat_disc, axial_uniform(-1.7490055345676845, flat_disc), 2)]
    for prof, field, m in cases:
        spec = eigen_solve(build_tangential(prof, field, m, RadialGrid(4000, 1.0)), 6)
        assert spec.residuals.max() < 5e-9, (prof.name, m)


def test_benchmark_channels_that_broke_the_contract_meet_it():
    # spectrum-refine inputs (seed 4 round 8, seed 6 round 4, seed 8 round 2)
    # whose residual reached 3.2e-8, 2.5e-8 and 4.9e-8 when each pair came
    # from a full-precision eigensolve plus one refined inverse-iteration step
    bump = gaussian_bump(0.32508464903392864, 0.585633220062558, 1.0)
    para = paraboloid(0.5084672885297268, 1.0)
    cases = [(bump, zero_field(), 2, 4000),
             (sphere_cap(1.9803482693062813, 1.0), frame_synthetic(a3=-0.370195472960836), 2,
              1000),
             (para, axial_uniform(1.4591023053106116, para), 0, 4000)]
    for prof, field, m, n in cases:
        spec = eigen_solve(build_tangential(prof, field, m, RadialGrid(n, 1.0)), 6)
        assert spec.residuals.max() < 1e-8, (prof.name, m, n)


def strong_field_channel(profile, a3, mode="hermitian-corrected"):
    return build_tangential(profile, frame_synthetic(a3=a3, gamma_interval=(0.2, 0.6)), 1,
                            RadialGrid(1000, 1.0), mode=mode)


@pytest.mark.parametrize("profile, a3", [(paraboloid(0.5, 1.0), 20.0),
                                         (sphere_cap(2.0, 1.0), 80.0)],
                         ids=["paraboloid-a3-20", "cap-a3-80"])
def test_strong_field_certified_levels_meet_the_contract(profile, a3):
    # certified channels whose levels stopped at max 6.457e-08 and 1.228e-03
    # after a fixed two steps at their first quotient
    op = strong_field_channel(profile, a3)
    spec = eigen_solve(op, 6)
    assert spec.residuals.max() < 1e-9
    ref = smallest_real_parts(op.matrix, 6)
    assert np.abs(spec.eigenvalues - ref).max() <= 1e-9 * np.abs(ref).max()


def test_quotient_outside_its_disc_is_refined_at_the_centre():
    # level 2's first quotient lies nearer level 1's eigenvalue than its own:
    # refactored there, it converged on level 1's pair
    op = build_tangential(gaussian_bump(0.3, 0.5, 1.0),
                          frame_synthetic(a3=19.0, gamma_interval=(0.35, 0.5)), 2,
                          RadialGrid(200, 1.0), mode="as-written")
    spec = eigen_solve(op, 6)
    assert spec.residuals.max() < 1e-9
    ref = smallest_real_parts(op.matrix, 6)
    assert np.abs(spec.eigenvalues - ref).max() <= 1e-9 * np.abs(ref).max()


def test_refinement_cap_raises_a_named_error(monkeypatch):
    # with no round, the a3 = 80 cap stops at its mapped stein start, short of
    # the contract; the error names the level, its residual and the disc ratio
    monkeypatch.setattr(solver_mod, "REFINE_ROUNDS", 0)
    stated = (r"^level 0 did not converge inside its disc: residual (\S+) "
              r"\(contract 1e-08\) at .*, whose radius is s = 20; "
              r"disc ratio min gap/\(2s\) = 1\.448$")
    with pytest.raises(RefinementError, match=stated) as info:
        eigen_solve(strong_field_channel(sphere_cap(2.0, 1.0), 80.0), 6)
    assert isinstance(info.value, SolveError)
    assert float(re.match(stated, str(info.value)).group(1)) >= 1e-8


def test_level_meeting_the_target_takes_no_further_round(monkeypatch):
    # a mild non-normal channel, in both modes: every level meets REFINE_TARGET
    # after one round, at its start's quotient, so the result is that of one round
    for mode in MODES:
        op = strong_field_channel(paraboloid(0.5, 1.0), -0.2, mode)
        spec = eigen_solve(op, 6)
        monkeypatch.setattr(solver_mod, "REFINE_ROUNDS", 1)
        first = eigen_solve(op, 6)
        monkeypatch.undo()
        assert spec.residuals.max() <= solver_mod.REFINE_TARGET
        assert spec.eigenvalues.tobytes() == first.eigenvalues.tobytes()
        assert spec.eigenvectors.tobytes() == first.eigenvectors.tobytes()


def counted_factorizations(monkeypatch):
    """The sizes of the tridiagonal matrices the solver factors from now on."""
    factored = []

    def counted(lower, diag, upper, factor=solver_mod._tridiag_solver):
        factored.append(diag.size)
        return factor(lower, diag, upper)

    monkeypatch.setattr(solver_mod, "_tridiag_solver", counted)
    return factored


@pytest.mark.parametrize("m", [0, 1])
def test_level_whose_start_meets_the_target_is_not_factored(monkeypatch, m):
    # as-written on a mild paraboloid with no field: J = 0, so s = 0 and D M D^-1 = R, and
    # D^-1 maps each of R's stein vectors to one of M's to rounding; each of the 6 levels
    # meets REFINE_TARGET at its start and takes no round
    op = build_tangential(paraboloid(0.5, 1.0), zero_field(), m, RadialGrid(1000, 1.0),
                          mode="as-written")
    factored = counted_factorizations(monkeypatch)
    spec = eigen_solve(op, 6)
    assert factored == []
    assert spec.residuals.max() < 1e-8


def test_mild_channel_takes_one_round_per_level(monkeypatch):
    # the channel above with a field: its starts miss REFINE_TARGET, one round meets it
    op = strong_field_channel(paraboloid(0.5, 1.0), -0.2)
    factored = counted_factorizations(monkeypatch)
    eigen_solve(op, 6)
    assert factored == [1000] * 6


def twin_channel(coupling):
    """Two copies of a paraboloid m = 1 channel (n = 400) side by side.  The
    off-diagonal between them is coupling times the copy's last one in M_w,
    entered so that M_w stays Hermitian; coupling 0 makes every level an
    exactly degenerate pair."""
    prof = paraboloid(0.5, 1.0)
    op = build_tangential(prof, axial_uniform(1.0, prof), 1, RadialGrid(400, 1.0))
    w = np.tile(op.measure_weights, 2)
    d = np.sqrt(w)
    n = op.n
    link = coupling * np.sqrt(abs(op.lower[-1] * op.upper[-1]))
    lower = np.concatenate([op.lower, [link * d[n - 1] / d[n]], op.lower])
    upper = np.concatenate([op.upper, [link * d[n] / d[n - 1]], op.upper])
    return dataclasses.replace(op, lower=lower, diag=np.tile(op.diag, 2), upper=upper,
                               measure_weights=w, grid=RadialGrid(2 * n, 1.0))


@pytest.mark.parametrize("coupling", [0.0, 1e-12])
def test_degenerate_levels_get_orthonormal_eigenvectors(monkeypatch, coupling):
    # through the Lanczos route: each level's second copy grows in the basis from rounding
    op = twin_channel(coupling)
    calls = count_lapack_calls(monkeypatch)
    spec = eigen_solve(op, 6)
    assert calls.count(("dstebz", 1)) == 1
    assert ("dstebz", 2) not in calls and "dstein" not in calls
    np.testing.assert_allclose(spec.eigenvalues, smallest_real_parts(op.matrix, 6),
                               rtol=1e-9, atol=0.0)
    v = spec.eigenvectors
    gram = v.conj().T @ (op.measure_weights[:, None] * v)
    assert np.abs(gram - np.eye(6)).max() < 1e-10
    assert spec.residuals.max() < 1e-8


@pytest.mark.parametrize("coupling", [1e-6, 1e-4, 1e-2])
def test_hermitian_pairs_closer_than_the_step_offset_meet_the_contract(coupling):
    # each twin pair lies within 2 STEP_OFFSET tol, so stebz locates the levels again to
    # full accuracy; before, the residuals were 1.233e-8, 1.028e-6 and 6.719e-7
    op = twin_channel(coupling)
    spec = eigen_solve(op, 6)
    assert spec.residuals.max() < 1e-8
    np.testing.assert_allclose(spec.eigenvalues, smallest_real_parts(op.matrix, 6),
                               rtol=1e-9, atol=0.0)


def count_lapack_calls(monkeypatch):
    """The LAPACK routines eigen_solve calls from now on, a dstebz as (dstebz, its range):
    1 is a count over a range of values, 2 a bisection of an index range.  Lanczos calls
    dpttrs once a step and dstev once a test, past _lapack_call."""
    calls, call = [], solver_mod._lapack_call

    def spy(routine, *args):
        calls.append((routine, args[2]) if routine == "dstebz" else routine)
        return call(routine, *args)

    monkeypatch.setattr(solver_mod, "_lapack_call", spy)
    for routine in ("dpttrs", "dstev"):
        run = getattr(solver_mod.lapack, routine)
        monkeypatch.setattr(solver_mod.lapack, routine,
                            lambda *args, routine=routine, run=run:
                            calls.append(routine) or run(*args))
    return calls


def test_separated_levels_are_located_once(monkeypatch):
    # one Sturm count certifies the Lanczos levels, with no bisection and no stein; the
    # Lanczos steps number at most 2k + 11, and 6 dstev tests at most
    calls = count_lapack_calls(monkeypatch)
    for name, op in structured_cases(1000):
        calls.clear()
        eigen_solve(op, 6)
        assert calls.count(("dstebz", 1)) == 1, name
        assert ("dstebz", 2) not in calls and "dstein" not in calls, name
        assert calls.count("dpttrs") <= 2 * 6 + 11 and calls.count("dstev") <= 6, name
    # on the fallback, a twin pair within two step offsets is bisected twice
    force_the_bisection(monkeypatch)
    calls.clear()
    eigen_solve(twin_channel(1e-6), 6)
    assert calls.count(("dstebz", 2)) == 2 and calls.count("dstein") == 1


def test_the_count_rejects_unconverged_ritz_values(monkeypatch):
    # with the convergence test off, Lanczos stops at k + 1 steps, where the midpoint of
    # Ritz values 6 and 7 lies far above level 7: the count finds more than 6 levels below
    # it, and the channel takes the bisection, bit for bit
    ops = [op for _, op in structured_cases(400, ms=(0, 1))]
    force_the_bisection(monkeypatch)
    bisected = [eigen_solve(op, 6) for op in ops]
    monkeypatch.undo()
    force_the_lanczos(monkeypatch)
    monkeypatch.setattr(solver_mod, "LANCZOS_RTOL", math.inf)
    counts, count = [], solver_mod._count_below
    monkeypatch.setattr(solver_mod, "_count_below",
                        lambda *args: counts.append(count(*args)) or counts[-1])
    for op, reference in zip(ops, bisected):
        spec = eigen_solve(op, 6)
        assert counts[-1] > 6
        assert same_bits(spec.eigenvalues, reference.eigenvalues)
        assert same_bits(spec.eigenvectors, reference.eigenvectors)


def test_vectors_of_a_small_channel_are_converged_past_its_scale(monkeypatch):
    # rho_max ~3e-3 scales every entry, and the step's offset, by ~1e5 against the absolute
    # contract; Lanczos stopping at LANCZOS_RTOL = 1e-10 left its sixth level at 1.685e-8
    rho_max = 0.002978830576100708
    prof = gaussian_bump(0.3, 0.5, rho_max)
    op = build_tangential(prof, axial_uniform(804878.205916827, prof), -1,
                          RadialGrid(18, rho_max))
    force_the_lanczos(monkeypatch)
    calls = count_lapack_calls(monkeypatch)
    spec = eigen_solve(op, 6)
    assert "dstein" not in calls
    assert spec.residuals.max() < 1e-8


def same_spectrum(a, b):
    return all(same_bits(getattr(a, name), getattr(b, name))
               for name in ("eigenvalues", "eigenvectors", "residuals"))


def test_the_crossover_picks_the_route(monkeypatch):
    # Lanczos where k + LANCZOS_CROSSOVER <= sqrt(n), else bisection and stein from the start
    prof = paraboloid(0.5, 1.0)
    calls = count_lapack_calls(monkeypatch)
    for n, k, lanczos in ((441, 1, True), (440, 1, False), (1000, 11, True),
                          (1000, 12, False)):
        op = build_tangential(prof, axial_uniform(1.0, prof), 1, RadialGrid(n, 1.0))
        calls.clear()
        spec = eigen_solve(op, k)
        assert ("dpttrs" in calls) == lanczos and ("dstein" in calls) != lanczos, (n, k)
        assert spec.residuals.max() < 1e-8


def test_a_channel_lanczos_cannot_converge_pays_a_bounded_attempt(monkeypatch):
    # a steep paraboloid at m = 0, whose levels crowd below 0, needs 115 steps: Lanczos stops
    # at the cap of 2k + 24, after 6 dstev tests where a test at every step made 30, then
    # bisects, bit for bit
    rho_max = 796.8999517097316
    prof = paraboloid(0.5, rho_max)
    op = build_tangential(prof, axial_uniform(-5.2e-6, prof), 0, RadialGrid(1151, rho_max))
    with pytest.MonkeyPatch.context() as patch:
        force_the_bisection(patch)
        reference = eigen_solve(op, 6)
    calls = count_lapack_calls(monkeypatch)
    spec = eigen_solve(op, 6)
    assert calls.count("dpttrs") == 2 * 6 + 24 and calls.count("dstev") == 6
    assert ("dstebz", 1) not in calls and "dstein" in calls
    assert same_spectrum(spec, reference)


@pytest.mark.parametrize("failure", ["dpttrf", "dstev", "cap"])
def test_every_lanczos_failure_falls_back_to_the_bisection_bit_for_bit(monkeypatch, failure):
    # a failed factorization or test, or a cap of no steps, bisects as a missed count does
    prof = paraboloid(0.5, 1.0)
    op = build_tangential(prof, axial_uniform(1.0, prof), 1, RadialGrid(1000, 1.0))
    with pytest.MonkeyPatch.context() as patch:
        force_the_bisection(patch)
        reference = eigen_solve(op, 6)
    if failure == "cap":
        monkeypatch.setattr(solver_mod, "LANCZOS_STEPS", (0, 0))
    else:
        run = getattr(solver_mod.lapack, failure)
        monkeypatch.setattr(solver_mod.lapack, failure, lambda *args: (*run(*args)[:-1], 1))
    calls = count_lapack_calls(monkeypatch)
    spec = eigen_solve(op, 6)
    assert ("dstebz", 1) not in calls and "dstein" in calls
    assert ("dpttrs" in calls) == (failure == "dstev")
    assert same_spectrum(spec, reference)


def test_an_attempt_no_test_can_end_before_the_cap_stops_at_once(monkeypatch):
    # with a bound of 1e-300 the first test, at step k, leaves the residuals ~300 decades
    # behind, 150 steps at the fastest rate and past the cap of 2k + 24: no step follows it
    prof = paraboloid(0.5, 1.0)
    op = build_tangential(prof, axial_uniform(1.0, prof), 1, RadialGrid(1000, 1.0))
    with pytest.MonkeyPatch.context() as patch:
        force_the_bisection(patch)
        reference = eigen_solve(op, 6)
    monkeypatch.setattr(solver_mod, "LANCZOS_RTOL", 1e-300)
    calls = count_lapack_calls(monkeypatch)
    spec = eigen_solve(op, 6)
    assert calls.count("dpttrs") == 6 + 1 and calls.count("dstev") == 1
    assert ("dstebz", 1) not in calls and "dstein" in calls
    assert same_spectrum(spec, reference)


def test_the_sturm_count_is_the_dense_count():
    # at points between levels, on them and outside the spectrum, for R scaled as the
    # solver scales it and for a random R with max |R| < 1
    prof = paraboloid(0.5, 1.0)
    op = build_tangential(prof, axial_uniform(1.0, prof), 1, RadialGrid(300, 1.0))
    off = solver_mod._symmetric_form(op)[1]
    p = math.frexp(max(np.abs(op.diag.real).max(), off.max()))[1]
    rng = np.random.default_rng(5)
    for d, e in ((np.ldexp(op.diag.real, -p), np.ldexp(off, -p)),
                 (rng.uniform(-0.9, 0.9, 200), rng.uniform(0.0, 0.9, 199))):
        levels = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        points = np.concatenate([0.5 * (levels[1:] + levels[:-1]), levels[:1] - 0.1,
                                 levels[-1:] + 0.1, rng.uniform(-2.9, 2.9, 50)])
        for x in points:
            assert solver_mod._count_below(d, e, x) == np.count_nonzero(levels <= x), x


class Located(Exception):
    """Raised in place of the Hermitian step, with the levels and the tol handed to it."""


def stop_at_the_step(op, levels, vectors, gauge, shift, tol):
    raise Located(levels, tol)


@st.composite
def hermitian_channels(draw):
    """(operator, k): a catalog profile in an axial-uniform field, |b| <= 20, or the umbilic
    cap in a uniform frame a3, |a3| <= 30, at m in [-4, 4], n in [16, 4000], k in [1, 6]."""
    name = draw(st.sampled_from([*catalog(1.0), "cap-a3"]))
    if name == "cap-a3":
        prof, field = sphere_cap(2.0, 1.0), frame_synthetic(a3=draw(st.floats(-30.0, 30.0)))
    else:
        prof = catalog(1.0)[name]
        field = axial_uniform(draw(st.floats(-20.0, 20.0)), prof)
    # sampled_from draws n, m and k evenly; integers() would favour the small ones
    op = build_tangential(prof, field, draw(st.sampled_from(range(-4, 5))),
                          RadialGrid(draw(st.sampled_from(range(16, 4001))), 1.0))
    return op, draw(st.sampled_from(range(1, 7)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hermitian_channels())
def test_lanczos_locates_the_levels_bisection_does(channel):
    # the Lanczos route certifies its k levels, each within the bisection's tol of the
    # level bisection gives, and its shift sigma lies at or below the lowest level
    op, k = channel
    shifts, certified = [], []
    bound, lanczos = solver_mod._collatz_wielandt, solver_mod._lanczos
    with pytest.MonkeyPatch.context() as patch:
        force_the_lanczos(patch)
        patch.setattr(solver_mod, "_hermitian_pairs", stop_at_the_step)
        patch.setattr(solver_mod, "_collatz_wielandt",
                      lambda d, e, phi: shifts.append((bound(d, e, phi), d, e)) or shifts[-1][0])
        patch.setattr(solver_mod, "_lanczos",
                      lambda *args: certified.append(lanczos(*args)) or certified[-1])
        with pytest.raises(Located) as found:
            eigen_solve(op, k)
        force_the_bisection(patch)
        with pytest.raises(Located) as bisected:
            eigen_solve(op, k)
    assert certified[0] is not None and certified[1] is None
    (levels, tol), (reference, _) = found.value.args, bisected.value.args
    assert levels.shape == reference.shape == (k,)
    assert np.abs(levels - reference).max() <= tol
    sigma, d, e = shifts[0]
    lowest = solver_mod.lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")[1][0]
    assert sigma <= lowest


@pytest.mark.parametrize("failure", ["dpttrf", "dstev", "cap", "count"])
def test_every_certified_lanczos_failure_falls_back_to_the_bisection_bit_for_bit(monkeypatch,
                                                                                failure):
    # a non-normal channel with a disc radius s > 0 locates its k + 1 levels by Lanczos too; a
    # failed factorization or test, a cap of no steps or a count one off bisects, bit for bit
    op = strong_field_channel(paraboloid(0.5, 1.0), -0.2)
    assert solver_mod._symmetric_form(op)[2] > 0.0
    with pytest.MonkeyPatch.context() as patch:
        force_the_bisection(patch)
        reference = eigen_solve(op, 6)
    if failure == "cap":
        monkeypatch.setattr(solver_mod, "LANCZOS_STEPS", (0, 0))
    elif failure == "count":
        count = solver_mod._count_below
        monkeypatch.setattr(solver_mod, "_count_below", lambda *args: count(*args) + 1)
    else:
        run = getattr(solver_mod.lapack, failure)
        monkeypatch.setattr(solver_mod.lapack, failure, lambda *args: (*run(*args)[:-1], 1))
    calls = count_lapack_calls(monkeypatch)
    spec = eigen_solve(op, 6)
    assert calls.count(("dstebz", 1)) == (failure == "count")
    assert calls.count(("dstebz", 2)) == 1 and calls.count("dstein") == 1
    assert ("dpttrs" in calls) == (failure in ("dstev", "count"))
    assert same_spectrum(spec, reference)


def test_a_separated_certified_channel_is_located_by_one_count(monkeypatch):
    # s > 0: Lanczos locates k + 1 levels, certified by one count over a range of values, with
    # no bisection of an index range and no stein, and stops once they are within the
    # bisection's tol, in fewer steps than the Hermitian route's LANCZOS_RTOL would take.
    # s = 0 (as-written with no field, where D^-1 maps stein's vectors to M's to rounding)
    # bisects as before, with no Lanczos step
    attempts, certified = [], []
    lanczos, certify = solver_mod._lanczos, solver_mod._certify
    monkeypatch.setattr(solver_mod, "_lanczos",
                        lambda *args: attempts.append(args) or lanczos(*args))
    monkeypatch.setattr(solver_mod, "_certify",
                        lambda op, levels, *args: certified.append(levels) or
                        certify(op, levels, *args))
    calls = count_lapack_calls(monkeypatch)
    located = steps = 0
    for key, op in non_normal_cases(1000, ms=(0, 1)):
        if solver_mod._symmetric_form(op)[4] is not None:
            continue
        calls.clear()
        try:
            eigen_solve(op, 6)
        except CertificateError:
            continue
        assert calls.count(("dstebz", 1)) == 1, key
        assert ("dstebz", 2) not in calls and "dstein" not in calls, key
        assert certified[-1].shape == (7,) and attempts[-1][3] == 7, key
        located += 1
        steps += calls.count("dpttrs")
        calls.clear()
        assert lanczos(*attempts[-1][:4]) is not None, key
        steps -= calls.count("dpttrs")
    assert located >= 20 and steps < 0
    for m in (0, 1):
        op = build_tangential(paraboloid(0.5, 1.0), zero_field(), m, RadialGrid(1000, 1.0),
                              mode="as-written")
        assert solver_mod._symmetric_form(op)[2] == 0.0
        calls.clear()
        eigen_solve(op, 6)
        assert calls == [("dstebz", 2), "dstein"], m


def outcome(op, k):
    """eigen_solve's Spectrum, or the class of the SolveError it raises."""
    try:
        return eigen_solve(op, k)
    except SolveError as caught:
        return type(caught)


@st.composite
def certified_channels(draw):
    """A catalog profile in a frame a3, |a3| <= 30, on a gamma_interval or everywhere, or in a
    Cartesian c, |c| <= 8; either mode, m in [0, 2], n in [700, 4000]."""
    prof = catalog(1.0)[draw(st.sampled_from(list(catalog(1.0))))]
    if draw(st.booleans()):
        interval = draw(st.none() | st.tuples(st.floats(0.1, 0.4), st.floats(0.5, 0.9)))
        field = frame_synthetic(a3=draw(st.floats(-30.0, 30.0)), gamma_interval=interval)
    else:
        field = cartesian_constant(draw(st.floats(-8.0, 8.0)), prof)
    return build_tangential(prof, field, draw(st.sampled_from(range(3))),
                            RadialGrid(draw(st.sampled_from(range(700, 4001))), 1.0),
                            mode=draw(st.sampled_from(MODES)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(certified_channels())
def test_lanczos_gives_each_channel_the_bisections_outcome(op):
    # pass, CertificateError or RefinementError as the forced bisection gives it, and passing
    # values within the bisection's tol of its values
    spec = outcome(op, 6)
    with pytest.MonkeyPatch.context() as patch:
        force_the_bisection(patch)
        reference = outcome(op, 6)
    if isinstance(reference, type):
        assert spec is reference
        return
    assert isinstance(spec, solver_mod.Spectrum), spec
    off, scale = solver_mod._symmetric_form(op)[1::2]
    tol = solver_mod.LOCATE_RTOL * (off.real.max() or scale) / op.n ** 2
    assert np.abs(spec.eigenvalues - reference.eigenvalues).max() <= tol


def traced_passes(monkeypatch):
    """Each Gram-Schmidt pass of Lanczos against its whole basis from now on: (the basis,
    ||v|| before the pass, ||v|| after it)."""
    passes, run = [], solver_mod._orthogonalized

    def traced(basis, v):
        before = math.sqrt(v @ v)
        h = run(basis, v)
        passes.append((basis, before, math.sqrt(v @ v)))
        return h

    monkeypatch.setattr(solver_mod, "_orthogonalized", traced)
    return passes


def second_passes(passes):
    """The steps of one Lanczos attempt, each (its first pass, whether a second followed)."""
    steps = []
    for basis, before, after in passes:
        if steps and len(steps[-1][0][0]) == len(basis):
            steps[-1][1] = True
        else:
            steps.append([(basis, before, after), False])
    return steps


def test_a_second_pass_runs_exactly_where_the_first_cancels(monkeypatch):
    # the three-term recurrence leaves only rounding along the basis, so no pass cancels on
    # these channels, and each basis stays orthonormal to 1e-13; at step n of a channel of
    # n = 16 (k = 15) the Krylov space is the whole space, the new vector is rounding, and
    # the pass against the basis cancels and runs again
    passes = traced_passes(monkeypatch)
    for name, op in structured_cases(4000):
        passes.clear()
        eigen_solve(op, 6)
        for (basis, before, after), second in second_passes(passes):
            assert second == (after < solver_mod.REORTH_ETA * before), name
        basis = passes[-1][0]
        assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-13, name
    force_the_lanczos(monkeypatch)
    prof = paraboloid(0.5, 1.0)
    op = build_tangential(prof, axial_uniform(1.0, prof), 1, RadialGrid(16, 1.0))
    passes.clear()
    spec = eigen_solve(op, 15)
    steps = second_passes(passes)
    assert [second for _, second in steps] == [False] * 15 + [True]
    (_, before, after), _ = steps[-1]
    assert after < solver_mod.REORTH_ETA * before
    assert spec.residuals.max() < 1e-8


@pytest.mark.parametrize("mode", MODES)
def test_levels_scale_like_rho_max_to_the_minus_two(mode):
    # paraboloid(0.5 / lam, lam) with a3 = 0.4 / lam is the lam = 1 channel with every
    # length times lam, so E lam^2 is the same, imaginary parts too, by the certified route.
    # Before, stein failed from lam = 1e6, whose R has a norm far below 1; with the locate
    # scaled alone, the absolute Hermitian test routed the channel as Hermitian from 1e8 and
    # dropped Im E.  Levels stop refining from lam = 1e4 on, where the absolute
    # REFINE_TARGET is met at once: E lam^2 then moves by up to 2.0e-5 relative
    def channel(lam):
        prof = paraboloid(0.5 / lam, lam)
        return build_tangential(prof, frame_synthetic(a3=0.4 / lam), 1, RadialGrid(64, lam),
                                mode=mode)

    reference = eigen_solve(channel(1.0), 6).eigenvalues
    for lam in (1e4, 1e8, 1e12, 1e20):
        op = channel(lam)
        assert solver_mod._symmetric_form(op)[4] is None, lam
        np.testing.assert_allclose(eigen_solve(op, 6).eigenvalues * lam ** 2, reference,
                                   rtol=1e-4, atol=0.0, err_msg=f"lam = {lam}")


@pytest.mark.parametrize("mode", MODES)
def test_flat_disc_levels_scale_like_rho_max_to_the_minus_two(mode):
    # before, stein failed (info = 1, 5 or 6) from rho_max = 1e5 or 1e20 on (measured:
    # E rho_max^2 within 6.9e-14 of rho_max = 1 up to 1e75)
    def levels(rho_max):
        op = build_tangential(flat(rho_max), zero_field(), 0, RadialGrid(64, rho_max),
                              mode=mode)
        return eigen_solve(op, 6).eigenvalues * rho_max ** 2

    reference = levels(1.0)
    for rho_max in (1e5, 1e20, 1e40, 1e60, 1e75):
        np.testing.assert_allclose(levels(rho_max), reference, rtol=1e-12, atol=0.0,
                                   err_msg=f"rho_max = {rho_max}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho_max, named", [(1e40, "off-diagonal product upper_j lower_j"),
                                            (1e50, "off-diagonal product upper_j lower_j"),
                                            (1e70, "as-written drift term")])
def test_a_steep_as_written_paraboloid_names_its_overflow(rho_max, named):
    # the lam = 1e40-1e70 channels of the scaling test above, as-written: before, each warned
    # of an overflow, in the Hermiticity report's norm, sqrt(upper_j lower_j) or the drift
    # term's Z^4, and then raised an unnamed error or reported inf
    with pytest.raises((SolveError, DomainError), match=re.escape(named)):
        op = build_tangential(paraboloid(0.5, rho_max), frame_synthetic(a3=0.4 / rho_max), 1,
                              RadialGrid(64, rho_max), mode="as-written")
        report = hermiticity_report(op)
        assert math.isfinite(report.antihermitian_norm)
        eigen_solve(op, 6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho_max", [1e-10, 1e-30])
def test_small_certified_channel_stops_at_the_floor_without_warnings(rho_max):
    # each solve scales the iterate by ~1 / tol ~ rho_max^2; before, rounds of solves
    # underflowed it to 0, and the quotient warned of 0 / 0.  No grid meets the absolute
    # contract at this scale, so the named floor error is the outcome
    prof = sphere_cap(2.0 * rho_max, rho_max)
    op = build_tangential(prof, frame_synthetic(a3=0.4 / rho_max), 1, RadialGrid(64, rho_max),
                          mode="as-written")
    assert solver_mod._symmetric_form(op)[4] is None
    with pytest.raises(RefinementError, match="stopped at the float64 rounding floor"):
        eigen_solve(op, 6)


@pytest.mark.parametrize("k", [1, 6])
def test_tunnelling_doublet_meets_the_contract(k):
    # a barrier a3^2 / 2 = 188.5 on [0.30, 0.60] splits the disc into a core and an
    # annulus: levels 0 and 1 are 0.100 apart, 187 tol, and level 0's vector must
    # carry no more of level 1's than the contract allows
    field = frame_synthetic(a3=19.417868840237567,
                            gamma_interval=(0.29613570389872346, 0.5971578823257306))
    op = build_tangential(flat(1.0), field, 0, RadialGrid(200, 1.0), mode="as-written")
    spec = eigen_solve(op, k)
    assert spec.residuals.max() < 1e-8
    np.testing.assert_allclose(spec.eigenvalues, smallest_real_parts(op.matrix, k),
                               rtol=1e-9, atol=0.0)


def refuse_random_draws(monkeypatch):
    class Refused:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.random.{name} used by the solver")

    monkeypatch.setattr(solver_mod.np, "random", Refused())


def test_hermitian_route_makes_no_random_draw(monkeypatch):
    refuse_random_draws(monkeypatch)
    for name, op in structured_cases(200, ms=(1,)):
        assert eigen_solve(op, 6).residuals.max() < 1e-8, name


def test_certified_route_makes_no_random_draw(monkeypatch):
    refuse_random_draws(monkeypatch)
    for key, op in non_normal_cases(200, ms=(1,)):
        if solver_mod._symmetric_form(op)[4] is None:
            assert eigen_solve(op, 6).residuals.max() < 1e-8, key


@st.composite
def double_wells(draw):
    """(operator, k): a flat disc split by a barrier a3^2 / 2 of random height
    and place (frame a3 on gamma_interval), which makes near-degenerate pairs
    of a core and an annulus level; m, n, k in {1, 6} and the mode drawn too."""
    lo = draw(st.floats(0.1, 0.7))
    hi = draw(st.floats(lo + 0.05, min(lo + 0.4, 0.95)))
    field = frame_synthetic(a3=draw(st.floats(5.0, 30.0) | st.floats(-30.0, -5.0)),
                            gamma_interval=(lo, hi))
    op = build_tangential(flat(1.0), field, draw(st.integers(0, 2)),
                          RadialGrid(draw(st.integers(200, 1000)), 1.0),
                          mode=draw(st.sampled_from(MODES)))
    return op, draw(st.sampled_from((1, 6)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(double_wells())
def test_double_wells_meet_the_contract(well):
    op, k = well
    assert eigen_solve(op, k).residuals.max() < 1e-8


def test_readme_cap_spectrum_at_n2500_exits_zero(tmp_path):
    cfg = tmp_path / "cap.yaml"
    cfg.write_text(CAP_YAML, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(cfg), "--output", str(out),
                 "--n-points", "2500"])
    assert code == 0
    assert len((out / "spectrum.csv").read_text().splitlines()) == 7


# ----------------------------------------------------------------------
# Crank-Nicolson and the Hermiticity report against dense references
# ----------------------------------------------------------------------

def dense_cn(op, chi, dt, steps):
    mat = op.matrix
    eye = np.eye(op.n)
    fwd, back = eye + 0.5j * dt * mat, eye - 0.5j * dt * mat
    states = [chi]
    for _ in range(steps):
        chi = np.linalg.solve(fwd, back @ chi)
        states.append(chi)
    return np.array(states)


def test_banded_cn_matches_dense_reference():
    grid = RadialGrid(60, 1.0)
    prof = paraboloid(0.5, 1.0)
    ops = (build_tangential(sphere_cap(2.0, 1.0), frame_synthetic(a3=0.4), 0, grid),
           build_tangential(prof, frame_synthetic(a3=0.3), 1, grid),
           build_tangential(prof, zero_field(), 0, grid, mode="as-written"))
    for op in ops:
        psi = ground_state(op)
        trace = evolve(op, psi, dt=1e-3, steps=200)
        ref = dense_cn(op, psi.astype(complex), 1e-3, 200)
        ref_norms = np.sqrt((np.abs(ref) ** 2) @ op.measure_weights)
        np.testing.assert_allclose(trace.norms, ref_norms, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(trace.states, ref, rtol=0.0, atol=1e-12)


def test_hermiticity_report_matches_dense_reference():
    grid = RadialGrid(120, 1.0)
    prof = paraboloid(0.5, 1.0)
    ops = (build_tangential(sphere_cap(2.0, 1.0), frame_synthetic(a3=0.4), 0, grid),
           build_tangential(prof, frame_synthetic(a3=0.3), 1, grid),
           build_tangential(prof, zero_field(), 0, grid, mode="as-written"))
    for op in ops:
        mw = weighted(op)
        gap_matrix = mw - mw.conj().T
        anti = 0.5 * gap_matrix
        rep = hermiticity_report(op)
        assert rep.max_asymmetry == np.abs(gap_matrix).max()
        assert rep.relative_asymmetry == rep.max_asymmetry / np.abs(mw).max()
        assert rep.antihermitian_norm == pytest.approx(np.linalg.norm(anti), rel=1e-14)
        gap = np.abs(anti - np.diag(1j * op.diag.imag)).max()
        assert rep.coupling_equality_gap == gap


# ----------------------------------------------------------------------
# gauge values and operator reuse in the CLI
# ----------------------------------------------------------------------

def test_gauge_report_carries_per_node_divergence():
    # the report's one vectorized divergence call equals scalar calls node
    # by node, bit for bit, for every catalog profile and field family
    grid = RadialGrid(48, 1.0)
    cases = [("paraboloid", "radial a1", paraboloid(0.5, 1.0),
              frame_synthetic(a1=lambda r, q: r))]
    for name, prof in catalog(1.0).items():
        cases += [
            (name, "axial-uniform", prof, axial_uniform(1.0, prof)),
            (name, "cartesian-constant", prof, cartesian_constant(0.7, prof)),
            (name, "frame-synthetic a3", prof, frame_synthetic(a3=0.4)),
            (name, "masked a1/a3", prof,
             frame_synthetic(a1=0.3, a3=0.4, gamma_interval=(0.2, 0.6))),
        ]
    for name, kind, prof, field in cases:
        report = is_coulomb_gauge(field, prof, grid, tol=1e-10)
        ref = [divergence(field, prof, float(r), 0.0, step_rho=grid.spacing)
               for r in grid.nodes]
        assert all(type(v) is float for v in ref)
        np.testing.assert_array_equal(report.values, ref, err_msg=f"{name}, {kind}")


def test_gauge_report_has_no_values_when_evaluation_fails():
    def explode(r, q):
        raise RuntimeError("boom")

    report = is_coulomb_gauge(frame_synthetic(a1=explode), flat(1.0),
                              RadialGrid(16, 1.0), tol=1e-10)
    assert report.values is None and report.note
    assert report.note == "evaluation failed: RuntimeError: boom"


def test_spectrum_builds_each_channel_once(tmp_path, monkeypatch):
    calls = []
    build = operator_mod.build_tangential

    def counting(*args, **kwargs):
        calls.append(args[2])
        return build(*args, **kwargs)

    monkeypatch.setattr(operator_mod, "build_tangential", counting)
    cfg = tmp_path / "run.yaml"
    cfg.write_text("surface:\n  kind: flat\n  rho_max: 1.0\ngrid:\n  n_points: 64\n"
                   "m_list: [0, 1, 2]\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 0
    assert calls == [0, 1, 2]
