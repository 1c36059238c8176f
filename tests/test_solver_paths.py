"""The banded eigensolver and Crank-Nicolson on structured and non-normal
channels, against dense references built in the test from the materialized
matrix."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvband.operator as operator_mod
import curvband.solver as solver_mod
from curvband import (
    CertificateError,
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


def test_located_levels_and_vectors_are_scipys_bit_for_bit(monkeypatch):
    # the solver calls LAPACK's stebz and stein itself, as scipy.linalg's
    # eigh_tridiagonal does, and scipy.linalg still imports beside it
    import scipy.linalg as sla

    located = {}
    for route in ("_hermitian_pairs", "_certified_pairs"):
        def spy(op, *args, route=route, run=getattr(solver_mod, route)):
            located[route] = args
            return run(op, *args)
        monkeypatch.setattr(solver_mod, route, spy)
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
def test_degenerate_levels_get_orthonormal_eigenvectors(coupling):
    op = twin_channel(coupling)
    spec = eigen_solve(op, 6)
    np.testing.assert_allclose(spec.eigenvalues, smallest_real_parts(op.matrix, 6),
                               rtol=1e-9, atol=0.0)
    v = spec.eigenvectors
    gram = v.conj().T @ (op.measure_weights[:, None] * v)
    assert np.abs(gram - np.eye(6)).max() < 1e-10
    assert spec.residuals.max() < 1e-8


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
        assert rep.relative_asymmetry == rep.max_asymmetry / max(1.0, np.abs(mw).max())
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
