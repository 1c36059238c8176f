"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
Tolerances are fixed here and nowhere else; oracles (Bessel zeros by
bisection, curvatures by fresh central differences) live in oracles.py and
are independent of the library paths they check.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from curvband import (
    RadialGrid,
    axial_uniform,
    build_tangential,
    catalog,
    curvatures,
    decoupling_check,
    eigen_solve,
    evolve,
    flat,
    frame_synthetic,
    ground_state,
    is_coulomb_gauge,
    normal_energy,
    paraboloid,
    sphere_cap,
    zero_field,
)
from curvband.geometry import offset_scale_factors
from oracles import disc_dirichlet_energy, fd_curvatures, open_chart


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {text}")
        raise
    print(f"criterion {number}: PASS - {text}")


def test_criterion_1_offset_chart_identity():
    with criterion(1, "h1*h2 = rho*Z*F on 1000 random chart points per profile, rel 1e-12"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for prof in catalog(1.0).values():
            rho = rng.uniform(1e-3, 1.0, 2000)
            q = 0.9 * rng.uniform(-0.5, 0.5, 2000)
            Z, H, K = curvatures(prof, rho)
            # chart points: F > 0.01 all the way from the surface to q
            chart = np.flatnonzero(open_chart(H, K, q, margin=0.01))[:1000]
            assert chart.size == 1000
            rho, q, Z, H, K = rho[chart], q[chart], Z[chart], H[chart], K[chart]
            h1, h2 = offset_scale_factors(prof, rho, q)
            target = rho * Z * (1.0 + 2.0 * q * H + q * q * K)
            assert np.all(np.abs(h1 * h2 - target) <= 1e-12 * np.abs(target))
        assert time.perf_counter() - start < 1.0


def test_criterion_2_curvature_oracle():
    with criterion(2, "H, K match finite-difference oracle to 1e-6; sphere cap umbilic to 1e-10"):
        start = time.perf_counter()
        rho = np.linspace(0.02, 0.98, 481)
        for prof in catalog(1.0).values():
            _, H, K = curvatures(prof, rho)
            _, H_fd, K_fd = fd_curvatures(prof.S, rho, h=1e-4)
            assert np.abs(H - H_fd).max() < 1e-6
            assert np.abs(K - K_fd).max() < 1e-6
        cap = sphere_cap(2.0, 1.0)
        _, H, K = curvatures(cap, np.linspace(0.0, 1.0, 2001))
        assert np.abs(H ** 2 - K).max() < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_3_flat_disc_spectrum():
    with criterion(3, "disc levels match Bessel oracle to 1e-4 at n=2000; O(drho^2) convergence"):
        start = time.perf_counter()
        prof = flat(1.0)
        for m in (0, 1, 2):
            spec = eigen_solve(
                build_tangential(prof, zero_field(), m, RadialGrid(2000, 1.0)), 3)
            for k in (1, 2, 3):
                exact = disc_dirichlet_energy(m, k)
                rel = abs(spec.eigenvalues[k - 1].real - exact) / exact
                assert rel < 1e-4, (m, k, rel)

        sizes = (250, 500, 1000, 2000)
        exact0 = disc_dirichlet_energy(0, 1)
        errors = []
        for n in sizes:
            spec = eigen_solve(
                build_tangential(prof, zero_field(), 0, RadialGrid(n, 1.0)), 1)
            errors.append(abs(spec.eigenvalues[0].real - exact0))
        ratios = [errors[i] / errors[i + 1] for i in range(3)]
        assert all(3.2 < r < 4.8 for r in ratios), ratios
        slope = np.polyfit(np.log([1.0 / (n + 1) for n in sizes]), np.log(errors), 1)[0]
        assert 1.8 < slope < 2.2, slope
        assert time.perf_counter() - start < 60.0


def test_criterion_4_mode_agreement_and_hermiticity():
    with criterion(4, "modes agree entrywise on flat; corrected operator measure-Hermitian to 1e-10"):
        grid = RadialGrid(500, 1.0)
        for m in (0, 1):
            aw = build_tangential(flat(1.0), zero_field(), m, grid, mode="as-written")
            hc = build_tangential(flat(1.0), zero_field(), m, grid,
                                  mode="hermitian-corrected")
            assert np.abs(aw.matrix - hc.matrix).max() <= 1e-14

        for prof in (paraboloid(0.5, 1.0), sphere_cap(2.0, 1.0),
                     catalog(1.0)["gaussian-bump"]):
            for m in (0, 1):
                op = build_tangential(prof, zero_field(), m, RadialGrid(250, 1.0))
                d = np.sqrt(op.measure_weights)
                mw = (d[:, None] * op.matrix) / d[None, :]
                assert np.abs(mw - mw.conj().T).max() < 1e-10


def test_criterion_5_normal_channel_and_decoupling():
    with criterion(5, "oscillator ladder exact; decoupling ratio increases with omega"):
        for omega, n, expected in ((1.0, 0, 0.5), (1.0, 2, 2.5), (10.0, 1, 15.0),
                                   (3.5, 4, 3.5 * 4.5)):
            assert normal_energy(omega, n) == expected
        grid = RadialGrid(64, 1.0)
        prof = sphere_cap(2.0, 1.0)
        A = frame_synthetic(a3=1.0)
        ratios = [decoupling_check(w, A, prof, grid).ratio for w in (1e2, 1e4, 1e6)]
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[1] == pytest.approx(50.0, rel=1e-12)


def test_criterion_6_uniform_coupling_growth_law():
    with criterion(6, "log-norm slope equals e*A3*H = +/-0.2 to 1e-4; Hermitian run conserves norm"):
        start = time.perf_counter()
        grid = RadialGrid(200, 1.0)
        prof = sphere_cap(2.0, 1.0)           # H = 1/2 uniformly
        for c in (0.2, -0.2):
            op = build_tangential(prof, frame_synthetic(a3=2.0 * c), 0, grid, e=1.0)
            psi = ground_state(op)
            trace = evolve(op, psi, dt=1e-3, steps=1000, record_states=False)
            assert abs(trace.log_norm_slope - c) / abs(c) < 1e-4
            ratio = trace.norms[-1] / trace.norms[0]
            assert abs(ratio - math.exp(c)) / math.exp(c) < 1e-4

        control = build_tangential(prof, zero_field(), 0, grid)
        psi = ground_state(control)
        trace = evolve(control, psi, dt=1e-3, steps=1000, record_states=False)
        assert np.abs(trace.norms / trace.norms[0] - 1.0).max() < 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_7_spectral_shift_covariance():
    with criterion(7, "constant (a+ib) diagonal shifts every eigenvalue by (a+ib) to 1e-10"):
        op = build_tangential(paraboloid(0.5, 1.0), zero_field(), 0,
                              RadialGrid(100, 1.0))
        shift = 0.125 - 0.375j
        moved = dataclasses.replace(op, diag=op.diag + shift)
        base = eigen_solve(op, op.n).eigenvalues
        shifted = eigen_solve(moved, op.n).eigenvalues
        assert np.abs(shifted - shift - base).max() < 1e-10

        # same statement realized physically: uniform A3 on the umbilic cap
        cap = sphere_cap(2.0, 1.0)
        grid = RadialGrid(100, 1.0)
        base = eigen_solve(build_tangential(cap, zero_field(), 0, grid, e=1.0),
                           grid.n_points).eigenvalues
        a3 = 0.4
        cop = build_tangential(cap, frame_synthetic(a3=a3), 0, grid, e=1.0)
        coupled = eigen_solve(cop, grid.n_points).eigenvalues
        expected = base + 0.5 * a3 ** 2 + 1j * (0.5 * a3)
        assert np.abs(coupled - expected).max() < 1e-10


def test_criterion_8_gauge_diagnostic():
    with criterion(8, "axial gauge divergence-free at 1e-10; A1 = rho flagged with violation 2"):
        grid = RadialGrid(64, 1.0)
        for prof in catalog(1.0).values():
            report = is_coulomb_gauge(axial_uniform(1.0, prof), prof, grid, tol=1e-10)
            assert report.passed, prof.name
        bad = is_coulomb_gauge(frame_synthetic(a1=lambda r, q: r), flat(1.0),
                               grid, tol=1e-10)
        assert not bad.passed
        assert abs(bad.max_violation - 2.0) <= 1e-6
