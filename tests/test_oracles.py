"""The oracles themselves are checked against frozen reference constants."""

import numpy as np
import pytest

from oracles import bessel_j, bessel_zero, fd_curvatures

# first three positive zeros of J_0, J_1, J_2 (standard tabulated values)
FROZEN_ZEROS = {
    0: (2.404825557695773, 5.520078110286311, 8.653727912911012),
    1: (3.831705970207512, 7.015586669815619, 10.173468135062722),
    2: (5.135622301840683, 8.417244140399866, 11.619841172149059),
}


# zeros 4-6 of J_0, J_1, J_2, taken once from scipy.special.jn_zeros; the
# float64 sum of the series missed the 6th by up to 8.3e-7 (m = 2)
FROZEN_HIGHER_ZEROS = {
    0: (11.791534439014281, 14.930917708487787, 18.071063967910924),
    1: (13.323691936314223, 16.470630050877634, 19.615858510468243),
    2: (14.795951782351262, 17.959819494987826, 21.116997053021844),
}


@pytest.mark.parametrize("m", [0, 1, 2])
def test_bessel_zeros_match_frozen_values(m):
    for k, ref in enumerate(FROZEN_ZEROS[m], start=1):
        assert abs(bessel_zero(m, k) - ref) < 1e-9


@pytest.mark.parametrize("m", [0, 1, 2])
def test_higher_bessel_zeros_match_frozen_values(m):
    for k, ref in enumerate(FROZEN_HIGHER_ZEROS[m], start=4):
        assert abs(bessel_zero(m, k) - ref) < 1e-12


def test_bessel_series_small_argument():
    # J_0(x) ~ 1 - x^2/4, J_1(x) ~ x/2 for small x
    assert bessel_j(0, 1e-4) == pytest.approx(1.0 - 2.5e-9, abs=1e-14)
    assert bessel_j(1, 1e-4) == pytest.approx(5e-5, rel=1e-8)


def test_bessel_vanishes_at_its_zeros():
    for m, zeros in FROZEN_ZEROS.items():
        for ref in zeros:
            assert abs(bessel_j(m, ref)) < 1e-10


def test_fd_curvatures_on_paraboloid():
    # S = rho^2/2: H = -(1/(Z rho) * rho + 1/Z^3)/2 evaluated directly
    rho = np.linspace(0.1, 0.9, 17)
    Z, H, K = fd_curvatures(lambda r: 0.5 * r ** 2, rho)
    Z_ref = np.sqrt(1.0 + rho ** 2)
    H_ref = -0.5 * (1.0 / Z_ref + 1.0 / Z_ref ** 3)
    K_ref = 1.0 / Z_ref ** 4
    np.testing.assert_allclose(Z, Z_ref, rtol=1e-8)
    np.testing.assert_allclose(H, H_ref, rtol=1e-6)
    np.testing.assert_allclose(K, K_ref, rtol=1e-6)
