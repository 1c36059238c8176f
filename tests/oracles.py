"""Independent numerical oracles used by the test suite.

These deliberately avoid the library under test (and scipy.special): Bessel
functions come from the defining power series, summed in decimal arithmetic
with the digits its cancellation needs, their zeros from bracketing plus bisection, and curvatures from fresh central differences of the
generator.  Reference constants derived from them are frozen in the tests.
"""

from __future__ import annotations

import decimal
import math

import numpy as np


def bessel_j(m: int, x: float) -> float:
    """J_m(x) by power series: sum_k (-1)^k (x/2)^(m+2k) / (k! (m+k)!).

    The terms grow to ~e^x before they cancel, so the series is summed in
    decimal arithmetic with 40 + x/2 digits, which keeps every digit that
    float64 can hold of the result.
    """
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + math.ceil(0.5 * x)
        tiny = decimal.Decimal(10) ** -(ctx.prec - 5)
        sq = (decimal.Decimal(x) / 2) ** 2       # Decimal(float) is exact
        term = (decimal.Decimal(x) / 2) ** m / math.factorial(m)
        total, k = term, 0
        while 2 * k <= x or abs(term) >= tiny:
            k += 1
            term = -term * sq / (k * (m + k))
            total += term
        return float(total)


def bessel_zero(m: int, k: int) -> float:
    """k-th positive zero of J_m by scan-and-bisect (no library calls),
    bisected until the bracket is two adjacent floats."""
    x, step = 1e-6, 0.05
    found = 0
    f0 = bessel_j(m, x)
    while x < 1e3:
        x1 = x + step
        f1 = bessel_j(m, x1)
        if f0 * f1 < 0.0:
            found += 1
            if found == k:
                lo, hi, flo = x, x1, f0
                while lo < 0.5 * (lo + hi) < hi:
                    mid = 0.5 * (lo + hi)
                    fm = bessel_j(m, mid)
                    if flo * fm <= 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                return 0.5 * (lo + hi)
        x, f0 = x1, f1
    raise RuntimeError(f"zero {k} of J_{m} not found")


def disc_dirichlet_energy(m: int, k: int, radius: float = 1.0) -> float:
    """Laplacian Dirichlet level j_{m,k}^2 / (2 R^2) of the flat disc."""
    return bessel_zero(m, k) ** 2 / (2.0 * radius ** 2)


def smallest_real_parts(mat: np.ndarray, k: int) -> np.ndarray:
    """The k eigenvalues of smallest real part of a full dense eig, sorted by
    (Re, Im)."""
    ref = np.linalg.eigvals(mat)
    return ref[np.lexsort((ref.imag, ref.real))][:k]


def two_sided_quotient(lower, diag, upper, x) -> complex:
    """y^T M x / y^T x for the tridiagonal M = (lower, diag, upper), in long
    double, with y = D^2 x for the diagonal D that makes D M D^-1 complex
    symmetric, (D_{j+1} / D_j)^2 = upper_j / lower_j.  y is then the form of
    the left eigenvector, so near an eigenvector x the quotient's error is
    quadratic in the error of x."""
    lower, diag, upper, x = (np.asarray(v, dtype=np.clongdouble)
                             for v in (lower, diag, upper, x))
    y = np.concatenate(([1.0], np.cumprod(upper / lower))) * x
    mx = diag * x
    mx[:-1] += upper * x[1:]
    mx[1:] += lower * x[:-1]
    return np.sum(y * mx) / np.sum(y * x)


def fd_curvatures(S, rho: np.ndarray, h: float = 1e-4):
    """(Z, H, K) with S_rho and S_rhorho taken by central differences of S."""
    rho = np.asarray(rho, dtype=float)
    sr = (np.asarray(S(rho + h)) - np.asarray(S(rho - h))) / (2.0 * h)
    srr = (np.asarray(S(rho + h)) - 2.0 * np.asarray(S(rho))
           + np.asarray(S(rho - h))) / (h * h)
    Z = np.sqrt(1.0 + sr * sr)
    H = -0.5 * (sr / (Z * rho) + srr / Z ** 3)
    K = sr * srr / (rho * Z ** 4)
    return Z, H, K


def open_chart(H, K, q, margin: float = 0.01) -> np.ndarray:
    """Whether F(t) = 1 + 2 t H + t^2 K stays above margin for t from 0 to q, per point.

    These are the points of the offset chart away from its fold F = 0, where
    h1 h2 = rho Z F is checked to a relative bound (50 samples of the path).
    """
    t = np.linspace(0.0, 1.0, 50) * np.asarray(q)[..., None]
    F = 1.0 + 2.0 * t * np.asarray(H)[..., None] + t * t * np.asarray(K)[..., None]
    return F.min(axis=-1) > margin
