"""Differential geometry of axisymmetric surfaces z = S(rho).

Everything derives from the generator S and its first two radial
derivatives: the slope factor Z = sqrt(1 + S_rho^2), the mean curvature H,
the Gaussian curvature K (curvatures) and the normal-offset scale factors
h1, h2 (offset_scale_factors; h3 = 1).  The adapted frame (e1, e2, e3) is
fields._frame_components, and the attractive well -(H^2 - K)/2 felt by a
particle pressed onto the surface sits on the operator's diagonal.

Key identities used throughout the package and its tests:

    h1 * h2 = rho * Z * F(q),   F(q) = 1 + 2 q H + q^2 K
    H^2 - K = ((S_rho/(Z rho) - S_rhorho/Z^3)/2)^2  >=  0

All evaluators are pure functions over immutable profiles, so results can
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .errors import DomainError, EvaluationError

# rho below this fraction of rho_max evaluates S_rho/rho by its axis limit
AXIS_EPS_FACTOR = 1e-8


def _farr(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _positive(name: str, value) -> None:
    """DomainError naming the argument unless value is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def _finite(name: str, value) -> None:
    """DomainError naming the argument unless value is finite."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SurfaceProfile:
    """Surface of revolution z = S(rho) on [0, rho_max].

    S, S_rho and S_rhorho are vectorized callables of rho.  For a smooth
    axisymmetric surface the generator is even in rho, so S_rho(0) = 0;
    every profile is checked for this at construction.
    """

    name: str
    S: Callable
    S_rho: Callable
    S_rhorho: Callable
    rho_max: float

    def __post_init__(self):
        _positive("rho_max", self.rho_max)
        slope0 = float(self.S_rho(0.0))
        if not math.isfinite(slope0) or abs(slope0) > 1e-10:
            raise EvaluationError(
                f"profile {self.name!r}: S_rho(0) = {slope0} violates axis smoothness"
            )


# ----------------------------------------------------------------------
# profile catalog
# ----------------------------------------------------------------------

def flat(rho_max: float = 1.0) -> SurfaceProfile:
    """Plane z = 0 (Z = 1, H = K = 0 everywhere)."""
    return SurfaceProfile(
        name="flat",
        S=lambda r: np.zeros_like(_farr(r)),
        S_rho=lambda r: np.zeros_like(_farr(r)),
        S_rhorho=lambda r: np.zeros_like(_farr(r)),
        rho_max=rho_max,
    )


def paraboloid(a: float, rho_max: float = 1.0) -> SurfaceProfile:
    """Paraboloid of revolution z = a rho^2."""
    _finite("a", a)
    return SurfaceProfile(
        name="paraboloid",
        S=lambda r: a * _farr(r) ** 2,
        S_rho=lambda r: 2.0 * a * _farr(r),
        S_rhorho=lambda r: np.full_like(_farr(r), 2.0 * a),
        rho_max=rho_max,
    )


def gaussian_bump(amplitude: float, sigma: float, rho_max: float = 1.0) -> SurfaceProfile:
    """Gaussian bump z = A exp(-rho^2 / sigma^2); mixed-sign curvature."""
    _finite("amplitude", amplitude)
    if not sigma > 0:  # sigma = inf is a flat profile at height amplitude
        raise DomainError(f"sigma must be positive, got {sigma}")

    def S(r):
        r = _farr(r)
        return amplitude * np.exp(-(r ** 2) / sigma ** 2)

    def S_rho(r):
        r = _farr(r)
        return -2.0 * amplitude * r / sigma ** 2 * np.exp(-(r ** 2) / sigma ** 2)

    def S_rhorho(r):
        r = _farr(r)
        return (
            amplitude
            * np.exp(-(r ** 2) / sigma ** 2)
            * (4.0 * r ** 2 / sigma ** 4 - 2.0 / sigma ** 2)
        )

    return SurfaceProfile("gaussian-bump", S, S_rho, S_rhorho, rho_max)


def sphere_cap(radius: float, rho_max: float) -> SurfaceProfile:
    """Spherical cap z = sqrt(R^2 - rho^2) - R, an umbilic surface.

    H = 1/R and K = 1/R^2 are constant, so H^2 - K vanishes identically;
    handy as an exact reference.  Requires rho_max < radius.
    """
    _positive("radius", radius)
    _positive("rho_max", rho_max)
    if not rho_max < radius:
        raise DomainError(f"sphere cap needs rho_max < radius, got {rho_max} >= {radius}")

    def S(r):
        r = _farr(r)
        return np.sqrt(radius ** 2 - r ** 2) - radius

    def S_rho(r):
        r = _farr(r)
        return -r / np.sqrt(radius ** 2 - r ** 2)

    def S_rhorho(r):
        r = _farr(r)
        return -(radius ** 2) / (radius ** 2 - r ** 2) ** 1.5

    return SurfaceProfile("sphere-cap", S, S_rho, S_rhorho, rho_max)


def catalog(rho_max: float = 1.0) -> dict:
    """The four built-in profiles at default parameters, keyed by name."""
    return {
        "flat": flat(rho_max),
        "paraboloid": paraboloid(0.5, rho_max),
        "gaussian-bump": gaussian_bump(0.3, 0.5, rho_max),
        "sphere-cap": sphere_cap(2.0 * rho_max, rho_max),
    }


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def _axis_ratio(profile: SurfaceProfile, rho: np.ndarray, sr: np.ndarray) -> np.ndarray:
    """S_rho/rho with the removable axis singularity resolved to S_rhorho(0)."""
    eps = AXIS_EPS_FACTOR * profile.rho_max
    near = rho < eps
    safe = np.where(near, 1.0, rho)
    srr0 = float(profile.S_rhorho(0.0))
    return np.where(near, srr0, sr / safe)


class _Surface(NamedTuple):
    """S_rho, S_rhorho, Z and the axis-regular ratio S_rho/rho at some radii."""

    S_rho: np.ndarray
    S_rhorho: np.ndarray
    Z: np.ndarray
    ratio: np.ndarray

    def curvatures(self):
        """(Z, H, K); see the module-level curvatures."""
        H = -0.5 * (self.ratio / self.Z + self.S_rhorho / self.Z ** 3)
        return self.Z, H, self.ratio * self.S_rhorho / self.Z ** 4


def _surface(profile: SurfaceProfile, rho, checked: bool = True) -> _Surface:
    """Evaluate the profile once; checked rejects radii outside [0, rho_max]
    and non-finite derivatives."""
    r = _farr(rho)
    outside = ~((r >= 0.0) & (r <= profile.rho_max))  # nan is outside
    if checked and np.any(outside):
        raise DomainError(f"rho = {r[outside].flat[0]} outside [0, {profile.rho_max}] "
                          f"for profile {profile.name!r}")
    sr = _farr(profile.S_rho(r))
    srr = _farr(profile.S_rhorho(r))
    if checked and not (np.all(np.isfinite(sr)) and np.all(np.isfinite(srr))):
        raise EvaluationError(f"profile {profile.name!r} derivatives non-finite on input")
    return _Surface(sr, srr, np.sqrt(1.0 + sr * sr), _axis_ratio(profile, r, sr))


def curvatures(profile: SurfaceProfile, rho) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (Z, H, K) at the given radii.

    H = -(S_rho/(Z rho) + S_rhorho/Z^3)/2 and K = S_rho S_rhorho/(rho Z^4),
    with the axis limits H(0) = -S_rhorho(0), K(0) = S_rhorho(0)^2.
    """
    return _surface(profile, rho).curvatures()


def offset_scale_factors(profile: SurfaceProfile, rho, q) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized (h1, h2) of the offset chart; h3 is identically 1.

    h1 = Z (1 - q S_rhorho / Z^3) and h2 = rho (1 - q S_rho/(Z rho)),
    written in forms regular at the axis.  The domain is not checked: the
    divergence stencil's outer point can round past rho_max (n = 92, 116).
    """
    r = _farr(rho)
    s = _surface(profile, r, checked=False)
    h1 = s.Z - q * s.S_rhorho / s.Z ** 2
    h2 = r * (1.0 - q * s.ratio / s.Z)
    return h1, h2
