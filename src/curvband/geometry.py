"""Differential geometry of axisymmetric surfaces z = S(rho).

Everything derives from the generator S and its first two radial
derivatives: the slope factor Z = sqrt(1 + S_rho^2), the mean curvature H,
the Gaussian curvature K, the adapted orthonormal frame (e1, e2, e3), the
normal-offset scale factors (h1, h2, h3), and the attractive well
-(H^2 - K)/2 felt by a particle pressed onto the surface.

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

from .errors import ChartDegenerateError, DomainError, EvaluationError

# rho below this fraction of rho_max evaluates S_rho/rho by its axis limit
AXIS_EPS_FACTOR = 1e-8
# the usable |q| range keeps F(q) above this margin
F_MARGIN = 0.01


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


@dataclass(frozen=True, eq=False)
class GeometrySample:
    """Pointwise geometric data of a profile at radius rho.

    frame holds the Cartesian components of (e1, e2, e3) as rows.
    valid_q_range is the largest interval around q = 0 on which
    F(q) > F_MARGIN, i.e. where the offset chart is comfortably
    nondegenerate; infinite endpoints mean no restriction.
    """

    rho: float
    Z: float
    H: float
    K: float
    frame: np.ndarray
    valid_q_range: Tuple[float, float]


@dataclass(frozen=True)
class ScaleFactors:
    """One-form scale factors of the offset chart at normal distance q."""

    h1: float
    h2: float
    h3: float
    q: float


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


def _chart_factor(H: float, K: float, q: float, rho) -> float:
    """F(q) = 1 + 2qH + q^2 K at radius rho; ChartDegenerateError if F <= 0."""
    _finite("q", q)
    F = 1.0 + 2.0 * q * H + q * q * K
    if F <= 0.0:
        raise ChartDegenerateError(f"chart degenerate at rho={rho}, q={q}: F={F}")
    return F


def _q_interval(H: float, K: float) -> Tuple[float, float]:
    """Largest interval around 0 with 1 + 2qH + q^2 K > F_MARGIN."""
    c0 = 1.0 - F_MARGIN
    roots = []
    if K == 0.0:
        if H != 0.0:
            roots = [-c0 / (2.0 * H)]
    else:
        disc = H * H - K * c0
        if disc >= 0.0:
            s = math.sqrt(disc)
            roots = [(-H - s) / K, (-H + s) / K]
    lo = max((x for x in roots if x < 0.0), default=-math.inf)
    hi = min((x for x in roots if x > 0.0), default=math.inf)
    return lo, hi


def frame_vectors(profile: SurfaceProfile, rho: float, phi: float):
    """Adapted orthonormal right-handed frame at (rho, phi).

    e1 points along increasing rho on the surface, e2 along increasing phi,
    e3 along the unit normal; e1 x e2 = e3 exactly.
    """
    surf = _surface(profile, float(rho))
    sr, Z = float(surf.S_rho), float(surf.Z)
    c, s = math.cos(phi), math.sin(phi)
    e1 = np.array([c, s, sr]) / Z
    e2 = np.array([-s, c, 0.0])
    e3 = np.array([-sr * c, -sr * s, 1.0]) / Z
    return e1, e2, e3


def eval_geometry(profile: SurfaceProfile, rho: float, phi: float = 0.0) -> GeometrySample:
    """Full geometric sample at one radius (frame taken at angle phi)."""
    Z, H, K = curvatures(profile, float(rho))
    e1, e2, e3 = frame_vectors(profile, float(rho), phi)
    return GeometrySample(
        rho=float(rho),
        Z=float(Z),
        H=float(H),
        K=float(K),
        frame=np.vstack([e1, e2, e3]),
        valid_q_range=_q_interval(float(H), float(K)),
    )


def offset_scale_factors(profile: SurfaceProfile, rho, q) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized (h1, h2) of the offset chart; h3 is identically 1.

    h1 = Z (1 - q S_rhorho / Z^3) and h2 = rho (1 - q S_rho/(Z rho)),
    written in forms regular at the axis.
    """
    r = _farr(rho)
    s = _surface(profile, r, checked=False)
    h1 = s.Z - q * s.S_rhorho / s.Z ** 2
    h2 = r * (1.0 - q * s.ratio / s.Z)
    return h1, h2


def scale_factors(sample: GeometrySample, profile: SurfaceProfile, q: float) -> ScaleFactors:
    """Scale factors at normal offset q from the sampled surface point.

    Raises ChartDegenerateError when F(q) = 1 + 2qH + q^2 K <= 0, where the
    offset chart folds onto itself.
    """
    _chart_factor(sample.H, sample.K, q, sample.rho)
    h1, h2 = offset_scale_factors(profile, sample.rho, q)
    return ScaleFactors(h1=float(h1), h2=float(h2), h3=1.0, q=q)


def curvature_potential(sample: GeometrySample) -> float:
    """Binding well -(H^2 - K)/2; zero on planes and at umbilic points."""
    return -0.5 * (sample.H ** 2 - sample.K)
