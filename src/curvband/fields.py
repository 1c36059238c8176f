"""Static vector potentials in the surface-adapted frame.

A field is one vectorized map (rho, q) -> (A1, A2, A3) of its physical
components along the adapted frame (e1, e2, e3).  Components must
be axisymmetric; Cartesian fields are admitted through projection and
checked for axisymmetry at construction.

The divergence in the offset chart,

    div A = [d/drho (h2 A1) + d/dq (h1 h2 A3)] / (h1 h2),

doubles as the numeric gauge diagnostic: a potential is accepted as
divergence-free when |div A| stays below a caller tolerance on the grid.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ChartDegenerateError, DomainError, EvaluationError
from .geometry import (SurfaceProfile, _farr, _finite, _positive, _surface,
                       offset_scale_factors)

# step for the q-derivative in the divergence
Q_STEP = 1e-5


def frame_synthetic(a1=0.0, a2=0.0, a3=0.0,
                    gamma_interval: Optional[Tuple[float, float]] = None) -> Callable:
    """Field given directly by frame components (constants or callables).

    gamma_interval = (lo, hi) restricts the support to lo <= rho <= hi with
    hard edges; outside, all components vanish.
    """
    for name, value in (("a1", a1), ("a2", a2), ("a3", a3)):
        if not callable(value):
            _finite(name, value)
    if gamma_interval is not None:
        if len(gamma_interval) != 2:
            raise DomainError(f"gamma_interval must be a (lo, hi) pair, got {gamma_interval}")
        lo, hi = float(gamma_interval[0]), float(gamma_interval[1])
        _finite("gamma_interval lo", lo)
        _finite("gamma_interval hi", hi)
        if not lo <= hi:
            raise DomainError(f"gamma_interval must be ordered, got {gamma_interval}")

    def components(rho, q):
        r = _farr(rho)
        out = tuple(np.broadcast_to(_farr(v(r, q) if callable(v) else float(v)),
                                    r.shape).astype(float) for v in (a1, a2, a3))
        if gamma_interval is not None:
            mask = ((r >= lo) & (r <= hi)).astype(float)
            for value in out:
                value *= mask
        return out

    return components


def zero_field() -> Callable:
    return frame_synthetic(0.0, 0.0, 0.0)


# ----------------------------------------------------------------------
# Cartesian fields and projection
# ----------------------------------------------------------------------

def _frame_components(cartesian_field: Callable, profile: SurfaceProfile,
                      rho, phi: float, q):
    """Project a Cartesian field onto the adapted frame at (rho, phi, q).

    The field is evaluated at r(rho, phi) + q e3 and dotted with the frame
    e1 = (cos phi, sin phi, S_rho)/Z (along increasing rho), e2 = (-sin phi,
    cos phi, 0) and e3 = (-S_rho cos phi, -S_rho sin phi, 1)/Z (the unit
    normal), which is orthonormal and right-handed, e1 x e2 = e3.
    """
    r = _farr(rho)
    surf = _surface(profile, r, checked=False)
    sr, Z = surf.S_rho, surf.Z
    S = _farr(profile.S(r))
    c, s = np.cos(phi), np.sin(phi)
    rad = r - q * sr / Z          # cylindrical radius of the offset point
    x, y, z = rad * c, rad * s, S + q / Z
    # a component given as a constant holds at every point
    fx, fy, fz = (np.broadcast_to(np.asarray(v, dtype=float), x.shape)
                  for v in cartesian_field(x, y, z))
    a1 = (fx * c + fy * s + fz * sr) / Z
    a2 = -fx * s + fy * c
    a3 = (-fx * sr * c - fy * sr * s + fz) / Z
    return a1, a2, a3


def _projected(cartesian_field: Callable, profile: SurfaceProfile) -> Callable:
    """Field sampling an axisymmetric Cartesian field at phi = 0, one projection per call."""
    return lambda rho, q: _frame_components(cartesian_field, profile, rho, 0.0, q)


def from_cartesian(cartesian_field: Callable, profile: SurfaceProfile) -> Callable:
    """Field from a Cartesian field (x, y, z) -> (fx, fy, fz), each an array or a constant.

    Components are sampled at phi = 0, which is exact only when the frame
    components carry no phi dependence; a spot check at several angles
    enforces this.
    """
    probes = np.array([0.25, 0.55, 0.9]) * profile.rho_max
    base = np.array(_frame_components(cartesian_field, profile, probes, 0.0, 0.0))
    scale = max(1.0, np.abs(base).max())
    for phi in (1.1, 2.7, 4.3):
        other = np.array(_frame_components(cartesian_field, profile, probes, phi, 0.0))
        if np.abs(other - base).max() > 1e-10 * scale:
            raise EvaluationError(
                "cartesian field has phi-dependent frame components; "
                "only axisymmetric fields are supported"
            )
    return _projected(cartesian_field, profile)


def axial_uniform(b: float, profile: SurfaceProfile) -> Callable:
    """Symmetric gauge of a uniform axial magnetic field: (B/2)(-y, x, 0).

    Purely azimuthal in the adapted frame (A1 = A3 = 0 identically), hence
    exactly divergence-free.  DomainError names a b whose |b| rho_max passes float64's
    range, where the components (b/2) x and (b/2) y would overflow at the wall.
    """
    _finite("b", b)
    if not abs(b) * profile.rho_max <= sys.float_info.max:  # a Python float: inf, no warning
        raise DomainError(f"b must keep |b| rho_max within {sys.float_info.max:.6g}, where "
                          f"(b/2) rho, the field at radius rho, is a float64 number at every "
                          f"rho the divergence reads, got {b} at rho_max = {profile.rho_max}")

    def field(x, y, z):
        return -0.5 * b * y, 0.5 * b * x, np.zeros_like(_farr(z))

    return _projected(field, profile)


def cartesian_constant(c: float, profile: SurfaceProfile) -> Callable:
    """Constant Cartesian field (0, 0, c) projected onto the frame."""
    _finite("c", c)

    def field(x, y, z):
        zz = _farr(z)
        return np.zeros_like(zz), np.zeros_like(zz), np.full_like(zz, float(c))

    return _projected(field, profile)


# ----------------------------------------------------------------------
# divergence diagnostic
# ----------------------------------------------------------------------

def divergence(A: Callable, profile: SurfaceProfile,
               rho, q: float = 0.0,
               step_rho: Optional[float] = None):
    """Numeric divergence of A at (rho, q) by central differences.

    rho is a scalar (a float is returned) or an array of radii.  The
    rho-derivative uses step_rho (default 1e-5 * rho_max); both the profile
    and the field must be evaluable within one step of each point.
    """
    h = step_rho if step_rho is not None else 1e-5 * profile.rho_max
    _positive("step_rho", h)
    _finite("q", q)
    r = _farr(rho)
    too_close = r < h * (1.0 - 1e-12)
    if np.any(too_close):
        raise DomainError(f"rho = {r[too_close].flat[0]} smaller than differencing step {h}")

    def radial_flux(rr):
        _, h2 = offset_scale_factors(profile, rr, q)
        return h2 * A(rr, q)[0]

    def normal_flux(qq):
        h1, h2 = offset_scale_factors(profile, r, qq)
        return h1 * h2 * A(r, qq)[2]

    d_rho = (radial_flux(r + h) - radial_flux(r - h)) / (2.0 * h)
    d_q = (normal_flux(q + Q_STEP) - normal_flux(q - Q_STEP)) / (2.0 * Q_STEP)
    h1, h2 = offset_scale_factors(profile, r, q)
    denom = h1 * h2
    folded = denom <= 0.0
    if np.any(folded):
        raise ChartDegenerateError(f"chart degenerate at rho={r[folded].flat[0]}, q={q}")
    div = (d_rho + d_q) / denom
    return float(div) if div.ndim == 0 else div


@dataclass(frozen=True)
class GaugeReport:
    """Outcome of the divergence-free check over a radial grid.

    values holds the divergence at every grid node, or None when the
    evaluation failed (see note).
    """

    passed: bool
    max_violation: float
    at_rho: float
    tol: float
    note: str = ""
    values: Optional[np.ndarray] = dc_field(default=None, compare=False)


def is_coulomb_gauge(A: Callable, profile: SurfaceProfile,
                     grid, tol: float) -> GaugeReport:
    """Check |div A| <= tol at every grid node (on-surface, q = 0).

    Diagnostic only: never raises, always reports the worst violation and
    where it occurs.
    """
    try:
        nodes = grid.nodes
        values = divergence(A, profile, nodes, 0.0, step_rho=grid.spacing)
        worst = int(np.argmax(np.abs(values)))
        max_violation = float(abs(values[worst]))
        return GaugeReport(
            passed=bool(max_violation <= tol),
            max_violation=max_violation,
            at_rho=float(nodes[worst]),
            tol=tol,
            values=values,
        )
    except Exception as exc:  # diagnostic never fails hard
        return GaugeReport(
            passed=False, max_violation=float("inf"), at_rho=float("nan"),
            tol=tol, note=f"evaluation failed: {type(exc).__name__}: {exc}",
        )
