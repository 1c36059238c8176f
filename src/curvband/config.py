"""Run configuration: strict YAML schema, defaults, and factories.

A run is described by one YAML document.  Unknown keys are rejected by
name, every numeric field is validated, and serialize_config/parse_config
round-trip exactly.  The dataclasses below are the schema: accepted keys,
defaults and the serialized document all come from their fields.

    surface:
      kind: flat | paraboloid | gaussian-bump | sphere-cap
      rho_max: 1.0
      a: 0.5                 # paraboloid only
      amplitude: 0.3         # gaussian-bump only
      sigma: 0.5             # gaussian-bump only
      radius: 2.0            # sphere-cap only
    field:
      kind: axial-uniform | cartesian-constant | frame-synthetic
      b: 1.0                 # axial-uniform
      c: 1.0                 # cartesian-constant (z component)
      a1: 0.0                # frame-synthetic
      a2: 0.0
      a3: 0.0
      gamma_interval: [0.2, 0.6]
    grid:
      n_points: 1000
    mode: hermitian-corrected
    charge_e: 1.0
    m_list: [0]
    k_eigen: 6
    omega: 1.0e6
    n_normal: 0
    dt: 1.0e-3
    steps: 1000
    output_path: .
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field as dc_field, fields as dataclass_fields
from typing import List, Optional

import yaml

from . import fields, geometry
from .errors import ConfigError
from .operator import MODES, RadialGrid

SURFACE_KINDS = ("flat", "paraboloid", "gaussian-bump", "sphere-cap")
FIELD_KINDS = ("axial-uniform", "cartesian-constant", "frame-synthetic")

DEFAULT_M_LIST = [0]
MIN_N_POINTS = 16


@dataclass
class SurfaceConfig:
    kind: str
    rho_max: float = 1.0
    a: Optional[float] = None
    amplitude: Optional[float] = None
    sigma: Optional[float] = None
    radius: Optional[float] = None


@dataclass
class FieldConfig:
    kind: str = "frame-synthetic"
    b: Optional[float] = None
    c: Optional[float] = None
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    gamma_interval: Optional[List[float]] = None


@dataclass
class GridConfig:
    n_points: int = 1000


@dataclass
class RunConfig:
    surface: SurfaceConfig
    field: FieldConfig = dc_field(default_factory=FieldConfig)
    grid: GridConfig = dc_field(default_factory=GridConfig)
    mode: str = "hermitian-corrected"
    charge_e: float = 1.0
    m_list: List[int] = dc_field(default_factory=lambda: list(DEFAULT_M_LIST))
    k_eigen: int = 6
    omega: float = 1e6
    n_normal: int = 0
    dt: float = 1e-3
    steps: int = 1000
    output_path: str = "."


def _require_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(mapping: dict, schema, where: str) -> None:
    allowed = [f.name for f in dataclass_fields(schema)]
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _number(mapping: dict, key: str, where: str, default=None, positive: bool = False):
    if key not in mapping or mapping[key] is None:
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # also ints past float range
        raise ConfigError(f"{where}.{key}: must be finite, got {value}")
    value = float(value)
    if positive and value <= 0:
        raise ConfigError(f"{where}.{key}: must be > 0, got {value}")
    return value


def _integer(mapping: dict, key: str, where: str, default=None, minimum=None):
    if key not in mapping or mapping[key] is None:
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def _parse_surface(raw) -> SurfaceConfig:
    raw = _require_mapping(raw, "surface")
    _reject_unknown(raw, SurfaceConfig, "surface")
    kind = raw.get("kind")
    if kind not in SURFACE_KINDS:
        raise ConfigError(f"surface.kind: must be one of {SURFACE_KINDS}, got {kind!r}")
    cfg = SurfaceConfig(
        kind=kind,
        rho_max=_number(raw, "rho_max", "surface", default=SurfaceConfig.rho_max, positive=True),
        a=_number(raw, "a", "surface"),
        amplitude=_number(raw, "amplitude", "surface"),
        sigma=_number(raw, "sigma", "surface"),
        radius=_number(raw, "radius", "surface"),
    )
    if kind == "paraboloid" and cfg.a is None:
        raise ConfigError("surface.a: required for kind 'paraboloid'")
    if kind == "gaussian-bump" and (cfg.amplitude is None or cfg.sigma is None):
        raise ConfigError("surface.amplitude and surface.sigma: required for kind 'gaussian-bump'")
    if kind == "gaussian-bump" and cfg.sigma <= 0:
        raise ConfigError(f"surface.sigma: must be > 0, got {cfg.sigma}")
    if kind == "sphere-cap":
        if cfg.radius is None:
            raise ConfigError("surface.radius: required for kind 'sphere-cap'")
        if not cfg.radius > cfg.rho_max:
            raise ConfigError(
                f"surface.radius: must exceed rho_max = {cfg.rho_max}, got {cfg.radius}"
            )
    return cfg


def _parse_field(raw, rho_max: float) -> FieldConfig:
    raw = _require_mapping(raw, "field")
    _reject_unknown(raw, FieldConfig, "field")
    kind = raw.get("kind", FieldConfig.kind)
    if kind not in FIELD_KINDS:
        raise ConfigError(f"field.kind: must be one of {FIELD_KINDS}, got {kind!r}")
    gamma = raw.get("gamma_interval")
    if gamma is not None:
        if (not isinstance(gamma, list) or len(gamma) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in gamma)):
            raise ConfigError(f"field.gamma_interval: must be a [lo, hi] pair, got {gamma!r}")
        if not (0.0 <= gamma[0] <= gamma[1] <= rho_max):
            raise ConfigError(
                f"field.gamma_interval: need 0 <= lo <= hi <= rho_max = {rho_max}, got {gamma}"
            )
        gamma = [float(gamma[0]), float(gamma[1])]
    cfg = FieldConfig(
        kind=kind,
        b=_number(raw, "b", "field"),
        c=_number(raw, "c", "field"),
        a1=_number(raw, "a1", "field", default=FieldConfig.a1),
        a2=_number(raw, "a2", "field", default=FieldConfig.a2),
        a3=_number(raw, "a3", "field", default=FieldConfig.a3),
        gamma_interval=gamma,
    )
    if kind == "axial-uniform" and cfg.b is None:
        raise ConfigError("field.b: required for kind 'axial-uniform'")
    if kind == "cartesian-constant" and cfg.c is None:
        raise ConfigError("field.c: required for kind 'cartesian-constant'")
    return cfg


def parse_config(text: str, overrides: Optional[dict] = None) -> RunConfig:
    """Parse and validate a YAML run configuration with defaults resolved.

    overrides (the CLI flags) replace document keys before validation; a
    nested mapping such as {"grid": {"n_points": 400}} only the keys it names.
    """
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: e.g. a date 2001-13-01
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"config parse error{line}: {exc}") from exc

    raw = _require_mapping(raw, "config")
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            value = {**_require_mapping(raw.get(key), key), **value}
        raw[key] = value
    _reject_unknown(raw, RunConfig, "config")
    if "surface" not in raw:
        raise ConfigError("surface: required")
    surface = _parse_surface(raw["surface"])
    field_cfg = _parse_field(raw.get("field"), surface.rho_max)

    grid_raw = _require_mapping(raw.get("grid"), "grid")
    _reject_unknown(grid_raw, GridConfig, "grid")
    grid = GridConfig(
        n_points=_integer(grid_raw, "n_points", "grid",
                          default=GridConfig.n_points, minimum=MIN_N_POINTS)
    )

    mode = raw.get("mode", RunConfig.mode)
    if mode not in MODES:
        raise ConfigError(f"mode: must be one of {MODES}, got {mode!r}")

    output_path = raw.get("output_path", RunConfig.output_path)
    if not isinstance(output_path, str):
        raise ConfigError(f"output_path: must be a string, got {output_path!r}")

    m_list = raw.get("m_list", list(DEFAULT_M_LIST))
    if (not isinstance(m_list, list) or not m_list
            or any(isinstance(v, bool) or not isinstance(v, int) for v in m_list)):
        raise ConfigError(f"m_list: must be a non-empty list of integers, got {m_list!r}")

    return RunConfig(
        surface=surface,
        field=field_cfg,
        grid=grid,
        mode=mode,
        charge_e=_number(raw, "charge_e", "config", default=RunConfig.charge_e),
        m_list=list(m_list),
        k_eigen=_integer(raw, "k_eigen", "config", default=RunConfig.k_eigen, minimum=1),
        omega=_number(raw, "omega", "config", default=RunConfig.omega, positive=True),
        n_normal=_integer(raw, "n_normal", "config", default=RunConfig.n_normal, minimum=0),
        dt=_number(raw, "dt", "config", default=RunConfig.dt, positive=True),
        steps=_integer(raw, "steps", "config", default=RunConfig.steps, minimum=1),
        output_path=output_path,
    )


def serialize_config(config: RunConfig) -> str:
    """YAML document that parse_config maps back to an equal RunConfig."""
    doc = asdict(config)
    for section in ("surface", "field"):
        doc[section] = {k: v for k, v in doc[section].items() if v is not None}
    return yaml.safe_dump(doc, sort_keys=True)


# ----------------------------------------------------------------------
# factories into library objects
# ----------------------------------------------------------------------

def make_profile(config: RunConfig) -> geometry.SurfaceProfile:
    s = config.surface
    if s.kind == "flat":
        return geometry.flat(s.rho_max)
    if s.kind == "paraboloid":
        return geometry.paraboloid(s.a, s.rho_max)
    if s.kind == "gaussian-bump":
        return geometry.gaussian_bump(s.amplitude, s.sigma, s.rho_max)
    return geometry.sphere_cap(s.radius, s.rho_max)


def make_field(config: RunConfig, profile: geometry.SurfaceProfile) -> fields.VectorPotentialSpec:
    f = config.field
    if f.kind == "axial-uniform":
        return fields.axial_uniform(f.b, profile)
    if f.kind == "cartesian-constant":
        return fields.cartesian_constant(f.c, profile)
    gamma = tuple(f.gamma_interval) if f.gamma_interval is not None else None
    return fields.frame_synthetic(f.a1, f.a2, f.a3, gamma_interval=gamma)


def make_grid(config: RunConfig) -> RadialGrid:
    return RadialGrid(n_points=config.grid.n_points, rho_max=config.surface.rho_max)
