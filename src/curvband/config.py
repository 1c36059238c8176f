"""Run configuration: strict YAML schema, defaults, and factories.

A run is described by one YAML document; the dataclasses below are its
schema.  Each field states its rule once: the annotation gives the type, the
default the value of an absent key (no default: required), and the metadata
any bound (choices, positive, minimum).  One validator, _section, enforces
them, rejects unknown keys by name and names `section.key` in every error
(`config.key` at the top level).  `null` reads as absent exactly for
Optional keys and is a wrong type anywhere else.  Each kind is its library
constructor: it reads the keys named by the constructor's parameters and
requires those without a default, and a key only other kinds read must keep
its default.  Other rules that tie keys together stay explicit: gaussian-bump
sigma > 0, sphere-cap radius > rho_max, gamma_interval a [lo, hi] pair within
[0, rho_max], k_eigen <= n_points, dt * steps >= solver.MIN_SPAN.
serialize_config/parse_config round-trip exactly.

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
    omega: 1.0e+6          # YAML 1.1 reads 1.0e6 and 1e6 as strings
    n_normal: 0
    dt: 1.0e-3
    steps: 1000
    output_path: .
"""

# no `from __future__ import annotations`: _section reads each key's type
# from its dataclass field, which holds the annotation itself only while the
# annotations are real objects, not strings
import inspect
import sys
from dataclasses import MISSING, asdict, dataclass, field as dc_field, fields as dataclass_fields
from dataclasses import is_dataclass
from typing import Callable, List, Optional, Union, get_args, get_origin

import yaml

from . import fields, geometry, solver
from .errors import ConfigError
from .operator import MIN_N_POINTS, MODES, RadialGrid

# libyaml's classes where PyYAML has them: ~0.3 ms per parse or echo, not ~2 and ~1.3 ms
_Loader, _Dumper = ((yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__
                    else (yaml.SafeLoader, yaml.SafeDumper))

SURFACE_KINDS = {"flat": geometry.flat, "paraboloid": geometry.paraboloid,
                 "gaussian-bump": geometry.gaussian_bump, "sphere-cap": geometry.sphere_cap}
FIELD_KINDS = {"axial-uniform": fields.axial_uniform,
               "cartesian-constant": fields.cartesian_constant,
               "frame-synthetic": fields.frame_synthetic}

# each kind is its constructor, whose signature is read once, here.  It takes
# each parameter from the section key of its name, but profile from the caller.
# Besides rho_max, which every surface reads, a key whose parameter has no
# default is required; it is Optional in its section, so null reads as absent.
_PARAMETERS = {kind: inspect.signature(make).parameters
               for kind, make in {**SURFACE_KINDS, **FIELD_KINDS}.items()}
_REQUIRED = {kind: [name for name, p in params.items()
                    if p.default is p.empty and name not in ("rho_max", "profile")]
             for kind, params in _PARAMETERS.items()}


@dataclass
class SurfaceConfig:
    kind: str = dc_field(metadata={"choices": tuple(SURFACE_KINDS)})
    rho_max: float = dc_field(default=1.0, metadata={"positive": True})
    a: Optional[float] = None
    amplitude: Optional[float] = None
    sigma: Optional[float] = None
    radius: Optional[float] = None


@dataclass
class FieldConfig:
    kind: str = dc_field(default="frame-synthetic", metadata={"choices": tuple(FIELD_KINDS)})
    b: Optional[float] = None
    c: Optional[float] = None
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    gamma_interval: Optional[List[float]] = None


@dataclass
class GridConfig:
    n_points: int = dc_field(default=1000, metadata={"minimum": MIN_N_POINTS})


@dataclass
class RunConfig:
    surface: SurfaceConfig
    field: FieldConfig = dc_field(default_factory=FieldConfig)
    grid: GridConfig = dc_field(default_factory=GridConfig)
    mode: str = dc_field(default="hermitian-corrected", metadata={"choices": MODES})
    charge_e: float = 1.0
    m_list: List[int] = dc_field(default_factory=lambda: [0])
    k_eigen: int = dc_field(default=6, metadata={"minimum": 1})
    omega: float = dc_field(default=1e6, metadata={"positive": True})
    n_normal: int = dc_field(default=0, metadata={"minimum": 0})
    dt: float = dc_field(default=1e-3, metadata={"positive": True})
    steps: int = dc_field(default=1000, metadata={"minimum": 1})
    output_path: str = "."


# the fields of a kind's section that only other kinds read; they must hold their defaults
_FOREIGN = {kind: [f for f in dataclass_fields(schema) if f.name not in _PARAMETERS[kind]
                   and any(f.name in _PARAMETERS[other] for other in kinds)]
            for schema, kinds in ((SurfaceConfig, SURFACE_KINDS), (FieldConfig, FIELD_KINDS))
            for kind in kinds}


def _float_hint(value) -> str:
    """How to write value, a string such as 1.0e6, 1e6 or 1e-3 that YAML 1.1 (both loaders)
    reads as a string, as a float; empty unless float() reads it as a finite number."""
    try:
        mantissa, e, exponent = repr(float(value)).partition("e")
    except (TypeError, ValueError):
        return ""
    if not isinstance(value, str) or mantissa.lstrip("-") in ("inf", "nan"):
        return ""
    return (", which YAML reads as a string: a float needs a dot, and a sign on its exponent; "
            f"write {mantissa if '.' in mantissa else mantissa + '.0'}{e}{exponent}")


def _value(value, typ, rule, key: str):
    """value checked against the type typ and the field's rule; key names it in errors."""
    if get_origin(typ) is Union:  # Optional[X]: null reads as absent
        return None if value is None else _value(value, get_args(typ)[0], rule, key)
    if get_origin(typ) is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{key}: must be a non-empty list, got {value!r}")
        return [_value(item, get_args(typ)[0], rule, key) for item in value]
    if typ is str:
        if "choices" in rule and value not in rule["choices"]:
            raise ConfigError(f"{key}: must be one of {rule['choices']}, got {value!r}")
        if not isinstance(value, str):
            raise ConfigError(f"{key}: must be a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float) if typ is float else int):
        raise ConfigError(f"{key}: must be {'a number' if typ is float else 'an integer'}, "
                          f"got {value!r}{_float_hint(value) if typ is float else ''}")
    if typ is float:
        if not -sys.float_info.max <= value <= sys.float_info.max:  # also ints past float range
            raise ConfigError(f"{key}: must be finite, got {value}")
        value = float(value)
    if rule.get("positive") and value <= 0:
        raise ConfigError(f"{key}: must be > 0, got {value}")
    if "minimum" in rule and value < rule["minimum"]:
        raise ConfigError(f"{key}: must be >= {rule['minimum']}, got {value}")
    return value


def _section(raw, schema, where: str):
    """An instance of the schema dataclass from the mapping raw, each key
    checked by its field's rule; a dataclass field is a section of its own."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(raw).__name__}")
    schema_fields = {f.name: f for f in dataclass_fields(schema)}
    for key in raw:
        if key not in schema_fields:
            raise ConfigError(f"{where}: unknown key {key!r}")
    values = {}
    for name, f in schema_fields.items():
        if name in raw:
            values[name] = (_section(raw[name], f.type, name) if is_dataclass(f.type)
                            else _value(raw[name], f.type, f.metadata, f"{where}.{name}"))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}.{name}: required")
    return schema(**values)


def _check_across_keys(config: RunConfig) -> None:
    """The rules that tie one key to another."""
    sections = (("surface", config.surface), ("field", config.field))
    for where, section in sections:
        for key in _REQUIRED[section.kind]:
            if getattr(section, key) is None:
                raise ConfigError(f"{where}.{key}: required for kind {section.kind!r}")
    for where, section in sections:  # after the required keys of both sections
        for f in _FOREIGN[section.kind]:
            if getattr(section, f.name) != f.default:
                raise ConfigError(f"{where}.{f.name}: not read by kind {section.kind!r}")
    if config.k_eigen > config.grid.n_points:
        raise ConfigError(f"config.k_eigen: must be <= grid.n_points = {config.grid.n_points}, "
                          f"got {config.k_eigen}")
    if config.dt * config.steps < solver.MIN_SPAN:
        raise ConfigError(f"config.dt, config.steps: dt * steps must be >= {solver.MIN_SPAN:.6g} "
                          f"for the log-norm fit, got dt = {config.dt}, steps = {config.steps}")
    s = config.surface
    if s.kind == "gaussian-bump" and s.sigma <= 0:
        raise ConfigError(f"surface.sigma: must be > 0, got {s.sigma}")
    if s.kind == "sphere-cap" and not s.radius > s.rho_max:
        raise ConfigError(f"surface.radius: must exceed rho_max = {s.rho_max}, got {s.radius}")
    gamma = config.field.gamma_interval
    if gamma is not None:
        if len(gamma) != 2:
            raise ConfigError(f"field.gamma_interval: must be a [lo, hi] pair, got {gamma!r}")
        if not 0.0 <= gamma[0] <= gamma[1] <= s.rho_max:
            raise ConfigError(
                f"field.gamma_interval: need 0 <= lo <= hi <= rho_max = {s.rho_max}, got {gamma}"
            )


def parse_config(text: str, overrides: Optional[dict] = None) -> RunConfig:
    """Parse and validate a YAML run configuration with defaults resolved.

    overrides (the CLI flags) replace document keys before validation; a
    nested mapping such as {"grid": {"n_points": 400}} only the keys it names.
    """
    try:
        raw = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:  # a date 2001-13-01; libyaml: a lone surrogate
        mark = getattr(exc, "problem_mark", None)
        line = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"config parse error{line}: {exc}") from exc

    if isinstance(raw, dict):  # anything else fails in _section below
        for key, value in (overrides or {}).items():
            if not isinstance(value, dict):
                raw[key] = value
            elif isinstance(raw.setdefault(key, {}), dict):  # else _section names the bad value
                raw[key] = {**raw[key], **value}
    config = _section(raw, RunConfig, "config")
    _check_across_keys(config)
    return config


def serialize_config(config: RunConfig) -> str:
    """YAML document that parse_config maps back to an equal RunConfig."""
    doc = asdict(config)
    for section in ("surface", "field"):
        doc[section] = {k: v for k, v in doc[section].items() if v is not None}
    return yaml.dump(doc, Dumper=_Dumper, sort_keys=True)


# ----------------------------------------------------------------------
# factories into library objects
# ----------------------------------------------------------------------

def _build(kinds: dict, section, profile=None):
    """The section's kind from its constructor, each parameter but profile a section key."""
    return kinds[section.kind](**{name: profile if name == "profile" else getattr(section, name)
                                  for name in _PARAMETERS[section.kind]})


def make_profile(config: RunConfig) -> geometry.SurfaceProfile:
    return _build(SURFACE_KINDS, config.surface)


def make_field(config: RunConfig, profile: geometry.SurfaceProfile) -> Callable:
    return _build(FIELD_KINDS, config.field, profile)


def make_grid(config: RunConfig) -> RadialGrid:
    return RadialGrid(n_points=config.grid.n_points, rho_max=config.surface.rho_max)
