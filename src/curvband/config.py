"""Run configuration: strict YAML schema, defaults, and factories.

A run is described by one YAML document; the dataclasses below are its
schema.  Each field states its rule once: the annotation gives the type, the
default the value of an absent key (no default: required), and the metadata
any bound (choices, positive, minimum, maximum).  One validator, _section, enforces
them, rejects unknown keys by name and names `section.key` in every error
(`config.key` at the top level).  `null` reads as absent exactly for
Optional keys and is a wrong type anywhere else.  Each kind is its library
constructor: it reads the keys named by the constructor's parameters and
requires those without a default, and a key only other kinds read must keep
its default.  The config checks only what it alone can: types, bounds, choices,
required and foreign keys, k_eigen <= n_points and gamma_interval within
[0, rho_max].  Every other rule of a surface, field or grid is its
constructor's: parse_config builds all three once (build), and names the
section of a constructor's DomainError or EvaluationError, as in
`surface: sigma must be ...` or `grid: n_points must be >= 16, ...`.  So a
config is valid exactly when the library can build it.
serialize_config/parse_config round-trip exactly.

    surface:
      kind: flat | paraboloid | gaussian-bump | sphere-cap
      rho_max: 1.0           # within operator.RHO_MAX_RANGE, [1e-75, 1e+75]
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
from typing import List, Optional, Union, get_args, get_origin

import yaml

from . import fields, geometry
from .errors import ConfigError, DomainError, EvaluationError
from .operator import MODES, RHO_MAX_RANGE, RadialGrid

# libyaml's classes where PyYAML has them, faster than the pure-Python ones at each parse
# and echo (CHANGES.md, "CLI I/O in one pass, YAML through libyaml")
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
    rho_max: float = dc_field(default=1.0, metadata={"minimum": RHO_MAX_RANGE[0],
                                                      "maximum": RHO_MAX_RANGE[1]})
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
    n_points: int = 1000


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
    if not -sys.float_info.max <= value <= sys.float_info.max:  # nan, inf, ints past float range
        raise ConfigError(f"{key}: must be finite and at most {sys.float_info.max:.6g} in "
                          f"magnitude, got {value}")
    if typ is float:
        value = float(value)
    if rule.get("positive") and value <= 0:
        raise ConfigError(f"{key}: must be > 0, got {value}")
    if "minimum" in rule and value < rule["minimum"]:
        raise ConfigError(f"{key}: must be >= {rule['minimum']}, got {value}")
    if "maximum" in rule and value > rule["maximum"]:
        raise ConfigError(f"{key}: must be <= {rule['maximum']}, got {value}")
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
    """The rules that tie one key to another, and through build those of the constructors."""
    sections = (("surface", config.surface), ("field", config.field))
    for where, section in sections:
        for key in _REQUIRED[section.kind]:
            if getattr(section, key) is None:
                raise ConfigError(f"{where}.{key}: required for kind {section.kind!r}")
    for where, section in sections:  # after the required keys of both sections
        for f in _FOREIGN[section.kind]:
            if getattr(section, f.name) != f.default:
                raise ConfigError(f"{where}.{f.name}: not read by kind {section.kind!r}")
    build(config)  # before k_eigen: a grid of 4 nodes is named as such, not by k_eigen
    if config.k_eigen > config.grid.n_points:
        raise ConfigError(f"config.k_eigen: must be <= grid.n_points = {config.grid.n_points}, "
                          f"got {config.k_eigen}")
    rho_max, gamma = config.surface.rho_max, config.field.gamma_interval
    if gamma is not None and not all(0.0 <= v <= rho_max for v in gamma):
        raise ConfigError(f"field.gamma_interval: must lie within [0, rho_max = {rho_max}], "
                          f"got {gamma}")


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


def build(config: RunConfig) -> tuple:
    """(profile, field, grid) of the config.  Each kind is its constructor, called with the
    section key of each parameter's name, and with the profile as profile; ConfigError names
    the section whose constructor raised a DomainError or an EvaluationError."""
    built = []
    try:
        for where, kinds in (("surface", SURFACE_KINDS), ("field", FIELD_KINDS)):
            section = getattr(config, where)
            built.append(kinds[section.kind](**{
                name: built[0] if name == "profile" else getattr(section, name)
                for name in _PARAMETERS[section.kind]}))
        where = "grid"
        built.append(RadialGrid(n_points=config.grid.n_points, rho_max=config.surface.rho_max))
    except (DomainError, EvaluationError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return tuple(built)
