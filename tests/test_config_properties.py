"""Property tests of the run-configuration schema (Hypothesis).

Valid documents are drawn for every surface x field kind, each optional
key present or absent, and a key another kind reads only at its default.
Invalid ones are valid documents with one value replaced or added as junk,
or a key another kind reads set off its default, and raw text.  Examples are
derandomized, so every run checks the same cases.  Every schema key is
also checked against its declared type and rule, and each required key
for an error that names it.  Where PyYAML has libyaml, its C loader and
dumper are checked against the pure-Python ones.  Each kind built from a
config is checked bit for bit against a direct call of its constructor.
"""

import copy
import dataclasses
import inspect
import re
import typing
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvband import (ConfigError, RunConfig, config, fields, geometry, parse_config,
                      serialize_config)
from curvband.config import (FIELD_KINDS, MIN_N_POINTS, SURFACE_KINDS, FieldConfig,
                             GridConfig, SurfaceConfig, make_field, make_profile)
from curvband.operator import MODES

PROPERTY = settings(derandomize=True, max_examples=8, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)


def maybe(strategy):
    """A value or null; a null key reads as absent."""
    return st.none() | strategy


# keys each kind requires; a sphere-cap radius is drawn as rho_max + margin
REQUIRED = {"flat": {}, "paraboloid": {"a": finite},
            "gaussian-bump": {"amplitude": finite, "sigma": positive},
            "sphere-cap": {}, "frame-synthetic": {},
            "axial-uniform": {"b": finite}, "cartesian-constant": {"c": finite}}
# keys that only some kinds read; any other kind takes them only at their defaults
READ_BY = {"a": "paraboloid", "amplitude": "gaussian-bump", "sigma": "gaussian-bump",
           "radius": "sphere-cap", "b": "axial-uniform", "c": "cartesian-constant",
           **dict.fromkeys(("a1", "a2", "a3", "gamma_interval"), "frame-synthetic")}


def _some(draw, target, options):
    """Set each key of options not yet in target, or leave it out."""
    for key, strategy in options.items():
        if key not in target and draw(st.booleans()):
            target[key] = draw(strategy)


@st.composite
def documents(draw, surface_kind, field_kind):
    """A valid run document as a dict."""
    surface = {"kind": surface_kind}
    _some(draw, surface, {"rho_max": st.floats(min_value=1e-3, max_value=1e3)})
    limit = surface.get("rho_max", SurfaceConfig.rho_max)
    if surface_kind == "sphere-cap":
        surface["radius"] = limit + draw(st.floats(min_value=1e-2, max_value=1e2))
    surface.update({k: draw(s) for k, s in REQUIRED[surface_kind].items()})
    _some(draw, surface, {k: st.none() for k in ("a", "amplitude", "sigma", "radius")})

    field = {"kind": field_kind}
    field.update({k: draw(s) for k, s in REQUIRED[field_kind].items()})
    if field_kind == FieldConfig.kind and draw(st.booleans()):
        del field["kind"]
    gamma = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(
        lambda pair: sorted(v * limit for v in pair))
    synthetic = field_kind == "frame-synthetic"
    _some(draw, field, {"b": st.none(), "c": st.none(),
                        **{k: finite if synthetic else st.just(0.0) for k in ("a1", "a2", "a3")},
                        "gamma_interval": maybe(gamma) if synthetic else st.none()})

    doc = {"surface": surface}
    if field_kind != FieldConfig.kind:
        doc["field"] = field
    n_points = draw(st.integers(MIN_N_POINTS, 10 ** 6))
    _some(draw, doc, {
        "field": st.just(field),
        "grid": st.just({}) | st.just({"n_points": n_points}),
        "mode": st.sampled_from(MODES),
        "charge_e": finite,
        "m_list": st.lists(st.integers(-50, 50), min_size=1, max_size=4),
        "k_eigen": st.integers(1, min(n_points, GridConfig.n_points, 10 ** 4)),
        "omega": positive,
        "n_normal": st.integers(0, 100),
        "dt": positive,
        "steps": st.integers(1, 10 ** 6),
        "output_path": st.text("abc/._-01", min_size=1, max_size=12),
    })
    return doc


kinds = pytest.mark.parametrize(
    "surface_kind, field_kind", [(s, f) for s in SURFACE_KINDS for f in FIELD_KINDS])


@kinds
@PROPERTY
@given(data=st.data())
def test_serialize_then_parse_is_identity(surface_kind, field_kind, data):
    doc = data.draw(documents(surface_kind, field_kind))
    cfg = parse_config(yaml.safe_dump(doc))
    assert parse_config(serialize_config(cfg)) == cfg
    # given keys keep their values; absent ones take the dataclass defaults
    scalars = {k: v for k, v in doc.items() if k not in ("surface", "field", "grid")}
    assert cfg == RunConfig(surface=SurfaceConfig(**doc["surface"]),
                            field=FieldConfig(**doc.get("field", {})),
                            grid=GridConfig(**doc.get("grid", {})), **scalars)


junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _parses_or_config_error(text):
    try:
        assert isinstance(parse_config(text), RunConfig)
    except ConfigError:
        pass


@st.composite
def corrupted_documents(draw, surface_kind, field_kind):
    """A valid document with one key of one section set to junk."""
    doc = draw(documents(surface_kind, field_kind))
    section, schema = draw(st.sampled_from(
        [(None, RunConfig), ("surface", SurfaceConfig), ("field", FieldConfig),
         ("grid", GridConfig)]))
    target = doc if section is None else doc.setdefault(section, {})
    # any key of the section, a key of another kind included, or an unknown one
    keys = {f.name for f in dataclasses.fields(schema)} | set(target)
    key = draw(st.sampled_from(sorted(keys) + ["unknown_key"]))
    target[key] = draw(junk)
    return doc


@kinds
@PROPERTY
@given(data=st.data())
def test_corrupted_documents_raise_only_config_error(surface_kind, field_kind, data):
    _parses_or_config_error(yaml.safe_dump(data.draw(corrupted_documents(surface_kind,
                                                                         field_kind))))


PURE_YAML = (yaml.SafeLoader, yaml.SafeDumper)
LIBYAML = (getattr(yaml, "CSafeLoader", None), getattr(yaml, "CSafeDumper", None))
needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML is built without libyaml")


def _through(classes, call, arg):
    """call(arg) with config reading and writing YAML through the (loader,
    dumper) classes; ConfigError in place of the ConfigError it raised."""
    with mock.patch.multiple(config, _Loader=classes[0], _Dumper=classes[1]):
        try:
            return call(arg)
        except ConfigError:
            return ConfigError


@needs_libyaml
@kinds
@PROPERTY
@given(data=st.data())
def test_libyaml_and_pure_python_loaders_agree(surface_kind, field_kind, data):
    valid = data.draw(st.booleans())
    doc = data.draw((documents if valid else corrupted_documents)(surface_kind, field_kind))
    text = yaml.safe_dump(doc)
    assert _through(LIBYAML, parse_config, text) == _through(PURE_YAML, parse_config, text)


@needs_libyaml
@kinds
@PROPERTY
@given(data=st.data(), output_path=st.text("abcXYZ019/._-~ ", min_size=1, max_size=200))
def test_libyaml_and_pure_python_dumpers_agree(surface_kind, field_kind, data, output_path):
    cfg = parse_config(yaml.safe_dump(data.draw(documents(surface_kind, field_kind))))
    cfg.output_path = output_path
    echo = _through(LIBYAML, serialize_config, cfg)
    assert echo == _through(PURE_YAML, serialize_config, cfg)
    assert parse_config(echo) == cfg


@pytest.mark.parametrize("text, written", [("1.0e6", "1000000.0"), ("1e6", "1000000.0"),
                                           ("1e-3", "0.001"), ("1e-200", "1.0e-200")])
def test_a_number_yaml_reads_as_a_string_says_how_to_write_it(text, written):
    # YAML 1.1 reads a float only with a dot and a signed exponent, under both loaders
    for classes in (PURE_YAML, LIBYAML):
        with mock.patch.multiple(config, _Loader=classes[0], _Dumper=classes[1]):
            with pytest.raises(ConfigError, match=re.escape(
                    f"config.omega: must be a number, got '{text}', which YAML reads as a "
                    f"string: a float needs a dot, and a sign on its exponent; write {written}")):
                parse_config(f"surface: {{kind: flat}}\nomega: {text}\n")
            assert parse_config(f"surface: {{kind: flat}}\nomega: {written}\n").omega == \
                float(text)
    # a string float() cannot read, or reads as inf, keeps the plain message
    for text in ("fast", "inf", "1e400"):
        with pytest.raises(ConfigError, match=f"^config.omega: must be a number, got '{text}'$"):
            parse_config(f"surface: {{kind: flat}}\nomega: {text}\n")


@kinds
@PROPERTY
@given(data=st.data())
def test_a_key_the_kind_does_not_read_is_named(surface_kind, field_kind, data):
    doc = data.draw(documents(surface_kind, field_kind))
    section, kind = data.draw(st.sampled_from([("surface", surface_kind), ("field", field_kind)]))
    schema = SurfaceConfig if section == "surface" else FieldConfig
    key = data.draw(st.sampled_from(
        [f.name for f in dataclasses.fields(schema) if READ_BY.get(f.name, kind) != kind]))
    limit = doc["surface"].get("rho_max", SurfaceConfig.rho_max)
    doc.setdefault(section, {})[key] = ([0.0, limit] if key == "gamma_interval"
                                        else data.draw(finite.filter(bool)))
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: not read by kind {kind!r}$"):
        parse_config(yaml.safe_dump(doc))


@pytest.mark.parametrize("value", ["null", "[1, 2]", "12", "1.5", "true", "{a: b}"])
def test_output_path_must_be_a_string(value):
    with pytest.raises(ConfigError, match="output_path: must be a string"):
        parse_config(f"surface:\n  kind: flat\noutput_path: {value}\n")


# every key a kind requires, set, so that one can be taken out
COMPLETE = {"surface": {"kind": "flat", "a": 0.5, "amplitude": 0.3, "sigma": 0.5, "radius": 2.0},
            "field": {"kind": "frame-synthetic", "b": 1.0, "c": 0.7}}


REQUIRED_BY_KIND = [("paraboloid", "a"), ("gaussian-bump", "amplitude"),
                    ("gaussian-bump", "sigma"), ("sphere-cap", "radius"),
                    ("axial-uniform", "b"), ("cartesian-constant", "c")]


@pytest.mark.parametrize("kind, key, removal", [
    *[(kind, key, removal) for kind, key in REQUIRED_BY_KIND for removal in ("absent", "null")],
    (None, "kind", "absent"),
])
def test_a_missing_required_key_is_named(kind, key, removal):
    doc = copy.deepcopy(COMPLETE)
    section = "field" if kind in FIELD_KINDS else "surface"
    doc[section]["kind"] = kind
    if removal == "null":
        doc[section][key] = None
    else:
        del doc[section][key]
    with pytest.raises(ConfigError, match=rf"^{section}\.{key}: required"):
        parse_config(yaml.safe_dump(doc))


SECTIONS = {SurfaceConfig: "surface", FieldConfig: "field", GridConfig: "grid", RunConfig: "config"}
SCHEMA_FIELDS = [(schema, f) for schema in SECTIONS for f in dataclasses.fields(schema)]


def _with_value(schema, key, value):
    """A flat-surface document with the key of schema's section set to value."""
    doc = {"surface": {"kind": "flat"}}
    section = doc if schema is RunConfig else doc.setdefault(SECTIONS[schema], {})
    section[key] = value
    return yaml.safe_dump(doc)


def _breaches(rule):
    """One well-typed value for each bound in a field's rule, each out of bounds."""
    return ((["not-a-choice"] if "choices" in rule else [])
            + ([0.0] if rule.get("positive") else [])
            + ([rule["minimum"] - 1] if "minimum" in rule else []))


@pytest.mark.parametrize("schema, f", SCHEMA_FIELDS,
                         ids=[f"{SECTIONS[s]}.{f.name}" for s, f in SCHEMA_FIELDS])
def test_field_type_is_the_resolved_annotation(schema, f):
    # the validator reads f.type, which would be a string under
    # `from __future__ import annotations` in the config module
    assert f.type == typing.get_type_hints(schema)[f.name]


@pytest.mark.parametrize("schema, f", SCHEMA_FIELDS,
                         ids=[f"{SECTIONS[s]}.{f.name}" for s, f in SCHEMA_FIELDS])
def test_every_schema_key_follows_its_declared_rule(schema, f):
    annotation = typing.get_type_hints(schema)[f.name]
    # a section is named by its own key, every other key by section.key
    name = f.name if dataclasses.is_dataclass(annotation) else f"{SECTIONS[schema]}.{f.name}"
    wrong = [1] if dataclasses.is_dataclass(annotation) else {"junk": 1}
    for value in [wrong, *_breaches(f.metadata)]:
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: "):
            parse_config(_with_value(schema, f.name, value))

    # null reads as absent exactly for Optional keys
    if type(None) in typing.get_args(annotation):
        cfg = parse_config(_with_value(schema, f.name, None))
        section = cfg if schema is RunConfig else getattr(cfg, SECTIONS[schema])
        assert getattr(section, f.name) is None
    else:
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: "):
            parse_config(_with_value(schema, f.name, None))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(text=st.text("surfacekindflt:-[]{},.0123456789e\n #!&*", max_size=60))
@example(text="surface:\n  kind: flat\ndt: 2001-13-01\n")
@example(text="surface:\n  kind: flat\ndt: 1" + "0" * 400 + "\n")
@example(text="surface:\n  kind: flat\nfield:\n  gamma_interval: [0, 1" + "0" * 400 + "]\n")
def test_raw_text_raises_only_config_error(text):
    _parses_or_config_error(text)


# each kind as a config section and as a direct constructor call on the same
# values; the field kinds stand on the paraboloid
PARABOLOID = {"kind": "paraboloid", "a": 0.5, "rho_max": 1.3}
BY_HAND = {
    "flat": ({"kind": "flat", "rho_max": 1.3}, None, lambda prof: geometry.flat(1.3)),
    "paraboloid": (PARABOLOID, None, lambda prof: geometry.paraboloid(0.5, 1.3)),
    "gaussian-bump": ({"kind": "gaussian-bump", "amplitude": 0.3, "sigma": 0.5, "rho_max": 1.3},
                      None, lambda prof: geometry.gaussian_bump(0.3, 0.5, 1.3)),
    "sphere-cap": ({"kind": "sphere-cap", "radius": 2.0, "rho_max": 1.3}, None,
                   lambda prof: geometry.sphere_cap(2.0, 1.3)),
    "axial-uniform": (PARABOLOID, {"kind": "axial-uniform", "b": 1.3},
                      lambda prof: fields.axial_uniform(1.3, prof)),
    "cartesian-constant": (PARABOLOID, {"kind": "cartesian-constant", "c": 0.7},
                           lambda prof: fields.cartesian_constant(0.7, prof)),
    "frame-synthetic": (PARABOLOID, {"kind": "frame-synthetic", "a1": 0.3, "a2": 0.2, "a3": -0.4,
                                     "gamma_interval": [0.2, 0.6]},
                        lambda prof: fields.frame_synthetic(0.3, 0.2, -0.4, gamma_interval=(0.2, 0.6))),
}


@pytest.mark.parametrize("kind", [*SURFACE_KINDS, *FIELD_KINDS])
def test_kind_from_config_is_its_constructor_call(kind):
    surface, field, direct = BY_HAND[kind]
    cfg = parse_config(yaml.safe_dump({"surface": surface, **({"field": field} if field else {})}))
    profile = make_profile(cfg)
    rho = np.array([0.0, 1e-9, 0.2, 0.45, 0.6, 1.3])

    def bits(values):
        return [np.asarray(v, dtype=float).tobytes() for v in values]

    if field is None:
        built, ref = profile, direct(None)
        assert bits(f(rho) for f in (built.S, built.S_rho, built.S_rhorho)) == \
            bits(f(rho) for f in (ref.S, ref.S_rho, ref.S_rhorho))
    else:
        built, ref = make_field(cfg, profile), direct(profile)
        for q in (0.0, 0.01):
            assert bits(built(rho, q)) == bits(ref(rho, q))


@pytest.mark.parametrize("schema, kinds", [(SurfaceConfig, SURFACE_KINDS),
                                           (FieldConfig, FIELD_KINDS)], ids=["surface", "field"])
def test_section_keys_are_the_constructor_parameters(schema, kinds):
    # each parameter but profile is a key of the section, and some kind reads
    # each key but kind
    parameters = {name for make in kinds.values() for name in inspect.signature(make).parameters}
    assert parameters - {"profile"} == {f.name for f in dataclasses.fields(schema)} - {"kind"}
