"""Experiment configuration: one JSON document describing the system, the
control task, hyperparameter search, flags, seed, and output paths.  An
optional field the document leaves out is not passed, so the class it
configures supplies its default."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .controller import ControllerConfig
from .gpcore import DEFAULT_HYPERPARAM_BOUNDS
from .kernelops import Hyperparams
from .lodegp import LinearSystem

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


#: The fields of each section.  The document holds these sections and
#: ``seed``; ``flags`` and ``outputs`` may be left out.  Any other key is
#: rejected, so a misspelt field cannot fall back to its default unnoticed.
SECTIONS = {
    "system": ("A", "B", "channel_names"),
    "reference": ("x_ref",),
    "initial": ("x0", "u0"),
    "horizon": ("t0", "t_end", "dt"),
    "bounds": ("z_min", "z_max"),
    "datasets": ("constraint_grid", "past_window", "virtual_start"),
    "hyperparams": ("bounds", "fixed", "jitter"),
    "flags": ("control_application",),
    "outputs": ("directory", "trajectory_csv", "metrics_json", "samples_csv"),
}
OPTIONAL_SECTIONS = ("flags", "outputs")
HYPERPARAM_NAMES = tuple(DEFAULT_HYPERPARAM_BOUNDS)


def _reject_unknown(obj, known, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {where}; expected one of {', '.join(known)}"
        )


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A loaded experiment; each default is that of an absent optional field."""

    system: LinearSystem
    controller: ControllerConfig
    hp_bounds: dict = field(default_factory=dict)
    hp_fixed: dict | None = None
    jitter: float = Hyperparams.jitter
    seed: int = 0
    output_dir: str = "."
    trajectory_csv: str = "trajectory.csv"
    metrics_json: str = "metrics.json"
    samples_csv: str = "samples.csv"


def _field(doc: dict, name: str, parse, optional: bool = False):
    """The document's field ``name`` ("section.key", or a top-level key) read
    by ``parse(value, name)``; None if an optional field is absent."""
    section, _, key = name.rpartition(".")
    sec = doc.get(section, {}) if section else doc
    if key in sec:
        return parse(sec[key], name)
    if optional:
        return None
    raise ConfigError(f"missing field {key!r} in section {section!r}")


def _build(cls, what: str, **fields):
    """``cls`` from the fields the document gives (None marks one it leaves
    out, so ``cls``'s default holds); a ValueError of ``cls`` names ``what``."""
    try:
        return cls(**{key: value for key, value in fields.items() if value is not None})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from None


def _number(value, field: str) -> float:
    """A JSON number as a float, a ConfigError naming ``field`` for anything
    else ("10", true or null), rather than a silent cast."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    return float(value)


def _numbers(value, field: str) -> tuple:
    """A JSON list of numbers as floats (:func:`_number` per entry)."""
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list of numbers, got {value!r}")
    return tuple(_number(v, field) for v in value)


def _matrix(value, field: str) -> list:
    """A JSON list of rows, each a list of numbers (:func:`_numbers`)."""
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list of rows, got {value!r}")
    return [_numbers(row, field) for row in value]


def _names(value, field: str) -> tuple:
    """A JSON list of distinct, non-empty strings, not a string's letters."""
    strings = isinstance(value, list) and all(isinstance(v, str) and v for v in value)
    if not strings or len(set(value)) < len(value):
        raise ConfigError(f"{field} must be a list of distinct, non-empty strings, got {value!r}")
    return tuple(value)


def _text(value, field: str) -> str:
    """A non-empty JSON string; str() would make null the string "None"."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{field} must be a non-empty string, got {value!r}")
    return value


def _integer(value, field: str) -> int:
    """A JSON integer, a ConfigError naming ``field`` for anything else
    (2.7, "3" or true), rather than a silent truncation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return value


def _pair(value, field: str) -> tuple:
    """(lo, hi) as floats, a ConfigError naming ``field`` if not a pair."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ConfigError(f"{field} must be a [lo, hi] pair, got {value!r}") from None
    return _number(lo, field), _number(hi, field)


def _checked(parse, holds, must: str):
    """``parse``, then a ConfigError "<field> must <must>" unless ``holds``."""

    def read(value, field: str):
        value = parse(value, field)
        if not holds(value):
            raise ConfigError(f"{field} must {must}, got {value!r}")
        return value

    return read


_bound = _checked(_pair, lambda b: 0 < b[0] < b[1], "satisfy 0 < lo < hi")
_positive = _checked(_number, lambda v: v > 0, "be positive")
_non_negative = _checked(_number, lambda v: v >= 0, "be >= 0")
_seed = _checked(_integer, lambda n: n >= 0, "be >= 0")
_count = _checked(_integer, lambda n: n >= 1, "be >= 1")
#: ``flags.control_application`` may name the one way a plan is applied:
#: linear between the knots of ``mpc_step``.
_application = _checked(
    lambda value, _: value, lambda v: v == "subgrid_interpolation", 'be "subgrid_interpolation"'
)


def _or_null(parse):
    """``parse``, with null read as "not given", as an absent field is."""
    return lambda value, field: None if value is None else parse(value, field)


def _by_name(parse):
    """An object keyed by hyperparameter names, each value read by ``parse``;
    ``hyperparams.bounds`` and ``hyperparams.fixed`` share it."""

    def read(value, field: str) -> dict:
        _reject_unknown(value, HYPERPARAM_NAMES, field)
        return {n: parse(value[n], f"{field}.{n}") for n in HYPERPARAM_NAMES if n in value}

    return read


def _grid_times(spec, _) -> tuple:
    if isinstance(spec, dict):
        _reject_unknown(spec, ("start", "stop", "count", "times"), "constraint_grid")
    keys = set(spec) if isinstance(spec, dict) else None
    if keys == {"start", "stop", "count"}:
        count = _count(spec["count"], "constraint_grid count")
        start = _number(spec["start"], "constraint_grid start")
        stop = _number(spec["stop"], "constraint_grid stop")
        return tuple(np.linspace(start, stop, count))
    if keys == {"times"}:
        times = spec["times"]
        if not isinstance(times, list):
            raise ConfigError(f"constraint_grid times must be a list, got {times!r}")
        return tuple(_number(t, "constraint_grid times") for t in times)
    raise ConfigError("constraint_grid must give one form: either {start, stop, count} or {times}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file, mapping every construction error to
    ConfigError with a readable message."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown(doc, (*SECTIONS, "seed"), "the config document")
    for name, keys in SECTIONS.items():
        if name in doc:
            _reject_unknown(doc[name], keys, f"section {name!r}")
        elif name not in OPTIONAL_SECTIONS:
            raise ConfigError(f"missing config section {name!r}")

    system = _build(
        LinearSystem,
        "system definition",
        A=_field(doc, "system.A", _matrix),
        B=_field(doc, "system.B", _matrix),
        channel_names=_field(doc, "system.channel_names", _names, optional=True),
    )
    controller = _build(
        ControllerConfig,
        "controller configuration",
        t0=_field(doc, "horizon.t0", _number),
        t_end=_field(doc, "horizon.t_end", _number),
        dt=_field(doc, "horizon.dt", _number),
        x0=_field(doc, "initial.x0", _numbers),
        u0=_field(doc, "initial.u0", _numbers),
        x_ref=_field(doc, "reference.x_ref", _numbers),
        z_min=_field(doc, "bounds.z_min", _numbers),
        z_max=_field(doc, "bounds.z_max", _numbers),
        constraint_grid=_field(doc, "datasets.constraint_grid", _grid_times),
        m_p=_field(doc, "datasets.past_window", _integer, optional=True),
        t_v=_field(doc, "datasets.virtual_start", _or_null(_number), optional=True),
    )
    _field(doc, "flags.control_application", _application, optional=True)
    if controller.n_x != system.n_x or controller.n_u != system.n_u:
        raise ConfigError("initial condition dimensions do not match the system matrices")
    return _build(
        ExperimentConfig,
        "experiment configuration",
        system=system,
        controller=controller,
        hp_bounds=_field(doc, "hyperparams.bounds", _or_null(_by_name(_bound)), optional=True),
        hp_fixed=_field(doc, "hyperparams.fixed", _or_null(_by_name(_positive)), optional=True),
        jitter=_field(doc, "hyperparams.jitter", _non_negative, optional=True),
        seed=_field(doc, "seed", _seed, optional=True),
        output_dir=_field(doc, "outputs.directory", _text, optional=True),
        trajectory_csv=_field(doc, "outputs.trajectory_csv", _text, optional=True),
        metrics_json=_field(doc, "outputs.metrics_json", _text, optional=True),
        samples_csv=_field(doc, "outputs.samples_csv", _text, optional=True),
    )
