"""Experiment configuration: one JSON document describing the system, the
control task, hyperparameter search, flags, seed, and output paths."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .controller import ControllerConfig
from .gpcore import DEFAULT_HYPERPARAM_BOUNDS
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
    "flags": ("constraint_noise_is_variance", "control_application", "subgrid_count"),
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
    system: LinearSystem
    controller: ControllerConfig
    hp_bounds: dict
    hp_fixed: dict | None
    jitter: float
    seed: int
    output_dir: str
    trajectory_csv: str
    metrics_json: str
    samples_csv: str

    @property
    def x_ref(self) -> tuple:
        return self.controller.x_ref


def _section(doc: dict, name: str) -> dict:
    if name not in doc and name in OPTIONAL_SECTIONS:
        return {}
    try:
        sec = doc[name]
    except KeyError:
        raise ConfigError(f"missing config section {name!r}") from None
    _reject_unknown(sec, SECTIONS[name], f"section {name!r}")
    return sec


def _get(sec: dict, name: str, where: str):
    try:
        return sec[name]
    except KeyError:
        raise ConfigError(f"missing field {name!r} in section {where!r}") from None


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


def _integer(value, field: str) -> int:
    """A JSON integer, a ConfigError naming ``field`` for anything else
    (2.7, "3" or true), rather than a silent truncation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return value


def _path(sec: dict, key: str, default: str) -> str:
    """``outputs.<key>``: a non-empty JSON string; str(None) would be "None"."""
    value = sec.get(key, default)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"outputs.{key} must be a non-empty string, got {value!r}")
    return value


def _flag(value, field: str) -> bool:
    """A JSON true or false; bool("false") would be True."""
    if not isinstance(value, bool):
        raise ConfigError(f"{field} must be true or false, got {value!r}")
    return value


def _pair(value, field: str) -> tuple:
    """(lo, hi) as floats, a ConfigError naming ``field`` if not a pair."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ConfigError(f"{field} must be a [lo, hi] pair, got {value!r}") from None
    return _number(lo, field), _number(hi, field)


def _grid_times(spec) -> tuple:
    if isinstance(spec, dict):
        _reject_unknown(spec, ("start", "stop", "count", "times"), "constraint_grid")
    keys = set(spec) if isinstance(spec, dict) else None
    if keys == {"start", "stop", "count"}:
        count = _integer(spec["count"], "constraint_grid count")
        if count < 1:
            raise ConfigError("constraint_grid count must be >= 1")
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

    sys_sec = _section(doc, "system")
    ref_sec = _section(doc, "reference")
    init_sec = _section(doc, "initial")
    hor_sec = _section(doc, "horizon")
    box_sec = _section(doc, "bounds")
    data_sec = _section(doc, "datasets")
    hp_sec = _section(doc, "hyperparams")
    flag_sec = _section(doc, "flags")
    out_sec = _section(doc, "outputs")

    try:
        system = LinearSystem(
            A=np.array(_matrix(_get(sys_sec, "A", "system"), "system.A"), dtype=float),
            B=np.array(_matrix(_get(sys_sec, "B", "system"), "system.B"), dtype=float),
            channel_names=_names(sys_sec.get("channel_names", []), "system.channel_names"),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad system definition: {exc}") from None

    t0 = _number(_get(hor_sec, "t0", "horizon"), "horizon.t0")
    grid = _grid_times(_get(data_sec, "constraint_grid", "datasets"))
    t_v = data_sec.get("virtual_start")
    m_p = _integer(data_sec.get("past_window", 0), "datasets.past_window")
    noise_is_variance = _flag(
        flag_sec.get("constraint_noise_is_variance", False), "flags.constraint_noise_is_variance"
    )
    subgrid_count = _integer(flag_sec.get("subgrid_count", 10), "flags.subgrid_count")

    try:
        controller = ControllerConfig(
            t0=t0,
            t_end=_number(_get(hor_sec, "t_end", "horizon"), "horizon.t_end"),
            dt=_number(_get(hor_sec, "dt", "horizon"), "horizon.dt"),
            x0=_numbers(_get(init_sec, "x0", "initial"), "initial.x0"),
            u0=_numbers(_get(init_sec, "u0", "initial"), "initial.u0"),
            x_ref=_numbers(_get(ref_sec, "x_ref", "reference"), "reference.x_ref"),
            z_min=_numbers(_get(box_sec, "z_min", "bounds"), "bounds.z_min"),
            z_max=_numbers(_get(box_sec, "z_max", "bounds"), "bounds.z_max"),
            constraint_grid=grid,
            m_p=m_p,
            t_v=None if t_v is None else _number(t_v, "datasets.virtual_start"),
            constraint_noise_is_variance=noise_is_variance,
            control_application=str(
                flag_sec.get("control_application", "hold_endpoint")
            ),
            subgrid_count=subgrid_count,
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad controller configuration: {exc}") from None

    if controller.n_x != system.n_x or controller.n_u != system.n_u:
        raise ConfigError(
            "initial condition dimensions do not match the system matrices"
        )

    # absent or null means "not given"; any other non-object is rejected
    bounds_raw = {} if hp_sec.get("bounds") is None else hp_sec["bounds"]
    _reject_unknown(bounds_raw, HYPERPARAM_NAMES, "hyperparams.bounds")
    hp_bounds = {}
    for name in HYPERPARAM_NAMES:
        if name in bounds_raw:
            lo, hi = _pair(bounds_raw[name], f"hyperparams.bounds.{name}")
            if not (0 < lo < hi):
                raise ConfigError(f"hyperparameter bounds for {name} must satisfy 0 < lo < hi")
            hp_bounds[name] = (lo, hi)
    fixed_raw = hp_sec.get("fixed")
    hp_fixed = None
    if fixed_raw is not None:
        _reject_unknown(fixed_raw, HYPERPARAM_NAMES, "hyperparams.fixed")
        hp_fixed = {}
        for name, value in fixed_raw.items():
            value = _number(value, f"hyperparams.fixed.{name}")
            if not value > 0:
                raise ConfigError(f"fixed hyperparameter {name} must be positive")
            hp_fixed[name] = value
    jitter = _number(hp_sec.get("jitter", 1e-8), "hyperparams.jitter")
    if jitter < 0:
        raise ConfigError("jitter must be >= 0")
    seed = _integer(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be >= 0")

    return ExperimentConfig(
        system=system,
        controller=controller,
        hp_bounds=hp_bounds,
        hp_fixed=hp_fixed,
        jitter=jitter,
        seed=seed,
        output_dir=_path(out_sec, "directory", "."),
        trajectory_csv=_path(out_sec, "trajectory_csv", "trajectory.csv"),
        metrics_json=_path(out_sec, "metrics_json", "metrics.json"),
        samples_csv=_path(out_sec, "samples_csv", "samples.csv"),
    )
