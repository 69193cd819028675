"""Config parsing and the command-line surface: exit codes, file outputs,
determinism."""

import dataclasses
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from lodempc import cli, controller, gpcore
from lodempc.cli import ENV_OUTPUT_DIR, main
from lodempc.config import ConfigError, load_config
from lodempc.controller import ControllerConfig
from lodempc.kernelops import Hyperparams
from lodempc.lodegp import LinearSystem, build_prior
from lodempc.polyalg import PolyMatrix

from conftest import DENSE6, run_fresh_python

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def base_doc(out_dir):
    """A small, fast experiment: scalar integrator, fixed hyperparameters."""
    return {
        "system": {"A": [[0.0]], "B": [[1.0]]},
        "reference": {"x_ref": [0.0]},
        "initial": {"x0": [0.5], "u0": [0.0]},
        "horizon": {"t0": 0.0, "t_end": 1.0, "dt": 0.1},
        "bounds": {"z_min": [-2.0, -2.0], "z_max": [2.0, 2.0]},
        "datasets": {
            "constraint_grid": {"start": 0.1, "stop": 1.0, "count": 10},
            "past_window": 0,
        },
        "hyperparams": {
            "fixed": {"signal_variance": 0.5, "lengthscale_sq": 1.0},
            "jitter": 1e-9,
        },
        "seed": 7,
        "outputs": {"directory": str(out_dir)},
    }


def write_doc(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def config_path(tmp_path):
    return write_doc(tmp_path, base_doc(tmp_path / "out"))


# ---------------------------------------------------------------------------
# load_config
# ---------------------------------------------------------------------------


def test_load_config_happy_path(config_path, tmp_path):
    cfg = load_config(config_path)
    assert cfg.system.n_x == 1 and cfg.system.n_u == 1
    assert cfg.controller.n_steps == 10
    assert cfg.controller.constraint_grid == pytest.approx(
        tuple(np.linspace(0.1, 1.0, 10))
    )
    assert cfg.controller.m_p == 0
    assert cfg.controller.t_v is None
    assert cfg.hp_fixed == {"signal_variance": 0.5, "lengthscale_sq": 1.0}
    assert cfg.jitter == 1e-9
    assert cfg.seed == 7
    assert cfg.trajectory_csv == "trajectory.csv"
    assert cfg.metrics_json == "metrics.json"
    assert cfg.samples_csv == "samples.csv"


def test_load_config_explicit_grid_times(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["datasets"]["constraint_grid"] = {"times": [0.2, 0.5, 0.9]}
    cfg = load_config(write_doc(tmp_path, doc))
    assert cfg.controller.constraint_grid == (0.2, 0.5, 0.9)


def test_load_config_flags_section(tmp_path):
    # the one way to apply a plan may be named; naming it changes nothing
    doc = base_doc(tmp_path / "out")
    bare = load_config(write_doc(tmp_path, doc, "bare.json")).controller
    doc["flags"] = {"control_application": "subgrid_interpolation"}
    assert load_config(write_doc(tmp_path, doc)).controller == bare


def test_load_config_absent_optional_fields_take_the_library_defaults(tmp_path):
    # load_config restates no default: an absent field is not passed
    doc = base_doc(tmp_path / "out")
    del doc["datasets"]["past_window"], doc["hyperparams"]["jitter"]
    assert "flags" not in doc and "virtual_start" not in doc["datasets"]
    cfg = load_config(write_doc(tmp_path, doc))
    fields = dataclasses.fields(ControllerConfig)
    optional = [f for f in fields if f.default is not dataclasses.MISSING]
    assert [f.name for f in optional] == ["m_p", "t_v"]
    for f in optional:
        assert getattr(cfg.controller, f.name) == f.default, f.name
    assert cfg.jitter == Hyperparams().jitter


def test_load_config_null_virtual_start_is_not_given(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["datasets"]["virtual_start"] = None
    assert load_config(write_doc(tmp_path, doc)).controller.t_v is None


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


@pytest.mark.parametrize("section", ["system", "reference", "initial", "horizon", "bounds", "datasets", "hyperparams"])
def test_load_config_missing_section(tmp_path, section):
    doc = base_doc(tmp_path / "out")
    del doc[section]
    with pytest.raises(ConfigError, match=section):
        load_config(write_doc(tmp_path, doc))


def test_load_config_rejects_inverted_box(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["bounds"]["z_min"] = [3.0, -2.0]
    with pytest.raises(ConfigError, match="controller"):
        load_config(write_doc(tmp_path, doc))


def test_load_config_rejects_dimension_mismatch(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["initial"]["x0"] = [0.5, 0.5]
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, doc))


def test_load_config_rejects_bad_hp_bounds(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["hyperparams"]["bounds"] = {"signal_variance": [1.0, 0.1]}
    with pytest.raises(ConfigError, match="signal_variance"):
        load_config(write_doc(tmp_path, doc))


def test_load_config_null_bounds_and_fixed_are_not_given(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["hyperparams"].update(bounds=None, fixed=None)
    cfg = load_config(write_doc(tmp_path, doc))
    assert cfg.hp_bounds == {} and cfg.hp_fixed is None


def test_load_config_rejects_unknown_fixed_name(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["hyperparams"]["fixed"] = {"bandwidth": 2.0}
    with pytest.raises(ConfigError, match="bandwidth"):
        load_config(write_doc(tmp_path, doc))


def test_load_config_rejects_negative_jitter(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["hyperparams"]["jitter"] = -1e-9
    with pytest.raises(ConfigError, match="jitter"):
        load_config(write_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "path",
    [(), ("system",), ("reference",), ("initial",), ("horizon",), ("bounds",),
     ("datasets",), ("datasets", "constraint_grid"), ("hyperparams",),
     ("hyperparams", "bounds"), ("hyperparams", "fixed"), ("flags",), ("outputs",)],
)
def test_load_config_rejects_unknown_keys(tmp_path, path):
    doc = base_doc(tmp_path / "out")
    where = doc
    for name in path:
        where = where.setdefault(name, {})
    where["bogus_key"] = 1
    with pytest.raises(ConfigError, match="unknown key 'bogus_key'"):
        load_config(write_doc(tmp_path, doc))


def test_load_config_rejects_bad_grid_spec(tmp_path):
    doc = base_doc(tmp_path / "out")
    doc["datasets"]["constraint_grid"] = {"start": 0.1}
    with pytest.raises(ConfigError, match="constraint_grid"):
        load_config(write_doc(tmp_path, doc))


@pytest.mark.parametrize(
    "spec",
    [
        {"start": 0.1, "stop": 10.0, "count": 100, "times": [0.5]},
        {"start": 0.1, "times": [0.5]},
    ],
    ids=["full-range-and-times", "start-and-times"],
)
def test_run_exit_one_on_a_grid_that_mixes_both_forms(tmp_path, capsys, spec):
    doc = json.loads((CONFIG_DIR / "regulation_past.json").read_text())
    doc["datasets"]["constraint_grid"] = spec
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert "{start, stop, count}" in err and "{times}" in err


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


def test_run_writes_artifacts_and_exits_zero(config_path, tmp_path, capsys):
    assert main(["run", str(config_path)]) == 0
    out = tmp_path / "out"
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t,x1,u1,std_x1,std_u1"
    assert len(csv) == 12  # header + 11 grid rows
    first = csv[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.5
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {
        "constraint_error",
        "control_error",
        "jitter_escalations",
        "max_jitter_boost",
        "wall_time_s",
        "hyperparams",
        "fit",
        "final_state",
    }
    assert metrics["hyperparams"]["signal_variance"] == 0.5
    assert metrics["fit"] is None  # both hyperparameters fixed
    assert (metrics["jitter_escalations"], metrics["max_jitter_boost"]) == (0, 0.0)
    assert abs(metrics["final_state"][0]) < 0.5  # pulled toward the origin
    assert "run complete" in capsys.readouterr().out


def test_run_records_the_jitter_boosts_of_its_steps(tmp_path, monkeypatch):
    # a Cholesky that refuses the first attempt of every factorization: each
    # closed-loop step factors at the first escalated boost, 10 * max(jitter,
    # 1e-10), and metrics.json counts every such step and the largest boost
    doc = base_doc(tmp_path / "out")
    real, refused = gpcore.cho_factor, []

    def refuse_first(a, **kw):
        if not any(a is b for b in refused):
            refused.append(a)
            raise LinAlgError("refused")
        return real(a, **kw)

    monkeypatch.setattr(gpcore, "cho_factor", refuse_first)
    assert main(["run", str(write_doc(tmp_path, doc))]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    n_steps = 10
    assert len(refused) == n_steps  # the fit is bypassed: both fixed
    assert metrics["jitter_escalations"] == n_steps
    assert metrics["max_jitter_boost"] == 10 * max(doc["hyperparams"]["jitter"], 1e-10)


def test_run_reports_a_fit_that_ends_on_a_box_edge(tmp_path):
    # regulation_baseline from this x0 fits signal_variance at its lower bound
    doc = json.loads((CONFIG_DIR / "regulation_baseline.json").read_text())
    doc["initial"]["x0"] = [-0.1031697133354561, -0.1382360249113248]
    doc["outputs"]["directory"] = str(tmp_path / "out")
    assert main(["run", str(write_doc(tmp_path, doc))]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    fit = metrics["fit"]
    assert set(fit) == {
        "log_marginal_likelihood",
        "value_evals",
        "value_and_gradient_evals",
        "failed_evals",
        "starts",
        "at_bound",
    }
    assert fit["at_bound"] == {"signal_variance": "lower"}
    assert metrics["hyperparams"]["signal_variance"] == pytest.approx(0.01, rel=1e-9)
    assert np.isfinite(fit["log_marginal_likelihood"])
    assert (fit["value_evals"], fit["failed_evals"], fit["starts"]) == (25, 0, 1)
    assert fit["value_and_gradient_evals"] > 0


def test_run_loads_neither_scipy_linalg_nor_optimize(tmp_path):
    # a fresh interpreter, as the console script runs: the fit's descent is
    # the package's own and LAPACK comes straight from scipy's compiled
    # module, which leaves sys.modules again, so nothing of these packages
    # is imported; no np.unique takes numpy's hash path, which imports
    # numpy.ma.  scipy.linalg imported afterwards loads that module as its
    # own submodule and works.
    code = (
        "import sys; from lodempc.cli import main; rc = main(sys.argv[1:]); "
        "loaded = [m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.linalg', 'numpy.f2py'))]; "
        "assert not loaded, loaded; assert 'numpy.ma' not in sys.modules; "
        "import numpy as np, scipy.linalg; assert scipy.linalg._flapack.dpotrf; "
        "c, _ = scipy.linalg.cho_factor(np.array([[4.0, 2.0], [2.0, 5.0]]), lower=True); "
        "assert np.allclose(np.tril(c), [[2.0, 0.0], [1.0, 2.0]]), c; sys.exit(rc)"
    )
    done = run_fresh_python(code, "run", str(CONFIG_DIR / "regulation_past.json"), **{ENV_OUTPUT_DIR: str(tmp_path)})
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "trajectory.csv").exists()



def test_run_loads_no_fractions(tmp_path):
    # a fresh interpreter: the exact algebra is int arithmetic, and only
    # reading a reduced coefficient (the algebra command, the tests) imports
    # fractions, which imports decimal
    code = (
        "import sys; import lodempc.cli; banned = ('fractions', 'decimal'); "
        "assert not [m for m in banned if m in sys.modules], 'imported'; "
        "rc = lodempc.cli.main(sys.argv[1:]); "
        "assert not [m for m in banned if m in sys.modules], 'run'; sys.exit(rc)"
    )
    done = run_fresh_python(code, "run", str(CONFIG_DIR / "regulation_past.json"), **{ENV_OUTPUT_DIR: str(tmp_path)})
    assert done.returncode == 0, done.stderr


def test_lapack_reuses_the_module_of_a_loaded_scipy_linalg():
    # a program that imported scipy.linalg first shares its _flapack
    code = (
        "import sys, scipy.linalg; from lodempc import _lapack; "
        "assert _lapack.flapack is scipy.linalg._flapack is sys.modules['scipy.linalg._flapack']"
    )
    done = run_fresh_python(code)
    assert done.returncode == 0, done.stderr

def test_run_is_bit_identical_across_invocations(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "a"))
    assert main(["run", str(config_path)]) == 0
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "b"))
    assert main(["run", str(config_path)]) == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_run_naming_the_one_application_writes_the_same_files(tmp_path, monkeypatch):
    # a flags section naming the one way to apply a plan runs as the
    # document without one, file for file (all but the wall time)
    doc = base_doc(tmp_path / "unused")
    bare = write_doc(tmp_path, doc, "bare.json")
    doc["flags"] = {"control_application": "subgrid_interpolation"}
    named = write_doc(tmp_path, doc, "named.json")
    for name, path in (("a", bare), ("b", named)):
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / name))
        assert main(["run", str(path)]) == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files and files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files:
        a, b = ((tmp_path / name / f).read_bytes() for name in ("a", "b"))
        if f == "metrics.json":
            a, b = (dict(json.loads(m), wall_time_s=None) for m in (a, b))
        assert a == b, f


def test_run_closes_the_loop_on_two_inputs(tmp_path, monkeypatch):
    # no outputs section and no flags: each step applies a two-channel plan
    for name in ("a", "b"):
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / name))
        assert main(["run", str(GOLDEN_DIR / "algebra_two_input.json")]) == 0
    csv = tmp_path / "a" / "trajectory.csv"
    assert csv.read_text().splitlines()[0] == (
        "t,x1,x2,x3,u1,u2,std_x1,std_x2,std_x3,std_u1,std_u2"
    )
    rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (11, 11) and np.isfinite(rows).all()
    assert csv.read_bytes() == (tmp_path / "b" / "trajectory.csv").read_bytes()


def test_run_on_two_inputs_keeps_its_recorded_metrics(tmp_path, monkeypatch):
    # the closed-loop floats of a multi-input run, in the benchmark's band
    # (1e-6 absolute plus 1e-3 relative); recorded with one and with two
    # BLAS threads, which gave the same files
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path))
    assert main(["run", str(GOLDEN_DIR / "algebra_two_input.json")]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    got = {
        "constraint_error": metrics["constraint_error"],
        "control_error": metrics["control_error"],
        "final_state_norm": float(np.linalg.norm(metrics["final_state"])),
    }
    recorded = {
        "constraint_error": 0.0,
        "control_error": 0.20891685241826696,
        "final_state_norm": 0.39270250295768777,
    }
    for name, ref in recorded.items():
        assert abs(got[name] - ref) <= 1e-6 + 1e-3 * abs(ref), (name, got[name], ref)


def test_output_dir_env_override(config_path, tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(override))
    assert main(["run", str(config_path)]) == 0
    assert (override / "trajectory.csv").exists()
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_run_exit_one_on_bad_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_exit_one_on_horizon_off_the_lattice(tmp_path, capsys):
    # t_end follows the grid's rule: at most TIME_TOL off the dt lattice in
    # time.  5e-8 s off would otherwise end the run that much short.
    doc = base_doc(tmp_path / "out")
    doc["horizon"]["t_end"] = 10.00000005
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1
    assert "horizon length must be an integer multiple of dt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("control_aplication", "subgrid_interpolation"),
        # the knot count and the soft-point noise rule are fixed: their
        # former keys are unknown, even at the values that were defaults
        ("subgrid_count", 10),
        ("constraint_noise_is_variance", False),
    ],
)
def test_run_exit_one_on_an_unknown_flag(tmp_path, capsys, key, value):
    # a misspelt or removed key is rejected, not read as missing
    doc = json.loads((CONFIG_DIR / "regulation_past.json").read_text())
    doc["flags"] = {key: value}
    doc["outputs"]["directory"] = str(tmp_path / "out")
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1
    assert f"unknown key '{key}' in section 'flags'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("seed",), "seven", "seed"),
        (("horizon", "t0"), "zero", "horizon.t0"),
        (("datasets", "constraint_grid", "count"), "ten", "constraint_grid count"),
        (("datasets", "constraint_grid", "start"), "0.1s", "constraint_grid start"),
        (("datasets", "constraint_grid", "stop"), None, "constraint_grid stop"),
        (("datasets", "constraint_grid"), {"times": [0.2, "later"]}, "constraint_grid times"),
        (("datasets", "constraint_grid"), {"times": 0.5}, "constraint_grid times"),
        (("hyperparams", "bounds"), {"signal_variance": [0.01]}, "hyperparams.bounds.signal_variance"),
        (("hyperparams", "bounds"), {"lengthscale_sq": ["a", 1.0]}, "hyperparams.bounds.lengthscale_sq"),
        (("hyperparams", "fixed", "signal_variance"), "big", "hyperparams.fixed.signal_variance"),
        (("hyperparams", "jitter"), "1e-9x", "hyperparams.jitter"),
        (("hyperparams", "bounds"), 5, "hyperparams.bounds"),
        (("hyperparams", "fixed"), [0.5, 1.0], "hyperparams.fixed"),
        # integers and flags are taken as written, never truncated or cast
        (("seed",), 1.5, "seed"),
        (("seed",), True, "seed"),
        (("datasets", "past_window"), 2.7, "datasets.past_window"),
        (("datasets", "past_window"), True, "datasets.past_window"),
        (("datasets", "past_window"), "3", "datasets.past_window"),
        (("datasets", "constraint_grid", "count"), 99.5, "constraint_grid count"),
        # numbers are JSON numbers: no numeric strings, no true/false
        (("horizon", "t0"), True, "horizon.t0"),
        (("horizon", "t_end"), "10", "horizon.t_end"),
        (("horizon", "dt"), True, "horizon.dt"),
        (("datasets", "virtual_start"), True, "datasets.virtual_start"),
        (("initial", "x0"), ["0.5"], "initial.x0"),
        (("initial", "u0"), [False], "initial.u0"),
        (("reference", "x_ref"), [None], "reference.x_ref"),
        (("bounds", "z_min"), ["-2", -2.0], "bounds.z_min"),
        (("bounds", "z_max"), [2.0, True], "bounds.z_max"),
        (("bounds", "z_max"), 2.0, "bounds.z_max"),
        (("system", "A"), [["0"]], "system.A"),
        (("system", "B"), [[True]], "system.B"),
        (("system", "B"), 1.0, "system.B"),
        (("hyperparams", "jitter"), True, "hyperparams.jitter"),
        (("hyperparams", "fixed", "signal_variance"), "10", "hyperparams.fixed.signal_variance"),
        (("hyperparams", "bounds"), {"signal_variance": [True, 10.0]}, "hyperparams.bounds.signal_variance"),
        # channel names head the CSV columns: a list of distinct, non-empty
        # strings, never a string's letters
        (("system", "channel_names"), "xu", "system.channel_names"),
        (("system", "channel_names"), [1, 2], "system.channel_names"),
        (("system", "channel_names"), ["x", None], "system.channel_names"),
        (("system", "channel_names"), ["x", ""], "system.channel_names"),
        (("system", "channel_names"), ["x", "x"], "system.channel_names"),
        # a sampling seed is a non-negative integer
        (("seed",), -1, "seed"),
        # absent or null bounds and fixed mean "not given"; a falsy
        # non-object is still not an object
        (("hyperparams", "bounds"), [], "hyperparams.bounds"),
        (("hyperparams", "bounds"), 0, "hyperparams.bounds"),
        (("hyperparams", "bounds"), False, "hyperparams.bounds"),
        (("hyperparams", "bounds"), "", "hyperparams.bounds"),
        (("hyperparams", "fixed"), [], "hyperparams.fixed"),
        (("hyperparams", "fixed"), 0, "hyperparams.fixed"),
        (("hyperparams", "fixed"), False, "hyperparams.fixed"),
        (("hyperparams", "fixed"), "", "hyperparams.fixed"),
        # the application is the one way to apply a plan, named as a JSON
        # string: not the removed zero-order hold, nor another value
        (("flags", "control_application"), "hold_endpoint", "flags.control_application"),
        (("flags", "control_application"), "", "flags.control_application"),
        (("flags", "control_application"), True, "flags.control_application"),
        (("flags", "control_application"), None, "flags.control_application"),
        (("flags", "control_application"), 3, "flags.control_application"),
        (("flags", "control_application"), ["subgrid_interpolation"], "flags.control_application"),
    ],
)
def test_run_exit_one_on_malformed_value(tmp_path, capsys, path, value, field):
    doc = base_doc(tmp_path / "out")
    where = doc
    for name in path[:-1]:
        where = where.setdefault(name, {})
    where[path[-1]] = value
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be")
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [("directory", None), ("trajectory_csv", 7)])
def test_run_exit_one_on_non_string_output_path(tmp_path, capsys, monkeypatch, key, value):
    # str() would make these a directory named None and a file named 7
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    doc = base_doc(tmp_path / "out")
    doc["outputs"][key] = value
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: outputs.{key} must be a non-empty string")
    assert not (tmp_path / "None").exists() and not (tmp_path / "out").exists()


def test_run_exit_one_on_infeasible_reference(tmp_path):
    doc = base_doc(tmp_path / "out")
    # two states, one input: x_ref = (0, 1) forces dx1/dt = 1 with no input
    doc["system"] = {"A": [[0.0, 1.0], [1.0, 1.0]], "B": [[0.0], [1.0]]}
    doc["reference"] = {"x_ref": [0.0, 1.0]}
    doc["initial"] = {"x0": [1.0, 0.0], "u0": [0.0]}
    doc["bounds"] = {"z_min": [-2.0] * 3, "z_max": [2.0] * 3}
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1


def test_run_exit_one_on_non_controllable_system(tmp_path, capsys):
    doc = base_doc(tmp_path / "out")
    doc["system"] = {"A": [[0.0, 0.0], [0.0, 2.0]], "B": [[1.0], [0.0]]}
    doc["reference"] = {"x_ref": [0.0, 0.0]}
    doc["initial"] = {"x0": [1.0, 0.0], "u0": [0.0]}
    doc["bounds"] = {"z_min": [-2.0] * 3, "z_max": [2.0] * 3}
    assert main(["run", str(write_doc(tmp_path, doc))]) == 1
    assert "not controllable" in capsys.readouterr().err


def test_run_exit_two_on_divergence(tmp_path, capsys, monkeypatch):
    # the loop guard converts a state past DIVERGENCE_LIMIT into exit code 2,
    # and no outputs are written
    monkeypatch.setattr(controller, "DIVERGENCE_LIMIT", 0.1)
    assert main(["run", str(write_doc(tmp_path, base_doc(tmp_path / "out")))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state norm") and "closed loop aborted" in err
    assert not (tmp_path / "out").exists()


def test_run_exit_two_on_factorization_failure(tmp_path, capsys, monkeypatch):
    # a Gram that fails to factor at every boost up to MAX_JITTER is exit
    # code 2, after the escalation has tried each boost
    calls = []

    def failing(a, overwrite_a=False):
        calls.append(a.shape)
        raise LinAlgError("LAPACK potrf returned info 1")

    monkeypatch.setattr(gpcore, "cho_factor", failing)
    assert main(["run", str(write_doc(tmp_path, base_doc(tmp_path / "out")))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Cholesky failed")
    assert f"jitter escalated to {gpcore.MAX_JITTER:g}" in err
    assert len(calls) >= 5 and not (tmp_path / "out").exists()


def test_fit_whose_every_probe_fails_exits_two(tmp_path, capsys, monkeypatch):
    # a free-hyperparameter fit in which no probe factors at any boost ends
    # there, for run and samples alike: each of the 25 probes tries the
    # jitter and 5 boosts, no descent starts from an unscored point, and
    # nothing is written
    calls = []

    def failing(a, overwrite_a=False):
        calls.append(a.shape)
        raise LinAlgError("LAPACK potrf returned info 1")

    monkeypatch.setattr(gpcore, "cho_factor", failing)
    doc = json.loads((CONFIG_DIR / "regulation_baseline.json").read_text())
    doc["outputs"]["directory"] = str(tmp_path / "out")
    path = write_doc(tmp_path, doc)
    for command in ("run", "samples"):
        calls.clear()
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: all 25 hyperparameter probes failed to factor")
        assert f"jitter escalated to {gpcore.MAX_JITTER:g}" in err
        assert len(calls) == 25 * 6, command
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# samples subcommand
# ---------------------------------------------------------------------------


def test_samples_rows_and_determinism(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "s1"))
    assert main(["samples", str(config_path), "--count", "3", "--seed", "1"]) == 0
    lines = (tmp_path / "s1" / "samples.csv").read_text().splitlines()
    assert lines[0] == "sample_id,t,channel,value"
    assert len(lines) == 1 + 3 * 11 * 2  # count x grid x channels
    assert lines[1].startswith("0,0.0,x1,")
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "s2"))
    assert main(["samples", str(config_path), "--count", "3", "--seed", "1"]) == 0
    assert (tmp_path / "s1" / "samples.csv").read_bytes() == (
        tmp_path / "s2" / "samples.csv"
    ).read_bytes()
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "s3"))
    assert main(["samples", str(config_path), "--count", "3", "--seed", "2"]) == 0
    assert (tmp_path / "s1" / "samples.csv").read_bytes() != (
        tmp_path / "s3" / "samples.csv"
    ).read_bytes()


def test_samples_default_seed_comes_from_config(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "d1"))
    assert main(["samples", str(config_path), "--count", "2"]) == 0
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "d2"))
    assert main(["samples", str(config_path), "--count", "2", "--seed", "7"]) == 0
    assert (tmp_path / "d1" / "samples.csv").read_bytes() == (
        tmp_path / "d2" / "samples.csv"
    ).read_bytes()


def test_samples_reports_a_fit_that_ends_on_a_box_edge(tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "regulation_baseline.json").read_text())
    doc["hyperparams"]["bounds"]["signal_variance"] = [0.9, 100.0]
    doc["outputs"]["directory"] = str(tmp_path / "out")
    assert main(["samples", str(write_doc(tmp_path, doc)), "--count", "1"]) == 0
    assert 'fit at_bound={"signal_variance": "lower"}' in capsys.readouterr().out.splitlines()


def test_samples_reports_no_fit_when_both_hyperparameters_are_fixed(config_path, capsys):
    assert main(["samples", str(config_path), "--count", "1"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("wrote 1 samples")


def test_samples_count_zero_writes_header_only(config_path, tmp_path):
    assert main(["samples", str(config_path), "--count", "0"]) == 0
    lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert lines == ["sample_id,t,channel,value"]


def test_samples_negative_count_is_config_error(config_path):
    assert main(["samples", str(config_path), "--count", "-1"]) == 1


def test_samples_negative_seed_is_config_error(config_path, capsys):
    assert main(["samples", str(config_path), "--count", "1", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be >= 0")
    assert "Traceback" not in err


def test_samples_endpoint_conflict_is_config_error(tmp_path, capsys):
    # degenerate horizon: both endpoint pins land at t0 with different
    # values, which the dataset layer rejects
    doc = base_doc(tmp_path / "out")
    doc["horizon"] = {"t0": 0.0, "t_end": 0.0, "dt": 0.1}
    doc["datasets"]["constraint_grid"] = {"times": []}
    assert main(["samples", str(write_doc(tmp_path, doc))]) == 1
    assert "conflict" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# algebra subcommand
# ---------------------------------------------------------------------------


def test_algebra_prints_decomposition(tmp_path, capsys):
    doc = base_doc(tmp_path / "out")
    doc["system"] = {"A": [[0.0, 1.0], [1.0, 1.0]], "B": [[0.0], [1.0]]}
    doc["reference"] = {"x_ref": [0.0, 0.0]}
    doc["initial"] = {"x0": [1.0, 0.0], "u0": [0.0]}
    doc["bounds"] = {"z_min": [-2.0] * 3, "z_max": [2.0] * 3}
    assert main(["algebra", str(write_doc(tmp_path, doc))]) == 0
    out = capsys.readouterr().out
    assert "H = [A - d*I | B] =" in out
    assert "D (Smith normal form) =" in out
    assert "  1; 0; 0\n  0; 1; 0" in out
    assert "nullspace columns of H =" in out
    assert "-1 - d + d^2" in out
    assert "K[1,1] = (1) exp(-lam u^2/2)" in out


@pytest.mark.parametrize(
    "config, golden",
    [
        (CONFIG_DIR / "regulation_baseline.json", "algebra_regulation_baseline.txt"),
        (GOLDEN_DIR / "algebra_two_input.json", "algebra_two_input.txt"),
    ],
)
def test_algebra_output_matches_golden_text(config, golden, capsys):
    # Recorded from the kernel built in Fraction arithmetic: the exact
    # entries printed from the integer build must read the same.
    assert main(["algebra", str(config)]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text()


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_algebra_prints_integers_past_the_digit_limit(tmp_path, capsys):
    # the dense 6-state system's nullspace numerators run to 1,226 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["algebra", str(write_doc(tmp_path, DENSE6))]) == 0
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(map(len, re.findall(r"\d+", capsys.readouterr().out))) > 640


def test_dense6_exact_algebra_is_pinned(tmp_path, capsys):
    # The benchmark's dense 6-state system byte for byte: the algebra text
    # (CI checks the same sha256 of the console script's output), the
    # kernel's common denominator D^2 and its compiled float tables.  A
    # change of exact arithmetic must leave all three as they are.
    assert main(["algebra", str(write_doc(tmp_path, DENSE6))]) == 0
    text = capsys.readouterr().out.encode()
    assert hashlib.sha256(text).hexdigest() == (
        "d4c87b4155746ae54798a945fb561afd31e5a5ce044f1475265cb5765068494c"
    )
    system = LinearSystem(A=DENSE6["system"]["A"], B=DENSE6["system"]["B"])
    kernel = build_prior(system, x_ref=[0.0] * system.n_x).kernel
    assert len(str(kernel.denominator)) == 2448
    width, slot, lam_pow, value = kernel._compiled
    digest = hashlib.sha256(b"%d" % width)
    for array, dtype in ((slot, "<i8"), (lam_pow, "<i8"), (value, "<f8")):
        digest.update(array.astype(dtype).tobytes())
    assert digest.hexdigest() == "72b6f258c27c24d9580424e87aa153c397fb6eb08af416b62dc5b3220465389d"


def test_algebra_checks_the_nullspace_exactly(monkeypatch):
    # a column that H = [A - d*I | B] of the bundled system does not annihilate
    monkeypatch.setattr(cli, "right_nullspace_columns", lambda dec: PolyMatrix.from_rows([[1], [0], [0]]))
    with pytest.raises(AssertionError, match="nullspace columns failed exact verification"):
        main(["algebra", str(CONFIG_DIR / "regulation_baseline.json")])


def test_algebra_checks_the_prior_column_against_the_replay(monkeypatch):
    # twice the true column: H still annihilates it, so only the comparison
    # of build_prior's column with the replayed one fails
    real = cli.prior_columns

    def doubled(system, dec):
        column = real(system, dec)
        return PolyMatrix(column.rows, column.cols, tuple(p.scaled(2) for p in column.entries))

    monkeypatch.setattr(cli, "prior_columns", doubled)
    with pytest.raises(AssertionError, match="nullspace columns failed exact verification"):
        main(["algebra", str(CONFIG_DIR / "regulation_baseline.json")])


def test_algebra_scalar_integrator_nullspace(config_path, capsys):
    assert main(["algebra", str(config_path)]) == 0
    out = capsys.readouterr().out
    # nullspace generator (1, d)
    assert "nullspace columns of H =" in out
    assert "\n  1\n  d\n" in out


def test_algebra_non_controllable_exit_one(tmp_path, capsys):
    doc = base_doc(tmp_path / "out")
    doc["system"] = {"A": [[0.0, 0.0], [0.0, 2.0]], "B": [[1.0], [0.0]]}
    doc["reference"] = {"x_ref": [0.0, 0.0]}
    doc["initial"] = {"x0": [1.0, 0.0], "u0": [0.0]}
    doc["bounds"] = {"z_min": [-2.0] * 3, "z_max": [2.0] * 3}
    assert main(["algebra", str(write_doc(tmp_path, doc))]) == 1
    captured = capsys.readouterr()
    # the Smith form is still printed before the diagnostic
    assert "D (Smith normal form) =" in captured.out
    assert "invariant factor" in captured.err


def test_algebra_exit_one_on_infeasible_reference(tmp_path, capsys):
    doc = base_doc(tmp_path / "out")
    doc["system"] = {"A": [[0.0, 1.0], [1.0, 1.0]], "B": [[0.0], [1.0]]}
    doc["reference"] = {"x_ref": [0.0, 1.0]}
    doc["initial"] = {"x0": [1.0, 0.0], "u0": [0.0]}
    doc["bounds"] = {"z_min": [-2.0] * 3, "z_max": [2.0] * 3}
    assert main(["algebra", str(write_doc(tmp_path, doc))]) == 1
    captured = capsys.readouterr()
    assert "nullspace columns of H =" in captured.out
    assert "kernel entries" not in captured.out
    assert "no steady-state input" in captured.err


def test_cli_usage_error_for_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
