"""Command-line front end.

Subcommands:

* ``run <config>``      closed-loop experiment -> trajectory CSV + metrics JSON
* ``samples <config>``  posterior samples conditioned on the endpoints -> CSV
* ``algebra <config>``  textual dump of the operator matrix, its Smith form,
                        the nullspace columns (checked: H·V = 0), and the kernel entries

Exit codes: 0 success, 1 config-class errors (parse/validation, infeasible
reference, non-controllable system), 2 numerical failures (factorization,
divergence).  The environment variable LODEMPC_OUTPUT_DIR overrides the
configured output directory.  Output files are bit-identical across repeated
runs of the same config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .controller import (
    PlantDivergenceError,
    initial_dataset,
    run_closed_loop,
)
from .gpcore import (
    Dataset,
    DatasetError,
    FactorizationError,
    PosteriorGp,
    optimize_hyperparams,
)
from .kernelops import build_operator_kernel
from .lodegp import (
    InfeasibleReferenceError,
    NonControllableSystemError,
    build_h,
    build_prior,
    prior_columns,
    require_controllable,
    steady_state_input,
)
from .plant import Plant
from .polyalg import smith_normal_form, right_nullspace_columns

ENV_OUTPUT_DIR = "LODEMPC_OUTPUT_DIR"


def _fmt(x) -> str:
    return repr(float(x))


def _output_dir(cfg: ExperimentConfig) -> Path:
    override = os.environ.get(ENV_OUTPUT_DIR)
    out = Path(override) if override else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_trajectory_csv(path: Path, traj, n_x: int, n_u: int) -> None:
    names = [f"x{i + 1}" for i in range(n_x)] + [f"u{j + 1}" for j in range(n_u)]
    rows = np.column_stack([traj.times, traj.states, traj.controls, traj.stds])
    lines = [",".join(["t", *names, *(f"std_{c}" for c in names)])]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def cmd_run(cfg: ExperimentConfig) -> int:
    prior = build_prior(cfg.system, cfg.controller.x_ref)
    dataset = initial_dataset(prior, cfg.controller)
    start = time.perf_counter()
    hp, fit = optimize_hyperparams(
        prior, dataset, bounds=cfg.hp_bounds, fixed=cfg.hp_fixed, jitter=cfg.jitter
    )
    plant = Plant(cfg.system.A, cfg.system.B)
    traj = run_closed_loop(prior, plant, cfg.controller, hp)
    wall = time.perf_counter() - start

    out = _output_dir(cfg)
    _write_trajectory_csv(out / cfg.trajectory_csv, traj, cfg.system.n_x, cfg.system.n_u)
    metrics = {
        "constraint_error": traj.constraint_error,
        "control_error": traj.control_error,
        "jitter_escalations": traj.jitter_escalations,
        "max_jitter_boost": traj.max_jitter_boost,
        "wall_time_s": wall,
        "hyperparams": asdict(hp),
        "fit": None if fit is None else asdict(fit),
        "final_state": [float(v) for v in traj.states[-1]],
    }
    (out / cfg.metrics_json).write_text(json.dumps(metrics, indent=2) + "\n")
    print(
        f"run complete: constraint_error={traj.constraint_error:.6g} "
        f"control_error={traj.control_error:.6g} wall_time={wall:.2f}s "
        f"-> {out / cfg.trajectory_csv}"
    )
    return 0


def cmd_samples(cfg: ExperimentConfig, count: int, seed: int) -> int:
    if count < 0:
        raise ConfigError("--count must be >= 0")
    if seed < 0:
        raise ConfigError("--seed must be >= 0")
    prior = build_prior(cfg.system, cfg.controller.x_ref)
    ctrl = cfg.controller
    nz = prior.n_z
    endpoints = Dataset(
        [ctrl.t0, ctrl.t_end],
        [ctrl.x0 + ctrl.u0, prior.prior_mean],
        np.zeros((2, nz)),
    )
    hp, fit = optimize_hyperparams(
        prior, endpoints, bounds=cfg.hp_bounds, fixed=cfg.hp_fixed, jitter=cfg.jitter
    )
    gp = PosteriorGp(prior, endpoints, hp)
    grid = ctrl.lattice
    draws = gp.sample(grid, count, seed)

    names = cfg.system.channel_names
    lines = ["sample_id,t,channel,value"]
    for s in range(count):
        for k, t in enumerate(grid):
            for c in range(nz):
                lines.append(f"{s},{_fmt(t)},{names[c]},{_fmt(draws[s, k, c])}")
    out = _output_dir(cfg)
    (out / cfg.samples_csv).write_text("\n".join(lines) + "\n")
    print(f"wrote {count} samples x {grid.size} times x {nz} channels -> {out / cfg.samples_csv}")
    if fit is not None:
        print(f"fit at_bound={json.dumps(fit.at_bound)}")
    return 0


def cmd_algebra(cfg: ExperimentConfig) -> int:
    # Exact numerators can pass Python's int-to-str digit limit (1,226 digits
    # on a dense 6-state system): lift it while printing.  Some 3.10 builds
    # have no limit to lift.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    set_limit(0)
    try:
        h = build_h(cfg.system)
        dec = smith_normal_form(h)
        print("H = [A - d*I | B] =")
        print(_indent(h.to_text()))
        print("D (Smith normal form) =")
        print(_indent(dec.D.to_text()))
        require_controllable(dec)
        null = right_nullspace_columns(dec)
        if not (h @ null).is_zero or prior_columns(cfg.system, dec) != null:
            raise AssertionError("nullspace columns failed exact verification")
        print("nullspace columns of H =")
        print(_indent(null.to_text()))
        kernel = build_operator_kernel(null)
        steady_state_input(cfg.system, cfg.controller.x_ref)  # an infeasible x_ref exits 1, as in `run`
        print("kernel entries (u = t - t', lam = 1/lengthscale_sq, scaled by signal variance):")
        print(_indent(kernel.describe()))
        return 0
    finally:
        set_limit(limit)


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lodempc",
        description="Model predictive control by GP inference for linear ODE systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the closed-loop experiment")
    p_run.add_argument("config", help="path to the experiment config (JSON)")

    p_samples = sub.add_parser("samples", help="draw posterior samples conditioned on the endpoints")
    p_samples.add_argument("config", help="path to the experiment config (JSON)")
    p_samples.add_argument("--count", type=int, default=50, help="number of samples")
    p_samples.add_argument("--seed", type=int, default=None, help="sampling seed (defaults to the config seed)")

    p_algebra = sub.add_parser("algebra", help="print the operator algebra for the configured system")
    p_algebra.add_argument("config", help="path to the experiment config (JSON)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "samples":
            seed = cfg.seed if args.seed is None else args.seed
            return cmd_samples(cfg, args.count, seed)
        return cmd_algebra(cfg)
    except (ConfigError, InfeasibleReferenceError, NonControllableSystemError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FactorizationError, PlantDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
