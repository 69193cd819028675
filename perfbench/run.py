"""Closed-loop benchmark of ``lodempc run``.

    python3 perfbench/run.py --workload regulation --seed 0 --seconds 50 --trace 0

Run from the root of a checkout.  Each repetition is one fresh child
process that runs ``lodempc run`` (through ``perfbench/child.py``) on a
config generated from the seed by ``perfbench/workloads.py``.  One client,
closed loop: a repetition starts only when the previous one has ended, and
only one child runs at a time.  The workload's configs are interleaved
round-robin for the whole run, so every metric's samples span the run.

On a shared two-core host, other tenants slow everything (the probe below
included) by 1.4-1.9x, in phases from a fraction of a second to minutes.
Each figure is therefore the median of every sample the run took: of all
repetitions, or of all steps of all repetitions, never a single one.  Across
seeds such medians moved less than the fastest sample did, which depends on
whether a run caught a quiet moment.  The probe, a fixed load run before and
after the workload, shows the host's state and is never used to rescale a
metric.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
config once untraced and once traced per round and reports per-layer times
and counts from the traced children, plus the tracing overhead.

Every repetition is checked: exit code 0, a finite trajectory CSV with
``n_steps + 1`` rows, and closed-loop quality (``constraint_error``,
``control_error``) inside a band around the seed's reference in
``references.json`` (seeds 0-63).  Other seeds are checked for agreement
between the repetitions of a run.

Children run with ``src`` on ``PYTHONPATH``, BLAS pinned to one thread and
their output in a scratch directory under ``.perfbench_work/``.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: One BLAS thread everywhere: on two cores the threaded default made fit
#: times range 1.48-2.34 s instead of 1.22-1.49 s, and moves results in the
#: ninth digit, so references are only valid under these pins.  A fixed hash
#: seed keeps set and dict iteration orders equal between children.
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Complete round-robin rounds a run makes at least, whatever --seconds.
MIN_ROUNDS = 4
MIN_ROUNDS_TRACED = 1

#: No new round starts after this many seconds, so a run always ends well
#: inside three minutes.
HARD_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 100.0

#: Quality band around a reference: |value - ref| <= ABS + REL * |ref|.
BAND_ABS = 1e-6
BAND_REL = 1e-3

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics but not among them: across ten seeds
#: on the shared host its spread reached 0.26 of its median, more than any
#: bound a metric may have.
REPORTED_ONLY = {"step_ms_tail": "ms"}

PER_LAYER = {
    "import.cli_s": "s",
    "config.load_s": "s",
    "lodegp.build_prior_s": "s",
    "polyalg.smith_s": "s",
    "polyalg.nullspace_s": "s",
    "kernelops.build_kernel_s": "s",
    "kernelops.kernel_terms": "count",
    "gpcore.fit_s": "s",
    "gpcore.fit_evals": "count",
    "gpcore.fit_failed_evals": "count",
    "gpcore.lml_s": "s",
    "gpcore.gram_s": "s",
    "kernelops.joint_matrix_s": "s",
    "kernelops.joint_matrix_calls": "count",
    "kernelops.kernel_elems": "count",
    "gpcore.cholesky_s": "s",
    "gpcore.cholesky_calls": "count",
    "gpcore.cholesky_gflop": "GFLOP",
    "gpcore.jitter_escalations": "count",
    "gpcore.solve_s": "s",
    "gpcore.gram_dim_max": "count",
    "gpcore.gram_dim_mean": "count",
    "gpcore.mean_s": "s",
    "gpcore.std_s": "s",
    "controller.step_s": "s",
    "controller.dataset_s": "s",
    "controller.dataset_points_mean": "count",
    "plant.advance_s": "s",
    "plant.advance_calls": "count",
    "cli.output_s": "s",
    "trace.overhead_pct": "%",
    "env.probe_ms": "ms",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, broken workload, ...)."""


@dataclass
class Rep:
    """One repetition: a child process on one config."""

    config: str
    traced: bool
    wall_s: float
    rss_mb: float
    exit_code: int
    timings: dict | None
    quality: dict | None = None
    error: str | None = None


@dataclass
class Case:
    """One generated config and what its repetitions must reproduce."""

    name: str
    path: Path
    out_dir: Path
    n_steps: int
    reference: dict | None
    first: dict | None = None


# --------------------------------------------------------------- environment


def check_checkout() -> None:
    if not (ROOT / "src" / "lodempc" / "cli.py").is_file():
        raise BenchmarkError(f"no lodempc sources under {ROOT / 'src'}; run from a checkout")


def child_env(out_dir: Path) -> dict:
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["LODEMPC_OUTPUT_DIR"] = str(out_dir)
    return env


def environment() -> dict:
    import numpy as np
    import scipy

    openblas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "pins": dict(PINS),
    }


def probe_ms(repeats: int = 5) -> list:
    """A fixed, program-independent load: ten Cholesky factorizations of a
    303x303 matrix plus a pure-Python loop.  Reported only, never used to
    rescale a metric."""
    import numpy as np

    m = np.random.default_rng(0).standard_normal((303, 303))
    spd = m @ m.T + 303.0 * np.eye(303)
    out = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(10):
            np.linalg.cholesky(spd)
        acc = 0
        for i in range(100_000):
            acc += i * i
        out.append((clock() - t0) * 1e3)
    return out


# ------------------------------------------------------------------ children


def run_child(case: Case, timings_path: Path, traced: bool, log_path: Path) -> Rep:
    """Run one repetition and wait for it; wall time counts interpreter
    start, imports, set-up, the loop and output writing."""
    cmd = [sys.executable, str(HERE / "child.py"), str(case.path), str(timings_path)]
    if traced:
        cmd.append("--trace")
    timings_path.unlink(missing_ok=True)
    with open(log_path, "wb") as log:
        t0 = clock()
        proc = subprocess.Popen(
            cmd, cwd=case.out_dir, env=child_env(case.out_dir), stdout=log, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = clock() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    timings = None
    if timings_path.is_file():
        timings = json.loads(timings_path.read_text())
    return Rep(case.name, traced, wall, usage.ru_maxrss / 1024.0, code, timings)


def read_outputs(case: Case) -> dict:
    """Quality metrics of the last run of ``case``; raises ValueError when
    the outputs are missing or malformed."""
    try:
        with open(case.out_dir / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        metrics = json.loads((case.out_dir / "metrics.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable output: {exc}") from None
    if len(rows) != case.n_steps + 2:
        raise ValueError(f"trajectory has {len(rows) - 1} rows, expected {case.n_steps + 1}")
    values = [float(v) for row in rows[1:] for v in row]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("trajectory has non-finite values")
    final = [float(v) for v in metrics["final_state"]]
    return {
        "constraint_error": float(metrics["constraint_error"]),
        "control_error": float(metrics["control_error"]),
        "final_norm": math.sqrt(sum(v * v for v in final)),
    }


def in_band(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= BAND_ABS + BAND_REL * abs(ref)


def check(case: Case, rep: Rep) -> str | None:
    """Why this repetition failed, or None."""
    if rep.exit_code != 0:
        return f"exit code {rep.exit_code}"
    if rep.timings is None:
        return "child wrote no timings"
    try:
        quality = read_outputs(case)
    except (ValueError, KeyError, TypeError) as exc:
        return str(exc)
    rep.quality = quality
    ref = case.reference or case.first
    if ref is None:
        case.first = quality
        return None
    for key in ("constraint_error", "control_error"):
        if not in_band(quality[key], ref[key]):
            return f"{key} {quality[key]!r} outside the band around {ref[key]!r}"
    return None


# ------------------------------------------------------------------- spans


def self_times(spans: list) -> list:
    """Duration minus the time covered by direct child spans, per span."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def inclusive_by_name(spans: list) -> dict:
    """Total duration per span name, counting nested spans of the same
    name once."""
    out: dict = {}
    for name, start, end, parent, _ in spans:
        ancestor = parent
        nested = False
        while ancestor is not None:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def self_by_name(spans: list) -> dict:
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        out[span[0]] = out.get(span[0], 0.0) + own
    return out


def first_span(spans: list, name: str):
    return next((s for s in spans if s[0] == name), None)


def setup_s(spans: list) -> float:
    """Entry to ``cmd_run`` to entry to ``run_closed_loop``."""
    run, loop = first_span(spans, "cli.cmd_run"), first_span(spans, "controller.run_closed_loop")
    if run is None or loop is None:
        raise BenchmarkError("cmd_run/run_closed_loop boundaries were not recorded")
    return loop[1] - run[1]


def step_ms(spans: list) -> list:
    """Per closed-loop step: one ``mpc_step`` plus the ``Plant.advance``
    that follows it."""
    steps = [s[2] - s[1] for s in spans if s[0] == "controller.step"]
    advances = [s[2] - s[1] for s in spans if s[0] == "plant.advance"]
    if not steps or len(steps) != len(advances):
        raise BenchmarkError(f"{len(steps)} mpc_step vs {len(advances)} Plant.advance calls")
    return [(a + b) * 1e3 for a, b in zip(steps, advances)]


def layer_values(timings: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = timings["spans"]
    incl = inclusive_by_name(spans)
    counts = timings["counts"]
    samples = timings["samples"]
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = incl.get(name[: -len("_s")], 0.0)
        elif unit in ("count", "GFLOP"):
            out[name] = float(counts.get(name, 0))
    dims = samples.get("gpcore.gram_dim", [])
    points = samples.get("controller.dataset_points", [])
    out["gpcore.gram_dim_max"] = float(max(dims, default=0))
    out["gpcore.gram_dim_mean"] = statistics.fmean(dims) if dims else 0.0
    out["controller.dataset_points_mean"] = statistics.fmean(points) if points else 0.0
    out["import.cli_s"] = timings["import_s"]
    run = first_span(spans, "cli.cmd_run")
    loop = first_span(spans, "controller.run_closed_loop")
    out["cli.output_s"] = run[2] - loop[2] if run and loop else 0.0
    return out


# ------------------------------------------------------------------ metrics


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_LADDER:
        if samples - math.ceil(p / 100.0 * samples) >= MIN_BEYOND:
            return p
    raise BenchmarkError(f"{samples} samples are too few for a tail percentile")


def percentile(values: list, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1], len(ordered) - rank


def median_of(reps: list, value) -> float:
    """Median of ``value`` over the repetitions.  Rounds are complete, so
    every config has the same weight unless some of its repetitions failed."""
    return statistics.median(value(r) for r in reps)


def step_samples(reps: list) -> list:
    """Every step latency of every repetition, pooled."""
    return [ms for r in reps for ms in step_ms(r.timings["spans"])]


def end_to_end(reps: list) -> tuple[dict, dict]:
    steps = step_samples(reps)
    tail_p = tail_percentile(len(steps))
    tail, beyond = percentile(steps, tail_p)
    values = {
        "run_s": median_of(reps, lambda r: r.wall_s),
        "setup_s": median_of(reps, lambda r: setup_s(r.timings["spans"])),
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": tail,
        "peak_rss_mb": median_of(reps, lambda r: r.rss_mb),
    }
    configs = len({r.config for r in reps})
    per_run = f"median of {len(reps)} runs over {configs} configs"
    per_step = f"of {len(steps)} steps pooled over {len(reps)} runs"
    notes = {
        "run_s": per_run,
        "setup_s": per_run,
        "step_ms_p50": "median " + per_step,
        "step_ms_tail": f"p{tail_p:g} {per_step}, {beyond} beyond",
        "peak_rss_mb": per_run,
    }
    return values, notes


def per_layer(untraced: list, traced: list, probes: list) -> tuple[dict, list]:
    """Per-layer metrics and the span table (inclusive and self time per
    span name), each the median over the traced runs, like the end-to-end
    times."""
    layers = {id(r): layer_values(r.timings) for r in traced}
    values = {
        name: median_of(traced, lambda r: layers[id(r)][name])
        for name in next(iter(layers.values()))
    }
    plain = median_of(untraced, lambda r: r.wall_s)
    values["trace.overhead_pct"] = (median_of(traced, lambda r: r.wall_s) / plain - 1) * 100
    values["env.probe_ms"] = statistics.median(probes)
    incl = {id(r): inclusive_by_name(r.timings["spans"]) for r in traced}
    own = {id(r): self_by_name(r.timings["spans"]) for r in traced}
    table = [
        (
            name,
            median_of(traced, lambda r: incl[id(r)].get(name, 0.0)),
            median_of(traced, lambda r: own[id(r)].get(name, 0.0)),
        )
        for name in {n for d in incl.values() for n in d}
    ]
    table.sort(key=lambda row: -row[1])
    return values, table


# --------------------------------------------------------------------- run


def load_references(workload: str, seed: int) -> dict:
    path = HERE / "references.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    return table.get(workload, {}).get(str(seed), {})


def prepare(workload: str, seed: int, work: Path, refs: dict) -> list:
    """Write the seed's configs into ``work``; ``refs`` are the seed's
    references by config name."""
    import workloads

    cases = []
    for name, doc in workloads.configs(workload, seed).items():
        out_dir = work / name
        out_dir.mkdir(parents=True, exist_ok=True)
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1))
        hor = doc["horizon"]
        cases.append(
            Case(
                name=name,
                path=path,
                out_dir=out_dir,
                n_steps=round((hor["t_end"] - hor["t0"]) / hor["dt"]),
                reference=refs.get(name),
            )
        )
    return cases


def warm_up(cases: list) -> None:
    """Compile the package's bytecode once, untimed, as an installed
    package would have it."""
    subprocess.run(
        [sys.executable, "-c", "import lodempc.cli"],
        cwd=cases[0].out_dir,
        env=child_env(cases[0].out_dir),
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )


def measure(cases: list, work: Path, seconds: float, min_rounds: int, trace: bool) -> list:
    """Round-robin over the cases until the time is used and min_rounds
    complete rounds are done."""
    reps = []
    start = clock()
    rounds = 0
    last_round = 0.0
    while True:
        elapsed = clock() - start
        if elapsed > HARD_LIMIT_S or (rounds >= min_rounds and elapsed + last_round > seconds):
            break
        t_round = clock()
        # Traced and untraced children alternate order between rounds.
        if not trace:
            modes = (False,)
        else:
            modes = (False, True) if rounds % 2 == 0 else (True, False)
        for case in cases:
            for traced in modes:
                k = len(reps)
                rep = run_child(case, work / f"t{k}.json", traced, work / f"log{k}.txt")
                rep.error = check(case, rep)
                reps.append(rep)
        rounds += 1
        last_round = clock() - t_round
    return reps


def report(workload, seed, args, env, cases, reps, probes, metrics, notes, table) -> None:
    print(f"env: {json.dumps(env, sort_keys=True)}")
    failed = [r for r in reps if r.error]
    print(
        f"workload {workload} seed {seed}: {len(reps)} repetitions over {len(cases)} configs, "
        f"failed {len(failed)}/{len(reps)}"
    )
    for r in failed:
        print(f"  FAILED {r.config}: {r.error}")
    for case in cases:
        mine = [r for r in reps if r.config == case.name and not r.error]
        if not mine:
            continue
        q = mine[0].quality
        ref = "stored reference" if case.reference else "no stored reference"
        print(
            f"  {case.name}: constraint_error={q['constraint_error']!r} "
            f"control_error={q['control_error']!r} final_norm={q['final_norm']:.4g} ({ref}); "
            f"run_s median {statistics.median(r.wall_s for r in mine):.4f} of {len(mine)}"
        )
    print(f"  env.probe_ms before={probes[0]:.4f} after={probes[1]:.4f} ms (median of 5 each)")
    units = {**END_TO_END, **REPORTED_ONLY} if not args.trace else PER_LAYER
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    if table:
        print(f"  {'span':28s} {'inclusive_s':>12s} {'self_s':>12s}   (median over the traced runs)")
        for name, incl, own in table:
            print(f"  {name:28s} {incl:12.6f} {own:12.6f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(PINS)  # before numpy loads: the probe is pinned too
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    try:
        check_checkout()
        WORK.mkdir(exist_ok=True)
        work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        cases = prepare(args.workload, args.seed, work, load_references(args.workload, args.seed))
        env = environment()
        warm_up(cases)
        before = probe_ms()
        min_rounds = MIN_ROUNDS_TRACED if args.trace else MIN_ROUNDS
        reps = measure(cases, work, args.seconds, min_rounds, bool(args.trace))
        after = probe_ms()
        probes = [statistics.median(before), statistics.median(after)]
        good = [r for r in reps if not r.error]
        if not good:
            raise BenchmarkError(f"every repetition failed, first: {reps[0].error}")
        plain = [r for r in good if not r.traced]
        table = []
        if not args.trace:
            metrics, notes = end_to_end(plain)
        else:
            traced = [r for r in good if r.traced]
            metrics, table = per_layer(plain, traced, before + after)
            notes = {}
        missing = sorted({m for r in good for m in r.timings["missing"]})
        if missing:
            print(f"warning: hooks not found, their layers read 0: {', '.join(missing)}")
        report(args.workload, args.seed, args, env, cases, reps, probes, metrics, notes, table)
        shutil.rmtree(work, ignore_errors=True)
    except (BenchmarkError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = END_TO_END if not args.trace else PER_LAYER
    result = {
        "correct": not any(r.error for r in reps),
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r.error),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
