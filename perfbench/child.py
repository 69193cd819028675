"""One repetition: ``lodempc run <config>`` in this process, instrumented.

    python child.py <config.json> <timings.json> [--trace]

The program is entered exactly as ``python -m lodempc.cli run <config>``
enters it (``lodempc.cli.main``); the instrumentation only wraps module
attributes, from outside the package, before ``main`` runs.

Untraced, four boundaries are timed: entry to ``cmd_run`` and entry to
``run_closed_loop`` (their difference is ``setup_s``), and each call of
``mpc_step`` and ``Plant.advance`` (their sum per step is one step's
latency).  Traced, every public layer function listed in ``HOOKS`` records
a span (name, start, end, parent), and ``Recorder.observe`` records counts
at the same boundaries.  Everything stays in memory and is written to
``timings.json`` when ``main`` returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

clock = time.perf_counter

#: (span name, module, attribute path).  Patched where callers look the name
#: up: ``cli`` imports ``build_prior`` into its own namespace, so the cli
#: attribute is the one ``cmd_run`` calls, and so on.
HOOKS = (
    ("cli.cmd_run", "lodempc.cli", "cmd_run"),
    ("config.load", "lodempc.cli", "load_config"),
    ("lodegp.build_prior", "lodempc.cli", "build_prior"),
    ("polyalg.smith", "lodempc.lodegp", "smith_normal_form"),
    ("polyalg.nullspace", "lodempc.lodegp", "right_nullspace_columns"),
    ("kernelops.build_kernel", "lodempc.lodegp", "build_operator_kernel"),
    ("gpcore.fit", "lodempc.cli", "optimize_hyperparams"),
    ("gpcore.lml", "lodempc.gpcore", "log_marginal_likelihood"),
    ("gpcore.gram", "lodempc.gpcore", "assemble_gram"),
    ("gpcore.cholesky", "lodempc.gpcore", "cho_factor"),
    ("gpcore.solve", "lodempc.gpcore", "cho_solve"),
    ("gpcore.posterior_init", "lodempc.gpcore", "PosteriorGp.__init__"),
    ("gpcore.mean", "lodempc.gpcore", "PosteriorGp.mean"),
    ("gpcore.std", "lodempc.gpcore", "PosteriorGp.std"),
    ("kernelops.joint_matrix", "lodempc.kernelops", "OperatorKernel.joint_matrix"),
    ("controller.run_closed_loop", "lodempc.cli", "run_closed_loop"),
    ("controller.dataset", "lodempc.controller", "build_step_dataset"),
    ("controller.step", "lodempc.controller", "mpc_step"),
    ("plant.advance", "lodempc.plant", "Plant.advance"),
)

#: The subset the untraced child times.
STEP_HOOKS = ("cli.cmd_run", "controller.run_closed_loop", "controller.step", "plant.advance")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _count_kernel_terms(kernel) -> int:
    return sum(len(term.coeffs) for row in kernel.entries for term in row)


class Recorder:
    """Spans and counters of one repetition, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, error]
        self.stack: list = []
        self.counts: dict = {}
        self.samples: dict = {}
        self.missing: list = []

    def count(self, name: str, by=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def observe(self, name: str, args, result, error) -> None:
        """Counts recorded at a span boundary, from its arguments and result."""
        if name == "gpcore.lml":
            self.count("gpcore.fit_evals")
            if error is not None:
                self.count("gpcore.fit_failed_evals")
        elif name == "gpcore.cholesky":
            n = args[0].shape[0]
            self.count("gpcore.cholesky_calls")
            self.count("gpcore.cholesky_gflop", n**3 / 3 / 1e9)
            if error is not None:
                self.count("gpcore.jitter_escalations")
        elif name == "gpcore.gram" and error is None:
            self.sample("gpcore.gram_dim", result[0].shape[0])
        elif name == "kernelops.joint_matrix" and error is None:
            self.count("kernelops.joint_matrix_calls")
            self.count("kernelops.kernel_elems", result.shape[0] * result.shape[1])
        elif name == "kernelops.build_kernel" and error is None:
            self.count("kernelops.kernel_terms", _count_kernel_terms(result))
        elif name == "controller.dataset" and error is None:
            self.sample("controller.dataset_points", len(result))
        elif name == "plant.advance":
            self.count("plant.advance_calls")

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
                self.observe(name, args, result, error)

        return traced

    def install(self, names) -> None:
        for name, module_name, path in HOOKS:
            if name not in names:
                continue
            try:
                owner, attr = _resolve(module_name, path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(name, fn))


def main(argv) -> int:
    config, out_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    t0 = clock()
    import lodempc.cli as cli

    t_import = clock() - t0
    rec = Recorder()
    rec.install({h[0] for h in HOOKS} if traced else set(STEP_HOOKS))
    code = cli.main(["run", config])
    doc = {
        "exit_code": code,
        "import_s": t_import,
        "spans": rec.spans,
        "counts": rec.counts,
        "samples": rec.samples,
        "missing": rec.missing,
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
