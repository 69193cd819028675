"""Self-tests of the benchmark's generators and trace arithmetic.

    python -m pytest perfbench -q

Run from the root of a checkout.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import child
import run
import workloads

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(0, 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    for seed in (0, 1, 7, 123456):
        assert json.dumps(workloads.configs(workload, seed)) == json.dumps(
            workloads.configs(workload, seed)
        )
    assert workloads.configs(workload, 1) != workloads.configs(workload, 2)


def test_seed_zero_reproduces_the_bundled_configs():
    generated = workloads.configs("regulation", 0)
    assert sorted(generated) == sorted(p.stem for p in (ROOT / "configs").glob("regulation_*.json"))
    for name, doc in generated.items():
        bundled = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        for section in bundled:
            if section != "outputs":
                assert doc[section] == bundled[section], (name, section)


def test_other_seeds_draw_x0_from_the_state_box():
    for seed in range(1, 20):
        x0s = [doc["initial"]["x0"] for doc in workloads.configs("regulation", seed).values()]
        assert len({tuple(x0) for x0 in x0s}) == 3
        assert all(len(x0) == 2 and all(-1.0 <= v <= 1.0 for v in x0) for x0 in x0s)


def test_dense6_systems_are_stable_controllable_and_one_decimal():
    for index in range(40):
        A, B = workloads.dense_system(index)
        assert A.shape == (6, 6) and B.shape == (6, 1)
        assert workloads.kalman_controllable(A, B)
        assert np.max(np.linalg.eigvals(A).real) <= 0
        for value in np.concatenate([A.ravel(), B.ravel()]):
            assert value == round(value, 1)
        off = ~np.eye(6, dtype=bool)
        assert np.all(np.abs(A[off]) <= 1) and np.all(np.abs(B) <= 1)


def test_dense6_seeds_move_x0_only():
    first = workloads.configs("dense6", 0)["dense6"]
    A, B = workloads.dense_system(0)
    assert first["system"] == {"A": A.tolist(), "B": B.tolist()}
    for seed in range(1, 10):
        doc = workloads.configs("dense6", seed)["dense6"]
        assert doc["system"] == first["system"]
        assert doc["initial"]["x0"] != first["initial"]["x0"]
        assert all(-1.0 <= v <= 1.0 for v in doc["initial"]["x0"])


def test_stabilizing_shift_is_the_smallest_one_decimal_shift():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        A = rng.integers(-10, 11, (6, 6)) / 10
        s = workloads.stabilizing_shift(A)
        assert np.max(np.linalg.eigvals(workloads._shifted(A, s)).real) <= 0
        if s > 0:
            assert np.max(np.linalg.eigvals(workloads._shifted(A, round(s - 0.1, 1))).real) > 0


def _nested_calls():
    rec = child.Recorder()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        for _ in range(3):
            rec_leaf()

    def outer():
        time.sleep(0.001)
        rec_middle()
        rec_leaf()
        rec_outer_again()

    def outer_again():
        rec_leaf()

    rec_leaf = rec.wrap("leaf", leaf)
    rec_middle = rec.wrap("middle", middle)
    rec_outer_again = rec.wrap("outer", outer_again)
    rec.wrap("outer", outer)()
    return rec.spans


def test_trace_self_times_sum_to_inclusive_times():
    spans = _nested_calls()
    root = spans[0]
    own = run.self_times(spans)
    assert sum(own) == pytest.approx(root[2] - root[1], abs=1e-9)
    assert all(t >= 0 for t in own)
    # Nested spans of one name are counted once.
    assert run.inclusive_by_name(spans)["outer"] == pytest.approx(root[2] - root[1])
    assert sum(run.self_by_name(spans).values()) == pytest.approx(root[2] - root[1])
    assert [s[3] for s in spans] == [None, 0, 1, 1, 1, 0, 0, 6]


def test_every_hook_resolves_in_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        for name, module, path in child.HOOKS:
            owner, attr = child._resolve(module, path)
            assert callable(getattr(owner, attr)), name
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    for workload in workloads.WORKLOADS:
        samples = list(range(100 * len(workloads.configs(workload, 0))))
        p = run.tail_percentile(len(samples))
        assert run.percentile(samples, p)[1] >= run.MIN_BEYOND
        higher = [q for q in run.TAIL_LADDER if q > p]
        assert all(run.percentile(samples, q)[1] < run.MIN_BEYOND for q in higher)


def _rep(config, steps_ms):
    """An untraced repetition whose loop took ``steps_ms`` per step."""
    spans = [["cli.cmd_run", 0.0, 1e3, None, None], ["controller.run_closed_loop", 1.0, 1e3, 0, None]]
    for t, ms in enumerate(steps_ms, start=2):
        spans.append(["controller.step", t, t + ms / 1e3, 1, None])
        spans.append(["plant.advance", t, t, 1, None])
    return run.Rep(config, False, 1.0, 1.0, 0, {"spans": spans})


def test_step_ms_p50_is_the_median_of_every_step_of_every_run():
    runs = {
        ("a", 0): [10.0 + i % 7 for i in range(100)],
        ("a", 1): [12.0 + i % 5 for i in range(100)],
        ("b", 0): [30.0 + i % 3 for i in range(100)],
        ("b", 1): [29.0 + i % 9 for i in range(100)],
    }
    reps = [_rep(config, steps) for (config, _), steps in runs.items()]
    pooled = [ms for steps in runs.values() for ms in steps]
    assert run.step_samples(reps) == pytest.approx(pooled)
    assert run.end_to_end(reps)[0]["step_ms_p50"] == pytest.approx(statistics.median(pooled))


def test_slowing_every_other_step_moves_step_ms_p50():
    base = [20.0 + 0.01 * i for i in range(100)]
    slow = [ms * 1.5 if i % 2 else ms for i, ms in enumerate(base)]
    before = run.end_to_end([_rep(c, base) for c in "abc" for _ in range(4)])[0]["step_ms_p50"]
    after = run.end_to_end([_rep(c, slow) for c in "abc" for _ in range(4)])[0]["step_ms_p50"]
    assert after >= 1.2 * before


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
