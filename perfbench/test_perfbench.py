"""Tests of the benchmark's own helpers (run with pytest from the repo root)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from inputs import fingerprint, make_dataset, make_schedule  # noqa: E402
from spans import Span, Target, Tracer, layer_self_times, reconcile, self_times  # noqa: E402
from stats import chunked_summary, summarize, tail_percentile  # noqa: E402


# -- percentile rule ----------------------------------------------------
@pytest.mark.parametrize("n, q", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_summarize_reports_tail_and_falls_back_to_max():
    values = np.arange(1, 1001, dtype=float)
    out = summarize(values)
    assert out["tail_q"] == 99.0 and out["n"] == 1000
    assert out["tail"] == pytest.approx(np.percentile(values, 99))
    assert (values > out["tail"]).sum() >= 10
    few = summarize([3.0, 1.0, 2.0])
    assert few["tail"] == 3.0 and few["tail_q"] == 100.0 and few["p50"] == 2.0


def test_chunked_summary_averages_per_chunk_figures():
    values = np.repeat(np.arange(6.0), 200)  # chunk k holds only the value k
    out = chunked_summary(values)
    assert out["chunks"] == 6 and out["n"] == 200 and out["tail_q"] == 95.0
    assert out["p50"] == pytest.approx(2.5) and out["tail"] == pytest.approx(2.5)
    fifths = chunked_summary(np.repeat(np.arange(5.0), 50))
    assert fifths["chunks"] == 5 and fifths["n"] == 50 and fifths["tail_q"] == 75.0
    assert fifths["p50"] == pytest.approx(2.0)
    short = chunked_summary(np.arange(199.0))
    assert short["chunks"] == 1 and short["n"] == 199


def test_speed_probe_rescales_to_nominal():
    import speed

    probe = speed.SpeedProbe()
    probe.maybe()
    probe.maybe()  # within PROBE_EVERY_S of the first: skipped
    assert len(probe.samples) == 1
    probe.samples = [(0.0, 2 * speed.NOMINAL_S), (1.0, 2 * speed.NOMINAL_S),
                     (2.0, speed.NOMINAL_S / 4)]
    assert probe.speed() == pytest.approx(0.5)  # median probe twice nominal


# -- self-time arithmetic -----------------------------------------------
def _span(layer, start, end, parent, thread=1):
    return Span(layer, layer, start, end, thread, parent)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),     # grandchild: only subtracted from "a"
        _span("c", 5.0, 6.0, 0),
        _span("c", 5.5, 5.8, 3),     # same layer nested in itself
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 0.7, 0.3])
    assert layer_self_times(spans) == pytest.approx(
        {"root": 6.0, "a": 2.0, "b": 1.0, "c": 1.0})
    ok, error = reconcile(spans, 10.0, thread=1, tolerance=0.01)
    assert ok and error == pytest.approx(0.0)


def test_overlapping_children_are_merged_and_clipped():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 2.0, 5.0, 0),
        _span("a", 4.0, 7.0, 0),     # overlaps the first child
        _span("a", 9.0, 12.0, 0),    # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_reconcile_flags_double_counted_time():
    spans = [_span("root", 0.0, 10.0, None), _span("x", 0.0, 3.0, None)]
    ok, error = reconcile(spans, 10.0, thread=1, tolerance=0.01)
    assert not ok and error == pytest.approx(0.3)


def test_tracer_wraps_restores_and_reports_absent_targets():
    import stats

    original = stats.summarize
    tracer = Tracer()
    tracer.install([
        Target("outer", "stats", "summarize"),
        Target("inner", "stats", "tail_percentile"),
        Target("gone", "stats", "no_such_function"),
        Target("gone", "no_such_module_here", "f"),
    ])
    try:
        tracer.span("root", "root", stats.summarize, [1.0, 2.0, 3.0])
    finally:
        tracer.uninstall()
    assert stats.summarize is original
    assert [s.layer for s in tracer.spans] == ["root", "outer", "inner"]
    assert tracer.spans[2].parent == 1 and tracer.spans[1].parent == 0
    assert tracer.absent == ["stats:no_such_function", "no_such_module_here:f"]
    own = layer_self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own.values()) == pytest.approx(root.end - root.start)


def test_tracer_wraps_classmethods_and_inherited_methods():
    from repro.plan import ScoringPlan

    raw = vars(ScoringPlan)["for_items"]
    tracer = Tracer()
    tracer.install([Target("plan.compile", "repro.plan", "ScoringPlan.for_items",
                           layers._count_plan)])
    try:
        plan = ScoringPlan.for_items(np.array([0, 0]), np.array([[1, 2], [1, 2]]))
    finally:
        tracer.uninstall()
    assert vars(ScoringPlan)["for_items"] is raw
    assert plan.n_pairs == 2 and len(tracer.spans) == 1
    assert tracer.counters == {"plan.flat_rows": 4.0, "plan.unique_pairs": 2.0}


# -- seeded inputs --------------------------------------------------------
def test_schedule_is_deterministic_per_seed():
    args = dict(rate=200.0, duration=2.0, n_users=50, n_items=20, width=5,
                share_a=2 / 3, skewed=True)
    first, again = make_schedule(7, **args), make_schedule(7, **args)
    other = make_schedule(8, **args)
    assert fingerprint([first]) == fingerprint([again]) != fingerprint([other])
    assert len(first) == 400 and first.candidates.max() < 50
    assert np.all(np.diff(first.due) > 0)


def test_dataset_is_deterministic_per_seed():
    size = dict(n_users=300, n_items=80, n_groups=600)
    assert fingerprint([make_dataset(3, **size)]) == fingerprint([make_dataset(3, **size)])
    assert fingerprint([make_dataset(3, **size)]) != fingerprint([make_dataset(4, **size)])


# -- output checks --------------------------------------------------------
@pytest.fixture(scope="module")
def small_world():
    from repro.baselines import GBMF

    dataset = make_dataset(5, n_users=600, n_items=200, n_groups=1500)
    return dataset, GBMF(dataset.n_users, dataset.n_items, seed=1)


def test_reference_metrics_match_the_protocol(small_world):
    from repro.eval import EvalProtocol

    dataset, model = small_world
    protocol = EvalProtocol(dataset, n_negatives=9, cutoff=10, seed=3, max_instances=15)
    got = protocol.run(model).flat()
    want = checks.reference_metrics(model, dataset, 9, 10, 3, 15)
    assert checks.compare_metrics(got, want) == []
    got["B/MRR@10"] += 1e-9
    assert len(checks.compare_metrics(got, want)) == 1


def test_score_check_catches_a_perturbed_score(small_world):
    _, model = small_world
    cands = np.array([[1, 4, 9, 2]])
    reference = model.score_items_matrix(np.array([3]), cands)[0]
    assert checks.compare_scores(reference.copy(), reference)
    perturbed = reference.copy()
    perturbed[2] *= 1.0 + 1e-6
    assert not checks.compare_scores(perturbed, reference)
    assert not checks.compare_scores(reference[:3], reference)


def test_loss_check_needs_finite_falling_losses():
    assert checks.losses_fall([2.0, 1.5, 1.0]) == []
    assert checks.losses_fall([1.0, 1.5])
    assert checks.losses_fall([2.0, float("nan"), 1.0])
    assert checks.losses_fall([2.0])


# -- the benchmark definition ---------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- process hygiene --------------------------------------------------------
STOP_SCRIPT = """
import multiprocessing, os, sys, time
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, {here!r})
import run

segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
segment.close()
segment.unlink()
child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(0.2,))
child.start()
tracker_pid = resource_tracker._resource_tracker._pid
run.stop_children()
assert not multiprocessing.active_children()
assert resource_tracker._resource_tracker._pid is None
try:
    os.kill(tracker_pid, 0)
except ProcessLookupError:
    print("stopped")
"""


def test_stop_children_waits_for_workers_and_the_tracker():
    import subprocess

    out = subprocess.run([sys.executable, "-c", STOP_SCRIPT.format(here=str(HERE))],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "stopped"
