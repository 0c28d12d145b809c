"""Per-layer metrics of the traced run.

:func:`targets` lists the public callables wrapped at each layer
boundary; :func:`layer_metrics` turns the recorded spans and the
program's public counters into the ``<layer>.<metric>`` figures.  Every
time is a self time (children excluded) per operation of the workload:
per optimisation step (``train``), per ranked 1:99 list (``eval``,
``eval-gbmf``) or per request (``serve``, ``serve-catalog``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from spans import Target, Tracer, layer_self_times, reconcile

#: Allowed gap between the measuring thread's summed self times and
#: its wall time (a share of wall time).
RECONCILE_TOLERANCE = 0.01

#: Span keys whose self time is reported as ``<key>_s``.
TIMED = (
    "data.sample", "graph.encode", "plan.compile", "plan.scatter", "core.score",
    "nn.backward", "nn.optim", "store.gather", "serving.submit",
    "serving.execute", "eval.protocol", "eval.rank", "train.loop",
)

#: Every per-layer metric with its unit, in report order.  A layer a
#: workload does not exercise reads 0.
PER_LAYER = {
    **{f"{key}_s": "s/op" for key in TIMED},
    "plan.dedup_ratio": "ratio",
    "plan.unique_pairs": "count/op",
    "executor.fused_calls": "count/op",
    "executor.fallbacks": "count/op",
    "executor.buffer_hit_rate": "ratio",
    "store.gather_rows": "count/op",
    "store.resident_mb": "MiB",
    "mem.peak_rss_mb": "MiB",
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.p99": "ms",
    "serving.flush_ms.p50": "ms",
    "serving.flush_ms.p99": "ms",
    "serving.rows_per_flush": "count",
    "serving.flushes": "count/op",
    "serving.shed": "count/op",
    "serving.rejected": "count/op",
    "serving.latency_p50_ms.low": "ms",
    "serving.latency_tail_ms.low": "ms",
    "serving.max_rate_rps": "1/s",
    "gen.lag_ms.p99": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.reconcile_error_pct": "%",
    "trace.absent_layers": "count",
}


def _count_plan(tracer: Tracer, args, plan, span, nested: bool) -> None:
    """Dedup counters of a top-level plan compile (not of nested ones)."""
    if nested:
        return
    plan = getattr(plan, "plan", plan)  # PlannedBatch wraps its plan
    tracer.count("plan.flat_rows", plan.n_flat)
    tracer.count("plan.unique_pairs", plan.n_pairs)


def targets(exec_starts: Dict[int, float]) -> List[Target]:
    """Every wrapped callable, keyed by the metric its self time feeds.

    ``exec_starts`` receives, for each ticket a flush executes, the
    flush's start time (queue wait is measured up to there).
    """
    from repro.serving import PendingScores

    def note_execute(tracer, args, result, span, nested) -> None:
        for requests in args[1:3]:
            for request in requests:
                for part in request:
                    if isinstance(part, PendingScores):
                        exec_starts[id(part)] = span.start

    plan = "repro.plan"
    out = [
        Target("data.sample", "repro.data.negative", f"NegativeSampler.{name}")
        for name in ("sample_items_batch", "sample_participants_batch",
                     "corrupt_items", "corrupt_participants")
    ]
    out += [
        Target("graph.encode", "repro.core.model", "MGBR.compute_embeddings"),
        Target("graph.encode", "repro.baselines.gbmf", "GBMF.compute_embeddings"),
    ]
    out += [
        Target("plan.compile", plan, f"ScoringPlan.{name}", _count_plan)
        for name in ("for_items", "for_participants", "from_item_pairs", "from_triples")
    ]
    out += [
        Target("plan.compile", plan, "PlannedBatch.build", _count_plan),
        Target("plan.compile", plan, "ScoringPlan.pair_slice"),
        Target("plan.scatter", plan, "ScoringPlan.scatter"),
        Target("plan.scatter", plan, "PlannedBatch.scatter"),
    ]
    out += [
        Target("core.score", "repro.baselines.base", f"GroupBuyingRecommender.{name}")
        for name in ("score_item_plan", "score_participant_plan",
                     "score_items_matrix", "score_participants_matrix")
    ]
    out += [
        Target("core.score", "repro.core.model", "MGBR.planned_joint_logits"),
        Target("nn.backward", "repro.nn.tensor", "Tensor.backward"),
        Target("nn.optim", "repro.nn.optim", "Adam.step"),
        Target("nn.optim", "repro.training.trainer", "clip_grad_norm"),
    ]
    out += [
        Target("store.gather", module, f"{cls}.gather")
        for module, cls in (("repro.store.dense", "DenseStore"),
                            ("repro.store.sharded", "ShardedStore"),
                            ("repro.store.service", "ProcessShardedStore"),
                            ("repro.store.lru", "LRUCachedStore"),
                            ("repro.store.quant", "QuantizedStore"))
    ]
    out += [
        Target("serving.submit", "repro.serving.engine", "ServingEngine.submit_items"),
        Target("serving.submit", "repro.serving.engine",
               "ServingEngine.submit_participants"),
        Target("serving.execute", "repro.serving.core", "ScoringCore.execute",
               note_execute),
        Target("eval.protocol", "repro.eval.protocol", "EvalProtocol.run"),
        Target("eval.rank", "repro.eval.protocol", "ranks_of_positives"),
        Target("eval.rank", "repro.eval.metrics", "RankingAccumulator.add_ranks"),
        Target("eval.rank", "repro.eval.metrics", "RankingAccumulator.result"),
        Target("train.loop", "repro.training.trainer", "Trainer.train_epoch"),
    ]
    return out


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0) - before.get(key, 0))


def layer_metrics(tracer: Tracer, traced, untraced, before: dict, after: dict,
                  exec_starts: Dict[int, float], diagnostics: dict):
    """``(metrics, ok, notes)`` of the traced run.

    ``traced``/``untraced`` are the two measured phases
    (:class:`workloads.Result`); ``before``/``after`` the workload's
    counter snapshots around the traced phase.
    """
    spans = [s for s in tracer.spans if s.end > 0.0]
    ops = max(traced.ops, 1)
    own = layer_self_times(spans)
    metrics: Dict[str, float] = {f"{key}_s": own.get(key, 0.0) / ops for key in TIMED}

    flat = tracer.counters.get("plan.flat_rows", 0.0)
    pairs = tracer.counters.get("plan.unique_pairs", 0.0)
    metrics["plan.dedup_ratio"] = flat / pairs if pairs else 0.0
    metrics["plan.unique_pairs"] = pairs / ops

    hits = _delta(after, before, "executor_buffer_hits")
    misses = _delta(after, before, "executor_buffer_misses")
    metrics["executor.fused_calls"] = _delta(after, before, "executor_fused_calls") / ops
    metrics["executor.fallbacks"] = _delta(after, before, "executor_fallbacks") / ops
    metrics["executor.buffer_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0

    metrics["store.gather_rows"] = _delta(after, before, "store_rows") / ops
    metrics["store.resident_mb"] = after.get("store_bytes", 0) / 2**20

    flush_ms = [(s.end - s.start) * 1000.0 for s in spans if s.layer == "serving.execute"]
    waits = []
    for key, submitted in traced.submits.items():
        if key in exec_starts:
            waits.append((exec_starts[key] - submitted) * 1000.0)
    metrics["serving.queue_wait_ms.p50"] = _pct(waits, 50)
    metrics["serving.queue_wait_ms.p99"] = _pct(waits, 99)
    metrics["serving.flush_ms.p50"] = _pct(flush_ms, 50)
    metrics["serving.flush_ms.p99"] = _pct(flush_ms, 99)
    core_flushes = _delta(after, before, "core_flushes")
    metrics["serving.rows_per_flush"] = (
        _delta(after, before, "flat_rows") / core_flushes if core_flushes else 0.0)
    metrics["serving.flushes"] = _delta(after, before, "flushes") / ops
    metrics["serving.shed"] = _delta(after, before, "shed") / ops
    metrics["serving.rejected"] = _delta(after, before, "rejected") / ops
    metrics["serving.latency_p50_ms.low"] = diagnostics.get("low_p50_ms", 0.0)
    metrics["serving.latency_tail_ms.low"] = diagnostics.get("low_tail_ms", 0.0)
    metrics["serving.max_rate_rps"] = diagnostics.get("max_rate_rps", 0.0)
    metrics["gen.lag_ms.p99"] = untraced.extra.get("gen_lag_p99_ms", 0.0)

    root = next(s for s in spans if s.layer == "bench.loop")
    wall = root.end - root.start
    ok, error = reconcile(spans, wall, root.thread, RECONCILE_TOLERANCE)
    notes = [] if ok else [f"self times miss wall time by {error:.2%}"]
    limit = wall * (1.0 + RECONCILE_TOLERANCE)
    if any(t > limit for t in _thread_totals(spans, exclude=root.thread).values()):
        notes.append("a worker thread was busy longer than the measured wall time")
        ok = False
    base = 1.0 / untraced.throughput if untraced.throughput else 0.0
    cost = 1.0 / traced.throughput if traced.throughput else 0.0
    metrics["trace.overhead_pct"] = (cost / base - 1.0) * 100.0 if base else 0.0
    metrics["trace.unattributed_pct"] = own.get("bench.loop", 0.0) / wall * 100.0
    metrics["trace.reconcile_error_pct"] = error * 100.0
    metrics["trace.absent_layers"] = float(len(tracer.absent))
    return metrics, ok, notes


def _thread_totals(spans, exclude: int) -> Dict[int, float]:
    """Root-span time per thread other than ``exclude``."""
    totals: Dict[int, float] = {}
    for span in spans:
        if span.parent is None and span.thread != exclude:
            totals[span.thread] = totals.get(span.thread, 0.0) + span.end - span.start
    return totals


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
