"""The fused no-tape executor: bit-parity, fallbacks, buffer reuse.

The contract under test (see ``docs/backends.md``): under ``no_grad``
every planned scoring call at float64 runs fused and is
**bit-identical** to the model's tape hook — for the MGBR expert/gate
stack and the dot-product baselines, dense or sharded stores, via direct
plan calls, the evaluation protocol and the serving engines — while
gradient recording always runs the tape and a model overriding a hook
falls back to it (counted, never wrong).
"""

import numpy as np
import pytest

import repro.baselines as baselines
from repro.baselines.gbmf import GBMF
from repro.cli import build_model
from repro.core import MGBR, MGBRConfig
from repro.eval.protocol import EvalProtocol, evaluate_model
from repro.nn import is_grad_enabled, no_grad
from repro.nn.tensor import dtype_scope
from repro.plan import ScoringPlan
from repro.serving.core import ScoringCore
from repro.serving.engine import ServingEngine
from repro.serving.multi import MultiWorkerEngine


# ----------------------------------------------------------------------
# Model builders + plan fixtures
# ----------------------------------------------------------------------
def _mgbr(dataset, shards=0, seed=3):
    config = MGBRConfig.small(
        d=8, n_experts=2, mtl_layers=2, embedding_shards=shards,
        embedding_service=shards > 0,
    )
    return MGBR(dataset.train, dataset.n_users, dataset.n_items,
                config=config, seed=seed)


def _gbmf(dataset, shards=0, seed=3):
    return GBMF(dataset.n_users, dataset.n_items, dim=8, seed=seed,
                n_shards=shards, service=shards > 0)


def _plans(rng, dataset):
    n_u, n_i = dataset.n_users, dataset.n_items
    users = rng.integers(0, n_u, size=60)
    items = rng.integers(0, n_i, size=60)
    participants = rng.integers(0, n_u, size=60)
    return (
        ScoringPlan.from_item_pairs(users, items),
        ScoringPlan.from_triples(users, items, participants),
    )


def _tape_reference(model, plan, task):
    """The model's tape hook on ``plan`` under ``no_grad`` → ``(P,)`` float64.

    Calls the hook directly, so it bypasses the executor dispatch and
    its counters: the reference every fused result must equal.
    """
    hook = model._score_item_plan if task == "items" else model._score_participant_plan
    with no_grad():
        return np.asarray(hook(model._bundle(), plan).data, dtype=np.float64).ravel()


def _both_executors(model, plan, task):
    """Score ``plan`` through the dispatch and on the tape hook."""
    scorer = (
        model.score_item_plan if task == "items" else model.score_participant_plan
    )
    with no_grad():
        fused = scorer(plan)
    return fused, _tape_reference(model, plan, task)


#: Every scorer exported by ``repro.baselines``, plus MGBR.
_MODELS = ["MGBR"] + [
    name for name in baselines.__all__
    if name not in ("GroupBuyingRecommender", "EmbeddingBundle")
]

#: (model, task) pairs whose model overrides a hook in that task's
#: dispatch chain, so the planned call takes the counted tape fallback.
_FALLS_BACK = {("EATNN", "participants")}


# ----------------------------------------------------------------------
# Bit parity at float64
# ----------------------------------------------------------------------
class TestBitParity:
    @pytest.mark.parametrize("shards", [0, 2])
    @pytest.mark.parametrize("task", ["items", "participants"])
    def test_mgbr_plan_parity(self, tiny_dataset, rng, reap, shards, task):
        model = reap(_mgbr(tiny_dataset, shards=shards))
        plan_items, plan_triples = _plans(rng, tiny_dataset)
        plan = plan_items if task == "items" else plan_triples
        fused, tape = _both_executors(model, plan, task)
        np.testing.assert_array_equal(fused, tape)
        stats = model.executor_stats()
        assert stats["fused_calls"] == 1 and stats["tape_calls"] == 0
        assert stats["fallbacks"] == 0

    @pytest.mark.parametrize("shards", [0, 3])
    @pytest.mark.parametrize("task", ["items", "participants"])
    def test_gbmf_plan_parity(self, tiny_dataset, rng, reap, shards, task):
        model = reap(_gbmf(tiny_dataset, shards=shards))
        plan_items, plan_triples = _plans(rng, tiny_dataset)
        plan = plan_items if task == "items" else plan_triples
        fused, tape = _both_executors(model, plan, task)
        np.testing.assert_array_equal(fused, tape)
        assert model.executor_stats()["fallbacks"] == 0

    @pytest.mark.parametrize("name", _MODELS)
    @pytest.mark.parametrize("task", ["items", "participants"])
    def test_every_model_fused_or_counted_fallback(self, tiny_dataset, rng, name, task):
        model = _mgbr(tiny_dataset) if name == "MGBR" else build_model(
            name, tiny_dataset, dim=8, seed=3
        )
        plan_items, plan_triples = _plans(rng, tiny_dataset)
        plan = plan_items if task == "items" else plan_triples
        scores, tape = _both_executors(model, plan, task)
        np.testing.assert_array_equal(scores, tape)
        stats = model.executor_stats()
        counts = (stats["fused_calls"], stats["fallbacks"], stats["tape_calls"])
        assert counts == ((0, 1, 1) if (name, task) in _FALLS_BACK else (1, 0, 0))
        # With recording on, the same call runs the tape and never fused.
        scorer = model.score_item_plan if task == "items" else model.score_participant_plan
        scorer(plan)
        after = model.executor_stats()
        assert after["fused_calls"] == stats["fused_calls"]
        assert after["tape_calls"] == stats["tape_calls"] + 1
        assert after["fallbacks"] == stats["fallbacks"]

    @pytest.mark.parametrize("build", [_mgbr, _gbmf])
    def test_eval_metrics_executor_invariant(self, tiny_dataset, build, monkeypatch):
        model = build(tiny_dataset)
        protocol = EvalProtocol(
            dataset=tiny_dataset, n_negatives=5, cutoff=5, max_instances=40,
            dedup=True,
        )
        fused = protocol.run(model).flat()
        assert model.executor_stats()["fused_calls"] > 0
        # Without a fused mirror every planned call runs the tape hooks.
        monkeypatch.setattr(model, "_fused_score_plan", lambda emb, plan, task: None)
        tape = protocol.run(model).flat()
        assert model.executor_stats()["fallbacks"] > 0
        assert fused == tape

    def test_float32_scope_stays_close(self, tiny_dataset, rng):
        model = _mgbr(tiny_dataset)
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad(), dtype_scope("float32"):
            fused, tape = _both_executors(model, plan, "items")
        model.invalidate_cache()
        np.testing.assert_allclose(fused, tape, rtol=1e-5, atol=1e-6)


# ----------------------------------------------------------------------
# Fallback paths
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_grad_recording_routes_to_tape(self, tiny_dataset, rng):
        model = _mgbr(tiny_dataset)
        plan, triples = _plans(rng, tiny_dataset)
        assert is_grad_enabled()  # tests run with recording on by default
        model.score_item_plan(plan)
        model.score_participant_plan(triples)
        stats = model.executor_stats()
        assert stats["fused_calls"] == 0
        assert stats["tape_calls"] == 2
        assert stats["fallbacks"] == 0  # the gradient mode, not a mirror gap

    def test_overridden_hook_counts_fallback(self, tiny_dataset, rng):
        class CustomMGBR(MGBR):
            def _score_item_plan(self, emb, plan):
                return super()._score_item_plan(emb, plan)

        config = MGBRConfig.small(d=8, n_experts=2, mtl_layers=2)
        model = CustomMGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=config, seed=3,
        )
        plan, triples = _plans(rng, tiny_dataset)
        with no_grad():
            fused_attempt = model.score_item_plan(plan)
            stats = model.executor_stats()
            assert stats["fallbacks"] == 1 and stats["tape_calls"] == 1
            # The untouched participant hook still runs fused.
            model.score_participant_plan(triples)
            assert model.executor_stats()["fused_calls"] == 1
            # And the fallback's scores equal the reference model's tape run.
            reference = _mgbr(tiny_dataset)
            np.testing.assert_array_equal(
                fused_attempt, _tape_reference(reference, plan, "items")
            )

    def test_overridden_baseline_hook_counts_fallback(self, tiny_dataset, rng):
        class CustomGBMF(GBMF):
            def score_items_from(self, emb, users, items, **kwargs):
                return super().score_items_from(emb, users, items, **kwargs)

        model = CustomGBMF(tiny_dataset.n_users, tiny_dataset.n_items,
                           dim=8, seed=3)
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad():
            model.score_item_plan(plan)
        stats = model.executor_stats()
        assert stats["fallbacks"] == 1 and stats["fused_calls"] == 0


# ----------------------------------------------------------------------
# Buffer reuse
# ----------------------------------------------------------------------
class TestWorkspaceReuse:
    def test_repeat_flushes_hit_buffers(self, tiny_dataset, rng):
        model = _mgbr(tiny_dataset)
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad():
            model.score_item_plan(plan)
            first = model.executor_stats()
            assert first["buffer_misses"] > 0 and first["buffer_hits"] == 0
            model.score_item_plan(plan)
            second = model.executor_stats()
        # Same plan shape → the whole pool is reused, no new allocations.
        assert second["buffer_misses"] == first["buffer_misses"]
        assert second["buffer_hits"] == first["buffer_misses"]
        assert second["invalidations"] == 0

    def test_dtype_switch_invalidates(self, tiny_dataset, rng):
        model = _mgbr(tiny_dataset)
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad():
            model.score_item_plan(plan)
            with dtype_scope("float32"):
                model.score_item_plan(plan)
        model.invalidate_cache()
        assert model.executor_stats()["invalidations"] >= 1

    def test_results_detached_from_workspace(self, tiny_dataset, rng):
        # Two flushes reuse the same buffers; the first result must not
        # be overwritten by the second (scores are copied out).
        model = _mgbr(tiny_dataset)
        plan, _ = _plans(rng, tiny_dataset)
        with no_grad():
            first = model.score_item_plan(plan)
            snapshot = first.copy()
            users = rng.integers(0, tiny_dataset.n_users, size=60)
            items = rng.integers(0, tiny_dataset.n_items, size=60)
            model.score_item_plan(ScoringPlan.from_item_pairs(users, items))
        np.testing.assert_array_equal(first, snapshot)


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
class TestServingExecutor:
    def _serve(self, model):
        with ServingEngine(model, max_delay_ms=1.0) as engine:
            a = engine.score_items(3, [0, 1, 2, 5], timeout=5.0)
            b = engine.score_participants(3, 1, [4, 5, 6], timeout=5.0)
            stats = engine.stats()
        return a, b, stats

    def test_served_scores_bit_identical(self, tiny_dataset):
        model = _mgbr(tiny_dataset)
        served_a, served_b, stats = self._serve(model)
        model.eval()  # the mode the engine served in
        plan_a = ScoringPlan.from_item_pairs(np.full(4, 3), [0, 1, 2, 5])
        plan_b = ScoringPlan.from_triples(np.full(3, 3), np.full(3, 1), [4, 5, 6])
        np.testing.assert_array_equal(
            served_a, plan_a.scatter(_tape_reference(model, plan_a, "items"))
        )
        np.testing.assert_array_equal(
            served_b, plan_b.scatter(_tape_reference(model, plan_b, "participants"))
        )
        assert stats["batcher"]["fused_calls"] == 2
        assert stats["batcher"]["tape_calls"] == 0

    def test_invalid_executor_rejected(self, tiny_dataset):
        # The gradient mode picks the executor; no entry point takes one.
        model = _gbmf(tiny_dataset)
        assert not hasattr(model, "executor")
        for build in (
            lambda: ServingEngine(model, executor="tape"),
            lambda: MultiWorkerEngine([model], executor="tape"),
            lambda: ScoringCore(model, executor="tape"),
            lambda: EvalProtocol(tiny_dataset, executor="tape"),
            lambda: evaluate_model(model, tiny_dataset, executor="tape"),
        ):
            with pytest.raises(TypeError, match="executor"):
                build()

    def test_multi_worker_parity_and_aggregation(self, tiny_dataset):
        requests = [("items", 0, 0, [0, 1, 2]), ("items", 1, 0, [0, 1, 2]),
                    ("participants", 1, 0, [2, 3])]
        with MultiWorkerEngine(
            [_mgbr(tiny_dataset, seed=3) for _ in range(2)], max_delay_ms=1.0
        ) as engine:
            served = [
                engine.score_items(user, cands, timeout=5.0) if task == "items"
                else engine.score_participants(user, item, cands, timeout=5.0)
                for task, user, item, cands in requests
            ]
            aggregate = engine.stats()["aggregate"]
        assert aggregate["fused_calls"] >= 3
        assert aggregate["tape_calls"] == 0
        reference = _mgbr(tiny_dataset, seed=3).eval()
        for scores, (task, user, item, cands) in zip(served, requests):
            n = len(cands)
            plan = (
                ScoringPlan.from_item_pairs(np.full(n, user), cands) if task == "items"
                else ScoringPlan.from_triples(np.full(n, user), np.full(n, item), cands)
            )
            np.testing.assert_array_equal(
                scores, plan.scatter(_tape_reference(reference, plan, task))
            )
