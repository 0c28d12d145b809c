"""Tests for the trainer, histories and checkpoints."""

import gc

import numpy as np
import pytest

from repro.baselines import GBMF
from repro.core import MGBR, MGBRConfig
from repro.nn import Tensor
from repro.training import (
    EpochRecord,
    History,
    TrainConfig,
    Trainer,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)


def _fast_config(**kw):
    base = dict(
        epochs=2, batch_size=32, learning_rate=5e-3, train_negatives=3,
        aux_negatives=3, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_from_mgbr_copies_table2_fields(self):
        m = MGBRConfig.small(batch_size=48, learning_rate=1e-3, beta=0.7)
        tc = TrainConfig.from_mgbr(m, epochs=5)
        assert tc.batch_size == 48
        assert tc.learning_rate == pytest.approx(1e-3)
        assert tc.beta == 0.7
        assert tc.epochs == 5

    def test_override_wins(self):
        m = MGBRConfig.small(batch_size=48)
        tc = TrainConfig.from_mgbr(m, batch_size=8)
        assert tc.batch_size == 8


class TestTrainerLoop:
    @pytest.mark.slow
    def test_loss_decreases_over_epochs(self, tiny_dataset, small_config):
        model = MGBR(tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
                     config=small_config)
        trainer = Trainer(model, tiny_dataset, _fast_config(epochs=3))
        first = trainer.train_epoch().losses["total"]
        trainer.train_epoch()
        third = trainer.train_epoch().losses["total"]
        assert third < first

    def test_baseline_without_aux_losses(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        trainer = Trainer(model, tiny_dataset, _fast_config())
        record = trainer.train_epoch()
        assert record.losses["L'_A"] == 0.0
        assert record.losses["L'_B"] == 0.0
        assert record.losses["L_A"] > 0

    def test_mgbr_gets_aux_losses(self, tiny_dataset, small_config):
        model = MGBR(tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
                     config=small_config)
        trainer = Trainer(model, tiny_dataset, _fast_config())
        record = trainer.train_epoch()
        assert record.losses["L'_A"] > 0
        assert record.losses["L'_B"] > 0

    def test_mgbr_r_variant_skips_aux(self, tiny_dataset, small_config):
        from repro.core import build_variant

        model = build_variant("MGBR-R", tiny_dataset.train, tiny_dataset.n_users,
                              tiny_dataset.n_items, base=small_config)
        trainer = Trainer(model, tiny_dataset, _fast_config())
        record = trainer.train_epoch()
        assert record.losses["L'_A"] == 0.0

    def test_parameters_actually_move(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        Trainer(model, tiny_dataset, _fast_config(epochs=1)).train_epoch()
        moved = any(
            not np.allclose(before[k], v) for k, v in model.state_dict().items()
        )
        assert moved

    def test_periodic_validation_records_metrics(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        trainer = Trainer(
            model, tiny_dataset,
            _fast_config(epochs=2, eval_every=1, eval_max_instances=5),
        )
        history = trainer.fit()
        assert all("B/MRR@10" in r.metrics for r in history.records)

    def test_restore_best_rolls_back(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        trainer = Trainer(
            model, tiny_dataset,
            _fast_config(epochs=3, eval_every=1, eval_max_instances=5,
                         restore_best=True, monitor="B/MRR@10"),
        )
        history = trainer.fit()
        best = history.best_epoch("B/MRR@10")
        assert best is not None  # roll-back happened without error

    def test_early_stopping_halts(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        trainer = Trainer(
            model, tiny_dataset,
            _fast_config(epochs=50, eval_every=1, eval_max_instances=3, patience=1),
        )
        history = trainer.fit()
        assert len(history) < 50

    def test_empty_training_split_rejected(self, tiny_dataset):
        from repro.data import GroupBuyingDataset

        empty = GroupBuyingDataset(
            n_users=tiny_dataset.n_users, n_items=tiny_dataset.n_items,
            train=[g for g in tiny_dataset.train if g.size == 0][:0],
        )
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        with pytest.raises(ValueError):
            Trainer(model, empty, _fast_config())


def _clone_pair(builder, dataset, **config_kw):
    """Two identically-initialised (model, trainer) pairs, flat vs planned."""
    out = []
    for dedup in (False, True):
        model = builder()
        config = _fast_config(epochs=1, dedup=dedup, **config_kw)
        out.append((model, Trainer(model, dataset, config)))
    return out


def _epoch_grads_and_state(model, trainer):
    record = trainer.train_epoch()
    grads = {
        name: param.grad.copy()
        for name, param in model.named_parameters()
        if param.grad is not None
    }
    return record, grads, model.state_dict()


class TestPlannedStepParity:
    """The tentpole guarantee: the planned (dedup + factorized) _step is
    the same optimisation as the flat _step.

    GBMF's planned path is pure pair dedup — every loss row is the same
    float computation on the same operands, so its losses are
    *bit-identical* and grads/weights differ only by gradient
    accumulation order (single-ulp).  MGBR's factorized layer-0
    re-associates ``W·[e_u;e_i;e_p]`` into per-entity partial sums, so
    its parity is float-re-association-tight instead of bitwise.
    """

    def test_gbmf_losses_bit_identical_grads_to_ulp(self, tiny_dataset):
        (m_flat, t_flat), (m_plan, t_plan) = _clone_pair(
            lambda: GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0),
            tiny_dataset,
        )
        rec_flat, grads_flat, state_flat = _epoch_grads_and_state(m_flat, t_flat)
        rec_plan, grads_plan, state_plan = _epoch_grads_and_state(m_plan, t_plan)
        assert rec_plan.losses == rec_flat.losses  # bitwise, a full epoch
        assert grads_plan.keys() == grads_flat.keys()
        for name in grads_flat:
            np.testing.assert_allclose(
                grads_plan[name], grads_flat[name], rtol=1e-12, atol=1e-14,
                err_msg=f"grad {name}",
            )
        for name in state_flat:
            np.testing.assert_allclose(
                state_plan[name], state_flat[name], rtol=1e-12, atol=1e-14,
                err_msg=f"post-Adam weight {name}",
            )

    @pytest.mark.parametrize("aux_a_mode", ["literal", "listnet"])
    def test_mgbr_parity_with_aux_losses(self, tiny_dataset, small_config, aux_a_mode):
        builder = lambda: MGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=small_config,
        )
        (m_flat, t_flat), (m_plan, t_plan) = _clone_pair(
            builder, tiny_dataset, aux_a_mode=aux_a_mode
        )
        assert not t_flat._use_planned and t_plan._use_planned
        rec_flat, grads_flat, state_flat = _epoch_grads_and_state(m_flat, t_flat)
        rec_plan, grads_plan, state_plan = _epoch_grads_and_state(m_plan, t_plan)
        assert rec_plan.losses["L'_A"] > 0  # aux losses actually engaged
        for key in rec_flat.losses:
            assert rec_plan.losses[key] == pytest.approx(
                rec_flat.losses[key], rel=1e-10, abs=1e-12
            ), key
        assert grads_plan.keys() == grads_flat.keys()
        for name in grads_flat:
            np.testing.assert_allclose(
                grads_plan[name], grads_flat[name], rtol=1e-6, atol=1e-9,
                err_msg=f"grad {name}",
            )
        for name in state_flat:
            np.testing.assert_allclose(
                state_plan[name], state_flat[name], rtol=1e-6, atol=1e-9,
                err_msg=f"post-Adam weight {name}",
            )

    def test_mgbr_r_variant_parity_without_aux(self, tiny_dataset, small_config):
        # No corruption segments: the joint plan still mixes sentinel
        # (Task-A) and explicit (Task-B) participant slots.
        from repro.core import build_variant

        builder = lambda: build_variant(
            "MGBR-R", tiny_dataset.train, tiny_dataset.n_users,
            tiny_dataset.n_items, base=small_config,
        )
        (m_flat, t_flat), (m_plan, t_plan) = _clone_pair(builder, tiny_dataset)
        rec_flat = t_flat.train_epoch()
        rec_plan = t_plan.train_epoch()
        assert rec_plan.losses["L'_A"] == rec_flat.losses["L'_A"] == 0.0
        for key in rec_flat.losses:
            assert rec_plan.losses[key] == pytest.approx(
                rec_flat.losses[key], rel=1e-10, abs=1e-12
            ), key

    def test_auto_dedup_resolution(self, tiny_dataset, small_config):
        mgbr = MGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=small_config,
        )
        gbmf = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        assert Trainer(mgbr, tiny_dataset, _fast_config())._use_planned
        assert not Trainer(gbmf, tiny_dataset, _fast_config())._use_planned
        assert Trainer(gbmf, tiny_dataset, _fast_config(dedup=True))._use_planned
        assert not Trainer(mgbr, tiny_dataset, _fast_config(dedup=False))._use_planned
        with pytest.raises(ValueError):
            _fast_config(dedup="sometimes")

    def test_phase_timing_recorded_and_rendered(self, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        record = Trainer(model, tiny_dataset, _fast_config(epochs=1)).train_epoch()
        assert set(record.phases) == {"sampling", "forward", "backward", "optimizer"}
        assert all(v >= 0.0 for v in record.phases.values())
        # Phases are rounded to 4 decimals, so their sum may exceed the
        # epoch wall-clock by up to n_phases * 5e-5 of rounding.
        assert sum(record.phases.values()) <= record.seconds + 1e-3
        line = record.line()
        assert "sam" in line and "opt" in line

    def test_phase_timing_json_round_trip(self, tmp_path):
        h = History()
        h.append(EpochRecord(1, {"total": 1.0}, seconds=2.0,
                             phases={"sampling": 0.5, "forward": 1.5}))
        loaded = History.from_json(h.to_json(tmp_path / "hist.json"))
        assert loaded.records[0].phases == {"sampling": 0.5, "forward": 1.5}

    def test_planned_step_leaves_no_cyclic_tensor_garbage(self, tiny_dataset, small_config):
        # The step's graph must be freed by reference counting alone:
        # a cycle through it would pin every node until the collector ran.
        model = MGBR(tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
                     config=small_config)
        trainer = Trainer(model, tiny_dataset, _fast_config(dedup=True))
        assert trainer._use_planned
        pair = next(trainer._paired_batches())
        model.train()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            trainer._step(pair["a"], pair["b"])
            gc.collect()
            leaked = sum(isinstance(obj, Tensor) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == 0


class TestHistory:
    def test_append_monotone_epochs(self):
        h = History()
        h.append(EpochRecord(epoch=1, losses={"total": 1.0}))
        with pytest.raises(ValueError):
            h.append(EpochRecord(epoch=1, losses={"total": 0.9}))

    def test_best_epoch(self):
        h = History()
        h.append(EpochRecord(1, {"total": 1.0}, {"m": 0.5}))
        h.append(EpochRecord(2, {"total": 0.9}, {"m": 0.8}))
        h.append(EpochRecord(3, {"total": 0.8}, {"m": 0.6}))
        assert h.best_epoch("m").epoch == 2
        assert h.best_epoch("absent") is None

    def test_loss_curve(self):
        h = History()
        for e, v in enumerate([1.0, 0.7, 0.5], start=1):
            h.append(EpochRecord(e, {"total": v}))
        assert h.loss_curve("total") == [1.0, 0.7, 0.5]

    def test_last_empty_raises(self):
        with pytest.raises(IndexError):
            History().last()

    def test_json_roundtrip(self, tmp_path):
        h = History()
        h.append(EpochRecord(1, {"total": 1.0}, {"m": 0.2}, seconds=2.5))
        path = h.to_json(tmp_path / "hist.json")
        loaded = History.from_json(path)
        assert loaded.records[0].metrics["m"] == 0.2
        assert loaded.records[0].seconds == 2.5

    def test_record_line_format(self):
        line = EpochRecord(3, {"total": 0.5}, {"m": 0.25}, seconds=1.0).line()
        assert "epoch   3" in line and "total=0.5000" in line and "m=0.2500" in line


class TestCheckpoints:
    def test_roundtrip(self, tmp_path, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        path = save_checkpoint(model, tmp_path / "model", extra={"note": "unit"})
        clone = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=99)
        meta = restore_model(clone, path)
        assert meta["extra"]["note"] == "unit"
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_class_mismatch_rejected(self, tmp_path, tiny_dataset, tiny_mgbr):
        path = save_checkpoint(tiny_mgbr, tmp_path / "mgbr")
        other = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=0)
        with pytest.raises(ValueError):
            restore_model(other, path)

    def test_load_checkpoint_structure(self, tmp_path, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        path = save_checkpoint(model, tmp_path / "m")
        payload = load_checkpoint(path)
        assert payload["meta"]["model_class"] == "GBMF"
        assert set(payload["state"]) == set(model.state_dict())

    def test_suffix_added(self, tmp_path, tiny_dataset):
        model = GBMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=4, seed=0)
        path = save_checkpoint(model, tmp_path / "noext")
        assert path.suffix == ".npz"
