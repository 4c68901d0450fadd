"""Crash-safe checkpoints: atomic round trips, corruption, exact resume."""

import json
import os
import random

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.synthetic import SyntheticConfig, SyntheticImageClassification
from repro.deploy.faults import FaultPlan, InjectedPreemption
from repro.models import SimpleConvNet
from repro.obs import telemetry_scope
from repro.optim import SGD, WarmupCosine
from repro.training import fit
from repro.training.checkpoint import (
    CheckpointCorrupt,
    CheckpointError,
    Checkpointer,
    TrainState,
    capture_rng,
    latest_valid_checkpoint,
    list_checkpoints,
    load_checkpoint,
    restore_rng,
    save_checkpoint,
)
from repro.training.loop import TrainingHistory
from repro.utils import seed_everything


def make_state(step=7, phase="csq", epoch=2):
    rng = np.random.default_rng(step)
    return TrainState(
        model_state={
            "conv.weight": rng.standard_normal((4, 3)).astype(np.float32),
            "bn.running_mean": rng.standard_normal(4),  # float64 on purpose
            "bn.num_batches_tracked": np.array(11, dtype=np.int64),
        },
        phase=phase,
        epoch=epoch,
        step=step,
        optimizer_state={
            "state": {
                0: {"momentum_buffer": rng.standard_normal(12).astype(np.float32)},
                1: {"step": 3, "exp_avg": rng.standard_normal(4).astype(np.float32)},
            },
            "param_groups": [{"lr": 0.05, "momentum": 0.9, "params": [0, 1]}],
        },
        scheduler_state={"last_epoch": epoch, "base_lrs": [0.1]},
        history=TrainingHistory(
            train_loss=[1.5, 0.9], test_accuracy=[0.4, 0.6], extra={"beta": [1.0, 2.0]}
        ),
        csq={"beta": 4.0, "hard_mask": False, "frozen": False},
        rng=capture_rng(),
        metadata={"arch": "test"},
    )


def flip_bit(path, offset=None):
    size = os.path.getsize(path)
    offset = size // 2 if offset is None else offset
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x01]))


class TestSaveLoadRoundTrip:
    def test_everything_round_trips_bitwise(self, tmp_path):
        state = make_state()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.phase == "csq" and loaded.epoch == 2 and loaded.step == 7
        for name, value in state.model_state.items():
            assert loaded.model_state[name].dtype == value.dtype
            assert loaded.model_state[name].tobytes() == value.tobytes()
        buffer = loaded.optimizer_state["state"][0]["momentum_buffer"]
        assert buffer.tobytes() == state.optimizer_state["state"][0]["momentum_buffer"].tobytes()
        assert loaded.optimizer_state["state"][1]["step"] == 3
        assert loaded.optimizer_state["param_groups"] == [
            {"lr": 0.05, "momentum": 0.9, "params": [0, 1]}
        ]
        assert loaded.scheduler_state == {"last_epoch": 2, "base_lrs": [0.1]}
        assert loaded.history.train_loss == [1.5, 0.9]
        assert loaded.history.extra == {"beta": [1.0, 2.0]}
        assert loaded.finetune_history is None
        assert loaded.csq == {"beta": 4.0, "hard_mask": False, "frozen": False}
        assert loaded.metadata == {"arch": "test"}

    def test_rng_streams_round_trip(self, tmp_path):
        state = make_state()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        restore_rng(loaded.rng)
        expected = (random.random(), float(np.random.random()))
        restore_rng(loaded.rng)
        assert (random.random(), float(np.random.random())) == expected

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "absent.npz"))

    def test_unsupported_format_version_raises_typed_error(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(make_state(), path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
            manifest = json.loads(bytes(arrays["manifest"]).decode())
        manifest["format_version"] = 99
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


class TestCorruption:
    def test_bit_flip_raises_checkpoint_corrupt(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(make_state(), path)
        flip_bit(path)
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_truncation_raises_checkpoint_corrupt(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(make_state(), path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 3)
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_garbage_file_raises_checkpoint_corrupt(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        with open(path, "wb") as handle:
            handle.write(b"not a zip at all")
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_checkpoint_corrupt_is_a_checkpoint_error(self):
        assert issubclass(CheckpointCorrupt, CheckpointError)
        assert issubclass(CheckpointError, ValueError)


class TestDiscoveryAndRetention:
    def test_list_is_ordered_by_step(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), keep=10)
        for step in (30, 4, 100):
            ckpt.save(make_state(step=step))
        names = [os.path.basename(p) for p in list_checkpoints(str(tmp_path))]
        assert names == ["ckpt-0000000004.npz", "ckpt-0000000030.npz", "ckpt-0000000100.npz"]

    def test_keep_prunes_oldest(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), keep=2)
        for step in range(5):
            ckpt.save(make_state(step=step))
        names = [os.path.basename(p) for p in list_checkpoints(str(tmp_path))]
        assert names == ["ckpt-0000000003.npz", "ckpt-0000000004.npz"]

    def test_maybe_save_honors_cadence(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), every=2, keep=10)
        written = [
            ckpt.maybe_save(make_state(step=epoch), epoch_in_phase=epoch)
            for epoch in range(4)
        ]
        assert [w is not None for w in written] == [False, True, False, True]

    def test_latest_valid_skips_corrupt_and_falls_back(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), keep=5)
        for step in (1, 2, 3):
            ckpt.save(make_state(step=step))
        paths = list_checkpoints(str(tmp_path))
        flip_bit(paths[-1])
        found = latest_valid_checkpoint(str(tmp_path))
        assert found is not None
        path, state = found
        assert path == paths[-2]
        assert state.step == 2

    def test_all_corrupt_returns_none(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), keep=5)
        for step in (1, 2):
            ckpt.save(make_state(step=step))
        for path in list_checkpoints(str(tmp_path)):
            flip_bit(path)
        assert latest_valid_checkpoint(str(tmp_path)) is None

    def test_empty_or_missing_directory(self, tmp_path):
        assert list_checkpoints(str(tmp_path / "missing")) == []
        assert latest_valid_checkpoint(str(tmp_path)) is None

    def test_corrupt_skip_counts_and_warns_in_telemetry(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), keep=5)
        for step in (1, 2):
            ckpt.save(make_state(step=step))
        flip_bit(list_checkpoints(str(tmp_path))[-1])
        with telemetry_scope(enabled=True) as handle:
            state = ckpt.resume()
            assert state is not None and state.step == 1
            assert handle.registry.counter("train.corrupt_skipped").value == 1
            assert handle.registry.counter("train.resumes").value == 1
            assert handle.registry.counter("telemetry.warnings").value == 1

    def test_save_counts_in_telemetry(self, tmp_path):
        with telemetry_scope(enabled=True) as handle:
            Checkpointer(str(tmp_path)).save(make_state())
            assert handle.registry.counter("train.checkpoints_written").value == 1

    def test_invalid_cadence_and_retention_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(str(tmp_path), every=0)
        with pytest.raises(ValueError):
            Checkpointer(str(tmp_path), keep=0)


def make_fit_run(tmp_dir=None, fault_plan=None, epochs=4):
    seed_everything(0)
    config = SyntheticConfig(
        num_classes=4, image_size=8, train_size=96, test_size=48,
        modes_per_class=1, noise=0.5, seed=0,
    )
    train_loader = DataLoader(
        SyntheticImageClassification(config, train=True),
        batch_size=32, shuffle=True, seed=0,
    )
    test_loader = DataLoader(SyntheticImageClassification(config, train=False), batch_size=48)
    model = SimpleConvNet(num_classes=4, width=8)
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
    scheduler = WarmupCosine(optimizer, total_epochs=epochs)
    history = fit(
        model, train_loader, test_loader, optimizer, epochs,
        scheduler=scheduler, checkpoint_dir=tmp_dir, fault_plan=fault_plan,
    )
    return model, history


class TestFitResume:
    def test_killed_fit_resumes_bitwise(self, tmp_path):
        reference_model, reference_history = make_fit_run()
        ckpt_dir = str(tmp_path / "ckpts")
        with pytest.raises(InjectedPreemption):
            make_fit_run(ckpt_dir, fault_plan=FaultPlan.parse("preempt@7"))
        resumed_model, resumed_history = make_fit_run(ckpt_dir)
        for name, value in reference_model.state_dict().items():
            assert resumed_model.state_dict()[name].tobytes() == value.tobytes()
        assert resumed_history.train_loss == reference_history.train_loss
        assert resumed_history.test_accuracy == reference_history.test_accuracy

    def test_fit_resume_never_ignores_checkpoints(self, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        make_fit_run(ckpt_dir)
        seed_everything(0)
        config = SyntheticConfig(
            num_classes=4, image_size=8, train_size=96, test_size=48,
            modes_per_class=1, noise=0.5, seed=0,
        )
        train_loader = DataLoader(
            SyntheticImageClassification(config, train=True),
            batch_size=32, shuffle=True, seed=0,
        )
        test_loader = DataLoader(
            SyntheticImageClassification(config, train=False), batch_size=48
        )
        model = SimpleConvNet(num_classes=4, width=8)
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        history = fit(
            model, train_loader, test_loader, optimizer, 1,
            checkpoint_dir=ckpt_dir, resume="never",
        )
        assert len(history.train_loss) == 1  # fresh run, not a 4-epoch resume

    def test_completed_fit_resume_is_a_no_op(self, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        _, reference_history = make_fit_run(ckpt_dir)
        model, history = make_fit_run(ckpt_dir)
        assert history.train_loss == reference_history.train_loss


def train_with_resume(caller, loaders, checkpoint_dir, resume):
    from repro.csq import CSQConfig, CSQTrainer

    train_loader, test_loader = loaders
    model = SimpleConvNet(num_classes=4, width=4)
    if caller == "fit":
        optimizer = SGD(model.parameters(), lr=0.1)
        fit(model, train_loader, test_loader, optimizer, 1,
            checkpoint_dir=checkpoint_dir, resume=resume)
    else:
        CSQTrainer(
            model, train_loader, test_loader, CSQConfig(epochs=1),
            checkpoint_dir=checkpoint_dir, resume=resume,
        ).train()


class TestResumePolicy:
    @pytest.mark.parametrize("caller", ["fit", "csq"])
    @pytest.mark.parametrize("resume", ["Auto", "always", None])
    def test_unknown_policy_raises_before_training(self, tmp_path, tiny_loaders, caller, resume):
        # A mistyped policy must not start a fresh run that writes
        # checkpoints next to (and prunes) another run's files.
        ckpt_dir = str(tmp_path / "ckpts")
        with pytest.raises(ValueError, match="resume must be one of"):
            train_with_resume(caller, tiny_loaders, ckpt_dir, resume)
        assert not os.path.exists(ckpt_dir)

    @pytest.mark.parametrize("caller", ["fit", "csq"])
    def test_known_policies_train(self, tmp_path, tiny_loaders, caller):
        for resume in ("auto", "never"):
            train_with_resume(caller, tiny_loaders, str(tmp_path / resume), resume)
            assert os.listdir(tmp_path / resume)
