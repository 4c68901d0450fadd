"""The zero-cost-when-disabled guarantee, end to end.

Disabled telemetry must be invisible: ``obs.telemetry()`` returns ``None``,
instrumented components emit nothing, and — the strongest form — the
Server's outputs are bitwise identical with telemetry off and on (the
subsystem observes the request path, never perturbs it).
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.deploy import InferenceSession, Server, load_artifact, save_artifact
from repro.deploy.testing import frozen_mixed_model
from repro.obs.sink import NdjsonSink, read_ndjson


@pytest.fixture(autouse=True)
def clean_telemetry_state():
    obs.reset_telemetry()
    yield
    obs.reset_telemetry()


@pytest.fixture
def session(tmp_path):
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    path = str(tmp_path / "model.npz")
    save_artifact(model, path, arch="simple_convnet",
                  arch_kwargs={"num_classes": 10, "width": 8})
    return InferenceSession(load_artifact(path))


def serve(session, examples):
    with Server(session, max_batch=4, max_wait_ms=1.0, cache_size=8) as server:
        return [server.predict(x) for x in examples]


class TestKnob:
    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no", "False", "OFF"])
    def test_falsy_env_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        assert not obs.telemetry_enabled()
        assert obs.telemetry() is None

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
    def test_truthy_env_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        assert obs.telemetry_enabled()
        assert obs.telemetry() is not None

    def test_unset_env_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert not obs.telemetry_enabled()
        assert obs.telemetry() is None

    def test_scope_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        with obs.telemetry_scope(enabled=True) as handle:
            assert handle is not None
            assert obs.telemetry() is handle
        assert obs.telemetry() is None

    def test_scope_restores_prior_state(self):
        with obs.telemetry_scope(enabled=True) as outer:
            with obs.telemetry_scope(enabled=False):
                assert obs.telemetry() is None
            assert obs.telemetry() is outer


class TestBitwiseIdenticalServing:
    def test_server_outputs_identical_off_vs_on(self, session, rng, tmp_path):
        examples = [rng.standard_normal((3, 10, 10)).astype(np.float32)
                    for _ in range(6)]
        with obs.telemetry_scope(enabled=False):
            off_results = serve(session, examples)
        sink = NdjsonSink(str(tmp_path / "events"), run_id="on")
        with obs.telemetry_scope(enabled=True, sink=sink):
            on_results = serve(session, examples)
        for off, on in zip(off_results, on_results):
            # Bitwise, not allclose: telemetry must not touch the math.
            assert off.tobytes() == on.tobytes()
        events = read_ndjson(sink.events_path)
        assert {record["type"] for record in events} >= {"request", "batch", "span"}

    def test_profiled_session_outputs_identical(self, session, rng):
        images = rng.standard_normal((4, 3, 10, 10)).astype(np.float32)
        baseline = session.run(images)
        session.set_profiling(True)
        try:
            profiled = session.run(images)
        finally:
            session.set_profiling(False)
        assert baseline.tobytes() == profiled.tobytes()
        assert session.last_profile is not None
        assert len(session.last_profile) == len(session.plan)


class TestNoEmissionWhenDisabled:
    def test_disabled_serving_emits_nothing(self, monkeypatch, session, rng, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        obs.reset_telemetry()
        # A sink exists on disk, but disabled telemetry never attaches one:
        # the events file must not even be created.
        sink = NdjsonSink(str(tmp_path / "events"), run_id="off")
        serve(session, [rng.standard_normal((3, 10, 10)).astype(np.float32)])
        assert sink.emitted == 0
        assert not os.path.exists(sink.events_path)

    def test_disabled_profiler_records_no_spans(self, session, rng):
        """Profiling without telemetry: wall times only, no tracer calls."""
        session.set_profiling(True)
        try:
            with obs.telemetry_scope(enabled=False):
                session.run(rng.standard_normal((2, 3, 10, 10)).astype(np.float32))
            assert session.last_profile is not None
            with obs.telemetry_scope(enabled=True) as handle:
                assert handle.tracer.finished() == []
        finally:
            session.set_profiling(False)


def train_tiny(trainer, loaders):
    """Train a tiny model with ``fit``, ``CSQTrainer`` or ``BSQTrainer``.

    Returns the trained model, the per-epoch training losses (CSQ: both
    phases, in order) and the number of optimizer steps taken.
    """
    from repro.baselines import BSQConfig, BSQTrainer
    from repro.csq import CSQConfig, CSQTrainer
    from repro.models import SimpleConvNet
    from repro.optim import SGD
    from repro.training import fit
    from repro.utils import seed_everything

    seed_everything(0)
    train_loader, test_loader = loaders
    model = SimpleConvNet(num_classes=4, width=4)
    if trainer == "fit":
        history = fit(model, train_loader, test_loader, SGD(model.parameters(), lr=0.05), 2)
        return model, history.train_loss, 2 * len(train_loader)
    if trainer == "csq":
        csq = CSQTrainer(
            model, train_loader, test_loader,
            CSQConfig(epochs=2, finetune_epochs=1, lr=0.05, num_bits=4),
        )
        csq.train()
        return csq.model, csq.history.train_loss + csq.finetune_history.train_loss, csq.global_step
    bsq = BSQTrainer(
        model, train_loader, test_loader,
        BSQConfig(epochs=2, lr=0.05, num_bits=4, prune_interval=1),
    )
    bsq.train()
    return bsq.model, bsq.history.train_loss, 2 * len(train_loader)


class TestTrainingInstrumentation:
    @pytest.mark.parametrize("trainer", ["fit", "csq", "bsq"])
    def test_train_epoch_streams_metrics_when_enabled(self, make_tiny_loaders, tmp_path, trainer):
        with obs.telemetry_scope(enabled=False):
            reference, _, _ = train_tiny(trainer, make_tiny_loaders())
        sink = NdjsonSink(str(tmp_path / "train"), run_id="epoch")
        with obs.telemetry_scope(enabled=True, sink=sink) as handle:
            model, losses, steps = train_tiny(trainer, make_tiny_loaders())
            snapshot = handle.registry.snapshot()
        assert steps > 0
        assert snapshot["train.step_time_s"]["count"] == steps
        assert snapshot["train.images"] > 0
        records = read_ndjson(sink.events_path)
        epoch_records = [r for r in records if r["type"] == "train_epoch"]
        assert [r["loss"] for r in epoch_records] == losses  # one record per epoch
        assert sum(r["steps"] for r in epoch_records) == steps
        # Telemetry observes training; it never changes the weights.
        reference_state = reference.state_dict()
        for name, value in model.state_dict().items():
            assert value.tobytes() == reference_state[name].tobytes(), name
