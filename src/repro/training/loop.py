"""The train/eval loops every trainer in the library runs through.

These are deliberately minimal: one function that runs a single epoch of
SGD over a loader, one that evaluates accuracy/loss, and a ``fit`` helper
that strings them together with a learning-rate scheduler.  ``train_epoch``
is the only training step loop: the CSQ trainer calls it once per epoch of
each phase (passing the budget-aware regularizer as ``extra_loss``) around
its own temperature schedule, and the BSQ baseline trains through ``fit``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataloader import DataLoader, prefetch_batches
from repro.nn import functional as F
from repro.nn.module import Module
from repro.optim.lr_scheduler import LRScheduler
from repro.optim.optimizer import Optimizer


@dataclass
class TrainingHistory:
    """Per-epoch metric series accumulated during training."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_loss: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    extra: Dict[str, List[float]] = field(default_factory=dict)

    def record_extra(self, key: str, value: float) -> None:
        self.extra.setdefault(key, []).append(float(value))

    @property
    def best_test_accuracy(self) -> float:
        return max(self.test_accuracy) if self.test_accuracy else float("nan")

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")


def iter_batches(loader, prefetch: bool):
    """Iterate ``loader``, adding background prefetch unless it already has it.

    Public helper shared by :func:`train_epoch` and :func:`evaluate`:
    loaders that already prefetch (a ``DataLoader(prefetch=True)``) are
    passed through untouched, anything else is wrapped with
    :func:`repro.data.prefetch_batches` when ``prefetch`` is set."""
    if prefetch and not getattr(loader, "prefetch", False):
        return prefetch_batches(loader)
    return loader


def train_epoch(
    model: Module,
    loader: DataLoader,
    optimizer: Optimizer,
    loss_fn: Optional[Callable[[Tensor, np.ndarray], Tensor]] = None,
    extra_loss: Optional[Callable[[], Tensor]] = None,
    prefetch: bool = True,
    fault_plan=None,
    global_step: int = 0,
) -> Dict[str, float]:
    """Run one epoch of SGD; returns mean loss and accuracy over the epoch.

    ``extra_loss`` is an optional zero-argument callable returning an extra
    scalar term added to the loss of every batch (used for the budget-aware
    regularizer and the BSQ bit-sparsity penalty).  With ``prefetch`` (the
    default) a background worker assembles the next batch while the current
    step runs; batch order and results are unchanged.

    Besides ``loss``/``accuracy`` the metrics carry the epoch's step-time
    and throughput instrumentation (``epoch_time_s``, ``steps``,
    ``step_time_mean_s``, ``images_per_s``); with telemetry enabled
    (``REPRO_TELEMETRY=1``) step times additionally stream into the
    ``train.step_time_s`` histogram and one ``train_epoch`` NDJSON record
    is emitted per epoch.

    ``fault_plan`` (a :class:`repro.deploy.FaultPlan`) is consulted once
    per optimizer step with the global step index ``global_step + steps``;
    a matching ``preempt`` entry raises
    :class:`~repro.deploy.faults.InjectedPreemption`, which is deliberately
    *not* caught here — the process dies exactly as a real preemption
    would, between a completed step and the next checkpoint.
    """
    if loss_fn is None:
        loss_fn = F.cross_entropy
    model.train()
    losses: List[float] = []
    accuracies: List[float] = []
    step_times: List[float] = []
    images_seen = 0
    epoch_started = time.perf_counter()
    for images, labels in iter_batches(loader, prefetch):
        if fault_plan is not None and fault_plan.take_preempt(global_step + len(step_times)):
            from repro.deploy.faults import InjectedPreemption

            raise InjectedPreemption(global_step + len(step_times))
        step_started = time.perf_counter()
        logits = model(Tensor(images))
        loss = loss_fn(logits, labels)
        if extra_loss is not None:
            loss = loss + extra_loss().sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        step_times.append(time.perf_counter() - step_started)
        images_seen += len(labels)
        losses.append(float(loss.data))
        accuracies.append(F.accuracy(logits, labels))
    epoch_time = time.perf_counter() - epoch_started
    metrics = {
        "loss": float(np.mean(losses)),
        "accuracy": float(np.mean(accuracies)),
        "epoch_time_s": epoch_time,
        "steps": float(len(step_times)),
        "step_time_mean_s": float(np.mean(step_times)) if step_times else 0.0,
        "images_per_s": images_seen / epoch_time if epoch_time > 0 else 0.0,
    }
    telemetry = obs.telemetry()
    if telemetry is not None:
        telemetry.registry.histogram("train.step_time_s").record_many(step_times)
        telemetry.registry.counter("train.images").inc(images_seen)
        telemetry.emit({"type": "train_epoch", **metrics})
    return metrics


def evaluate(
    model: Module,
    loader: DataLoader,
    loss_fn: Optional[Callable[[Tensor, np.ndarray], Tensor]] = None,
    prefetch: bool = True,
) -> Dict[str, float]:
    """Evaluate mean loss and accuracy over a loader (no gradients)."""
    if loss_fn is None:
        loss_fn = F.cross_entropy
    model.eval()
    losses: List[float] = []
    correct = 0
    total = 0
    with no_grad():
        for images, labels in iter_batches(loader, prefetch):
            logits = model(Tensor(images))
            loss = loss_fn(logits, labels)
            losses.append(float(loss.data))
            prediction = logits.data.argmax(axis=-1)
            correct += int((prediction == labels).sum())
            total += len(labels)
    return {
        "loss": float(np.mean(losses)) if losses else float("nan"),
        "accuracy": correct / total if total else float("nan"),
    }


def fit(
    model: Module,
    train_loader: DataLoader,
    test_loader: DataLoader,
    optimizer: Optimizer,
    epochs: int,
    scheduler: Optional[LRScheduler] = None,
    extra_loss: Optional[Callable[[], Tensor]] = None,
    on_epoch_end: Optional[Callable[[int, TrainingHistory], None]] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 1,
    resume: str = "auto",
    keep: int = 3,
    fault_plan=None,
) -> TrainingHistory:
    """Standard training loop: ``epochs`` epochs of SGD with optional scheduler.

    ``extra_loss`` is passed to every :func:`train_epoch`.
    ``on_epoch_end(epoch, history)`` is called after each epoch, after the
    scheduler step — the BSQ baseline uses both, for its bit-sparsity
    penalty and its periodic precision adjustment.

    With ``checkpoint_dir`` set, a crash-safe checkpoint is written after
    every ``checkpoint_every``-th epoch (keeping the ``keep`` newest) that
    captures model, optimizer, scheduler, history, and RNG streams; with
    ``resume="auto"`` (the default) the newest *valid* checkpoint in the
    directory is restored before training — torn or corrupt files are
    skipped with a telemetry warning — so a killed run continues
    bitwise-exactly where the uninterrupted run would have been.  Pass
    ``resume="never"`` to ignore existing checkpoints; any other value
    raises ``ValueError``.  ``fault_plan``
    threads a seeded :class:`repro.deploy.FaultPlan` into the step loop
    for ``preempt@step`` injection (when ``None``, the ``REPRO_FAULTS``
    environment knob is consulted, matching the serving tier).
    """
    from repro.deploy.faults import FaultPlan
    from repro.training.checkpoint import (
        Checkpointer, TrainState, capture_rng, restore_rng, resume_from,
    )

    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    checkpointer = (
        Checkpointer(checkpoint_dir, every=checkpoint_every, keep=keep)
        if checkpoint_dir is not None
        else None
    )
    history = TrainingHistory()
    start_epoch = 0
    global_step = 0
    state = resume_from(checkpointer, resume)
    if state is not None:
        model.load_state_dict(state.model_state)
        if state.optimizer_state is not None:
            optimizer.load_state_dict(state.optimizer_state)
        if scheduler is not None and state.scheduler_state is not None:
            scheduler.load_state_dict(state.scheduler_state)
        if state.history is not None:
            history = state.history
        restore_rng(state.rng, train_loader=train_loader, model=model)
        start_epoch = state.epoch + 1
        global_step = state.step
    for epoch in range(start_epoch, epochs):
        train_metrics = train_epoch(
            model,
            train_loader,
            optimizer,
            extra_loss=extra_loss,
            fault_plan=fault_plan,
            global_step=global_step,
        )
        global_step += int(train_metrics["steps"])
        test_metrics = evaluate(model, test_loader)
        history.train_loss.append(train_metrics["loss"])
        history.train_accuracy.append(train_metrics["accuracy"])
        history.test_loss.append(test_metrics["loss"])
        history.test_accuracy.append(test_metrics["accuracy"])
        history.record_extra("epoch_time_s", train_metrics["epoch_time_s"])
        history.record_extra("train_images_per_s", train_metrics["images_per_s"])
        if scheduler is not None:
            scheduler.step()
        if on_epoch_end is not None:
            on_epoch_end(epoch, history)
        if checkpointer is not None:
            checkpointer.maybe_save(
                TrainState(
                    model_state=model.state_dict(),
                    phase="fit",
                    epoch=epoch,
                    step=global_step,
                    optimizer_state=optimizer.state_dict(),
                    scheduler_state=scheduler.state_dict() if scheduler is not None else None,
                    history=history,
                    rng=capture_rng(train_loader=train_loader, model=model),
                ),
                epoch_in_phase=epoch,
            )
    return history
