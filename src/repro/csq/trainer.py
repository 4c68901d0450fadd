"""Algorithm 1: the CSQ training loop.

The trainer performs, in order:

1. **CSQ phase** — train ``(s, m_p, m_n, m_B)`` jointly for ``epochs``
   epochs.  Each epoch sets the shared gate temperature from the exponential
   schedule, and every mini-batch minimises
   ``L(W) + lambda * dS * sum_layers R(m_B)`` (Eq. 7).
2. **Freeze** — gates become exact unit steps; the quantization scheme
   (per-layer precision) is now fixed and the model is exactly quantized.
3. **Finetuning phase (optional)** — with the bit selection fixed
   (``hard_mask``), the temperature is rewound to ``beta0`` and re-scheduled
   over the finetuning epochs while only the bit representations
   ``(s, m_p, m_n)`` are updated.  Used for the ImageNet-scale experiments
   (Table III).

Every epoch of either phase is one :func:`repro.training.loop.train_epoch`
call (the regularizer is its ``extra_loss``), with that loop's step timing,
telemetry and preemption hook.

Histories of accuracy and average precision per epoch are recorded; the
Figure 2 / Figure 3 benches read ``history.extra["average_precision"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

from repro.csq.convert import convert_to_csq, freeze_model
from repro.csq.precision import average_precision, csq_layers, layer_precisions, model_scheme
from repro.csq.regularizer import BudgetAwareRegularizer
from repro.csq.temperature import ExponentialTemperatureSchedule
from repro.data.dataloader import DataLoader
from repro.nn.module import Module
from repro.optim.lr_scheduler import WarmupCosine
from repro.optim.sgd import SGD
from repro.quant.scheme import QuantizationScheme
from repro.training.checkpoint import (
    Checkpointer, TrainState, capture_rng, restore_rng, resume_from,
)
from repro.training.loop import TrainingHistory, evaluate, train_epoch

# ``perfbench/trace.py`` wraps ``iter_batches`` by name on this module.
from repro.training.loop import iter_batches  # noqa: F401


@dataclass
class CSQConfig:
    """Hyper-parameters of a CSQ run (defaults follow Section IV-A).

    ``epochs`` and ``finetune_epochs`` are far smaller than the paper's
    600/200+100 because the benches run on CPU with synthetic data; the
    schedule shapes (cosine LR, exponential temperature) are identical.
    """

    epochs: int = 20
    finetune_epochs: int = 0
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    warmup_epochs: int = 0
    num_bits: int = 8
    act_bits: int = 32
    act_mode: str = "observer"  #: activation clip convention ("observer"/"pact")
    target_bits: float = 3.0
    base_strength: float = 0.01
    beta0: float = 1.0
    beta_max: float = 200.0
    trainable_mask: bool = True
    mask_lr_scale: float = 1.0
    rep_lr_scale: float = 1.0
    gate_init: float = 1.0
    mask_init: float = 0.1
    skip_layers: tuple = ()


class CSQTrainer:
    """End-to-end CSQ training of a float model (Algorithm 1).

    Parameters
    ----------
    model:
        Float model; it is converted to CSQ layers in place.
    train_loader / test_loader:
        Mini-batch loaders over the training and evaluation splits.
    config:
        :class:`CSQConfig` with the run's hyper-parameters.
    checkpoint_dir / checkpoint_every / resume / keep:
        Crash-safe checkpointing (see :mod:`repro.training.checkpoint`).
        With ``checkpoint_dir`` set, a checkpoint capturing the model,
        optimizer, scheduler, gate state, histories, and every RNG stream
        is written atomically after each ``checkpoint_every``-th epoch of
        a phase (keeping the ``keep`` newest files).  ``resume="auto"``
        (the default) restores the newest *valid* checkpoint before
        training, skipping corrupt files, so a killed run continues
        bitwise-exactly; ``resume="never"`` ignores existing checkpoints;
        any other value makes :meth:`train` raise ``ValueError``.
    fault_plan:
        A :class:`repro.deploy.FaultPlan` consulted once per optimizer
        step for ``preempt@step`` injection.  Defaults to the plan in the
        ``REPRO_FAULTS`` environment knob (``None`` when unset).
    """

    def __init__(
        self,
        model: Module,
        train_loader: DataLoader,
        test_loader: DataLoader,
        config: Optional[CSQConfig] = None,
        *,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        resume: str = "auto",
        keep: int = 3,
        fault_plan=None,
    ) -> None:
        self.config = config or CSQConfig()
        self.model, self.state = convert_to_csq(
            model,
            num_bits=self.config.num_bits,
            act_bits=self.config.act_bits,
            act_mode=self.config.act_mode,
            trainable_mask=self.config.trainable_mask,
            skip_layers=self.config.skip_layers,
            gate_init=self.config.gate_init,
            mask_init=self.config.mask_init,
        )
        self.train_loader = train_loader
        self.test_loader = test_loader
        self.regularizer = (
            BudgetAwareRegularizer(self.config.target_bits, self.config.base_strength)
            if self.config.trainable_mask
            else None
        )
        self.history = TrainingHistory()
        self.finetune_history = TrainingHistory()
        self.frozen = False
        self.global_step = 0
        self.resume = resume
        self.checkpointer = (
            Checkpointer(checkpoint_dir, every=checkpoint_every, keep=keep)
            if checkpoint_dir is not None
            else None
        )
        if fault_plan is None:
            from repro.deploy.faults import FaultPlan

            fault_plan = FaultPlan.from_env()
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    # Optimizer construction
    # ------------------------------------------------------------------
    def _build_optimizer(self, include_mask: bool) -> SGD:
        cfg = self.config
        representation_params = []
        mask_params = []
        other_params = []
        csq_param_ids = set()
        for _, layer in csq_layers(self.model):
            for param in layer.bitparam.representation_parameters():
                representation_params.append(param)
                csq_param_ids.add(id(param))
            for param in layer.bitparam.mask_parameters():
                mask_params.append(param)
                csq_param_ids.add(id(param))
        for param in self.model.parameters():
            if id(param) not in csq_param_ids:
                other_params.append(param)

        groups = [
            # The bit representations sit behind the gate Jacobian
            # s / (2^n - 1) * 2^b * sigma', which attenuates their effective
            # step size; rep_lr_scale lets short-schedule runs compensate.
            {
                "params": representation_params,
                "weight_decay": cfg.weight_decay,
                "lr": cfg.lr * cfg.rep_lr_scale,
            },
            {"params": other_params, "weight_decay": cfg.weight_decay},
        ]
        if include_mask and mask_params:
            # No weight decay on the bit masks: decay would bias the selection
            # towards f_beta(0) = 0.5 rather than a binary decision.
            groups.append(
                {
                    "params": mask_params,
                    "weight_decay": 0.0,
                    "lr": cfg.lr * cfg.mask_lr_scale,
                }
            )
        groups = [g for g in groups if g["params"]]
        return SGD(groups, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)

    # ------------------------------------------------------------------
    # Training phases
    # ------------------------------------------------------------------
    def train(self) -> TrainingHistory:
        """Run the CSQ phase (and the finetuning phase if configured).

        With checkpointing configured and ``resume="auto"``, training picks
        up at the epoch after the newest valid checkpoint — inside either
        phase — and the continued run is bitwise-identical to the
        uninterrupted one.
        """
        resume_state = resume_from(self.checkpointer, self.resume)
        if resume_state is not None:
            self._restore(resume_state)
        if resume_state is None or resume_state.phase == "csq":
            self._run_phase("csq", resume_state)
            if self.config.finetune_epochs > 0:
                self._run_phase("finetune", None)
        else:
            # Resuming mid-finetune: the CSQ phase (and its freeze) already
            # happened; the restored gate state carries the hard mask.
            self._run_phase("finetune", resume_state)
        return self.history

    def _run_phase(self, phase: str, resume_state: Optional[TrainState]) -> None:
        """One phase of Algorithm 1 (``"csq"`` or ``"finetune"``), ending in a freeze."""
        from repro.deploy.faults import InjectedPreemption

        cfg = self.config
        finetune = phase == "finetune"
        extra_loss = None
        if finetune:
            self.state.freeze_mask_only()
            self.state.hard_values = False  # rewind: bit representations become soft again
            epochs, warmup_epochs, history = cfg.finetune_epochs, 0, self.finetune_history
        else:
            epochs, warmup_epochs, history = cfg.epochs, cfg.warmup_epochs, self.history
            if self.regularizer is not None:
                extra_loss = partial(self.regularizer, self.model, self.state)
        schedule = ExponentialTemperatureSchedule(epochs, cfg.beta0, cfg.beta_max)
        optimizer = self._build_optimizer(include_mask=cfg.trainable_mask and not finetune)
        lr_schedule = WarmupCosine(optimizer, total_epochs=epochs, warmup_epochs=warmup_epochs)
        start_epoch = 0
        if resume_state is not None:
            start_epoch = resume_state.epoch + 1
            if resume_state.optimizer_state is not None:
                optimizer.load_state_dict(resume_state.optimizer_state)
            if resume_state.scheduler_state is not None:
                lr_schedule.load_state_dict(resume_state.scheduler_state)

        for epoch in range(start_epoch, epochs):
            self.state.set_temperature(schedule.value(epoch))
            if finetune:
                # The mask stays hard regardless of the temperature.
                self.state.hard_mask = True
            try:
                train_metrics = train_epoch(
                    self.model, self.train_loader, optimizer, extra_loss=extra_loss,
                    fault_plan=self.fault_plan, global_step=self.global_step,
                )
            except InjectedPreemption as preempted:
                self.global_step = preempted.step  # the steps the killed run completed
                raise
            self.global_step += int(train_metrics["steps"])
            test_metrics = evaluate(self.model, self.test_loader)
            history.train_loss.append(train_metrics["loss"])
            history.train_accuracy.append(train_metrics["accuracy"])
            history.test_loss.append(test_metrics["loss"])
            history.test_accuracy.append(test_metrics["accuracy"])
            history.record_extra("average_precision", average_precision(self.model))
            history.record_extra("beta", self.state.beta)
            lr_schedule.step()
            if self.checkpointer is not None:
                self.checkpointer.maybe_save(
                    self._checkpoint_state(phase, epoch, optimizer, lr_schedule),
                    epoch_in_phase=epoch,
                )
        self.freeze()

    # ------------------------------------------------------------------
    # Crash-safe checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_state(self, phase: str, epoch: int, optimizer: SGD, scheduler) -> TrainState:
        return TrainState(
            model_state=self.model.state_dict(),
            phase=phase,
            epoch=epoch,
            step=self.global_step,
            optimizer_state=optimizer.state_dict(),
            scheduler_state=scheduler.state_dict(),
            history=self.history,
            finetune_history=self.finetune_history,
            csq={
                "beta": self.state.beta,
                "beta_mask": self.state.beta_mask,
                "hard_values": self.state.hard_values,
                "hard_mask": self.state.hard_mask,
                "frozen": self.frozen,
                # Diagnostic only (recomputed each batch): the budget-aware
                # regularizer strength lambda * dS at checkpoint time.
                "delta_s": (
                    self.regularizer.delta_s(self.model) if self.regularizer is not None else None
                ),
            },
            rng=capture_rng(train_loader=self.train_loader, model=self.model),
        )

    def _restore(self, state: TrainState) -> None:
        """Load everything phase-independent from a checkpoint."""
        self.model.load_state_dict(state.model_state)
        if state.history is not None:
            self.history = state.history
        if state.finetune_history is not None:
            self.finetune_history = state.finetune_history
        self.global_step = state.step
        csq = state.csq
        if csq:
            self.state.beta = float(csq.get("beta", self.state.beta))
            self.state.beta_mask = float(csq.get("beta_mask", self.state.beta_mask))
            self.state.hard_values = bool(csq.get("hard_values", False))
            self.state.hard_mask = bool(csq.get("hard_mask", False))
            self.frozen = bool(csq.get("frozen", False))
        restore_rng(state.rng, train_loader=self.train_loader, model=self.model)

    # ------------------------------------------------------------------
    # Finalisation and reporting
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Set every gate to the exact unit step (end of a phase)."""
        freeze_model(self.model)
        self.frozen = True

    def evaluate(self) -> Dict[str, float]:
        """Accuracy/loss of the current (possibly frozen) model on the test split."""
        return evaluate(self.model, self.test_loader)

    def scheme(self) -> QuantizationScheme:
        """The mixed-precision quantization scheme found by CSQ."""
        return model_scheme(self.model)

    def layer_precisions(self) -> Dict[str, int]:
        """Per-layer precision (the Figure 4 series)."""
        return layer_precisions(self.model)

    def average_precision(self) -> float:
        """Element-weighted average precision of the current scheme."""
        return average_precision(self.model)

    def precision_trajectory(self) -> List[float]:
        """Average precision per epoch of the CSQ phase (Figures 2 and 3 series)."""
        return list(self.history.extra.get("average_precision", []))
