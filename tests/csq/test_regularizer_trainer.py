"""Tests for the budget-aware regularizer (Eq. 6–7) and the Algorithm-1 trainer."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.csq import (
    BudgetAwareRegularizer,
    CSQConfig,
    CSQTrainer,
    GateState,
    average_precision,
    convert_to_csq,
    csq_layers,
)
from repro.models import SimpleConvNet
from repro.quant.scheme import QuantizationScheme


def converted_model(num_bits=8, mask_init=0.1):
    model, state = convert_to_csq(SimpleConvNet(width=4), num_bits=num_bits, mask_init=mask_init)
    return model, state


class TestBudgetAwareRegularizer:
    def test_delta_s_sign(self):
        model, _ = converted_model()
        reg = BudgetAwareRegularizer(target_bits=3.0)
        assert reg.delta_s(model) == pytest.approx(8.0 - 3.0)
        reg_large_target = BudgetAwareRegularizer(target_bits=10.0)
        assert reg_large_target.delta_s(model) < 0.0

    def test_penalty_positive_when_over_budget(self):
        model, state = converted_model()
        reg = BudgetAwareRegularizer(target_bits=3.0, base_strength=0.01)
        assert float(reg(model, state).data.sum()) > 0.0

    def test_penalty_negative_when_under_budget(self):
        model, state = converted_model()
        for _, layer in csq_layers(model):
            layer.bitparam.m_b.data[:] = -1.0  # precision 0, below any target
        reg = BudgetAwareRegularizer(target_bits=3.0)
        assert float(reg(model, state).data.sum()) < 0.0

    def test_penalty_gradient_prunes_when_over_budget(self):
        model, state = converted_model()
        reg = BudgetAwareRegularizer(target_bits=2.0)
        reg(model, state).sum().backward()
        for _, layer in csq_layers(model):
            # dPenalty/dm_b > 0 so gradient descent decreases m_b (prunes bits).
            assert np.all(layer.bitparam.m_b.grad > 0)

    def test_penalty_gradient_grows_when_under_budget(self):
        model, state = converted_model()
        for _, layer in csq_layers(model):
            layer.bitparam.m_b.data[:] = -0.5
        reg = BudgetAwareRegularizer(target_bits=6.0)
        reg(model, state).sum().backward()
        for _, layer in csq_layers(model):
            assert np.all(layer.bitparam.m_b.grad < 0)

    def test_penalty_scales_with_base_strength(self):
        model, state = converted_model()
        weak = BudgetAwareRegularizer(target_bits=3.0, base_strength=0.001)
        strong = BudgetAwareRegularizer(target_bits=3.0, base_strength=0.1)
        assert float(strong(model, state).data.sum()) > float(weak(model, state).data.sum())

    def test_requires_csq_model(self):
        with pytest.raises(ValueError):
            BudgetAwareRegularizer(3.0)(SimpleConvNet(), GateState())


class TestCSQTrainer:
    def test_trainer_smoke(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = CSQConfig(epochs=2, target_bits=3.0, lr=0.05, weight_decay=0.0)
        trainer = CSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        history = trainer.train()
        assert len(history.test_accuracy) == 2
        assert len(history.extra["average_precision"]) == 2
        assert trainer.frozen

    def test_precision_moves_towards_target(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = CSQConfig(epochs=6, target_bits=3.0, lr=0.05, weight_decay=0.0)
        trainer = CSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        trainer.train()
        final = trainer.average_precision()
        assert abs(final - 3.0) < 2.5  # started at 8, must have moved substantially

    def test_uniform_mode_keeps_precision_fixed(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = CSQConfig(epochs=2, trainable_mask=False, num_bits=4, lr=0.05, weight_decay=0.0)
        trainer = CSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        trainer.train()
        assert trainer.average_precision() == pytest.approx(4.0)
        assert trainer.regularizer is None

    def test_finetune_phase_keeps_scheme_fixed(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = CSQConfig(epochs=3, finetune_epochs=2, target_bits=3.0, lr=0.05, weight_decay=0.0)
        trainer = CSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        trainer._run_phase("csq", None)  # ends with the freeze
        scheme_before = trainer.layer_precisions()
        trainer._run_phase("finetune", None)
        assert trainer.layer_precisions() == scheme_before
        assert len(trainer.finetune_history.test_accuracy) == 2

    def test_scheme_and_trajectory_accessors(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = CSQConfig(epochs=2, target_bits=4.0, lr=0.05, weight_decay=0.0)
        trainer = CSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        trainer.train()
        scheme = trainer.scheme()
        assert isinstance(scheme, QuantizationScheme)
        assert set(scheme.layer_bits()) == set(trainer.layer_precisions())
        assert len(trainer.precision_trajectory()) == 2

    def test_evaluation_after_freeze_is_deterministic(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = CSQConfig(epochs=2, target_bits=3.0, lr=0.05, weight_decay=0.0)
        trainer = CSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        trainer.train()
        first = trainer.evaluate()
        second = trainer.evaluate()
        assert first["accuracy"] == pytest.approx(second["accuracy"])

    def test_mask_optimizer_group_has_no_weight_decay(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = CSQConfig(epochs=1, target_bits=3.0, weight_decay=5e-4)
        trainer = CSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        optimizer = trainer._build_optimizer(include_mask=True)
        mask_ids = {
            id(p) for _, layer in csq_layers(trainer.model) for p in layer.bitparam.mask_parameters()
        }
        mask_groups = [
            group for group in optimizer.param_groups
            if any(id(p) in mask_ids for p in group["params"])
        ]
        assert mask_groups and all(group["weight_decay"] == 0.0 for group in mask_groups)

    def test_rep_lr_scale_applies(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        config = CSQConfig(epochs=1, lr=0.1, rep_lr_scale=5.0)
        trainer = CSQTrainer(SimpleConvNet(num_classes=4, width=4), train_loader, test_loader, config)
        optimizer = trainer._build_optimizer(include_mask=True)
        rep_ids = {
            id(p)
            for _, layer in csq_layers(trainer.model)
            for p in layer.bitparam.representation_parameters()
        }
        rep_groups = [
            group for group in optimizer.param_groups
            if any(id(p) in rep_ids for p in group["params"])
        ]
        assert rep_groups and rep_groups[0]["lr"] == pytest.approx(0.5)
