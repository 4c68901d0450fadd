"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.synthetic import SyntheticConfig, SyntheticImageClassification
from repro.utils import seed_everything


@pytest.fixture(autouse=True)
def _seed():
    """Make every test deterministic."""
    seed_everything(0)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _tiny_dataset(train: bool) -> SyntheticImageClassification:
    config = SyntheticConfig(
        num_classes=4,
        image_size=8,
        channels=3,
        train_size=96,
        test_size=48,
        modes_per_class=1,
        noise=0.5,
        seed=0,
    )
    return SyntheticImageClassification(config, train=train)


def _make_tiny_loaders():
    train_loader = DataLoader(_tiny_dataset(train=True), batch_size=24, shuffle=True, seed=0)
    test_loader = DataLoader(_tiny_dataset(train=False), batch_size=48)
    return train_loader, test_loader


@pytest.fixture
def tiny_loaders():
    """Small train/test loaders for integration-style tests (fast on CPU)."""
    return _make_tiny_loaders()


@pytest.fixture
def make_tiny_loaders():
    """Builds fresh ``tiny_loaders`` per call, for tests that train twice on one batch stream."""
    return _make_tiny_loaders
