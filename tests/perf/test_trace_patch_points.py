"""The benchmark's tracer patches library names; a src/ change must keep them.

``perfbench/trace.py`` wraps functions where their callers look them up
(``parallel_gemm`` in ``autograd.ops``, ``deploy.plan`` and
``runtime.intgemm``, ``iter_batches`` and ``evaluate`` in the training
modules, ``compile_plan`` in the session module, ``default_arena`` for its
miss counter, ...).  Installing and removing it against the library fails
here, in the unit tests, when any of those names disappears; training the
CSQ and BSQ trainers under it fails when their steps stop passing through
the wrapped names.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from perfbench.trace import Tracer, install  # noqa: E402


def test_tracer_installs_and_uninstalls_against_the_library():
    import repro.autograd.ops as autograd_ops
    import repro.deploy.plan as plan
    import repro.runtime.intgemm as intgemm
    from repro.runtime.threadpool import parallel_gemm

    installation = install(Tracer())
    try:
        for module in (autograd_ops, plan, intgemm):
            assert module.parallel_gemm is not parallel_gemm, module.__name__
    finally:
        installation.uninstall()
    for module in (autograd_ops, plan, intgemm):
        assert module.parallel_gemm is parallel_gemm


@pytest.mark.parametrize("trainer", ["csq", "bsq"])
def test_paper_trainers_keep_their_per_step_spans(tiny_loaders, trainer):
    """``optim.step`` and ``data.next_batch`` feed the benchmark's per-layer rows."""
    from repro.baselines import BSQConfig, BSQTrainer
    from repro.csq import CSQConfig, CSQTrainer
    from repro.models import SimpleConvNet

    train_loader, test_loader = tiny_loaders
    model = SimpleConvNet(num_classes=4, width=4)
    if trainer == "csq":
        run = CSQTrainer(model, train_loader, test_loader, CSQConfig(epochs=1, num_bits=4))
    else:
        run = BSQTrainer(model, train_loader, test_loader, BSQConfig(epochs=1, num_bits=4))
    tracer = Tracer()
    installation = install(tracer)
    try:
        run.train()
    finally:
        installation.uninstall()
    steps = len(train_loader)
    optim_steps = [span.step for span in tracer.spans if span.name == "optim.step"]
    fetched = {span.step for span in tracer.spans if span.name == "data.next_batch"}
    assert optim_steps == list(range(steps))
    # Every step's batch wait is on record, under the id of the step it fed.
    assert set(optim_steps) <= fetched
