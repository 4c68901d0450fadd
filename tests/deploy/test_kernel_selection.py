"""Compile-time integer certification wired through plan and session.

The contract: an integer-activation artifact tags every layer whose bound
certifies float32 BLAS as an exact integer GEMM (summary tags show it per
layer), while float-activation plans keep their kernel tags out of the
summary so the existing describe strings are untouched.
"""

import pytest

from repro.deploy import InferenceSession, load_artifact, save_artifact
from repro.deploy.plan import FloatGemmKernel
from tests.deploy.conftest import frozen_mixed_model

_KWARGS = {"num_classes": 10, "width_mult": 0.25}
_SHAPE = (4, 3, 12, 12)


@pytest.fixture
def act4_artifact(artifact_path):
    model = frozen_mixed_model(
        "resnet20", precisions=(2, 3, 4, 5), act_bits=4,
        calibration_shape=_SHAPE, **_KWARGS,
    )
    model.eval()
    save_artifact(model, artifact_path, arch="resnet20", arch_kwargs=_KWARGS)
    return load_artifact(artifact_path)


def test_certified_layers_are_tagged_int8(act4_artifact):
    session = InferenceSession(act4_artifact)
    kernels = session.gemm_kernels
    assert kernels, "plan reported no GEMM steps"
    assert all(tag == "int8" for tag in kernels.values()), kernels
    summary = session.summary()
    assert "gemm=int8" in summary
    assert "+aq4+int8" in summary
    # A certified layer runs the float32 BLAS kernel; only its tag differs.
    for _, step in _gemm_steps(session.plan):
        assert type(step.kernel) is FloatGemmKernel


def test_float_activation_plan_keeps_float_kernels(artifact_path):
    model = frozen_mixed_model("resnet20", precisions=(2, 3, 4, 5), **_KWARGS)
    model.eval()
    save_artifact(model, artifact_path, arch="resnet20", arch_kwargs=_KWARGS)
    session = InferenceSession(load_artifact(artifact_path))
    assert session.activation_mode == "float"
    assert set(session.gemm_kernels.values()) == {"f32"}
    # Float plans keep the pre-existing describe strings: no kernel tags.
    assert "+int" not in session.summary()


def test_clones_share_kernel_operands(act4_artifact):
    session = InferenceSession(act4_artifact)
    clone = session.clone()
    first = {name: step for name, step in _gemm_steps(session.plan)}
    for name, step in _gemm_steps(clone.plan):
        assert step.kernel.w_mat is first[name].kernel.w_mat, name


def _gemm_steps(steps):
    for step in steps:
        if hasattr(step, "kernel"):
            yield step.name, step
        if hasattr(step, "main"):
            yield from _gemm_steps(step.main)
            yield from _gemm_steps(step.shortcut)
