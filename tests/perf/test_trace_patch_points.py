"""The benchmark's tracer patches library names; a src/ change must keep them.

``perfbench/trace.py`` wraps functions where their callers look them up
(``parallel_gemm`` in ``autograd.ops``, ``deploy.plan`` and
``runtime.intgemm``, ``iter_batches`` and ``evaluate`` in the training
modules, ``compile_plan`` in the session module, ``default_arena`` for its
miss counter, ...).  Installing and removing it against the library fails
here, in the unit tests, when any of those names disappears.
"""

import sys
from pathlib import Path

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
