"""Process-wide compute runtime: blocked GEMM + scratch buffer arena.

Shared by the training stack (:mod:`repro.autograd.ops`) and the serving
stack (:mod:`repro.deploy`):

* :func:`parallel_gemm` runs large matmuls as a shape-derived list of
  fixed-size blocks, so a given shape always produces the same bits;
* :class:`BufferArena` recycles the large intermediates both stacks
  allocate on every step (``REPRO_ARENA=0`` bypasses pooling);
* :mod:`repro.runtime.intgemm` certifies, per layer and at plan-compile
  time, when a code × code float32 GEMM is an exact integer GEMM
  (:func:`certify_kernel`).
"""

from repro.runtime.arena import (
    BufferArena,
    arena_enabled,
    default_arena,
    set_arena_enabled,
)
from repro.runtime.intgemm import certify_kernel, gemm_bound, natural_int_dtype
from repro.runtime.threadpool import parallel_gemm

__all__ = [
    "BufferArena",
    "arena_enabled",
    "certify_kernel",
    "default_arena",
    "gemm_bound",
    "natural_int_dtype",
    "parallel_gemm",
    "set_arena_enabled",
]
