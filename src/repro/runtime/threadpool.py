"""Shape-blocked GEMM: the one matmul entry point of both stacks.

Large GEMMs are decomposed into **fixed-size blocks determined by the
operand shape alone**.  BLAS may pick a different K-accumulation order for
different operand shapes, so the block list is part of the result's bits:
every caller of a given shape issues the identical sequence of sub-GEMMs.
The blocks run one after another on the calling thread.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Fixed GEMM block sizes, a property of the *problem shape*.  Row blocks are
#: tall because BLAS throughput drops sharply for short-M GEMMs with long
#: reductions (measured 2x on scipy-openblas for M=16, K=7200); blocking only
#: engages for outputs at least two blocks tall (or wide).
_GEMM_COL_BLOCK = 4096
_GEMM_ROW_BLOCK = 64


def parallel_gemm(
    a: np.ndarray,
    b: np.ndarray,
    out: Optional[np.ndarray] = None,
    shard: str = "cols",
) -> np.ndarray:
    """2-D matmul ``a @ b`` executed as fixed-size blocks.

    ``shard="cols"`` splits the columns of ``b``/``out`` into
    ``_GEMM_COL_BLOCK``-wide blocks; ``shard="rows"`` splits the rows of
    ``a``/``out`` into ``_GEMM_ROW_BLOCK``-high blocks (the right axis when
    the *output* is small but the reduction is long, e.g. conv weight
    gradients).  Small problems stay monolithic; the decomposition depends
    only on the operand shape.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"parallel_gemm needs 2-D operands, got {a.ndim}-D @ {b.ndim}-D")
    if shard not in ("cols", "rows"):
        raise ValueError(f"shard must be 'cols' or 'rows', got {shard!r}")
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a.dtype, b.dtype))
    block = _GEMM_COL_BLOCK if shard == "cols" else _GEMM_ROW_BLOCK
    extent = b.shape[1] if shard == "cols" else a.shape[0]
    if extent < 2 * block:
        np.matmul(a, b, out=out)
        return out
    for lo in range(0, extent, block):
        if shard == "cols":
            np.matmul(a, b[:, lo:lo + block], out=out[:, lo:lo + block])
        else:
            np.matmul(a[lo:lo + block], b, out=out[lo:lo + block])
    return out
