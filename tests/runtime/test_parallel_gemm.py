"""Shape-blocked GEMM: the block list is part of the result's bits."""

import numpy as np
import pytest

from repro.runtime.threadpool import _GEMM_COL_BLOCK, _GEMM_ROW_BLOCK, parallel_gemm


def _operands(m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    return a, b


@pytest.mark.parametrize("shape, shard, blocks", [
    ((32, 144, 2 * _GEMM_COL_BLOCK + 808), "cols", 3),   # conv-forward shape
    ((2 * _GEMM_ROW_BLOCK + 32, 64, 300), "rows", 3),    # weight-gradient shape
])
def test_blocked_gemm_equals_per_block_matmul_bitwise(shape, shard, blocks):
    m, k, n = shape
    a, b = _operands(m, k, n)
    out = parallel_gemm(a, b, shard=shard)
    if shard == "cols":
        pieces = [np.matmul(a, b[:, lo:lo + _GEMM_COL_BLOCK])
                  for lo in range(0, n, _GEMM_COL_BLOCK)]
        expected = np.concatenate(pieces, axis=1)
    else:
        pieces = [np.matmul(a[lo:lo + _GEMM_ROW_BLOCK], b)
                  for lo in range(0, m, _GEMM_ROW_BLOCK)]
        expected = np.concatenate(pieces, axis=0)
    assert len(pieces) == blocks
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("shape", [(7, 150, 45), (5, 63, 486), (127, 64, 300)])
def test_small_problems_stay_monolithic(shape):
    a, b = _operands(*shape)
    for shard in ("cols", "rows"):
        np.testing.assert_array_equal(parallel_gemm(a, b, shard=shard), np.matmul(a, b))


def test_out_parameter_is_filled_and_returned():
    a, b = _operands(33, 70, 9000, seed=1)
    out = np.empty((33, 9000), dtype=np.float32)
    assert parallel_gemm(a, b, out=out) is out
    np.testing.assert_allclose(out, a @ b, rtol=1e-6, atol=1e-5)


def test_rejects_bad_args():
    a = np.ones((2, 3), np.float32)
    with pytest.raises(ValueError):
        parallel_gemm(a, np.ones(3, np.float32))
    with pytest.raises(ValueError):
        parallel_gemm(a, np.ones((3, 2), np.float32), shard="diag")
