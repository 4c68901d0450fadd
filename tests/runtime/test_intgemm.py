"""Compile-time integer certification of code × code float32 GEMMs.

A layer is tagged ``int8``/``int16`` only when its bound certifies that
float32 BLAS computes the exact integer result; the tests hold the
certified GEMM to an object-int reference across bit widths, odd shapes
and the largest certified reduction.
"""

import numpy as np
import pytest

from repro.runtime.intgemm import (
    F32_EXACT_BOUND,
    IntGemmError,
    certify_kernel,
    gemm_bound,
    natural_int_dtype,
)
from repro.runtime.threadpool import parallel_gemm


def _reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer matmul via Python ints (never overflows, never rounds)."""
    return np.matmul(a.astype(object), b.astype(object)).astype(np.int64)


def _f32_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return parallel_gemm(a.astype(np.float32), b.astype(np.float32)).astype(np.int64)


# ---------------------------------------------------------------------------
# Range analysis
# ---------------------------------------------------------------------------


def test_gemm_bound_is_corner_product_times_k():
    assert gemm_bound(10, -8, 7, 0, 15) == 10 * 8 * 15
    assert gemm_bound(3, -2, 5, -7, 4) == 3 * 35
    assert gemm_bound(0, -100, 100, -100, 100) == 0
    with pytest.raises(IntGemmError):
        gemm_bound(-1, 0, 1, 0, 1)


def test_natural_int_dtype():
    assert natural_int_dtype(0, 255) == np.dtype(np.uint8)
    assert natural_int_dtype(0, 256) == np.dtype(np.uint16)
    assert natural_int_dtype(-1, 1) == np.dtype(np.int8)
    assert natural_int_dtype(-129, 0) == np.dtype(np.int16)
    assert natural_int_dtype(0, 2 ** 40) == np.dtype(np.uint64)
    with pytest.raises(IntGemmError):
        natural_int_dtype(5, 4)


# ---------------------------------------------------------------------------
# Exactness of the certified GEMM
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 7, 8])
@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 17, 5), (13, 29, 7)])
def test_certified_f32_gemm_is_exact_across_bit_widths(bits, shape):
    m, k, n = shape
    rng = np.random.default_rng(bits * 100 + k)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    assert gemm_bound(k, lo, hi, 0, 2 ** bits - 1) < F32_EXACT_BOUND
    a = rng.integers(lo, hi + 1, size=(m, k), dtype=np.int64)
    b = rng.integers(0, 2 ** bits, size=(k, n), dtype=np.int64)
    np.testing.assert_array_equal(_f32_gemm(a, b), _reference(a, b))


def test_certified_f32_gemm_exact_at_the_bound():
    # Max-magnitude codes at the largest K the bound certifies.
    hi = 2 ** 11
    k = (F32_EXACT_BOUND // (hi * hi)) - 1
    assert gemm_bound(k, -hi, -hi, hi, hi) < F32_EXACT_BOUND
    a = np.full((2, k), -hi, dtype=np.int64)
    b = np.full((k, 3), hi, dtype=np.int64)
    np.testing.assert_array_equal(_f32_gemm(a, b), _reference(a, b))


# ---------------------------------------------------------------------------
# Certification policy
# ---------------------------------------------------------------------------


def test_float_activations_stay_f32():
    assert certify_kernel(576, -8, 7, None) == "f32"
    assert certify_kernel(576, -8, 7, 32) == "f32"


def test_certified_bound_tags_int8():
    assert certify_kernel(576, -8, 7, 4) == "int8"


def test_bound_past_f32_stays_f32():
    assert gemm_bound(10 ** 6, -127, 127, 0, 255) >= F32_EXACT_BOUND
    assert certify_kernel(10 ** 6, -127, 127, 8) == "f32"


def test_wide_codes_tag_int16():
    # 9-bit weight codes need int16 storage; small K keeps the f32 bound.
    assert certify_kernel(16, -256, 255, 4) == "int16"
    # 9-bit activation codes widen the tag just the same.
    assert certify_kernel(16, -2, 1, 9) == "int16"
