"""Compile-time certification of code × code GEMMs as exact integer GEMMs.

The deployment plan multiplies *integer code* operands — weight codes from
the artifact, activation codes from the frozen quantization grid — with
float32 BLAS.  Every product and partial sum of such a GEMM is an integer
of known magnitude: with operand ranges ``[w_lo, w_hi]`` × ``[a_lo, a_hi]``
over a reduction of length ``K``, no intermediate can exceed
``K · max|w·a|`` (:func:`gemm_bound`).  Below ``2**24`` every intermediate
is exactly representable in float32, so float32 BLAS **is** an exact
int32-accumulating integer GEMM (each add of exactly-representable
integers whose result is also exactly representable is exact, regardless
of association order).

:func:`certify_kernel` makes that check per layer at plan-compile time,
from the manifest's code ranges alone, and returns the tag the plan
summary shows: ``int8``/``int16`` for a certified layer, ``f32`` otherwise.
The GEMM itself is the same float32 BLAS call either way.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# ``perfbench/trace.py`` wraps ``parallel_gemm`` by name on this module.
from repro.runtime.threadpool import parallel_gemm  # noqa: F401

#: Largest magnitude for which every intermediate of an integer GEMM is
#: exactly representable in float32.
F32_EXACT_BOUND = 1 << 24


class IntGemmError(ValueError):
    """Raised on an invalid reduction length or code range."""


def gemm_bound(k: int, w_lo: int, w_hi: int, a_lo: int, a_hi: int) -> int:
    """Largest possible ``|Σ_k w·a|`` for operands in the given ranges.

    Every partial sum of the reduction is bounded by this too (each term's
    magnitude is at most the corner-product maximum), which is what lets a
    sub-2**24 bound certify float32 BLAS as exact integer arithmetic.
    """
    if k < 0:
        raise IntGemmError(f"reduction length must be >= 0, got {k}")
    corners = (w_lo * a_lo, w_lo * a_hi, w_hi * a_lo, w_hi * a_hi)
    return int(k) * max(abs(int(c)) for c in corners)


def natural_int_dtype(lo: int, hi: int) -> np.dtype:
    """Smallest NumPy integer dtype holding values in ``[lo, hi]``.

    Nonnegative ranges prefer unsigned dtypes (activation codes are
    offset-free and nonnegative); ranges containing negatives get the
    smallest signed dtype (weight codes).
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise IntGemmError(f"invalid range [{lo}, {hi}]")
    candidates = (
        (np.uint8, np.uint16, np.uint32, np.uint64)
        if lo >= 0
        else (np.int8, np.int16, np.int32, np.int64)
    )
    for candidate in candidates:
        info = np.iinfo(candidate)
        if info.min <= lo and hi <= info.max:
            return np.dtype(candidate)
    raise IntGemmError(f"range [{lo}, {hi}] exceeds 64-bit integers")


def certify_kernel(k: int, w_lo: int, w_hi: int, a_bits: Optional[int]) -> str:
    """Kernel tag of one layer's GEMM, decided at plan-compile time.

    ``k`` is the reduction length, ``[w_lo, w_hi]`` the weight code range
    and ``a_bits`` the activation bit width (``None`` = float activations).
    Integer activations whose bound stays under ``2**24`` are tagged with
    the wider of the two operands' natural integer widths (``int8`` or
    ``int16``); everything else is ``f32``.
    """
    if a_bits is None or a_bits >= 32:
        return "f32"
    a_hi = 2 ** a_bits - 1
    if gemm_bound(k, w_lo, w_hi, 0, a_hi) >= F32_EXACT_BOUND:
        return "f32"
    bits = 8 * max(
        natural_int_dtype(w_lo, w_hi).itemsize, natural_int_dtype(0, a_hi).itemsize
    )
    return f"int{bits}"


__all__ = [
    "F32_EXACT_BOUND",
    "IntGemmError",
    "certify_kernel",
    "gemm_bound",
    "natural_int_dtype",
]
