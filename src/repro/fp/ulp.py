"""ULP distances between floating-point values.

Implements the paper's two ULP measures:

* ``ulp_from_real`` — Equation 7, the distance between a representable
  floating-point value and an arbitrary real number, computed exactly with
  rational arithmetic.
* ``ulp_distance`` — Equation 17 / Figure 3, the integer count of
  representable values between two floats, computed with the signed
  reinterpretation trick: reinterpreting an IEEE-754 pattern as a signed
  integer and mapping negative patterns through ``INT_MIN - x`` arranges
  the whole value set in ascending order, so ULP distance is a simple
  subtraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.fp.ieee754 import (
    DOUBLE,
    SINGLE,
    Format,
    decompose_bits,
    double_to_bits,
    single_to_bits,
)

_INT64_MIN = -(1 << 63)
_INT32_MIN = -(1 << 31)


def ordered_from_bits(bits: int, fmt: Format = DOUBLE) -> int:
    """Map a bit pattern to a monotonically ordered signed integer.

    This is the reordering performed by the C code in Figure 3: patterns
    with the sign bit set (negative values) are reflected through the
    minimum signed integer so that iterating over the resulting integers
    walks the floating-point values in ascending order, from -NaN up
    through -0, +0, and on to +NaN.
    """
    width = fmt.width
    bits &= fmt.mask
    int_min = -(1 << (width - 1))
    signed = bits - (1 << width) if bits & fmt.sign_mask else bits
    return int_min - signed if signed < 0 else signed


def bits_from_ordered(index: int, fmt: Format = DOUBLE) -> int:
    """Inverse of :func:`ordered_from_bits`.

    Maps an ordered signed integer back to the IEEE bit pattern at that
    position, so contiguous index ranges name contiguous runs of
    representable values (the coordinate system of the bit-space
    verification boxes in :mod:`repro.verify.partition`).
    """
    width = fmt.width
    int_min = -(1 << (width - 1))
    if not int_min <= index < -int_min:
        raise ValueError(f"ordered index {index} outside {fmt.name}")
    signed = int_min - index if index < 0 else index
    return (signed + (1 << width)) & fmt.mask if signed < 0 else signed


def ulp_distance_bits(bits_x: int, bits_y: int, fmt: Format = DOUBLE) -> int:
    """Number of representable values separating two bit patterns (Eq 17)."""
    return abs(ordered_from_bits(bits_x, fmt) - ordered_from_bits(bits_y, fmt))


def ulp_distance_columns(bits_x: np.ndarray, bits_y: np.ndarray,
                         fmt: Format = DOUBLE) -> np.ndarray:
    """:func:`ulp_distance_bits` lane by lane over uint64 columns, as float64.

    The ordered keys are int64 and the difference is taken as an exact
    uint64 (distances reach 2**64 - 2), so each lane rounds once, in the
    final conversion, exactly as ``float(ulp_distance_bits(...))`` does.
    """
    def keys(bits):
        if fmt.width == 64:
            signed = bits.view(np.int64)
        else:
            signed = bits.astype(np.uint32).view(np.int32).astype(np.int64)
        return np.where(signed < 0, -(1 << (fmt.width - 1)) - signed, signed)

    x, y = keys(bits_x), keys(bits_y)
    low, high = np.minimum(x, y), np.maximum(x, y)
    return (high.view(np.uint64) - low.view(np.uint64)).astype(np.float64)


def ulp_distance(x: float, y: float) -> int:
    """ULP' distance between two doubles (Equation 17 / Figure 3)."""
    return ulp_distance_bits(double_to_bits(x), double_to_bits(y), DOUBLE)


def ulp_distance_single_bits(bits_x: int, bits_y: int) -> int:
    """ULP' distance between two 32-bit single patterns."""
    return ulp_distance_bits(bits_x, bits_y, SINGLE)


def ulp_distance_single(x: float, y: float) -> int:
    """ULP' distance between two values after rounding both to single."""
    return ulp_distance_bits(single_to_bits(x), single_to_bits(y), SINGLE)


def _exact_value(bits: int, fmt: Format) -> Fraction:
    """The exact real value of a finite bit pattern, as a Fraction."""
    sign, exponent, fraction = decompose_bits(bits, fmt)
    if exponent == fmt.max_exponent_field:
        raise ValueError("infinity and NaN have no exact real value")
    scale = Fraction(1, 1 << fmt.fraction_bits)
    if exponent == 0:
        significand = Fraction(fraction) * scale
        unbiased = 1 - fmt.bias
    else:
        significand = 1 + Fraction(fraction) * scale
        unbiased = exponent - fmt.bias
    magnitude = significand * Fraction(2) ** unbiased
    return -magnitude if sign else magnitude


def _ulp_size(bits: int, fmt: Format) -> Fraction:
    """The gap between consecutive representable values near ``bits``."""
    _, exponent, _ = decompose_bits(bits, fmt)
    effective = max(exponent, 1) - fmt.bias
    return Fraction(2) ** (effective - fmt.fraction_bits)


def ulp_from_real(f: float, r, fmt: Format = DOUBLE) -> Fraction:
    """Distance in ULPs between a float and a real number (Equation 7).

    ``r`` may be an ``int``, ``float``, or ``Fraction``; the computation is
    exact.  ``f`` must be finite.
    """
    if math.isinf(f) or math.isnan(f):
        raise ValueError("f must be finite")
    if fmt is DOUBLE:
        bits = double_to_bits(f)
    elif fmt is SINGLE:
        bits = single_to_bits(f)
    else:
        raise ValueError(f"unsupported format: {fmt.name}")
    exact_f = _exact_value(bits, fmt)
    exact_r = Fraction(r)
    return abs(exact_f - exact_r) / _ulp_size(bits, fmt)
