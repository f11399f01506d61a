"""Vectorised pack/unpack of B-bit unsigned integers.

The stream is LSB-first: value ``i`` occupies bits ``[i*B, (i+1)*B)``,
where bit ``k`` is bit ``k % 8`` of byte ``k // 8``.  Read as
little-endian 64-bit words, the same stream repeats with a period of
``L = 64 / gcd(64, B)`` values in ``W = B / gcd(64, B)`` words (B=9:
64 values in 9 words; B=12: 16 values in 3 words).  The kernels work on
that lane layout, one ``(groups, L)`` uint64 matrix per call:

* pack shifts each column ``j`` left by its bit offset ``(j*B) % 64``,
  ORs the columns that start in the same word together
  (``np.bitwise_or.reduceat``) and then ORs the high bits of the columns
  that straddle a word boundary into the next word;
* unpack repeats each word once per column that starts in it, shifts
  right, ORs in the spill from the next word and masks to ``B`` bits.

The per-width layout (shifts, reduceat starts, columns per word, spill
columns) is computed once per width and cached.  A call costs a handful
of whole-array passes over ``n`` uint64 lanes, all in C, with about one
``n``-lane uint64 temporary (no ``(n, B)`` bit matrix).  Widths 8, 16
and 32 are plain little-endian casts.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from repro.telemetry.tracer import get_telemetry

__all__ = ["pack_bits", "unpack_bits", "packed_nbytes"]

_MAX_WIDTH = 32

#: byte-aligned widths, stored as plain little-endian integers.
_ALIGNED = {8: "<u1", 16: "<u2", 32: "<u4"}


def _check_width(width: int) -> int:
    """Validate ``width``; returns it as a Python int (a NumPy scalar
    would overflow in ``1 << width``)."""
    if not isinstance(width, (int, np.integer)):
        raise TypeError(f"width must be an int, got {type(width).__name__}")
    if not 1 <= width <= _MAX_WIDTH:
        raise ValueError(f"width must be in [1, {_MAX_WIDTH}], got {width}")
    return int(width)


def packed_nbytes(count: int, width: int) -> int:
    """Number of bytes needed to store ``count`` values of ``width`` bits."""
    _check_width(width)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return (count * width + 7) // 8


class _Lanes(NamedTuple):
    """Word layout of one period of ``L`` values at width ``B``."""

    lanes: int                # L: values per group
    words: int                # W: uint64 words per group
    shifts: np.ndarray        # (L,) bit offset of each column in its word
    starts: np.ndarray        # (W,) first column of each word
    counts: np.ndarray        # (W,) columns starting in each word
    spill: np.ndarray         # (W-1,) column whose high bits open word k+1
    spill_shifts: np.ndarray  # (W-1,) 64 - offset of each spill column
    mask: np.uint64


@functools.lru_cache(maxsize=None)
def _lanes(width: int) -> _Lanes:
    g = math.gcd(64, width)
    lanes, words = 64 // g, width // g
    offsets = np.arange(lanes, dtype=np.int64) * width
    shifts = offsets % 64
    # Every word holds the start of at least one column (B < 64), so the
    # starts are strictly increasing -- what reduceat needs.
    starts = np.searchsorted(offsets // 64, np.arange(words))
    # No column starts on a word boundary inside a group (64*k is not a
    # multiple of B for 0 < k < W), so word k+1 always opens with the
    # spill of the last column of word k.
    spill = starts[1:] - 1
    lay = _Lanes(
        lanes=lanes,
        words=words,
        shifts=shifts.astype(np.uint64),
        starts=starts.astype(np.intp),
        counts=np.diff(starts, append=lanes).astype(np.intp),
        spill=spill.astype(np.intp),
        spill_shifts=(64 - shifts[spill]).astype(np.uint64),
        mask=np.uint64((1 << width) - 1),
    )
    for field in lay:
        if isinstance(field, np.ndarray):
            field.flags.writeable = False  # shared by every caller
    return lay


def _pack_lanes(vals: np.ndarray, width: int, nbytes: int) -> bytes:
    lay = _lanes(width)
    groups = -(-vals.size // lay.lanes)
    cols = np.empty((groups, lay.lanes), dtype=np.uint64)
    flat = cols.reshape(-1)
    flat[: vals.size] = vals
    flat[vals.size:] = 0  # zero padding keeps the bits past the end 0
    high = np.take(cols, lay.spill, axis=1) >> lay.spill_shifts
    cols <<= lay.shifts
    words = np.bitwise_or.reduceat(cols, lay.starts, axis=1)
    words[:, 1:] |= high
    return words.astype("<u8", copy=False).reshape(-1).view(np.uint8)[
        :nbytes].tobytes()


def _unpack_lanes(raw: np.ndarray, count: int, width: int) -> np.ndarray:
    lay = _lanes(width)
    groups = -(-count // lay.lanes)
    buf = np.zeros(groups * lay.words * 8, dtype=np.uint8)
    buf[: raw.size] = raw
    words = buf.view("<u8").reshape(groups, lay.words).astype(np.uint64,
                                                              copy=False)
    cols = np.repeat(words, lay.counts, axis=1)
    cols >>= lay.shifts
    # OR each word's low bits into the column spilling into it; flat
    # take/put is ~2x faster than a fancy-indexed ``cols[:, spill] |=``.
    flat = cols.reshape(-1)
    at = (np.arange(0, flat.size, lay.lanes)[:, None] + lay.spill).reshape(-1)
    high = (words[:, 1:] << lay.spill_shifts).reshape(-1)
    high |= flat.take(at)
    flat.put(at, high)
    cols &= lay.mask
    return flat[:count].astype(np.uint32)


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into a little-endian-bit byte stream.

    Parameters
    ----------
    values:
        1-D array of non-negative integers, each ``< 2**width``.
    width:
        Bit width ``B`` of each value, ``1 <= B <= 32``.

    Returns
    -------
    bytes
        ``packed_nbytes(len(values), width)`` bytes.
    """
    width = _check_width(width)
    vals = np.ascontiguousarray(values)
    if vals.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {vals.shape}")
    if vals.size == 0:
        return b""
    if not np.issubdtype(vals.dtype, np.integer):
        raise TypeError(f"values must be integers, got dtype {vals.dtype}")
    tel = get_telemetry()
    with tel.span("bitpack.pack", n_values=vals.size, width=width) as sp:
        # Range-check in the input dtype; a negative value wraps to a huge
        # one in uint64, as the message reports it.
        if (vals.max() >= 1 << width
                or (vals.dtype.kind == "i" and vals.min() < 0)):
            top = int(vals.astype(np.uint64).max())
            raise ValueError(f"values exceed {width}-bit range (max={top})")
        if width in _ALIGNED:
            out = vals.astype(_ALIGNED[width]).tobytes()
        else:
            out = _pack_lanes(vals, width, packed_nbytes(vals.size, width))
        sp.set(bytes_in=vals.size * 8, bytes_out=len(out))
    tel.metrics.counter("bitpack.bytes_packed").inc(len(out))
    return out


def unpack_bits(data: bytes | bytearray | memoryview | np.ndarray,
                count: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`.

    Parameters
    ----------
    data:
        Byte stream produced by :func:`pack_bits`: ``bytes``,
        ``bytearray``, ``memoryview`` or a NumPy array -- any buffer, read
        in place without a copy.  Extra trailing bytes are ignored;
        too-short input raises ``ValueError``.
    count:
        Number of values to recover.
    width:
        Bit width used when packing.

    Returns
    -------
    numpy.ndarray
        ``count`` values as a new ``uint32`` array.
    """
    width = _check_width(width)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    with get_telemetry().span("bitpack.unpack", n_values=count,
                              width=width) as sp:
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data)
        raw = np.frombuffer(data, dtype=np.uint8)
        need = packed_nbytes(count, width)
        sp.set(bytes_in=need, bytes_out=count * 4)
        if raw.size < need:
            raise ValueError(
                f"need {need} bytes for {count} x {width}-bit values, got {raw.size}")
        raw = raw[:need]
        if width in _ALIGNED:
            return raw.view(_ALIGNED[width]).astype(np.uint32)
        return _unpack_lanes(raw, count, width)
