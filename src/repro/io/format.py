"""Record payload encoding.

All integers are little-endian.  A *full* payload is::

    ndim:u8  dims:u64[ndim]  data:f64[prod(dims)]

A *delta* payload is::

    nbits:u8  flags:u8  strategy_len:u8  strategy:bytes
    error_bound:f64
    ndim:u8  dims:u64[ndim]
    n_reps:u32          reps:f64[n_reps]
    n_exact:u64         exact:f64[n_exact]
    bitmap:u8[ceil(n/8)]            (incompressibility mask, little bit order)
    packed_indices:u8[ceil(n*nbits/8)]

``flags`` bit 0 = zero index reserved; bit 1 = exact values stored as
float32; bit 2 = the iteration reused the previous iteration's bin model
(adaptive reuse hit); bit 3 = *table reference*: ``n_reps`` is written as
0 and the reader must substitute the representative table of the nearest
preceding delta of the same chain -- repeated tables are thereby stored
once per run of reuse hits.  Exact values appear in flat index order,
i.e. the j-th set bit of the bitmap corresponds to ``exact[j]``.

Format version 2 introduced bits 2/3; version-1 files (which can never
carry them) read back unchanged.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.bitpack import pack_bits, packed_nbytes, unpack_bits
from repro.core.encoder import EncodedIteration
from repro.core.errors import FormatError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "encode_full_bytes",
    "decode_full_bytes",
    "encode_delta_bytes",
    "decode_delta_bytes",
    "peek_delta_table",
]

MAGIC = b"NMRK"
FORMAT_VERSION = 2
#: versions this reader accepts (v1 lacks the reuse/table-ref flag bits).
SUPPORTED_VERSIONS = (1, 2)

_FLAG_ZERO_RESERVED = 0x01
_FLAG_FLOAT32_VALUES = 0x02
_FLAG_MODEL_REUSED = 0x04
_FLAG_TABLE_REF = 0x08


def _pack_dims(shape: tuple[int, ...]) -> bytes:
    if len(shape) > 255:
        raise FormatError(f"too many dimensions: {len(shape)}")
    return struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}Q", *shape)


def _unpack_dims(buf: memoryview, off: int) -> tuple[tuple[int, ...], int]:
    (ndim,) = struct.unpack_from("<B", buf, off)
    off += 1
    dims = struct.unpack_from(f"<{ndim}Q", buf, off)
    off += 8 * ndim
    return tuple(int(d) for d in dims), off


def encode_full_bytes(data: np.ndarray) -> bytes:
    """Serialise an exact full checkpoint array."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    return _pack_dims(arr.shape) + arr.tobytes()


def decode_full_bytes(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_full_bytes`."""
    buf = memoryview(payload)
    try:
        shape, off = _unpack_dims(buf, 0)
    except struct.error as exc:
        raise FormatError(f"truncated full-checkpoint payload: {exc}") from exc
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    need = off + 8 * n
    if len(payload) < need:
        raise FormatError(
            f"full-checkpoint payload too short: need {need} bytes, have {len(payload)}"
        )
    data = np.frombuffer(buf[off : off + 8 * n], dtype="<f8").copy()
    return data.reshape(shape)


def encode_delta_bytes(enc: EncodedIteration, *, table_ref: bool = False) -> bytes:
    """Serialise one encoded iteration.

    With ``table_ref`` the representative table is *elided* (``n_reps``
    written as 0, flag bit 3 set): the writer asserts it equals the table
    of the nearest preceding delta in the same chain, and the reader must
    pass that table as ``prev_reps`` to :func:`decode_delta_bytes`.
    """
    strategy = enc.strategy.encode("ascii")
    if len(strategy) > 255:
        raise FormatError("strategy name too long")
    if enc.value_bits not in (32, 64):
        raise FormatError(f"unsupported value_bits {enc.value_bits}")
    flags = _FLAG_ZERO_RESERVED if enc.zero_reserved else 0
    if enc.value_bits == 32:
        flags |= _FLAG_FLOAT32_VALUES
    if enc.model_reused:
        flags |= _FLAG_MODEL_REUSED
    if table_ref:
        flags |= _FLAG_TABLE_REF
    head = struct.pack("<BBB", enc.nbits, flags, len(strategy)) + strategy
    head += struct.pack("<d", enc.error_bound)
    head += _pack_dims(enc.shape)

    reps = np.ascontiguousarray(enc.representatives, dtype="<f8")
    if table_ref:
        reps = np.empty(0, dtype="<f8")
    exact_dtype = "<f4" if enc.value_bits == 32 else "<f8"
    exact = np.ascontiguousarray(enc.exact_values, dtype=exact_dtype)
    bitmap = np.packbits(enc.incompressible.astype(np.uint8), bitorder="little")
    packed = pack_bits(enc.indices, enc.nbits)

    body = (
        struct.pack("<I", reps.size)
        + reps.tobytes()
        + struct.pack("<Q", exact.size)
        + exact.tobytes()
        + bitmap.tobytes()
        + packed
    )
    return head + body


def decode_delta_bytes(payload: bytes,
                       prev_reps: np.ndarray | None = None) -> EncodedIteration:
    """Inverse of :func:`encode_delta_bytes`.

    ``prev_reps`` is the representative table of the nearest preceding
    delta in the same chain; it is required to resolve a table-reference
    delta (flag bit 3) and ignored otherwise.
    """
    buf = memoryview(payload)
    try:
        nbits, flags, slen = struct.unpack_from("<BBB", buf, 0)
        off = 3
        strategy = bytes(buf[off : off + slen]).decode("ascii")
        off += slen
        (error_bound,) = struct.unpack_from("<d", buf, off)
        off += 8
        shape, off = _unpack_dims(buf, off)
        (n_reps,) = struct.unpack_from("<I", buf, off)
        off += 4
        reps = np.frombuffer(buf[off : off + 8 * n_reps], dtype="<f8").copy()
        if reps.size != n_reps:
            raise FormatError("truncated representatives table")
        off += 8 * n_reps
        if flags & _FLAG_TABLE_REF:
            if prev_reps is None:
                raise FormatError(
                    "table-reference delta needs the preceding delta's "
                    "representative table (prev_reps)"
                )
            reps = np.asarray(prev_reps, dtype=np.float64).copy()
            n_reps = reps.size
        (n_exact,) = struct.unpack_from("<Q", buf, off)
        off += 8
        exact_width = 4 if flags & _FLAG_FLOAT32_VALUES else 8
        exact_dtype = "<f4" if exact_width == 4 else "<f8"
        exact = np.frombuffer(
            buf[off : off + exact_width * n_exact], dtype=exact_dtype
        ).astype(np.float64)
        if exact.size != n_exact:
            raise FormatError("truncated exact-value stream")
        off += exact_width * n_exact

        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        bitmap_bytes = (n + 7) // 8
        raw_bitmap = np.frombuffer(buf[off : off + bitmap_bytes], dtype=np.uint8)
        if raw_bitmap.size != bitmap_bytes:
            raise FormatError("truncated incompressibility bitmap")
        incompressible = np.unpackbits(raw_bitmap, bitorder="little")[:n].astype(bool)
        off += bitmap_bytes

        idx_bytes = packed_nbytes(n, nbits)
        indices = unpack_bits(buf[off : off + idx_bytes], n, nbits)
        off += idx_bytes
    except (struct.error, ValueError) as exc:
        raise FormatError(f"corrupt delta payload: {exc}") from exc

    if int(incompressible.sum()) != n_exact:
        raise FormatError(
            f"bitmap population ({int(incompressible.sum())}) does not match "
            f"exact-value count ({n_exact})"
        )
    zero_reserved = bool(flags & _FLAG_ZERO_RESERVED)
    max_valid = n_reps if zero_reserved else max(n_reps - 1, 0)
    if indices.size and int(indices.max()) > max_valid:
        raise FormatError(
            f"index {int(indices.max())} exceeds bin table of {n_reps} entries"
        )
    return EncodedIteration(
        shape=shape,
        nbits=int(nbits),
        representatives=reps,
        indices=indices.astype(np.uint32, copy=False),
        incompressible=incompressible,
        exact_values=exact,
        error_bound=float(error_bound),
        strategy=strategy,
        zero_reserved=zero_reserved,
        value_bits=32 if flags & _FLAG_FLOAT32_VALUES else 64,
        model_reused=bool(flags & _FLAG_MODEL_REUSED),
    )


def peek_delta_table(payload: bytes,
                     prev_reps: np.ndarray | None = None) -> np.ndarray:
    """Representative table of a serialised delta, without a full decode.

    Parses only the fixed head (cheap -- no bitmap/index unpacking); used
    by append-mode writers to rebuild their table-dedup state from the
    records already on disk.  ``prev_reps`` resolves table references as
    in :func:`decode_delta_bytes`.
    """
    buf = memoryview(payload)
    try:
        _nbits, flags, slen = struct.unpack_from("<BBB", buf, 0)
        off = 3 + slen + 8
        _shape, off = _unpack_dims(buf, off)
        (n_reps,) = struct.unpack_from("<I", buf, off)
        off += 4
        reps = np.frombuffer(buf[off : off + 8 * n_reps], dtype="<f8").copy()
        if reps.size != n_reps:
            raise FormatError("truncated representatives table")
    except (struct.error, ValueError) as exc:
        raise FormatError(f"corrupt delta payload: {exc}") from exc
    if flags & _FLAG_TABLE_REF:
        if prev_reps is None:
            raise FormatError(
                "table-reference delta needs the preceding delta's "
                "representative table (prev_reps)"
            )
        return np.asarray(prev_reps, dtype=np.float64).copy()
    return reps
