"""Chunked (out-of-core-shaped) encoding for very large iterations.

Exascale checkpoints do not fit in one allocation.  The streaming encoder
processes an iteration pair in fixed-size chunks with the classic two-pass
structure the paper's in-situ setting implies:

* **pass 1 (model):** stream over chunks, computing change ratios and
  feeding a bounded reservoir sample of the compressible candidates (plus
  their running extremes) into the strategy fit -- O(chunk) peak memory;
* **pass 2 (encode):** stream again, assigning every point against the
  shared :class:`~repro.core.strategies.base.BinModel` and emitting one
  :class:`ChunkRecord` (indices, bitmap, exact values) per chunk.

The per-point guarantee is identical to the one-shot encoder: assignment
and the exactness check are exhaustive; only *bin placement* is estimated
from the sample.  ``decode_stream`` reverses chunk by chunk.

The chunk records concatenate to exactly the arrays a one-shot
:class:`~repro.core.encoder.EncodedIteration` would hold, and
``as_encoded_iteration`` performs that concatenation (useful for tests and
for writing a streamed result into the standard container format).

The public entry point is :meth:`repro.Codec.compress_stream`:

>>> import numpy as np
>>> from repro import Codec
>>> codec = Codec(chunk_size=1000)
>>> prev = np.linspace(1, 2, 5000)
>>> curr = prev * 1.002
>>> streamed = codec.compress_stream(
...     lambda: iter(np.array_split(prev, 5)),
...     lambda: iter(np.array_split(curr, 5)),
... )
>>> out = np.concatenate(list(codec.decompress_stream(
...     iter(np.array_split(prev, 5)), streamed)))
>>> bool(np.max(np.abs(out / curr - 1)) < 2e-3)
True

(The old :class:`StreamingEncoder` name remains as a deprecated shim.)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.change import change_ratios
from repro.core.config import NumarckConfig
from repro.core.encoder import EncodedIteration, _fit_model
from repro.core.errors import FormatError
from repro.core.quantize import Quantizer
from repro.core.strategies.base import BinModel

__all__ = ["ChunkRecord", "StreamingEncoder", "decode_stream"]


@dataclass(frozen=True)
class ChunkRecord:
    """Encoded form of one chunk (flat, in stream order)."""

    start: int
    indices: np.ndarray
    incompressible: np.ndarray
    exact_values: np.ndarray

    @property
    def n_points(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class StreamedIteration:
    """A streamed encoding: the shared model plus per-chunk records."""

    n_points: int
    nbits: int
    error_bound: float
    strategy: str
    zero_reserved: bool
    representatives: np.ndarray
    chunks: tuple[ChunkRecord, ...]

    def as_encoded_iteration(self) -> EncodedIteration:
        """Concatenate the chunks into a one-shot-equivalent encoding."""
        indices = np.concatenate([c.indices for c in self.chunks]) \
            if self.chunks else np.empty(0, dtype=np.uint32)
        bitmap = np.concatenate([c.incompressible for c in self.chunks]) \
            if self.chunks else np.empty(0, dtype=bool)
        exact = np.concatenate([c.exact_values for c in self.chunks]) \
            if self.chunks else np.empty(0, dtype=np.float64)
        return EncodedIteration(
            shape=(self.n_points,),
            nbits=self.nbits,
            representatives=self.representatives,
            indices=indices,
            incompressible=bitmap,
            exact_values=exact,
            error_bound=self.error_bound,
            strategy=self.strategy,
            zero_reserved=self.zero_reserved,
        )


class _ChunkedEncoder:
    """Two-pass chunked encoder (implementation behind
    :meth:`repro.Codec.compress_stream`).

    Parameters
    ----------
    config:
        Compression parameters (as for the one-shot encoder).
    chunk_size:
        Points per chunk; peak memory is O(chunk_size).
    sample_size:
        Reservoir size for the model-fit pass.
    """

    def __init__(self, config: NumarckConfig | None = None,
                 chunk_size: int = 1 << 20, sample_size: int = 200_000) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if sample_size < 16:
            raise ValueError(f"sample_size must be >= 16, got {sample_size}")
        self.config = config if config is not None else NumarckConfig()
        self.chunk_size = chunk_size
        self.sample_size = sample_size

    # -- pass 1 -------------------------------------------------------------

    def _fit_from_stream(self, prev_chunks: Iterable[np.ndarray],
                         curr_chunks: Iterable[np.ndarray]) -> tuple[BinModel | None, int]:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        reservoir = np.empty(self.sample_size, dtype=np.float64)
        filled = 0
        seen = 0
        lo, hi = np.inf, -np.inf
        n_points = 0
        for prev, curr in zip(prev_chunks, curr_chunks):
            prev = np.asarray(prev, dtype=np.float64).ravel()
            curr = np.asarray(curr, dtype=np.float64).ravel()
            if prev.shape != curr.shape:
                raise FormatError("chunk shape mismatch between streams")
            n_points += prev.size
            cand = Quantizer(change_ratios(prev, curr), cfg.error_bound,
                             cfg.reserve_zero_bin).candidates
            if cand.size == 0:
                continue
            lo = min(lo, float(cand.min()))
            hi = max(hi, float(cand.max()))
            # Vectorised approximate reservoir sampling: fill first, then
            # accept later candidates with the algorithm-R probability
            # (batched per chunk -- unbiased enough for model fitting).
            if filled < self.sample_size:
                take = min(self.sample_size - filled, cand.size)
                reservoir[filled : filled + take] = cand[:take]
                filled += take
                rest = cand[take:]
            else:
                rest = cand
            if rest.size:
                # Each remaining candidate replaces a random slot with
                # probability sample_size / (seen so far + position).
                positions = seen + np.arange(rest.size) + 1
                probs = self.sample_size / np.maximum(positions, self.sample_size)
                accept = rng.random(rest.size) < probs
                slots = rng.integers(0, self.sample_size, int(accept.sum()))
                reservoir[slots] = rest[accept]
            seen += cand.size
        if seen == 0:
            return None, n_points
        sample = reservoir[:filled] if filled < self.sample_size else reservoir
        # Pin the extremes so the model spans the full candidate range.
        sample = np.concatenate([sample, [lo, hi]])
        return _fit_model(sample, cfg), n_points

    # -- pass 2 -------------------------------------------------------------

    def _encode_chunk(self, start: int, prev: np.ndarray, curr: np.ndarray,
                      model: BinModel | None) -> ChunkRecord:
        cfg = self.config
        curr = np.asarray(curr, dtype=np.float64).ravel()
        q = Quantizer(change_ratios(np.ravel(prev), curr), cfg.error_bound,
                      cfg.reserve_zero_bin)
        out = q.finish(curr, model)
        return ChunkRecord(
            start=start,
            indices=out.indices,
            incompressible=out.incompressible,
            exact_values=out.exact_values,
        )

    def encode(self, prev_stream_factory, curr_stream_factory) -> StreamedIteration:
        """Encode from two replayable chunk streams.

        Both arguments are zero-argument callables returning a fresh
        iterator of chunks (the streams are consumed twice: model pass and
        encode pass).  Corresponding chunks must have equal sizes.
        """
        cfg = self.config
        model, n_points = self._fit_from_stream(prev_stream_factory(),
                                                curr_stream_factory())
        chunks: list[ChunkRecord] = []
        start = 0
        for prev, curr in zip(prev_stream_factory(), curr_stream_factory()):
            record = self._encode_chunk(start, prev, curr, model)
            chunks.append(record)
            start += record.n_points
        if start != n_points:
            raise FormatError(
                f"streams changed between passes: pass 1 saw {n_points} points, "
                f"pass 2 saw {start}"
            )
        reps = model.representatives if model is not None else np.empty(0)
        return StreamedIteration(
            n_points=n_points,
            nbits=cfg.nbits,
            error_bound=cfg.error_bound,
            strategy=cfg.strategy,
            zero_reserved=cfg.reserve_zero_bin,
            representatives=reps,
            chunks=tuple(chunks),
        )

    def encode_arrays(self, prev: np.ndarray, curr: np.ndarray) -> StreamedIteration:
        """Convenience: encode in-memory arrays through the chunked path."""
        p = np.asarray(prev, dtype=np.float64).ravel()
        c = np.asarray(curr, dtype=np.float64).ravel()
        if p.shape != c.shape:
            raise FormatError(f"shape mismatch: {p.shape} vs {c.shape}")
        nsplit = max(1, -(-p.size // self.chunk_size))

        def chunks(arr):
            return lambda: iter(np.array_split(arr, nsplit))

        return self.encode(chunks(p), chunks(c))


class StreamingEncoder(_ChunkedEncoder):
    """Two-pass chunked encoder.

    .. deprecated::
        Use :class:`repro.Codec` -- ``Codec(config=config, chunk_size=...)``
        with :meth:`~repro.Codec.compress_stream` /
        :meth:`~repro.Codec.decompress_stream`.
    """

    def __init__(self, config: NumarckConfig | None = None,
                 chunk_size: int = 1 << 20, sample_size: int = 200_000) -> None:
        warnings.warn(
            "StreamingEncoder is deprecated; use repro.Codec(config=config, "
            "chunk_size=...).compress_stream(...)",
            DeprecationWarning,
            stacklevel=2,
        )
        super().__init__(config, chunk_size, sample_size)


def decode_stream(prev_chunks: Iterator[np.ndarray],
                  streamed: StreamedIteration) -> Iterator[np.ndarray]:
    """Decode chunk by chunk against the reference stream.

    Yields one decoded array per stored chunk; chunk boundaries must match
    the encode pass (they do when the same chunking is replayed).
    """
    if streamed.representatives.size:
        if streamed.zero_reserved:
            table = np.concatenate([[0.0], streamed.representatives])
        else:
            table = streamed.representatives
    else:
        table = np.zeros(1)
    for record, prev in zip(streamed.chunks, prev_chunks):
        prev = np.asarray(prev, dtype=np.float64).ravel()
        if prev.size != record.n_points:
            raise FormatError(
                f"chunk at {record.start}: reference has {prev.size} points, "
                f"record has {record.n_points}"
            )
        ratios = table[record.indices]
        out = prev * (1.0 + ratios)
        out[record.incompressible] = record.exact_values
        yield out
