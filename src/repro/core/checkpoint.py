"""Multi-iteration checkpoint chains (paper Algorithm 1 + Section II-D).

A chain starts from a full, exact checkpoint ``D_0`` and appends one
encoded delta per subsequent iteration.  Restart reads the full checkpoint
and replays deltas in order.

Two reference modes (see :class:`~repro.core.config.NumarckConfig`):

* ``"original"`` (paper): iteration ``i`` is encoded against the *true*
  ``D_{i-1}``.  Decoding applies the approximated ratio to the
  *approximated* ``D'_{i-1}``, so value error accumulates with chain depth
  -- exactly the effect the paper measures in Fig. 8.
* ``"reconstructed"``: iteration ``i`` is encoded against the decoded
  ``D'_{i-1}``, closing the loop.  The ratio-level guarantee then applies
  to the decoded base, so value error stays bounded at any depth.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveEncoder
from repro.core.config import NumarckConfig
from repro.core.decoder import decode_iteration
from repro.core.encoder import EncodedIteration, encode_pair
from repro.core.errors import FormatError
# iteration_stats is unused here (appends take their errors from the
# encoder), but kept importable: perfbench's layer tracer wraps this name.
from repro.core.metrics import (CompressionStats, encoding_stats,  # noqa: F401
                                iteration_stats)

__all__ = ["CheckpointChain"]


class CheckpointChain:
    """A full checkpoint followed by encoded deltas.

    Typical use::

        chain = CheckpointChain(d0, config)
        for d in simulation:         # d: ndarray per iteration
            chain.append(d)
        restart_state = chain.reconstruct()          # latest iteration
        earlier       = chain.reconstruct(3)         # iteration index 3

    The running reference (the base the next append encodes against) is
    kept between appends.  A chain rebuilt from a container, or cut back
    by :meth:`truncate`, leaves it unset and replays it from the stored
    deltas on its first :meth:`append`, so a chain that is only read
    decodes each delta once.
    """

    def __init__(self, full_checkpoint: np.ndarray,
                 config: NumarckConfig | None = None) -> None:
        self.config = config if config is not None else NumarckConfig()
        self._full = np.array(full_checkpoint, dtype=np.float64, copy=True)
        self._deltas: list[EncodedIteration] = []
        self._stats: list[CompressionStats] = []
        # Reference state for the *next* append; ``None`` until an append
        # needs it (see _reference).
        self._ref: np.ndarray | None = None
        # With config.adaptive, appends share one stateful encoder so the
        # fitted bin model carries across iterations (drift-validated).
        self._adaptive = (AdaptiveEncoder(self.config)
                          if self.config.adaptive else None)

    # -- writing ----------------------------------------------------------

    def append(self, data: np.ndarray) -> CompressionStats:
        """Encode one more iteration; returns its compression stats."""
        arr = np.asarray(data, dtype=np.float64)
        if arr.shape != self._full.shape:
            raise FormatError(
                f"iteration shape {arr.shape} does not match chain shape {self._full.shape}"
            )
        ref = self._reference()
        if self._adaptive is not None:
            encoded = self._adaptive.encode(ref, arr)
            report = self._adaptive.last_report
        else:
            encoded, report = encode_pair(ref, arr, self.config)
        stats = encoding_stats(encoded, report.mean_error, report.max_error)
        self._deltas.append(encoded)
        self._stats.append(stats)
        if self.config.reference == "original":
            self._ref = arr.astype(np.float64, copy=True)
        else:
            self._ref = decode_iteration(ref, encoded)
        return stats

    def _reference(self) -> np.ndarray:
        """The running reference, replayed from the stored deltas when
        unset.  After a load that is the last *decoded* state, under
        either reference mode: the true originals are not stored."""
        if self._ref is None:
            self._ref = self._replay(len(self._deltas))
        return self._ref

    def _replay(self, n_deltas: int) -> np.ndarray:
        """Decode the full checkpoint through the first ``n_deltas``."""
        state = self._full.copy()
        for enc in self._deltas[:n_deltas]:
            state = decode_iteration(state, enc)
        return state

    def extend(self, iterations: Sequence[np.ndarray]) -> list[CompressionStats]:
        """Append several iterations; returns their stats in order."""
        return [self.append(it) for it in iterations]

    def truncate(self, n_iterations: int) -> None:
        """Drop deltas so the chain holds only its first ``n_iterations``
        states (``n_iterations >= 1``; the full checkpoint always stays).

        Used after salvaging damaged files: a multi-variable checkpoint
        torn mid-iteration leaves chains of unequal length, and resuming
        requires cutting them back to a common depth.  The running
        reference is replayed from the kept deltas on the next append,
        so further appends behave like appends to a freshly loaded chain.
        """
        if not 1 <= n_iterations <= len(self):
            raise IndexError(
                f"cannot truncate to {n_iterations} of {len(self)} iterations"
            )
        if n_iterations == len(self):
            return
        self._deltas = self._deltas[: n_iterations - 1]
        self._stats = self._stats[: n_iterations - 1]
        self._ref = None
        if self._adaptive is not None:
            # The cached model may belong to a dropped suffix; refit cold.
            self._adaptive.reset()

    # -- reading ----------------------------------------------------------

    @property
    def reuse_stats(self):
        """Adaptive reuse counters (:class:`~repro.core.adaptive.ReuseStats`),
        or ``None`` when the chain is not adaptive."""
        return self._adaptive.stats if self._adaptive is not None else None

    def __len__(self) -> int:
        """Number of stored iterations including the full checkpoint."""
        return 1 + len(self._deltas)

    @property
    def full_checkpoint(self) -> np.ndarray:
        return self._full.copy()

    @property
    def deltas(self) -> tuple[EncodedIteration, ...]:
        return tuple(self._deltas)

    @property
    def stats(self) -> tuple[CompressionStats, ...]:
        """Per-delta compression stats, index 0 = first delta."""
        return tuple(self._stats)

    def reconstruct(self, iteration: int | None = None) -> np.ndarray:
        """Decode the state at ``iteration`` (0 = full checkpoint).

        ``None`` means the latest iteration.  Replays all deltas up to the
        requested point, mirroring a restart from the chain's files.
        """
        last = len(self._deltas)
        it = last if iteration is None else iteration
        if not 0 <= it <= last:
            raise IndexError(f"iteration {it} out of range [0, {last}]")
        return self._replay(it)

    def iter_states(self) -> Iterator[np.ndarray]:
        """Yield the decoded state of every iteration, starting at 0."""
        state = self._full.copy()
        yield state.copy()
        for enc in self._deltas:
            state = decode_iteration(state, enc)
            yield state.copy()
