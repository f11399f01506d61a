"""The quantize kernel: change ratios to indices, bitmap and exact values.

Every encode path -- the pair encoder (reuse hit and refit), the chunked
stream encoder and the SPMD encoder -- turns one field of change ratios
into its stored form through :class:`Quantizer`:

1. **mask** -- the *candidates* are the ratios a bin table must cover:
   every defined ratio with ``|ratio| >= E`` (below that the reserved
   index 0 carries it), or every defined ratio when the zero bin is not
   reserved;
2. **assign + bound check** (:meth:`Quantizer.check`) -- label each
   candidate with its nearest representative and measure the miss;
3. **assembly** (:meth:`Quantizer.finish`) -- a candidate whose miss is
   ``< E`` stores its bin index, every other one is incompressible and
   stores its raw value.

The per-point guarantee lives in step 3 alone: a table only steers which
points fit, never whether a stored index is within E.

:meth:`Quantizer.finish` also returns the mean and maximum ratio error of
the encoding, from the arrays it already holds.  They are bit-identical
to :func:`repro.core.metrics.iteration_stats` (same per-point errors,
same array length and order, same reductions), so a chain can report its
stats without computing the change ratios a second time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.change import ChangeField
from repro.core.strategies.base import BinModel

__all__ = ["Quantized", "Quantizer"]


@dataclass(frozen=True)
class Quantized:
    """The stored form of one field, plus its ratio-error summary.

    ``indices`` (uint32), ``incompressible`` (bool) and ``exact_values``
    (float64) are flat; ``mean_error`` / ``max_error`` are the mean and
    maximum of ``|decoded ratio - true ratio|`` over all points, 0 at
    exactly stored ones.
    """

    indices: np.ndarray
    incompressible: np.ndarray
    exact_values: np.ndarray
    mean_error: float
    max_error: float


class Quantizer:
    """Quantize one :class:`~repro.core.change.ChangeField` against a bin
    table.

    Construction applies the candidate mask; :attr:`candidates` is what a
    strategy fits.  :meth:`check` labels the candidates against a table
    and counts the misses -- a caller may validate a cached table this
    way and fall back to a fresh fit.  :meth:`finish` assembles the
    encoding against the table it is given, reusing the labels of the
    last check when that was the same table.

    The quantizer takes the field's arrays over: :meth:`finish` turns the
    ratio and forced-exact buffers into the error array and the bitmap in
    place, so it is the last call, and the field must not be read after
    it.  That keeps the encode's peak memory at what it needs.
    """

    def __init__(self, field: ChangeField, error_bound: float,
                 reserve_zero_bin: bool = True) -> None:
        self._error_bound = error_bound
        self._offset = 1 if reserve_zero_bin else 0
        self._ratios = field.ratios.ravel()
        self._forced = field.forced_exact.ravel()
        if reserve_zero_bin:
            mask = np.abs(self._ratios) >= error_bound
            mask &= ~self._forced
        else:
            # Ablation mode: no reserved zero index; all defined ratios are
            # candidates and the table must carry a near-zero bin itself.
            mask = ~self._forced
        self._cand_idx = np.flatnonzero(mask)
        self.candidates = self._ratios[self._cand_idx]
        # The table of the last check(), whose labels are kept.
        self._checked: BinModel | None = None
        self._labels = self._miss = np.empty(0)

    def check(self, model: BinModel) -> int:
        """Assign the candidates to ``model`` and bound-check them; returns
        how many miss their representative by ``>= E``."""
        self._checked = model
        self._labels = model.assign(self.candidates)
        miss = np.take(model.representatives, self._labels)
        miss -= self.candidates
        self._miss = np.abs(miss, out=miss)
        return int(np.count_nonzero(self._miss >= self._error_bound))

    def finish(self, values: np.ndarray, model: BinModel | None) -> Quantized:
        """Assemble the encoding of ``values`` (the iterate the ratios
        lead to, any shape with as many points) against ``model``; with
        no model every candidate is stored exactly."""
        if model is not None and model is not self._checked:
            self.check(model)
        # Points below E decode to ratio 0 and miss by |ratio|; forced
        # points carry ratio 0, so they start at the 0 they must have.
        err = np.abs(self._ratios, out=self._ratios)
        indices = np.zeros(err.size, dtype=np.uint32)
        incompressible = self._forced
        if model is None:
            incompressible[self._cand_idx] = True
            err[self._cand_idx] = 0.0
        else:
            # Store every candidate's bin, then undo the (usually few)
            # misses: cheaper than masking both scatters.
            fail_idx = self._cand_idx[self._miss >= self._error_bound]
            self._labels += self._offset
            indices[self._cand_idx] = self._labels
            indices[fail_idx] = 0
            incompressible[fail_idx] = True
            err[self._cand_idx] = self._miss
            err[fail_idx] = 0.0
        exact = np.asarray(values).ravel()[incompressible].astype(np.float64)
        if err.size:
            mean_error, max_error = float(err.mean()), float(err.max())
        else:
            mean_error = max_error = 0.0
        return Quantized(indices, incompressible, exact, mean_error, max_error)
