"""Log-scale binning (paper Section II-C2).

Bins are equal-width in ``log |ratio|``, separately for negative and
positive ratios, so small changes get narrow bins and large changes get
wide ones.  The budget of ``k`` bins is split between the two signs in
proportion to their candidate counts.

A log-scale bin ``[a, b]`` (``0 < a <= b``) represented by its geometric
midpoint ``sqrt(a*b)`` keeps every member within the tolerance ``E``
whenever ``b / a <= ((1 + E/a) / (1 - E/b))`` -- in particular, bins whose
absolute half-width stays under ``E``.  The encoder still enforces the hard
bound point-wise, so the strategy only has to *aim* bins well.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategies.base import ApproximationStrategy, BinModel
from repro.telemetry.tracer import get_telemetry

__all__ = ["LogScaleStrategy"]

_TINY = 1e-300


def _log_edges(lo: float, hi: float, nbins: int) -> np.ndarray:
    """Geometric bin edges covering ``[lo, hi]`` (``0 < lo <= hi``)."""
    lo = max(lo, _TINY)
    hi = max(hi, lo)
    if lo == hi or nbins <= 1:
        return np.array([lo, hi])
    return np.exp(np.linspace(np.log(lo), np.log(hi), num=nbins + 1))


def _side_representatives(mags: np.ndarray, nbins: int, error_bound: float) -> np.ndarray:
    """Representatives (positive magnitudes) for one sign's candidates."""
    lo = float(mags.min())
    hi = float(mags.max())
    # Anchor the lowest edge at E when the data allows: ratios below E are
    # already swallowed by the reserved zero index, so bins [E, hi] spend
    # the budget only where it matters (paper: "more finer bins ... for
    # smaller changes").
    lo = max(min(lo, hi), min(error_bound, lo))
    edges = _log_edges(lo, hi, nbins)
    # Geometric midpoints; dedupe occupied bins like equal-width does.
    idx = np.clip(np.searchsorted(edges, mags, side="right") - 1, 0, len(edges) - 2)
    occupied = np.flatnonzero(np.bincount(idx, minlength=len(edges) - 1))
    reps = np.sqrt(edges[occupied] * edges[occupied + 1])
    return reps


class LogScaleStrategy(ApproximationStrategy):
    """Sign-aware geometric binning of ``|ratio|``."""

    name = "log_scale"

    def fit(self, ratios: np.ndarray, k: int, error_bound: float, *,
            warm_start: np.ndarray | None = None) -> BinModel:
        arr = self._validate(ratios, k, error_bound)
        with get_telemetry().span("strategy.log_scale.fit",
                                  n_ratios=arr.size, k=k,
                                  bytes_in=arr.nbytes) as sp:
            neg = arr[arr < 0]
            pos = arr[arr > 0]
            zero_present = bool((arr == 0).any())

            reps_parts: list[np.ndarray] = []
            budget = k - (1 if zero_present else 0)
            if budget < 1:
                budget = 1
            n_sides = (neg.size > 0) + (pos.size > 0)
            if n_sides == 0:
                # All candidates are exactly zero.
                sp.set(n_bins=1)
                return BinModel(np.array([0.0]))

            if neg.size and pos.size:
                k_neg = max(1, int(round(budget * neg.size / arr.size)))
                k_neg = min(k_neg, budget - 1)
                k_pos = budget - k_neg
            elif neg.size:
                k_neg, k_pos = budget, 0
            else:
                k_neg, k_pos = 0, budget

            if neg.size:
                reps_parts.append(-_side_representatives(-neg, k_neg, error_bound)[::-1])
            if zero_present:
                reps_parts.append(np.array([0.0]))
            if pos.size:
                reps_parts.append(_side_representatives(pos, k_pos, error_bound))

            reps = np.unique(np.concatenate(reps_parts))
            model = BinModel(reps[: k] if reps.size > k else reps)
            sp.set(n_bins=int(model.representatives.size))
            return model
