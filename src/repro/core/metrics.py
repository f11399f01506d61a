"""Evaluation metrics (paper Section III-B).

* mean / maximum error rate on the change ratios,
* incompressible ratio gamma,
* compression ratio R (paper Eq. 3, plus an honest variant that charges
  the incompressibility bitmap and table against the output),
* Pearson correlation rho and RMSE xi between original and decompressed
  values (paper Section III-F, Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.change import change_ratios
from repro.core.encoder import EncodedIteration

__all__ = [
    "CompressionStats",
    "error_rates",
    "compression_ratio_paper",
    "compression_ratio_actual",
    "pearson_r",
    "rmse",
    "iteration_stats",
    "encoding_stats",
]

_VALUE_BITS = 64  # the paper assumes double-precision checkpoints


@dataclass(frozen=True)
class CompressionStats:
    """Per-iteration evaluation summary.

    ``ratio_paper`` follows Eq. 3 exactly (index bits + exact values + bin
    table; the per-point incompressibility bitmap is *not* charged, matching
    the numbers the paper reports).  ``ratio_actual`` additionally charges
    the bitmap (1 bit/point), i.e. what a real container must store.
    Both are percentages: 80.0 means the output is 5x smaller.
    """

    n_points: int
    n_incompressible: int
    n_bins: int
    nbits: int
    mean_error: float
    max_error: float
    ratio_paper: float
    ratio_actual: float

    @property
    def incompressible_ratio(self) -> float:
        return self.n_incompressible / self.n_points if self.n_points else 0.0


def error_rates(true_ratios: np.ndarray, approx_ratios: np.ndarray,
                exact_mask: np.ndarray | None = None) -> tuple[float, float]:
    """Mean and max absolute difference between true and approximated ratios.

    Exactly stored points contribute zero error (their decoded value is
    bit-identical), which matches the paper's averaging over *all* points.
    """
    t = np.asarray(true_ratios, dtype=np.float64).ravel()
    a = np.asarray(approx_ratios, dtype=np.float64).ravel()
    if t.shape != a.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {a.shape}")
    if t.size == 0:
        return 0.0, 0.0
    err = np.abs(a - t)
    if exact_mask is not None:
        err = np.where(np.asarray(exact_mask, dtype=bool).ravel(), 0.0, err)
    return float(err.mean()), float(err.max())


def compression_ratio_paper(n_points: int, n_incompressible: int, nbits: int,
                            n_bins: int | None = None,
                            value_bits: int = _VALUE_BITS) -> float:
    """Compression ratio per the paper's Eq. 3, as a percentage.

    With N points of 64 bits, gamma = incompressible fraction, B index
    bits and a table of ``n_bins`` 64-bit representatives::

        R = 100 * (1 - ((1-gamma)*B/64 + gamma + table_bits/(64*N)))

    (Eq. 3 as printed omits the |D| factor on the index term and mixes
    units; this is the standard reading that reproduces the paper's
    numbers, e.g. gamma ~ 0 and B = 9 gives R slightly under 85.9 %.)

    ``n_bins`` defaults to the full table of ``2**B - 1`` entries, as Eq. 3
    charges, even if fewer bins were occupied.
    """
    if n_points <= 0:
        raise ValueError("n_points must be positive")
    if not 0 <= n_incompressible <= n_points:
        raise ValueError("n_incompressible out of range")
    gamma = n_incompressible / n_points
    table = ((1 << nbits) - 1) if n_bins is None else n_bins
    compressed_bits = (
        (1.0 - gamma) * n_points * nbits
        + gamma * n_points * value_bits
        + table * 64  # the table always stores float64 representatives
    )
    original_bits = n_points * value_bits
    return 100.0 * (original_bits - compressed_bits) / original_bits


def compression_ratio_actual(n_points: int, n_incompressible: int, nbits: int,
                             n_bins: int, header_bytes: int = 0,
                             value_bits: int = _VALUE_BITS) -> float:
    """Compression ratio charging everything a container stores.

    Adds the 1-bit-per-point incompressibility bitmap, the *actual* table
    size and optional header bytes on top of Eq. 3's accounting.  Can be
    negative for tiny arrays where the table dominates.
    """
    if n_points <= 0:
        raise ValueError("n_points must be positive")
    gamma = n_incompressible / n_points
    compressed_bits = (
        (1.0 - gamma) * n_points * nbits
        + gamma * n_points * value_bits
        + n_bins * 64
        + n_points  # bitmap
        + 8 * header_bytes
    )
    original_bits = n_points * value_bits
    return 100.0 * (original_bits - compressed_bits) / original_bits


def pearson_r(original: np.ndarray, decoded: np.ndarray) -> float:
    """Pearson correlation between original and decompressed values.

    Returns 1.0 for bit-identical inputs even when one array is constant
    (where the textbook formula is 0/0).
    """
    x = np.asarray(original, dtype=np.float64).ravel()
    y = np.asarray(decoded, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError("cannot correlate empty arrays")
    if np.array_equal(x, y):
        return 1.0
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


def rmse(original: np.ndarray, decoded: np.ndarray) -> float:
    """Root mean square error (paper Eq. 4, the xi metric)."""
    x = np.asarray(original, dtype=np.float64).ravel()
    y = np.asarray(decoded, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError("cannot compute RMSE of empty arrays")
    d = x - y
    return float(np.sqrt(np.mean(d * d)))


def iteration_stats(prev: np.ndarray, curr: np.ndarray,
                    encoded: EncodedIteration) -> CompressionStats:
    """Full per-iteration summary for an encoded pair."""
    field = change_ratios(prev, curr)
    mean_err, max_err = error_rates(
        field.ratios, encoded.decoded_ratios().reshape(encoded.shape),
        exact_mask=encoded.incompressible.reshape(encoded.shape) | field.forced_exact,
    )
    return encoding_stats(encoded, mean_err, max_err)


def encoding_stats(encoded: EncodedIteration, mean_error: float,
                   max_error: float) -> CompressionStats:
    """Per-iteration summary from an encoding and its ratio errors (as the
    encoder reports them in :class:`~repro.core.encoder.EncodeReport`)."""
    n = encoded.n_points
    n_inc = encoded.n_incompressible
    n_bins = int(encoded.representatives.size)
    return CompressionStats(
        n_points=n,
        n_incompressible=n_inc,
        n_bins=n_bins,
        nbits=encoded.nbits,
        mean_error=mean_error,
        max_error=max_error,
        ratio_paper=compression_ratio_paper(n, n_inc, encoded.nbits,
                                            value_bits=encoded.value_bits),
        ratio_actual=compression_ratio_actual(n, n_inc, encoded.nbits, n_bins,
                                              value_bits=encoded.value_bits),
    )
