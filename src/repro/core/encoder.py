"""Encode one iteration into the NUMARCK representation.

Per-point layout (paper Algorithm 1 plus the layout decision documented in
DESIGN.md):

* index ``0`` -- change ratio below tolerance (``|ratio| < E``): decode as
  "carry the previous value" (approximated ratio 0);
* index ``1 .. 2**B - 1`` -- bin id; decode ratio = table[index - 1];
* incompressible points -- flagged in a 1-bit-per-point bitmap; their raw
  float64 values are stored densely in flat (C-order) index order, and
  their B-bit index is set to 0 and ignored on decode.

A point is incompressible when (a) the change ratio is undefined
(``prev == 0`` or non-finite data), or (b) its assigned bin representative
misses the true ratio by ``>= E``.  Consequently every decoded point
satisfies the hard guarantee ``|decoded_ratio - true_ratio| < E`` or is
bit-exact.  That mask -> assign -> bound check -> assembly sequence is
:class:`~repro.core.quantize.Quantizer`, the one kernel the streamed and
SPMD encoders share.

**Model reuse** (the adaptive engine's hot path): :func:`encode_pair`
accepts a ``model_hint`` -- a previously fitted
:class:`~repro.core.strategies.base.BinModel`.  The hinted table is first
*validated* against the new candidates (one vectorised assign + bound
check); when the incompressible fraction has not drifted past
``hint_drift`` over ``hint_baseline``, the fit stage is skipped entirely
and the validation labels double as the encode assignment -- reuse costs
nothing beyond the assign every encode performs anyway.  On drift the
model is refitted (warm-starting from the cached centers when the
strategy supports it).  Either way the per-point exactness check runs in
full, so E holds identically in both paths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.change import change_ratios
from repro.core.config import NumarckConfig
from repro.core.quantize import Quantizer
from repro.core.strategies.base import ApproximationStrategy, BinModel
from repro.telemetry.accounting import delta_payload_nbytes
from repro.telemetry.tracer import get_telemetry

__all__ = ["EncodedIteration", "EncodeReport", "encode_pair", "encode_iteration"]


@dataclass(frozen=True)
class EncodedIteration:
    """Compressed form of one checkpoint iteration.

    Attributes
    ----------
    shape:
        Original array shape.
    nbits:
        Index width ``B``.
    representatives:
        Sorted table of at most ``2**B - 1`` representative ratios
        (possibly empty when every point was unchanged or exact).
    indices:
        Flat uint32 array of per-point indices (0 = below tolerance or
        incompressible; ``j >= 1`` = ``representatives[j - 1]``).
    incompressible:
        Flat boolean mask of exactly stored points.
    exact_values:
        Raw float64 values of the incompressible points, in flat order.
    error_bound / strategy:
        The configuration the iteration was encoded with, kept for
        self-description and format headers.
    """

    shape: tuple[int, ...]
    nbits: int
    representatives: np.ndarray
    indices: np.ndarray
    incompressible: np.ndarray
    exact_values: np.ndarray
    error_bound: float
    strategy: str
    zero_reserved: bool = True
    #: bits per raw value of the *source* data (64 for float64 checkpoints,
    #: 32 for float32 -- affects Eq.-3 accounting and how exact values are
    #: serialised; in memory they are always held as float64).
    value_bits: int = 64
    #: True when this iteration reused the previous iteration's bin table
    #: instead of fitting a fresh one (adaptive reuse hit).  The container
    #: format stores such tables once per run of reuse hits.
    model_reused: bool = False

    @property
    def n_points(self) -> int:
        return int(self.indices.size)

    @property
    def n_incompressible(self) -> int:
        return int(self.exact_values.size)

    @property
    def incompressible_ratio(self) -> float:
        """The paper's gamma: fraction of points stored exactly."""
        return self.n_incompressible / self.n_points if self.n_points else 0.0

    def decoded_ratios(self) -> np.ndarray:
        """Approximated change ratio per point (flat; 0 where incompressible)."""
        if self.representatives.size == 0:
            return np.zeros(self.n_points, dtype=np.float64)
        if self.zero_reserved:
            table = np.concatenate([[0.0], self.representatives])
        else:
            table = self.representatives
        ratios = table[self.indices]
        ratios[self.incompressible] = 0.0
        return ratios


@dataclass(frozen=True)
class EncodeReport:
    """What the model-reuse gate decided for one encode.

    Attributes
    ----------
    model_reused:
        True when the hinted table was validated and reused (fit skipped).
    refitted:
        True when a hint was provided but drifted past the trigger, so a
        fresh model was fitted.
    drift:
        Observed drift of the hinted table: the candidate fail fraction
        under the hint minus ``hint_baseline``, floored at 0.  Zero when
        no hint was given.
    fit_fail_fraction:
        Candidate fail fraction under the *final* table -- the baseline a
        stateful caller should carry to the next iteration.
    n_candidates:
        Number of compressible candidates this encode considered.
    mean_error / max_error:
        Mean and maximum ``|decoded ratio - true ratio|`` over all points
        (0 at exactly stored ones) -- the error fields of
        :func:`~repro.core.metrics.iteration_stats`, bit for bit, taken
        from the quantize pass instead of a second change-ratio pass.
    """

    model_reused: bool = False
    refitted: bool = False
    drift: float = 0.0
    fit_fail_fraction: float = 0.0
    n_candidates: int = 0
    mean_error: float = 0.0
    max_error: float = 0.0


def _fit_model(candidates: np.ndarray, config: NumarckConfig,
               warm_start: np.ndarray | None = None) -> BinModel:
    strategy = ApproximationStrategy.from_config(config)
    return strategy.fit(candidates, config.n_bins, config.error_bound,
                        warm_start=warm_start)


def encode_pair(
    prev: np.ndarray,
    curr: np.ndarray,
    config: NumarckConfig | None = None,
    *,
    model_hint: BinModel | None = None,
    hint_baseline: float = 0.0,
    hint_drift: float | None = None,
    warm_start: bool = True,
) -> tuple[EncodedIteration, EncodeReport]:
    """Compress iteration ``curr`` against ``prev``; return the encoding
    plus an :class:`EncodeReport` describing the model-reuse decision.

    Parameters
    ----------
    prev:
        The reference iterate.  Under the paper's open-loop scheme this is
        the *original* previous iteration; callers running closed-loop pass
        the previously *decoded* state (see
        :class:`~repro.core.checkpoint.CheckpointChain`).
    curr:
        The iterate to compress.
    config:
        Compression parameters; defaults to ``NumarckConfig()``.
    model_hint:
        A previously fitted bin table to try first.  With ``hint_drift``
        set, the hint is validated and dropped on drift; with
        ``hint_drift=None`` it is used unconditionally (the distributed
        encoder's broadcast-table path).
    hint_baseline:
        Candidate fail fraction when the hint was last accepted; drift is
        measured relative to this.
    hint_drift:
        Maximum tolerated drift before a refit (absolute increase of the
        fail fraction).  ``None`` disables the gate.
    warm_start:
        On refit, seed the strategy from the hint's representatives.
    """
    cfg = config if config is not None else NumarckConfig()
    curr = np.asarray(curr)
    value_bits = 32 if curr.dtype == np.float32 else 64
    tel = get_telemetry()
    with tel.span("encode", n_points=int(curr.size), strategy=cfg.strategy,
                  bytes_in=int(curr.nbytes)) as tspan:
        with tel.span("encode.change_ratios"):
            field = change_ratios(prev, curr)
        e = cfg.error_bound
        q = Quantizer(field, e, cfg.reserve_zero_bin)
        n_cand = int(q.candidates.size)
        model: BinModel | None = None
        reused = False
        refitted = False
        drift = 0.0
        fail_fraction = 0.0
        if model_hint is not None and model_hint.n_bins and n_cand:
            # Validate the cached table: one assign + bound check.  On a
            # reuse hit these labels ARE the encode assignment, so
            # validation costs nothing extra.
            with tel.span("adaptive.validate", n_candidates=n_cand) as vspan:
                fail_fraction = q.check(model_hint) / n_cand
                drift = max(0.0, fail_fraction - hint_baseline)
                reused = hint_drift is None or drift <= hint_drift
                vspan.set(drift=drift, reused=reused)
            tel.metrics.gauge("adaptive.drift").set(drift)
        elif model_hint is not None and model_hint.n_bins:
            # Nothing to fit: trivially a reuse hit (all points unchanged
            # or exact), and the cached table stays live for the chain.
            reused = True
        if reused:
            model = model_hint
            tel.metrics.counter("adaptive.reuse_hits").inc()
        elif n_cand:
            with tel.span("encode.fit", n_candidates=n_cand):
                ws = (model_hint.representatives
                      if model_hint is not None and warm_start else None)
                model = _fit_model(q.candidates, cfg, warm_start=ws)
            if model_hint is not None:
                refitted = True
                tel.metrics.counter("adaptive.refits").inc()
            with tel.span("encode.assign", n_candidates=n_cand):
                fail_fraction = q.check(model) / n_cand
        out = q.finish(curr, model)
        representatives = (model.representatives if model is not None
                           else np.empty(0, dtype=np.float64))

        max_index = (1 << cfg.nbits) - 1
        if representatives.size > (max_index if cfg.reserve_zero_bin else max_index + 1):
            raise AssertionError(
                "strategy produced more representatives than the index width allows"
            )

        enc = EncodedIteration(
            shape=tuple(curr.shape),
            nbits=cfg.nbits,
            representatives=representatives,
            indices=out.indices,
            incompressible=out.incompressible,
            exact_values=out.exact_values,
            error_bound=e,
            strategy=cfg.strategy,
            zero_reserved=cfg.reserve_zero_bin,
            value_bits=value_bits,
            model_reused=reused,
        )
        tspan.set(bytes_out=delta_payload_nbytes(enc),
                  gamma=enc.incompressible_ratio,
                  n_bins=int(representatives.size),
                  model_reused=reused)
    tel.metrics.histogram(
        "encode.incompressible_fraction",
        buckets=(0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0),
    ).observe(enc.incompressible_ratio)
    report = EncodeReport(
        model_reused=reused,
        refitted=refitted,
        drift=drift,
        fit_fail_fraction=fail_fraction,
        n_candidates=n_cand,
        mean_error=out.mean_error,
        max_error=out.max_error,
    )
    return enc, report


def encode_iteration(
    prev: np.ndarray,
    curr: np.ndarray,
    config: NumarckConfig | None = None,
    *,
    model_hint: BinModel | None = None,
) -> EncodedIteration:
    """Compress iteration ``curr`` as change ratios against ``prev``.

    .. deprecated::
        Use :class:`repro.Codec` (``Codec(config=config).compress(prev, curr)``)
        or :func:`encode_pair` when the reuse report is needed.

    ``model_hint`` forwards to :func:`encode_pair`; without a drift gate
    the hinted table is used unconditionally.
    """
    warnings.warn(
        "encode_iteration() is deprecated; use repro.Codec(config=config)"
        ".compress(prev, curr) or repro.core.encoder.encode_pair()",
        DeprecationWarning,
        stacklevel=2,
    )
    enc, _ = encode_pair(prev, curr, config, model_hint=model_hint)
    return enc
