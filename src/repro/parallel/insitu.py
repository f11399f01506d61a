"""In-situ distributed encoding (the paper's deployment mode).

NUMARCK runs *inside* the simulation: every MPI rank owns a shard of the
mesh and compresses it in place, with one communication-light model fit
shared across ranks (paper: "minimal data movement (mostly in place)").

:func:`parallel_encode` implements that pattern over the
:class:`~repro.parallel.Comm` protocol:

1. each rank computes change ratios for its shard locally;
2. rank 0 gathers a *bounded* sample of compressible candidates (default
   32k values per rank -- constant communication volume regardless of
   shard size), fits the configured strategy, and broadcasts the bin
   table;
3. optionally (``refine=True``, clustering only) the broadcast centroids
   are refined with distributed Lloyd iterations
   (:func:`~repro.kmeans.parallel_kmeans1d`), whose allreduce traffic is
   O(k) per iteration;
4. every rank assigns and error-checks its own points exhaustively against
   the shared table and builds its local
   :class:`~repro.core.encoder.EncodedIteration`.

The per-point guarantee is exactly the serial one: sharing the table only
affects bin placement, never the exactness check.

**Degraded-mode recovery** (``on_rank_failure="degrade"``, the default):
a checkpoint must still be produced when a peer rank dies or hangs
mid-collective, so every communication step runs through the
failure-absorbing ``*_degraded`` collectives.  Rank 0 fits the model from
the samples of the *surviving* ranks and piggybacks the lost-rank set on
its broadcasts, so all survivors agree on the membership and finish with
identical statistics.  Crucially the per-point error bound is unaffected:
the shared table only steers bin placement, and every surviving rank
still error-checks its own points exhaustively.  The result's
:class:`GlobalStats` then reports ``degraded=True`` with the
``lost_ranks``, and global counts cover survivors only.  Loss of rank 0
itself (the recovery coordinator) is always a loud
:class:`~repro.parallel.faults.RankFailureError`, as is any failure under
``on_rank_failure="raise"``.

Failure detection is timeout-based and therefore *unreliable* in the
theoretical sense: under extreme load a live rank can be suspected
falsely.  Two consequences to be aware of.  A falsely-suspected rank
that later needs data from the survivors fails loudly (it is skipped,
times out, and raises).  And if the false suspicion strikes on the very
last message of the encode, the suspected rank may complete cleanly
while the root conservatively reports it lost -- views of ``degraded``/
``lost_ranks`` can then differ between ranks, but every completed
encode still honors the per-point bound.  Size the communicator
``timeout`` above the longest compute phase to make false positives
rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.parallel.comm import Comm, SerialComm
from repro.telemetry.tracer import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import NumarckConfig
    from repro.core.encoder import EncodedIteration

# repro.core imports repro.kmeans, whose distributed driver imports
# repro.parallel (this package); importing repro.core at module scope here
# would close that cycle.  The core/kmeans symbols are therefore imported
# lazily inside the functions.

__all__ = ["parallel_encode", "GlobalStats"]


@dataclass(frozen=True)
class GlobalStats:
    """Aggregate compression statistics across all *surviving* ranks."""

    n_points: int
    n_incompressible: int
    n_bins: int
    #: True when at least one rank was lost and the encode completed from
    #: the survivors; global counts then cover survivors only.
    degraded: bool = False
    #: ranks lost during this encode (empty on a clean run).
    lost_ranks: tuple[int, ...] = ()
    #: True when the shared bin table came from ``model_hint`` (reuse hit):
    #: the sample gather, root fit, table broadcast and Lloyd refinement
    #: were all skipped -- communication drops to one O(1) allreduce.
    model_reused: bool = False

    @property
    def incompressible_ratio(self) -> float:
        return self.n_incompressible / self.n_points if self.n_points else 0.0


def parallel_encode(
    comm: Comm | None,
    local_prev: np.ndarray,
    local_curr: np.ndarray,
    config: NumarckConfig | None = None,
    sample_per_rank: int = 32_768,
    refine: bool = True,
    fit_mode: str = "sample",
    on_rank_failure: str = "degrade",
    model_hint=None,
    hint_baseline: float = 0.0,
    hint_drift: float | None = None,
) -> tuple[EncodedIteration, GlobalStats]:
    """SPMD encode of one iteration; call on every rank with its shard.

    Returns this rank's encoded shard plus the *global* statistics
    (identical on every rank).  With ``SerialComm`` the result matches the
    serial encoder up to sampling of the model fit.

    ``fit_mode`` selects how the shared bin table is learned:

    * ``"sample"`` -- gather a bounded candidate sample to rank 0, fit the
      configured strategy there, broadcast the table (default; any
      strategy).
    * ``"sketch"`` -- every rank builds a
      :class:`~repro.analysis.sketch.RatioSketch` of its candidates; one
      O(bins) allreduce merges them and every rank fits the identical
      weighted-k-means model locally.  Communication is constant in both
      data size and rank count; only meaningful for ``"clustering"``.

    ``on_rank_failure`` selects the failure semantics:

    * ``"degrade"`` (default) -- survive lost peers: the model is fitted
      from the surviving ranks' data and the returned stats carry
      ``degraded=True`` plus the ``lost_ranks``.  The per-point error
      bound E still holds on every surviving rank.
    * ``"raise"`` -- any lost peer raises
      :class:`~repro.parallel.faults.RankFailureError`.

    ``model_hint`` (a :class:`~repro.core.strategies.base.BinModel` every
    rank already holds, e.g. from the previous timestep's encode) enables
    the adaptive reuse path: each rank checks the hinted table against its
    local candidates, one O(1) allreduce agrees on the *global* fail
    fraction, and if it has not drifted more than ``hint_drift`` above
    ``hint_baseline`` the whole fit pipeline -- sample gather, root fit,
    table broadcast, Lloyd refinement -- is skipped (``hint_drift=None``
    reuses unconditionally).  The decision is collective, so every rank
    takes the same branch.  On drift, the normal fit runs and warm-starts
    from the hinted centers.  The per-point bound E is unaffected either
    way.
    """
    from repro.core.change import change_ratios
    from repro.core.config import NumarckConfig
    from repro.core.encoder import EncodedIteration, _fit_model
    from repro.core.quantize import Quantizer
    from repro.core.strategies.base import BinModel
    from repro.kmeans import parallel_kmeans1d

    comm = comm if comm is not None else SerialComm()
    cfg = config if config is not None else NumarckConfig()
    prev = np.asarray(local_prev, dtype=np.float64)
    curr = np.asarray(local_curr, dtype=np.float64)
    if prev.shape != curr.shape:
        raise ValueError(f"shard shape mismatch: {prev.shape} vs {curr.shape}")

    if fit_mode not in ("sample", "sketch"):
        raise ValueError(f"unknown fit_mode {fit_mode!r}")
    if on_rank_failure not in ("degrade", "raise"):
        raise ValueError(f"unknown on_rank_failure {on_rank_failure!r}")
    degrade = on_rank_failure == "degrade"
    _gather = comm.gather_degraded if degrade else comm.gather
    _bcast = comm.bcast_degraded if degrade else comm.bcast
    _allreduce = comm.allreduce_degraded if degrade else comm.allreduce

    tel = get_telemetry()
    with tel.span("insitu.parallel_encode", rank=comm.rank, size=comm.size,
                  n_local=int(np.asarray(curr).size)) as tspan:
        q = Quantizer(change_ratios(prev, curr), cfg.error_bound,
                      cfg.reserve_zero_bin)
        cand = q.candidates

        reused = False
        if model_hint is not None and model_hint.n_bins:
            # -- adaptive reuse: collective drift check, O(1) traffic -----
            # On a reuse hit the labels of this check are the encode's.
            local_fail = q.check(model_hint)
            with comm.phase("insitu.hint_validate"):
                totals = _allreduce(np.array([cand.size, local_fail],
                                             dtype=np.int64))
            n_cand_global = int(totals[0])
            fail_frac = int(totals[1]) / n_cand_global if n_cand_global else 0.0
            drift = max(0.0, fail_frac - hint_baseline)
            tel.metrics.gauge("adaptive.drift").set(drift)
            if hint_drift is None or drift <= hint_drift:
                reused = True
                reps = model_hint.representatives
                tel.metrics.counter("adaptive.reuse_hits").inc()
            else:
                tel.metrics.counter("adaptive.refits").inc()

        if reused:
            pass  # every rank already holds the shared table
        elif fit_mode == "sketch":
            # -- mergeable-sketch fit: O(bins) allreduce, local deterministic fit
            from repro.analysis.sketch import RatioSketch

            sketch = RatioSketch(cfg.error_bound).add(cand)
            with comm.phase("insitu.sketch_allreduce"):
                sketch.counts = _allreduce(sketch.counts)
            if sketch.total:
                reps = sketch.fit_model(cfg.n_bins,
                                        max_iter=cfg.kmeans_max_iter).representatives
            else:
                reps = np.empty(0)
        else:
            # -- bounded-sample gather and root-side model fit ---------------
            rng = np.random.default_rng(cfg.seed + comm.rank)
            if cand.size > sample_per_rank:
                idx = rng.choice(cand.size, size=sample_per_rank - 2, replace=False)
                sample = np.concatenate([cand[idx], [cand.min(), cand.max()]])
            else:
                sample = cand
            with comm.phase("insitu.sample_gather"):
                gathered = _gather(sample, root=0)
            if comm.rank == 0:
                live = [g for g in (gathered or [])
                        if g is not None and g.size]
                all_samples = np.concatenate(live) if live else np.empty(0)
                if all_samples.size:
                    ws = (model_hint.representatives
                          if model_hint is not None and model_hint.n_bins
                          else None)
                    model = _fit_model(all_samples, cfg, warm_start=ws)
                    reps = model.representatives
                else:
                    reps = np.empty(0)
                payload = (reps, comm.lost_ranks)
            else:
                payload = None
            with comm.phase("insitu.fit_bcast"):
                payload = _bcast(payload, root=0)
            reps, lost_at_fit = payload
            # Survivors adopt the root's view of the membership so later
            # collectives skip the casualties without re-detecting them.
            comm.note_lost(lost_at_fit)

        # -- optional distributed Lloyd refinement (paper's parallel k-means)
        if refine and not reused and cfg.strategy == "clustering" and reps.size > 1:
            with comm.phase("insitu.refine"):
                refined = parallel_kmeans1d(comm, cand, reps,
                                            max_iter=cfg.kmeans_max_iter,
                                            on_rank_failure=on_rank_failure)
                candidate = np.unique(refined.centroids)
                # Safeguard as in the serial strategy: keep the refinement
                # only if it does not cover fewer local+global points than
                # the root fit.
                if (_allreduce(q.check(BinModel(candidate)))
                        <= _allreduce(q.check(BinModel(reps)))):
                    reps = candidate

        # -- exhaustive local assignment and exactness check ----------------
        if reused:
            model = model_hint
        else:
            model = BinModel(reps) if reps.size else None
        out = q.finish(curr, model)
        encoded = EncodedIteration(
            shape=curr.shape,
            nbits=cfg.nbits,
            representatives=np.asarray(reps, dtype=np.float64),
            indices=out.indices,
            incompressible=out.incompressible,
            exact_values=out.exact_values,
            error_bound=cfg.error_bound,
            strategy=cfg.strategy,
            zero_reserved=cfg.reserve_zero_bin,
            model_reused=reused,
        )
        with comm.phase("insitu.stats"):
            n_points_global = _allreduce(int(curr.size))
            n_incompressible_global = _allreduce(encoded.n_incompressible)
        lost = comm.lost_ranks
        stats = GlobalStats(
            n_points=n_points_global,
            n_incompressible=n_incompressible_global,
            n_bins=int(np.asarray(reps).size),
            degraded=bool(lost),
            lost_ranks=tuple(lost),
            model_reused=reused,
        )
        tspan.set(degraded=stats.degraded, n_lost=len(lost),
                  n_bins=stats.n_bins, model_reused=reused)
        if stats.degraded:
            tel.metrics.counter("insitu.degraded_encodes").inc()
    return encoded, stats
