"""Differential tests of the quantize kernel across every encode path.

With one bin table, the pair encoder (reuse hit, cold fit and refit), the
chunked stream encoder and the SPMD encoder (``SerialComm`` and a 3-rank
``run_spmd``) must store the same indices, incompressible mask and exact
values as a direct reference built from ``searchsorted``.  The chain's
per-append stats, which come from the kernel's error summary, must equal
``iteration_stats`` field for field, float bytes included.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.change import change_ratios
from repro.core.checkpoint import CheckpointChain
from repro.core.config import NumarckConfig
from repro.core.encoder import encode_pair
from repro.core.metrics import iteration_stats
from repro.core.strategies import STRATEGIES
from repro.core.strategies.base import ApproximationStrategy, BinModel
from repro.core.streaming import _ChunkedEncoder
from repro.parallel import SerialComm, block_partition, parallel_encode, run_spmd

E = 1e-3


def _pair(dtype=np.float64, n=5000, seed=3):
    """A pair with zero, NaN and inf references and wide changes, so every
    point class (below E, binned, missed, forced) occurs."""
    rng = np.random.default_rng(seed)
    prev = rng.uniform(1.0, 2.0, n)
    curr = prev * (1.0 + rng.normal(0.0, 0.01, n))
    curr[::7] = prev[::7] * (1.0 + rng.normal(0.0, 2e-4, curr[::7].size))
    curr[::31] *= 3.0
    prev[::53] = 0.0
    curr[::106] = 0.0          # some zero -> zero pairs stay compressible
    prev[5::97] = np.nan
    prev[9::89] = np.inf
    curr[11::83] = -np.inf
    return prev.astype(dtype), curr.astype(dtype)


def _config(strategy, reserve=True, **kw):
    return NumarckConfig(error_bound=E, nbits=6, strategy=strategy,
                         reserve_zero_bin=reserve, **kw)


def _table(prev, curr, cfg) -> BinModel:
    r = change_ratios(prev, curr)
    cand = ~r.forced_exact
    if cfg.reserve_zero_bin:
        cand &= np.abs(r.ratios) >= cfg.error_bound
    return ApproximationStrategy.from_config(cfg).fit(
        r.ratios[cand], cfg.n_bins, cfg.error_bound)


def _reference(prev, curr, reps, cfg):
    """The layout spelled out point by point with searchsorted."""
    field = change_ratios(prev, curr)
    r, forced = field.ratios.ravel(), field.forced_exact.ravel()
    labels = np.searchsorted(0.5 * (reps[:-1] + reps[1:]), r, side="left")
    cand = ~forced
    if cfg.reserve_zero_bin:
        cand &= np.abs(r) >= cfg.error_bound
    ok = cand & (np.abs(reps[labels] - r) < cfg.error_bound)
    offset = 1 if cfg.reserve_zero_bin else 0
    indices = np.where(ok, labels + offset, 0).astype(np.uint32)
    incompressible = forced | (cand & ~ok)
    exact = np.asarray(curr, dtype=np.float64).ravel()[incompressible]
    return indices, incompressible, exact


def _assert_same(got, want):
    indices, incompressible, exact = got
    np.testing.assert_array_equal(indices, want[0])
    assert indices.dtype == np.uint32
    np.testing.assert_array_equal(incompressible, want[1])
    np.testing.assert_array_equal(exact.view(np.uint64),
                                  want[2].view(np.uint64))


def _arrays(enc):
    return enc.indices, enc.incompressible, enc.exact_values


def _spmd_worker(comm, prev_shards, curr_shards, cfg, model):
    enc, _ = parallel_encode(comm, prev_shards[comm.rank],
                             curr_shards[comm.rank], cfg,
                             model_hint=model, hint_drift=None)
    return _arrays(enc)


CASES = [(s, reserve, dtype) for s in sorted(STRATEGIES)
         for reserve in (True, False) for dtype in (np.float64, np.float32)]


@pytest.mark.parametrize("strategy,reserve,dtype", CASES)
def test_every_path_matches_the_reference(strategy, reserve, dtype):
    prev, curr = _pair(dtype)
    cfg = _config(strategy, reserve)
    model = _table(prev, curr, cfg)
    want = _reference(prev, curr, model.representatives, cfg)
    assert want[1].any() and (want[0] > 0).any()

    hit, report = encode_pair(prev, curr, cfg, model_hint=model,
                              hint_drift=None)
    assert report.model_reused
    _assert_same(_arrays(hit), want)

    cold, _ = encode_pair(prev, curr, cfg)
    np.testing.assert_array_equal(cold.representatives, model.representatives)
    _assert_same(_arrays(cold), want)

    far = BinModel(np.array([1e6]))
    refit, report = encode_pair(prev, curr, cfg, model_hint=far,
                                hint_drift=0.0, warm_start=False)
    assert report.refitted
    np.testing.assert_array_equal(refit.representatives, model.representatives)
    _assert_same(_arrays(refit), want)

    chunked = _ChunkedEncoder(cfg, chunk_size=700)
    records = [chunked._encode_chunk(start, p, c, model) for start, p, c in
               zip(range(0, prev.size, 700), np.array_split(prev, 8),
                   np.array_split(curr, 8))]
    _assert_same(tuple(np.concatenate(a) for a in zip(
        *((r.indices, r.incompressible, r.exact_values) for r in records))),
        want)

    serial, stats = parallel_encode(SerialComm(), prev, curr, cfg,
                                    model_hint=model, hint_drift=None)
    assert stats.model_reused
    _assert_same(_arrays(serial), want)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_spmd_ranks_match_the_reference(strategy):
    prev, curr = _pair()
    cfg = _config(strategy)
    model = _table(prev, curr, cfg)
    results = run_spmd(_spmd_worker, 3, block_partition(prev, 3),
                       block_partition(curr, 3), cfg, model)
    _assert_same(tuple(np.concatenate(a) for a in zip(*results)),
                 _reference(prev, curr, model.representatives, cfg))


def _assert_stats_identical(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, float):
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), f.name
        else:
            assert a == b, f.name


def _states(dtype, shape, n_states=4):
    prev, curr = _pair(dtype, n=int(np.prod(shape)))
    states = [prev.reshape(shape), curr.reshape(shape)]
    rng = np.random.default_rng(9)
    for _ in range(n_states - 2):
        step = rng.normal(0.0, 0.004, states[-1].shape).astype(dtype)
        states.append(states[-1] * (1 + step))
    return states


STAT_CASES = (
    [dict(strategy=s) for s in sorted(STRATEGIES)]
    + [dict(strategy="equal_width", reserve=False),
       dict(strategy="log_scale", dtype=np.float32),
       dict(strategy="clustering", adaptive=True),
       dict(strategy="equal_width", adaptive=True, reference="reconstructed"),
       dict(strategy="log_scale", shape=(40, 25, 5))]
)


@pytest.mark.parametrize("case", STAT_CASES,
                         ids=lambda c: "-".join(f"{k}={getattr(v, '__name__', v)}"
                                                for k, v in c.items()))
def test_chain_stats_equal_iteration_stats(case):
    case = dict(case)
    dtype = case.pop("dtype", np.float64)
    shape = case.pop("shape", (50, 100))
    cfg = _config(case.pop("strategy"), case.pop("reserve", True), **case)
    states = _states(dtype, shape)
    chain = CheckpointChain(states[0], cfg)
    chain.extend(states[1:])
    for i, (stats, enc) in enumerate(zip(chain.stats, chain.deltas), start=1):
        if cfg.reference == "original":
            ref = np.asarray(states[i - 1], dtype=np.float64)
        else:
            ref = chain.reconstruct(i - 1)
        _assert_stats_identical(stats, iteration_stats(ref, states[i], enc))
