"""Tests for the from-scratch Lloyd implementations."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.kmeans import (KMeansResult, assign1d, histogram_init, kmeans,
                          kmeans1d, parallel_kmeans1d, warm_start_init)
from repro.kmeans.lloyd import _Presorted
from repro.parallel import SerialComm, run_spmd


class TestAssign1d:
    def test_single_centroid(self):
        labels = assign1d(np.array([1.0, 5.0, -2.0]), np.array([0.0]))
        np.testing.assert_array_equal(labels, [0, 0, 0])

    def test_nearest_assignment(self):
        cent = np.array([0.0, 10.0])
        labels = assign1d(np.array([1.0, 9.0, 4.9, 5.1]), cent)
        np.testing.assert_array_equal(labels, [0, 1, 0, 1])

    def test_tie_goes_to_lower_centroid(self):
        labels = assign1d(np.array([5.0]), np.array([0.0, 10.0]))
        assert labels[0] == 0

    def test_empty_centroids_raise(self):
        with pytest.raises(ValueError):
            assign1d(np.array([1.0]), np.array([]))

    def test_matches_brute_force(self, rng):
        data = rng.normal(size=500)
        cent = np.sort(rng.normal(size=16))
        fast = assign1d(data, cent)
        brute = np.argmin(np.abs(data[:, None] - cent[None, :]), axis=1)
        # Ties may differ; distances must agree.
        np.testing.assert_allclose(
            np.abs(data - cent[fast]), np.abs(data - cent[brute])
        )


class TestKMeans1D:
    def test_separated_clusters_found(self, rng):
        data = np.concatenate([
            rng.normal(-10, 0.1, 200),
            rng.normal(0, 0.1, 200),
            rng.normal(10, 0.1, 200),
        ])
        res = kmeans1d(data, np.array([-5.0, 1.0, 5.0]))
        np.testing.assert_allclose(np.sort(res.centroids), [-10, 0, 10], atol=0.15)
        assert res.converged

    def test_labels_in_range(self, rng):
        data = rng.normal(size=300)
        res = kmeans1d(data, histogram_init(data, 8))
        assert res.labels.min() >= 0
        assert res.labels.max() < 8

    def test_inertia_not_worse_than_init(self, rng):
        data = rng.normal(size=400)
        init = histogram_init(data, 10)
        init_inertia = float(np.sum((data - init[assign1d(data, init)]) ** 2))
        res = kmeans1d(data, init)
        assert res.inertia <= init_inertia + 1e-9

    def test_empty_data_raises(self):
        with pytest.raises(ValueError):
            kmeans1d(np.array([]), np.array([0.0]))

    def test_constant_data(self):
        res = kmeans1d(np.full(50, 3.0), np.array([0.0, 1.0]))
        assert np.any(np.isclose(res.centroids, 3.0))
        assert res.inertia == pytest.approx(0.0)

    def test_k_equals_n(self):
        data = np.array([1.0, 2.0, 3.0])
        res = kmeans1d(data, data.copy())
        assert res.inertia == pytest.approx(0.0)

    def test_centroids_sorted(self, rng):
        data = rng.normal(size=200)
        res = kmeans1d(data, rng.normal(size=7))
        assert np.all(np.diff(res.centroids) >= 0)

    def test_max_iter_respected(self, rng):
        data = rng.normal(size=200)
        res = kmeans1d(data, histogram_init(data, 5), max_iter=1)
        assert res.n_iter == 1


class TestKMeansND:
    def test_2d_clusters(self, rng):
        a = rng.normal([0, 0], 0.1, (100, 2))
        b = rng.normal([5, 5], 0.1, (100, 2))
        res = kmeans(np.vstack([a, b]), np.array([[1.0, 1.0], [4.0, 4.0]]))
        got = res.centroids[np.argsort(res.centroids[:, 0])]
        np.testing.assert_allclose(got, [[0, 0], [5, 5]], atol=0.2)

    def test_1d_input_promoted(self, rng):
        data = rng.normal(size=100)
        res = kmeans(data, np.array([-1.0, 1.0]))
        assert res.centroids.shape == (2, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kmeans(np.zeros((10, 3)), np.zeros((2, 2)))

    def test_agrees_with_1d_on_scalar_data(self, rng):
        data = rng.normal(size=300)
        init = histogram_init(data, 6)
        r1 = kmeans1d(data, init, max_iter=50)
        rn = kmeans(data, init, max_iter=50)
        assert rn.inertia == pytest.approx(r1.inertia, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    k=st.integers(1, 12),
    n=st.integers(12, 300),
)
def test_property_inertia_and_labels(seed, k, n):
    """Inertia equals the label-implied SSE and labels stay in range."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=n) * rng.uniform(0.1, 10)
    res = kmeans1d(data, histogram_init(data, k))
    assert 0 <= res.labels.min() and res.labels.max() < res.centroids.size
    sse = float(np.sum((data - res.centroids[res.labels]) ** 2))
    assert res.inertia == pytest.approx(sse, rel=1e-9, abs=1e-12)


class TestInertiaHistory:
    def test_length_matches_n_iter(self, rng):
        data = rng.normal(size=400)
        res = kmeans1d(data, histogram_init(data, 8))
        assert len(res.inertia_history) == res.n_iter

    def test_last_entry_is_final_inertia(self, rng):
        data = rng.normal(size=400)
        res = kmeans1d(data, histogram_init(data, 8))
        assert res.inertia_history[-1] == pytest.approx(res.inertia, rel=1e-9)

    def test_monotone_non_increasing(self, rng):
        data = rng.uniform(-5, 5, 1000)
        res = kmeans1d(data, histogram_init(data, 16), max_iter=50)
        hist = np.asarray(res.inertia_history)
        # Lloyd never increases the objective; allow float noise only.
        assert np.all(np.diff(hist) <= 1e-9 * np.maximum(hist[:-1], 1.0))

    def test_matches_direct_sse_each_sweep(self, rng):
        # Re-run Lloyd by hand and compare the moments-identity history
        # against a direct SSE at every sweep.
        data = rng.normal(size=300)
        init = histogram_init(data, 6)
        res = kmeans1d(data, init, max_iter=50)
        cent = np.sort(np.asarray(init, dtype=np.float64))
        for sweep, recorded in enumerate(res.inertia_history, start=1):
            labels = assign1d(data, cent)
            counts = np.bincount(labels, minlength=cent.size).astype(float)
            sums = np.bincount(labels, weights=data, minlength=cent.size)
            new = cent.copy()
            nonempty = counts > 0
            new[nonempty] = sums[nonempty] / counts[nonempty]
            cent = np.sort(new)
            labels = assign1d(data, cent)
            sse = float(np.sum((data - cent[labels]) ** 2))
            assert recorded == pytest.approx(sse, rel=1e-9, abs=1e-12)

    def test_weighted_history(self, rng):
        data = rng.normal(size=200)
        w = rng.uniform(0.5, 2.0, 200)
        res = kmeans1d(data, histogram_init(data, 5), weights=w)
        assert len(res.inertia_history) == res.n_iter
        assert res.inertia_history[-1] == pytest.approx(res.inertia, rel=1e-9)

    def test_nd_history(self, rng):
        data = rng.normal(size=(300, 2))
        init = data[rng.choice(300, 4, replace=False)]
        res = kmeans(data, init)
        assert len(res.inertia_history) == res.n_iter
        assert res.inertia_history[-1] == pytest.approx(res.inertia, rel=1e-9)

    def test_parallel_history_matches_serial(self, rng):
        from repro.kmeans.parallel import parallel_kmeans1d

        data = rng.normal(size=500)
        init = histogram_init(data, 7)
        serial = kmeans1d(data, init)
        par = parallel_kmeans1d(None, data, init)
        assert par.inertia_history == pytest.approx(serial.inertia_history)


# -- sort-once kernel vs the per-sweep assign1d reference -------------------
#
# kmeans1d and parallel_kmeans1d sort their points once and assign each
# sweep by searching the midpoints into the sorted points.  The reference
# below is Lloyd's loop as it was before that: assign1d on every sweep and
# bincount for the counts.  Results must agree bit for bit (compared as raw
# float64 bytes, which is stricter than == and also covers NaN).

class _UndefinedReference(Exception):
    """assign1d searched unsorted midpoints (adjacent -inf and +inf
    centroids give a NaN midpoint); its labels are then undefined."""


def _reference_assign(arr, cent):
    mids = 0.5 * (cent[:-1] + cent[1:])
    if not np.array_equal(np.sort(mids), mids, equal_nan=True):
        raise _UndefinedReference
    return assign1d(arr, cent)


def _reference_lloyd(data, centroids=None, max_iter=50, tol=1e-10,
                     weights=None, *, warm_start=None, k=None, comm=None):
    """Per-sweep ``assign1d`` Lloyd: kmeans1d's loop, or with ``comm``
    parallel_kmeans1d's (moments allreduced as ``(k, 2)`` rows)."""
    arr = np.asarray(data, dtype=np.float64).ravel()
    if warm_start is not None:
        cached = np.asarray(warm_start, dtype=np.float64).ravel()
        target_k = k if k is not None else max(int(np.unique(cached).size), 1)
        centroids = warm_start_init(arr, target_k, cached)
    cent = np.sort(np.asarray(centroids, dtype=np.float64).ravel())
    k = cent.size
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    reduce = (lambda v, op=None: v) if comm is None else comm.allreduce

    def moments(labels):
        if w is None:
            counts = np.bincount(labels, minlength=k).astype(np.float64)
            sums = np.bincount(labels, weights=arr, minlength=k)
        else:
            counts = np.bincount(labels, weights=w, minlength=k)
            sums = np.bincount(labels, weights=arr * w, minlength=k)
        if comm is None:
            return counts, sums
        rows = comm.allreduce(np.column_stack([sums, counts]))
        return rows[:, 1], rows[:, 0]

    lo = reduce(float(arr.min()) if arr.size else np.inf, op=min)
    hi = reduce(float(arr.max()) if arr.size else -np.inf, op=max)
    span = hi - lo
    move_tol = tol * (span if span > 0 else 1.0)
    sumsq = reduce(float(np.sum(arr * arr if w is None else arr * arr * w)))
    labels = _reference_assign(arr, cent)
    counts, sums = moments(labels)
    history = []
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        new = cent.copy()
        nonempty = counts > 0
        new[nonempty] = sums[nonempty] / counts[nonempty]
        new = np.sort(new)
        move = float(np.max(np.abs(new - cent)))
        cent = new
        labels = _reference_assign(arr, cent)
        counts, sums = moments(labels)
        history.append(max(
            sumsq - 2.0 * float(cent @ sums) + float(counts @ (cent * cent)),
            0.0,
        ))
        if move <= move_tol:
            converged = True
            break
    sq = (arr - cent[labels]) ** 2
    inertia = reduce(float(np.sum(sq if w is None else sq * w)))
    return KMeansResult(cent, labels, inertia, n_iter, converged,
                        inertia_history=tuple(history))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_identical(got, ref):
    assert _bits(got.centroids) == _bits(ref.centroids)
    assert got.labels.dtype == np.int32
    assert np.array_equal(got.labels, ref.labels)
    assert _bits(got.inertia) == _bits(ref.inertia)
    assert _bits(got.inertia_history) == _bits(ref.inertia_history)
    assert got.n_iter == ref.n_iter
    assert got.converged == ref.converged


# Centroids drawn from the integer/half-integer pool put midpoints exactly
# on pool values; small pools give heavy duplicates, k above the number of
# distinct values and empty clusters.
_POOL = (-2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
_SPECIAL = (np.nan, np.inf, -np.inf)
_finite = st.one_of(st.sampled_from(_POOL),
                    st.floats(-10, 10, allow_nan=False, allow_infinity=False))
_value = st.one_of(_finite, st.sampled_from(_SPECIAL))


def _reference_or_reject(*args, **kwargs):
    try:
        return _reference_lloyd(*args, **kwargs)
    except _UndefinedReference:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(_value, min_size=1, max_size=60),
    centroids=st.lists(_finite, min_size=1, max_size=12),
    max_iter=st.integers(1, 30),
)
def test_kmeans1d_matches_reference(data, centroids, max_iter):
    data = np.array(data)
    with np.errstate(all="ignore"):
        ref = _reference_or_reject(data, centroids, max_iter=max_iter)
        _assert_identical(kmeans1d(data, centroids, max_iter=max_iter), ref)


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(st.tuples(_value, st.sampled_from((0.0, 0.5, 1.0, 3.0))),
                   min_size=1, max_size=60),
    centroids=st.lists(_finite, min_size=1, max_size=12),
)
def test_weighted_kmeans1d_matches_reference(pairs, centroids):
    data, weights = (np.array(col) for col in zip(*pairs))
    with np.errstate(all="ignore"):
        ref = _reference_or_reject(data, centroids, weights=weights)
        _assert_identical(kmeans1d(data, centroids, weights=weights), ref)


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(_value, min_size=1, max_size=60),
    warm=st.lists(st.one_of(_value, st.sampled_from(_SPECIAL)),
                  min_size=0, max_size=10),
    k=st.one_of(st.none(), st.integers(1, 12)),
)
def test_warm_start_kmeans1d_matches_reference(data, warm, k):
    data = np.array(data)
    with np.errstate(all="ignore"):
        try:
            ref = _reference_or_reject(data, warm_start=warm, k=k,
                                       max_iter=20)
        except ValueError as exc:
            # warm_start_init falls back to histogram_init when no cached
            # center is finite, and that rejects a non-finite data range.
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                kmeans1d(data, warm_start=warm, k=k, max_iter=20)
            return
        _assert_identical(
            kmeans1d(data, warm_start=warm, k=k, max_iter=20), ref)


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(_value, min_size=1, max_size=60),
    centroids=st.lists(_finite, min_size=1, max_size=12),
)
def test_serial_parallel_kmeans1d_matches_reference(data, centroids):
    data = np.array(data)
    with np.errstate(all="ignore"):
        ref = _reference_or_reject(data, centroids, max_iter=20,
                                   comm=SerialComm())
        got = parallel_kmeans1d(SerialComm(), data, centroids, max_iter=20)
        _assert_identical(got, ref)


def _spmd_against_reference(comm, cases):
    out = []
    with np.errstate(all="ignore"):
        for shards, centroids in cases:
            shard = shards[comm.rank]
            try:
                ref = _reference_lloyd(shard, centroids, max_iter=20,
                                       comm=comm)
            except _UndefinedReference:
                # Every rank sees the same global centroids, so all ranks
                # skip the case together and the collectives stay aligned.
                continue
            got = parallel_kmeans1d(comm, shard, centroids, max_iter=20)
            out.append((got, ref))
    return out


def test_three_rank_parallel_kmeans1d_matches_reference():
    rng = np.random.default_rng(2024)
    pool = np.array(_POOL + _SPECIAL)
    cases = []
    for i in range(40):
        n = int(rng.integers(3, 90))
        data = np.where(rng.random(n) < 0.6, rng.choice(pool, n),
                        rng.uniform(-10, 10, n))
        if i % 2:  # half the cases stay finite so Lloyd runs many sweeps
            data = np.where(np.isfinite(data), data, 0.5)
        cuts = np.sort(rng.integers(0, n + 1, 2))
        shards = np.split(data, cuts)  # a shard may be empty
        centroids = rng.choice(np.array(_POOL), int(rng.integers(1, 13)))
        cases.append((shards, centroids))
    results = run_spmd(_spmd_against_reference, 3, cases)
    assert len(results[0]) >= 30
    for rank_results in results:
        for got, ref in rank_results:
            _assert_identical(got, ref)


def test_nan_midpoint_labels_count_midpoints_below():
    # Adjacent -inf and +inf centroids give a NaN midpoint, where
    # assign1d's binary search is undefined.  The sort-once kernel labels
    # each point with the number of midpoints strictly below it.
    data = np.array([-np.inf, -1.0, 0.0, 2.0, np.inf, np.nan])
    cent = np.array([-np.inf, np.inf, np.inf])
    with np.errstate(invalid="ignore"):
        mids = 0.5 * (cent[:-1] + cent[1:])
        labels, sizes = _Presorted(data).assign(cent)
    # "Below" in NumPy's sort order, where NaN is above everything else.
    below = [sum(m < x or (np.isnan(x) and not np.isnan(m)) for m in mids)
             for x in data]
    np.testing.assert_array_equal(labels, below)
    np.testing.assert_array_equal(sizes, np.bincount(labels, minlength=3))
