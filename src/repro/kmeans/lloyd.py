"""Lloyd's algorithm, specialised for 1-D data plus a general n-D fallback.

The 1-D specialisation matters: NUMARCK clusters *scalar* change ratios
with k up to 2^B - 1 (255 or 511), and the O(n k) distance matrix of the
textbook formulation would dominate compression time.  For sorted
centroids, the nearest centroid of a scalar x is found by binary search
against the midpoints between adjacent centroids (:func:`assign1d`,
O(n log k)).  Lloyd goes one step further: it sorts the points once
(O(n log n)), and each sweep then searches the k - 1 midpoints into the
sorted points (O(k log n)), expands the resulting cluster boundaries into
labels and gathers them back into input order (O(n)).  The labels are
identical to :func:`assign1d`'s, so the moments, centroids and every
container byte are too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.tracer import get_telemetry

__all__ = ["KMeansResult", "assign1d", "kmeans1d", "kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centroids:
        ``(k,)`` (1-D) or ``(k, d)`` array, sorted ascending in the 1-D case.
    labels:
        ``(n,)`` int32 cluster index per input point.
    inertia:
        Sum of squared distances to the assigned centroid.
    n_iter:
        Lloyd iterations executed.
    converged:
        True if centroid movement fell below tolerance before ``max_iter``.
    inertia_history:
        Inertia at the end of each Lloyd sweep, ``len == n_iter``.  The
        trajectory is non-increasing up to floating-point noise; telemetry
        uses it as the convergence signal ("how many sweeps bought how
        much"), and it is cheap: the 1-D path derives each entry from the
        per-cluster moments the update step already computes.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool
    inertia_history: tuple[float, ...] = ()


def assign1d(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels for scalar data against *sorted* centroids.

    Ties at a midpoint go to the lower centroid (``searchsorted`` with
    ``side='left'`` keeps the midpoint itself in the left bin); any
    consistent rule works for Lloyd convergence.
    """
    data = np.asarray(data, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 1 or centroids.size == 0:
        raise ValueError("centroids must be a non-empty 1-D array")
    if centroids.size == 1:
        return np.zeros(data.shape, dtype=np.int32)
    mids = 0.5 * (centroids[:-1] + centroids[1:])
    return np.searchsorted(mids, data, side="left").astype(np.int32)


class _Presorted:
    """Scalar points sorted once, for repeated assignment against sorted
    centroids.

    :meth:`assign` returns the same labels as :func:`assign1d` (ties at a
    midpoint go to the lower centroid), plus exact per-cluster sizes.
    ``argsort`` and ``searchsorted`` share NumPy's total order (NaN
    last), so non-finite points land where :func:`assign1d` puts them.
    """

    def __init__(self, data: np.ndarray) -> None:
        # Tied points share a label, so the sort need not be stable.
        order = np.argsort(data)
        self.sorted = data[order]
        # rank[i] = sorted position of point i; gathering through it puts
        # sorted-order labels back in input order.
        self.rank = np.empty(data.size, dtype=np.intp)
        self.rank[order] = np.arange(data.size)

    def assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(labels, sizes)``: int32 label per point in input order, and
        the int64 number of points in each of the ``k`` clusters."""
        n, k = self.sorted.size, centroids.size
        # bounds[j + 1] = number of points <= the j-th midpoint = the
        # sorted position where cluster j + 1 starts.  Midpoints of sorted
        # centroids are sorted, except that adjacent -inf and +inf
        # centroids give a NaN one; sorting the bounds then still labels
        # each point with the number of midpoints below it.
        bounds = np.empty(k + 1, dtype=np.intp)
        bounds[0], bounds[k] = 0, n
        mids = 0.5 * (centroids[:-1] + centroids[1:])
        bounds[1:k] = np.sort(np.searchsorted(self.sorted, mids, side="right"))
        sizes = np.diff(bounds)
        labels = np.repeat(np.arange(k, dtype=np.int32), sizes)[self.rank]
        return labels, sizes


def _moments(data: np.ndarray, labels: np.ndarray, sizes: np.ndarray,
             weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster (weighted) counts and value sums under ``labels``.

    Unweighted counts are the exact cluster ``sizes``; sums accumulate in
    input order, so they match a plain ``bincount`` bit for bit.
    """
    k = sizes.size
    if weights is None:
        counts = sizes.astype(np.float64)
        sums = np.bincount(labels, weights=data, minlength=k)
    else:
        counts = np.bincount(labels, weights=weights, minlength=k)
        sums = np.bincount(labels, weights=data * weights, minlength=k)
    return counts, sums


def kmeans1d(
    data: np.ndarray,
    centroids: np.ndarray | None = None,
    max_iter: int = 50,
    tol: float = 1e-10,
    weights: np.ndarray | None = None,
    *,
    warm_start: np.ndarray | None = None,
    k: int | None = None,
) -> KMeansResult:
    """Lloyd's algorithm on scalar data from explicit initial centroids.

    Parameters
    ----------
    data:
        1-D float array of points to cluster.
    centroids:
        Initial centroids (will be sorted); ``k = len(centroids)``.
        Mutually exclusive with ``warm_start``.
    max_iter:
        Maximum Lloyd iterations.
    tol:
        Convergence threshold on the maximum absolute centroid movement,
        relative to the data range.
    weights:
        Optional non-negative per-point weights -- clustering a weighted
        histogram of n bins is then equivalent to clustering the full
        dataset it summarises (used by the sketch-based distributed fit).
    warm_start:
        Previously fitted centroids to restart from (the adaptive reuse
        engine's refit path).  They are clipped to the new data range and
        padded/deduplicated to ``k`` seeds via
        :func:`~repro.kmeans.init.warm_start_init`.
    k:
        Target centroid count for ``warm_start`` (defaults to the number
        of distinct warm-start centers).  Ignored with ``centroids``.

    Notes
    -----
    The points are sorted once (O(n log n)).  Each sweep then costs an
    O(k log n) search of the centroid midpoints into the sorted points, an
    O(n) gather of the labels back into input order and an O(n)
    ``bincount`` of the sums; labels match :func:`assign1d` exactly.
    Centroids are re-sorted after every update so the midpoint search
    stays valid; sorting k scalars is negligible.
    """
    arr = np.asarray(data, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot cluster empty data")
    if warm_start is not None:
        if centroids is not None:
            raise ValueError("pass either centroids or warm_start, not both")
        from repro.kmeans.init import warm_start_init

        cached = np.asarray(warm_start, dtype=np.float64).ravel()
        target_k = k if k is not None else max(int(np.unique(cached).size), 1)
        centroids = warm_start_init(arr, target_k, cached)
        get_telemetry().metrics.counter("kmeans.warm_starts").inc()
    elif centroids is None:
        raise ValueError("kmeans1d needs initial centroids (or warm_start=)")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64).ravel()
        if w.shape != arr.shape:
            raise ValueError(f"weights shape {w.shape} != data shape {arr.shape}")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
    cent = np.sort(np.asarray(centroids, dtype=np.float64).ravel())
    k = cent.size
    if k < 1:
        raise ValueError("need at least one centroid")
    tel = get_telemetry()
    with tel.span("kmeans.lloyd", n_points=arr.size, k=k,
                  bytes_in=arr.nbytes) as tspan:
        span = float(arr.max() - arr.min())
        move_tol = tol * (span if span > 0 else 1.0)

        # sum w x^2 once; with the per-cluster moments (n_c, S_c) the
        # inertia after any sweep is sumsq - 2 c.S + n.c^2, so the history
        # costs two k-sized dot products per sweep instead of an O(n) pass.
        sumsq = float(np.sum(arr * arr if w is None else arr * arr * w))
        points = _Presorted(arr)
        labels, sizes = points.assign(cent)
        counts, sums = _moments(arr, labels, sizes, w)
        history: list[float] = []
        n_iter = 0
        converged = False
        for n_iter in range(1, max_iter + 1):
            new = cent.copy()
            nonempty = counts > 0
            new[nonempty] = sums[nonempty] / counts[nonempty]
            new = np.sort(new)
            move = float(np.max(np.abs(new - cent))) if k else 0.0
            cent = new
            labels, sizes = points.assign(cent)
            counts, sums = _moments(arr, labels, sizes, w)
            history.append(max(
                sumsq - 2.0 * float(cent @ sums) + float(counts @ (cent * cent)),
                0.0,
            ))
            if move <= move_tol:
                converged = True
                break
        sq = (arr - cent[labels]) ** 2
        inertia = float(np.sum(sq if w is None else sq * w))
        tspan.set(n_iter=n_iter, converged=converged, inertia=inertia)
    tel.metrics.histogram("kmeans.sweeps",
                          buckets=(1, 2, 4, 8, 16, 32, 64)).observe(n_iter)
    if converged:
        tel.metrics.counter("kmeans.converged_runs").inc()
    return KMeansResult(cent, labels, inertia, n_iter, converged,
                        inertia_history=tuple(history))


def kmeans(
    data: np.ndarray,
    centroids: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> KMeansResult:
    """General n-D Lloyd's algorithm (O(n k d) per iteration).

    Provided for completeness (e.g. clustering multi-variable change
    vectors, an extension the paper's future-work section gestures at); the
    compression pipeline itself always uses :func:`kmeans1d`.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.size == 0:
        raise ValueError("cannot cluster empty data")
    cent = np.asarray(centroids, dtype=np.float64)
    if cent.ndim == 1:
        cent = cent[:, None]
    if cent.shape[1] != arr.shape[1]:
        raise ValueError(
            f"dimension mismatch: data has d={arr.shape[1]}, centroids d={cent.shape[1]}"
        )
    k = cent.shape[0]
    scale = float(np.max(np.ptp(arr, axis=0))) if arr.shape[0] > 1 else 1.0
    move_tol = tol * (scale if scale > 0 else 1.0)

    labels = np.zeros(arr.shape[0], dtype=np.int32)
    n_iter = 0
    converged = False
    history: list[float] = []
    with get_telemetry().span("kmeans.nd", n_points=arr.shape[0], k=k,
                              d=arr.shape[1], bytes_in=arr.nbytes):
        for n_iter in range(1, max_iter + 1):
            # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; drop the x term for argmin.
            d2 = -2.0 * arr @ cent.T + np.sum(cent * cent, axis=1)[None, :]
            labels = np.argmin(d2, axis=1).astype(np.int32)
            new = cent.copy()
            for j in range(k):
                members = labels == j
                if members.any():
                    new[j] = arr[members].mean(axis=0)
            move = float(np.max(np.abs(new - cent)))
            cent = new
            sweep_diffs = arr - cent[labels]
            history.append(float(np.sum(sweep_diffs * sweep_diffs)))
            if move <= move_tol:
                converged = True
                break
        diffs = arr - cent[labels]
        inertia = float(np.sum(diffs * diffs))
    return KMeansResult(cent, labels, inertia, n_iter, converged,
                        inertia_history=tuple(history))
