"""Differential tests of the grid-lookup assign against ``searchsorted``.

``MidpointGrid.assign`` (behind ``assign1d`` and ``BinModel.assign``) must
return exactly ``np.searchsorted(mids, x, side="left")`` as int32 for every
sorted table and every input, whether it runs the grid or falls back.
"""

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies.base import BinModel
from repro.kmeans import MidpointGrid, assign1d
from repro.kmeans import lloyd

BIG = 1e308

# Tables near +-1e308 overflow their midpoints on purpose.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning")


def _reference(reps: np.ndarray, x: np.ndarray) -> np.ndarray:
    mids = 0.5 * (reps[:-1] + reps[1:])
    return np.searchsorted(mids, x, side="left").astype(np.int32)


def _probes(reps: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Every midpoint and both its float neighbours, the representatives,
    signed zeros, far out-of-range values and non-finite values."""
    mids = 0.5 * (reps[:-1] + reps[1:])
    return np.concatenate([
        mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
        reps, [0.0, -0.0, BIG, -BIG, np.finfo(np.float64).max,
               -np.finfo(np.float64).max], extra,
    ])


def _check(assign, reps: np.ndarray, x: np.ndarray) -> None:
    got = assign(x)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, _reference(reps, x))


finite = st.floats(allow_nan=False, allow_infinity=False)
scales = st.sampled_from([1e-12, 1e-3, 1.0, 1e6, 1e300, BIG])


@st.composite
def tables(draw) -> np.ndarray:
    """Sorted finite tables: random, evenly spaced, with duplicate and
    near-duplicate entries, one or two entries, spans near +-1e308."""
    kind = draw(st.sampled_from(
        ["random", "even", "dupes", "near", "tiny", "huge"]))
    if kind == "tiny":
        reps = draw(st.lists(finite, min_size=1, max_size=2))
    elif kind == "even":
        lo = draw(st.floats(-1e6, 1e6))
        width = draw(st.floats(1e-9, 1e3))
        k = draw(st.integers(2, 600))
        reps = lo + width * np.arange(k)
    elif kind == "huge":
        k = draw(st.integers(2, 40))
        reps = draw(st.lists(st.floats(-BIG, BIG), min_size=k, max_size=k))
        reps += [draw(st.sampled_from([BIG, -BIG, 1.7e308, -1.7e308]))]
    else:
        scale = draw(scales)
        vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300))
        reps = [v * scale for v in vals]
        if kind == "dupes":
            reps += reps[: draw(st.integers(1, len(reps)))]
        elif kind == "near":
            reps += [float(np.nextafter(v, np.inf)) for v in reps[:5]]
    return np.sort(np.asarray(reps, dtype=np.float64))


@settings(max_examples=300, deadline=None)
@given(reps=tables(), data=st.data())
def test_grid_assign_matches_searchsorted(reps, data):
    extra = np.asarray(data.draw(st.lists(st.floats(), max_size=50)),
                       dtype=np.float64)
    x = _probes(reps, extra)
    grid = MidpointGrid(reps)
    _check(grid.assign, reps, x)
    # With and without the non-finite values: they send the whole call
    # down the binary search, so the finite ones must also hit the grid.
    _check(grid.assign, reps, x[np.isfinite(x)])
    _check(lambda v: assign1d(v, reps), reps, x)
    _check(BinModel(reps).assign, reps, x)


class TestGridPaths:
    def test_even_table_runs_on_the_grid(self):
        reps = np.linspace(-0.05, 0.07, 255)
        grid = MidpointGrid(reps)
        assert grid._grid is not None
        x = _probes(reps, np.random.default_rng(0).normal(0, 0.05, 5000))
        _check(grid.assign, reps, x[np.isfinite(x)])

    @pytest.mark.parametrize("reps", [
        [1.0, 1.0, 1.0],                                  # duplicate midpoints
        [0.0, 1e-9, 2e-9, 3.0],                           # needs > cap cells
        [1e308, 1.5e308, 1.7e308],                        # mids overflow
        [-1.7e308, -1.6e308, 1.6e308, 1.7e308],           # span overflows
    ])
    def test_fallback_tables(self, reps):
        reps = np.asarray(reps)
        grid = MidpointGrid(reps)
        assert grid._grid is None
        _check(grid.assign, reps, _probes(reps, np.array([np.nan])))

    def test_single_representative(self):
        labels = MidpointGrid(np.array([2.0])).assign(
            np.array([np.nan, -np.inf, 0.0, 5.0]))
        np.testing.assert_array_equal(labels, [0, 0, 0, 0])
        assert labels.dtype == np.int32

    def test_shape_is_kept(self):
        reps = np.linspace(0.0, 1.0, 9)
        x = np.random.default_rng(1).uniform(-0.5, 1.5, (4, 5, 6))
        labels = MidpointGrid(reps).assign(x)
        assert labels.shape == x.shape
        np.testing.assert_array_equal(labels, _reference(reps, x))

    def test_bin_model_builds_its_grid_once(self):
        model = BinModel(np.linspace(0.0, 1.0, 17))
        x = np.linspace(-1.0, 2.0, 101)
        model.assign(x)
        grid = model._lookup
        model.assign(x)
        assert model._lookup is grid


def test_tie_rule_mutation_is_caught():
    """Swapping the fix-up's ``<`` for ``<=`` sends points that sit exactly
    on a midpoint to the upper bin; the differential check must see it."""
    source = textwrap.dedent(inspect.getsource(MidpointGrid.assign))
    assert source.count(") < data") == 1
    namespace: dict = {}
    exec(source.replace(") < data", ") <= data"), vars(lloyd), namespace)
    mutant = namespace["assign"]
    reps = np.linspace(-1.0, 1.0, 33)
    grid = MidpointGrid(reps)
    assert grid._grid is not None
    x = _probes(reps, np.empty(0))
    x = x[np.isfinite(x)]
    _check(grid.assign, reps, x)
    with pytest.raises(AssertionError):
        _check(lambda v: mutant(grid, v), reps, x)
