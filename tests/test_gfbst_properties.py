"""Property tests of the GFBST's logical properties on exact grids,
generated with Hypothesis (skipped when it is not installed)."""

import numpy as np
import pytest

from fbst import GridModel, check_logical_properties

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

THRESHOLDS = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(4, 16), levels=st.sampled_from([None, 2, 5]), grid_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**32 - 1), c=THRESHOLDS)
def test_gfbst_has_no_violations(n, levels, grid_seed, seed, c):
    # levels=None: untied surprise; otherwise that many tied surprise values
    rng = np.random.default_rng(grid_seed)
    masses = rng.random((n, n)) + 1e-6
    surprise = masses if levels is None else rng.integers(0, levels, (n, n)).astype(float)
    report = check_logical_properties(GridModel(masses, surprise), 60, c, seed)
    assert report["total_violations"] == 0, report["witnesses"]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(grid_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1), c=THRESHOLDS)
def test_negative_control_is_caught(grid_seed, seed, c):
    grid = GridModel.random(20, np.random.default_rng(grid_seed))
    report = check_logical_properties(grid, 60, c, seed, rule="broken-negative-control")
    assert report["total_violations"] >= 1 and report["witnesses"]
