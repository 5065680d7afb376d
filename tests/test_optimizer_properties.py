"""Property tests of the optimizer, generated with Hypothesis (skipped
when it is not installed)."""

import numpy as np
import pytest

from fbst import Hypothesis, OptimizerConfig, maximize_surprise
from fbst.model import LinearEquality

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

C4_CFG = OptimizerConfig(restarts=4, outer_iterations=4)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_consistent_systems(reg_fits, data):
    # closed form against SLSQP on the same A beta = b passed as opaque callables
    k = data.draw(st.integers(1, 4), label="order")
    q = data.draw(st.integers(1, k + 1), label="rows")
    entries = st.integers(-3, 3).map(float)
    A = np.array(data.draw(st.lists(st.lists(entries, min_size=k + 1, max_size=k + 1),
                                    min_size=q, max_size=q), label="A"))
    assume(np.linalg.matrix_rank(A) == q)
    model, sample = reg_fits[k]
    shift = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=k + 1, max_size=k + 1),
                      label="beta0 - beta_hat")
    b = A @ (model.mode[:-1] + np.array(shift))
    opaque = tuple(lambda th, a=a, c=c: np.asarray(th)[..., : k + 1] @ a - c
                   for a, c in zip(A, b))
    lins = tuple(LinearEquality(np.append(a, 0.0), -c) for a, c in zip(A, b))
    exact = maximize_surprise(model, Hypothesis(equalities=opaque, linear_equalities=lins),
                              sample, C4_CFG)
    general = maximize_surprise(model, Hypothesis(equalities=opaque), sample, C4_CFG)
    assert exact.method == "closed-form" and general.method == "multistart"
    assert abs(exact.log_s_star - general.log_s_star) <= 1e-6
