"""Which scipy modules each path loads, each case in a fresh interpreter.

`import fbst` loads numpy only. scipy.optimize loads with the first
SLSQP run, and scipy.special with the first chi-square call, which a
standardization makes only when 0 < h < t. The GFBST harness, a network
of gaussian-mean slots, a point-null e-value, a regression model and an
SBC order selection load none of them. scipy.linalg stays in DEFERRED so
that a path which loads it again is caught.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fbst

SRC = str(Path(fbst.__file__).resolve().parents[1])
DEFERRED = ("scipy.optimize", "scipy.linalg", "scipy.special")


def loaded(code):
    """The DEFERRED modules in sys.modules at each `report()` that `code`
    makes in a fresh interpreter, and after it ends."""
    prelude = textwrap.dedent(f"""
        import json, sys
        def report():
            print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code) + "\nreport()\n"],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_import_fbst_loads_neither():
    assert loaded("import fbst") == [[]]


def test_import_cli_loads_neither():
    assert loaded("import fbst.cli") == [[]]


def test_gaussian_sharp_evalue_loads_neither():
    assert loaded("""
        from fbst import (SamplerConfig, estimate_truth_ladder, evalue,
                          make_gaussian_mean_model, maximize_surprise,
                          point_hypothesis, sample_posterior)
        model = make_gaussian_mean_model(1.0, 1.0)
        sample = sample_posterior(model, SamplerConfig(seed=0, chains=2, draws=2_000, burnin=500))
        ladder = estimate_truth_ladder(sample)
        H = point_hypothesis([0.0])
        opt = maximize_surprise(model, H, sample)
        assert opt.method == "closed-form"
        evalue(model, H, sample, ladder=ladder, optimum=opt)
    """) == [[]]


def test_gfbst_harness_loads_none():
    assert loaded("""
        import numpy as np
        from fbst import GridModel, check_logical_properties
        grid = GridModel.random(4, np.random.default_rng(0))
        assert check_logical_properties(grid, trials=20, seed=0)["total_violations"] == 0
    """) == [[]]


def test_gaussian_network_loads_none():
    assert loaded("""
        from fbst import SamplerConfig
        from fbst.composition import analyze_network
        spec = {"serial": [{"family": "gaussian-mean", "mean": 0.0, "variance": 1.0},
                           {"family": "gaussian-mean", "mean": 2.0, "variance": 1.0}],
                "disjuncts": [[{"equalities": ["theta"]}, None],
                              [None, {"equalities": ["theta - 2"]}]]}
        analyze_network(spec, SamplerConfig(seed=0, chains=2, draws=2_000, burnin=500))
    """) == [[]]


def test_regression_evalue_loads_special_at_its_standardization():
    # b_2 = 0 in the order-2 model: h = 3 of t = 4, so sigma calls Q
    assert loaded("""
        from fbst import (SamplerConfig, coordinate_zero_hypothesis, estimate_truth_ladder,
                          evalue, make_polynomial_regression_model, maximize_surprise,
                          sample_posterior)
        from fbst.modelsel import benchmark_dataset
        model = make_polynomial_regression_model(benchmark_dataset(), 2)
        H = coordinate_zero_hypothesis(2, model.space.dimension)
        sample = sample_posterior(model, SamplerConfig(seed=0, chains=2, draws=2_000, burnin=500))
        ladder = estimate_truth_ladder(sample)
        opt = maximize_surprise(model, H, sample)
        assert opt.method == "closed-form"
        report()
        assert 0 < evalue(model, H, sample, ladder=ladder, optimum=opt).hdim < model.space.dimension
    """) == [[], ["scipy.special"]]


def test_regression_model_loads_none():
    assert loaded("""
        from fbst import make_polynomial_regression_model
        from fbst.modelsel import benchmark_dataset
        data = benchmark_dataset()
        report()
        make_polynomial_regression_model(data, 2)
    """) == [[], []]


def test_sbc_order_selection_loads_none():
    assert loaded("""
        from fbst.modelsel import benchmark_dataset, select_order
        select_order(benchmark_dataset(), 5, "sbc")
    """) == [[]]


def test_slsqp_loads_optimize():
    # a circle: a nonlinear equality leaves only the SLSQP path
    before, after = loaded("""
        import numpy as np
        from fbst import Hypothesis, ParameterSpace, StatisticalModel, maximize_surprise
        model = StatisticalModel(ParameterSpace(("a", "b"), np.full(2, -np.inf), np.full(2, np.inf)),
                                 lambda th: -0.5 * (np.asarray(th) ** 2).sum(axis=-1))
        H = Hypothesis(equalities=(lambda th: (np.asarray(th) ** 2).sum(axis=-1) - 1.0,))
        report()
        assert maximize_surprise(model, H).method == "multistart"
    """)
    assert before == []
    assert "scipy.optimize" in after


@pytest.mark.parametrize("first, scipy_value", [
    ("chi2_quantile(3, 0.25)", "2.0 * float(gammaincinv(1.5, 0.25))"),
    ("chi2_cdf(3, 1.5)", "float(gammainc(1.5, 0.75))"),
], ids=["quantile-first", "cdf-first"])
def test_chi_square_binds_scipy_bit_for_bit(first, scipy_value):
    # the first fbst call of the interpreter loads scipy.special; that call
    # and every later one equal scipy's own ufuncs bit for bit
    assert loaded(f"""
        import importlib, sys
        import fbst
        evalue_module = importlib.import_module("fbst.evalue")
        value = fbst.{first}
        assert "scipy.special" in sys.modules
        from scipy.special import gammainc, gammaincinv
        assert evalue_module.gammainc is gammainc and evalue_module.gammaincinv is gammaincinv
        assert value == {scipy_value}
        levels = (0.0, 1e-300, 1e-9, 1e-3, 0.25, 0.5, 0.9, 0.999, 1 - 1e-9, 1.0)
        for _ in range(2):
            for d in range(1, 13):
                for c in levels:
                    z = fbst.chi2_quantile(d, c)
                    assert z == 2.0 * float(gammaincinv(d / 2, c)), (d, c)
                    for point in (0.0, 1e-6, 0.5 * z, z, 2.0 * z + 1.0):
                        assert fbst.chi2_cdf(d, point) == float(gammainc(d / 2, point / 2)), (d, point)
            for t in range(2, 9):
                for h in range(1, t):
                    for c in levels:
                        z = 2.0 * float(gammaincinv(t / 2, c))
                        assert fbst.standardize(t, h, c) == float(gammainc((t - h) / 2, z / 2)), (t, h, c)
    """) == [["scipy.special"]]
