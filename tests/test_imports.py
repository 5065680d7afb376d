"""Which scipy modules each path loads, each case in a fresh interpreter.

`import fbst` loads numpy and scipy.special only; scipy.linalg loads with
the first regression model and scipy.optimize with the first SLSQP run.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fbst

SRC = str(Path(fbst.__file__).resolve().parents[1])
DEFERRED = ("scipy.optimize", "scipy.linalg")


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


def test_regression_model_loads_linalg_only():
    assert loaded("""
        from fbst import make_polynomial_regression_model
        from fbst.modelsel import benchmark_dataset
        data = benchmark_dataset()
        report()
        make_polynomial_regression_model(data, 2)
    """) == [[], ["scipy.linalg"]]


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
