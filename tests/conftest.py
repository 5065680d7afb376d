import math
from fractions import Fraction

import numpy as np
import pytest

ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        ACCEPTANCE_RESULTS[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, outcome in ACCEPTANCE_RESULTS.items():
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"  [{status}] {name}")

from fbst import (
    SamplerConfig,
    make_gaussian_mean_model,
    make_polynomial_regression_model,
    sample_posterior,
)
from fbst.modelsel import benchmark_dataset


@pytest.fixture(scope="session")
def table2():
    return benchmark_dataset()


@pytest.fixture(scope="session")
def exact_fit(table2):
    """powers -> (beta, ssr): the least-squares fit of y on the columns x^j,
    j in `powers`, of the Table 2 data, in exact rationals; the normal
    equations are solved by Gauss-Jordan elimination in Fractions."""
    xs = [Fraction(x) for x in table2.column("x")]
    ys = [Fraction(y) for y in table2.column("y")]
    cache = {}

    def fit(powers):
        powers = tuple(powers)
        if powers not in cache:
            rows = [[x ** j for j in powers] for x in xs]
            d = len(powers)
            aug = [[sum(r[i] * r[j] for r in rows) for j in range(d)]
                   + [sum(r[i] * y for r, y in zip(rows, ys))] for i in range(d)]
            for c in range(d):  # X'X is positive definite: no zero pivot
                aug[c] = [v / aug[c][c] for v in aug[c]]
                for r in range(d):
                    if r != c:
                        aug[r] = [v - aug[r][c] * w for v, w in zip(aug[r], aug[c])]
            beta = [row[d] for row in aug]
            ssr = sum((y - sum(b * v for b, v in zip(beta, r))) ** 2 for r, y in zip(rows, ys))
            cache[powers] = beta, ssr
        return cache[powers]

    return fit


@pytest.fixture(scope="session")
def exact_zero_mode(table2, exact_fit):
    """(k, zeros) -> the surprise maximizer of the order-k regression on
    the Table 2 data under b_j = 0 for each j in `zeros`, as floats: the fit
    without those columns, from `exact_fit`, and log sigma =
    log(SSR / (n + 1)) / 2."""
    def mode(k, zeros):
        kept = [j for j in range(k + 1) if j not in zeros]
        beta, ssr = exact_fit(kept)
        coef = dict(zip(kept, beta))
        return np.array([float(coef.get(j, 0)) for j in range(k + 1)]
                        + [0.5 * math.log(ssr / (table2.n + 1))])

    return mode


@pytest.fixture(scope="session")
def gauss_model():
    return make_gaussian_mean_model(1.0, 1.0)


@pytest.fixture(scope="session")
def gauss_sample(gauss_model):
    cfg = SamplerConfig(seed=42, chains=4, draws=50_000, burnin=2_000)
    return sample_posterior(gauss_model, cfg)


@pytest.fixture(scope="session")
def reg2_model(table2):
    return make_polynomial_regression_model(table2, 2)


@pytest.fixture(scope="session")
def reg2_sample(reg2_model):
    cfg = SamplerConfig(seed=11, chains=2, draws=20_000, burnin=5_000)
    return sample_posterior(reg2_model, cfg)


@pytest.fixture(scope="session")
def reg_fits(table2):
    """Order k -> (model, small posterior sample), for orders 1-4."""
    fits = {}
    for k in range(1, 5):
        model = make_polynomial_regression_model(table2, k)
        cfg = SamplerConfig(seed=100 + k, chains=2, draws=2_000, burnin=1_000)
        fits[k] = (model, sample_posterior(model, cfg))
    return fits
