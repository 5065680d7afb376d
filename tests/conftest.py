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
