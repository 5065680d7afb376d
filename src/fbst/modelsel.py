"""Polynomial model-selection benchmark: embedded dataset, penalized errors,
and e-value based order selection.

The empirical error is the mean squared residual SSR/n; every penalized
column is exactly penalty_factor * empirical_error.  The AIC column uses
-2 max-log-likelihood + 2d and is reported without a literature anchor.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evalue import evalue
from .model import (
    Dataset,
    _inexact,
    _regression_model,
    coordinate_zero_hypothesis,
    least_squares,
    polynomial_design,
)
from .sampler import SamplerConfig, sample_posterior

# the 21-point benchmark dataset (grid x_i = (i-1)*0.05)
SAKAMOTO_X = np.arange(21) * 0.05
SAKAMOTO_Y = np.array([
    0.125, 0.156, 0.193, -0.032, -0.075, -0.064, 0.006, -0.135, 0.105,
    0.131, 0.154, 0.114, -0.094, 0.215, 0.035, 0.327, 0.061, 0.383,
    0.357, 0.605, 0.499,
])

GENERATOR_NOISE_SD = 0.1

CRITERIA = ("fpe", "sbc", "gcv", "sms")


def target_function(x):
    """The exponential target the benchmark dataset was simulated from."""
    x = np.asarray(x, dtype=float)
    return np.exp((x - 0.3) ** 2) - 1.0


def benchmark_dataset() -> Dataset:
    return Dataset(np.column_stack([SAKAMOTO_X, SAKAMOTO_Y]), ("x", "y"))


def synthesize_dataset(seed: int, n: int = 21) -> Dataset:
    """A fresh dataset from the benchmark's generator under a user seed."""
    rng = np.random.default_rng(seed)
    x = np.arange(n) * 0.05
    y = target_function(x) + rng.normal(0.0, GENERATOR_NOISE_SD, size=n)
    return Dataset(np.column_stack([x, y]), ("x", "y"))


def empirical_error(data: Dataset, k: int) -> float:
    """Mean squared residual SSR/n of the least-squares order-k fit."""
    return least_squares(data, k)[-1] / data.n


def penalty_factor(criterion: str, d: int, n: int) -> float:
    """Regularization factor r(d, n) with q = d/n."""
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")
    q = d / n
    if criterion == "fpe":
        return (1.0 + q) / (1.0 - q)
    if criterion == "sbc":
        return 1.0 + math.log(n) * q / (2.0 - 2.0 * q)
    if criterion == "gcv":
        return (1.0 - q) ** -2
    if criterion == "sms":
        return 1.0 + 2.0 * q
    raise ValueError(f"unknown criterion {criterion!r}")


def aic(data: Dataset, k: int) -> float:
    """-2 maximized Gaussian log-likelihood + 2d, with d = k + 2."""
    return _aic(_inexact(least_squares(data, k))[-1] / data.n, data.n, k)


def _aic(sigma2: float, n: int, k: int) -> float:
    """`aic` from the order-k fit's SSR/n, sigma2."""
    loglik = -(n / 2.0) * math.log(2.0 * math.pi * sigma2) - n / 2.0
    return -2.0 * loglik + 2.0 * (k + 2)


@dataclass
class SelectionRow:
    order: int
    r_emp: float
    r_fpe: float
    r_sbc: float
    r_gcv: float
    r_sms: float
    aic: float
    ev: Optional[float] = None
    sev: Optional[float] = None

    @property
    def d(self) -> int:
        return self.order + 2

    def penalized(self, criterion: str) -> float:
        return getattr(self, f"r_{criterion}")

    def to_dict(self) -> dict:
        return {"order": self.order, "d": self.d, **dataclasses.asdict(self)}


def order_fits(data: Dataset, k_max: int) -> list:
    """The `least_squares` fits of orders 0..k_max.  Raises ValueError
    unless 0 <= k_max <= n - 3 or when an order fits exactly (SSR = 0), and
    as `least_squares` does."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > data.n - 3:
        raise ValueError("k_max too large for the dataset")
    return [_inexact(least_squares(data, k)) for k in range(k_max + 1)]


def selection_table(
    data: Dataset,
    k_max: int,
    sampler_cfg: Optional[SamplerConfig] = None,
    with_evalues: bool = False,
    n_max: int = 512,
    fits: Optional[list] = None,
):
    """Rows for orders 0..k_max; e-value columns only when requested.

    Every order is fitted once (`order_fits`, unless its `fits` are
    given), all before any sampling, so an order whose fit fails or is
    exact (SSR = 0) raises first.  Order k's columns and its model read
    that fit; its sampler's seed is seed + 1000 k.
    """
    n = data.n
    fits = order_fits(data, k_max) if fits is None else fits
    base = sampler_cfg or SamplerConfig()
    rows = []
    for k, fit in enumerate(fits):
        r_emp = fit[-1] / n
        penalized = {f"r_{c}": r_emp * penalty_factor(c, k + 2, n) for c in CRITERIA}
        rows.append(SelectionRow(order=k, r_emp=r_emp, **penalized, aic=_aic(r_emp, n, k)))
        if with_evalues:
            model = _regression_model(n, fit)
            sample = sample_posterior(model, dataclasses.replace(base, seed=base.seed + 1000 * k))
            H = coordinate_zero_hypothesis(k, k + 2, label=f"b{k}=0")
            report = evalue(model, H, sample, n_max)
            rows[-1].ev, rows[-1].sev = report.ev, report.sev
    return rows


def select_order(
    data: Dataset,
    k_max: int,
    criterion: str = "sbc",
    threshold: float = 0.05,
    sampler_cfg: Optional[SamplerConfig] = None,
    n_max: int = 512,
    fits: Optional[list] = None,
) -> dict:
    """Pick an order by a penalized-error criterion or the FBST scan.

    criterion in {fpe, sbc, gcv, sms, aic} picks the argmin of its column;
    criterion "fbst" scans k from k_max down and keeps the first order
    whose top coefficient has its null rejected (ev below the threshold).
    `fits`, when given, are `order_fits(data, k_max)`.
    """
    fbst = criterion == "fbst"
    rows = selection_table(data, k_max, sampler_cfg, with_evalues=fbst, n_max=n_max, fits=fits)
    if fbst:
        selected = 0
        for row in sorted(rows, key=lambda r: -r.order):
            if row.order == 0:
                continue
            if row.ev < threshold:
                selected = row.order
                break
    elif criterion == "aic":
        selected = min(rows, key=lambda r: r.aic).order
    elif criterion in CRITERIA:
        selected = min(rows, key=lambda r: r.penalized(criterion)).order
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return {
        "criterion": criterion,
        "threshold": threshold if fbst else None,
        "selected_order": selected,
        "rows": [r.to_dict() for r in rows],
    }


def fitted_curves(data: Dataset, fits: list):
    """Plot data: a 101-point x grid, target curve, and the fitted
    polynomial of each order's fit in `fits` (`order_fits`)."""
    xs = np.linspace(data.column("x").min(), data.column("x").max(), 101)
    curves = {"x": xs, "target": target_function(xs)}
    for k, fit in enumerate(fits):
        curves[f"order_{k}"] = polynomial_design(xs, k) @ fit[3]
    return curves
