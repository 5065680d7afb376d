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
    coordinate_zero_hypothesis,
    make_polynomial_regression_model,
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


def _fit(data: Dataset, k: int):
    X = polynomial_design(data.column("x"), k)
    y = data.column("y")
    XtX = X.T @ X
    if np.linalg.cond(XtX) > 1e12:
        raise np.linalg.LinAlgError("singular polynomial design")
    beta = np.linalg.solve(XtX, X.T @ y)
    resid = y - X @ beta
    return beta, float(resid @ resid)


def empirical_error(data: Dataset, k: int) -> float:
    """Mean squared residual SSR/n of the least-squares order-k fit."""
    if k > data.n - 3:
        raise ValueError("polynomial order too large for the dataset")
    _, ssr = _fit(data, k)
    return ssr / data.n


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
    sigma2 = empirical_error(data, k)
    n = data.n
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
        return {
            "order": self.order,
            "d": self.d,
            "r_emp": self.r_emp,
            "r_fpe": self.r_fpe,
            "r_sbc": self.r_sbc,
            "r_gcv": self.r_gcv,
            "r_sms": self.r_sms,
            "aic": self.aic,
            "ev": self.ev,
            "sev": self.sev,
        }


def evalue_top_coefficient(
    data: Dataset,
    k: int,
    sampler_cfg: Optional[SamplerConfig] = None,
    n_max: int = 512,
):
    """ev(beta_k = 0) inside the order-k model."""
    model = make_polynomial_regression_model(data, k)
    dim = model.space.dimension
    H = coordinate_zero_hypothesis(k, dim, label=f"b{k}=0")
    cfg = sampler_cfg or SamplerConfig()
    sample = sample_posterior(model, cfg)
    return evalue(model, H, sample, n_max)


def selection_table(
    data: Dataset,
    k_max: int,
    sampler_cfg: Optional[SamplerConfig] = None,
    with_evalues: bool = False,
    n_max: int = 512,
):
    """Rows for orders 0..k_max; e-value columns only when requested."""
    if k_max > data.n - 3:
        raise ValueError("k_max too large for the dataset")
    n = data.n
    rows = []
    for k in range(k_max + 1):
        r_emp = empirical_error(data, k)
        d = k + 2
        row = SelectionRow(
            order=k,
            r_emp=r_emp,
            r_fpe=r_emp * penalty_factor("fpe", d, n),
            r_sbc=r_emp * penalty_factor("sbc", d, n),
            r_gcv=r_emp * penalty_factor("gcv", d, n),
            r_sms=r_emp * penalty_factor("sms", d, n),
            aic=aic(data, k),
        )
        if with_evalues:
            base = sampler_cfg or SamplerConfig()
            cfg = dataclasses.replace(base, seed=base.seed + 1000 * k)
            report = evalue_top_coefficient(data, k, cfg, n_max)
            row.ev = report.ev
            row.sev = report.sev
        rows.append(row)
    return rows


def select_order(
    data: Dataset,
    k_max: int,
    criterion: str = "sbc",
    threshold: float = 0.05,
    sampler_cfg: Optional[SamplerConfig] = None,
    n_max: int = 512,
) -> dict:
    """Pick an order by a penalized-error criterion or the FBST scan.

    criterion in {fpe, sbc, gcv, sms, aic} picks the argmin of its column;
    criterion "fbst" scans k from k_max down and keeps the first order
    whose top coefficient has its null rejected (ev below the threshold).
    """
    fbst = criterion == "fbst"
    rows = selection_table(data, k_max, sampler_cfg, with_evalues=fbst, n_max=n_max)
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


def fitted_curves(data: Dataset, k_max: int, grid_points: int = 101):
    """Plot data: x grid, target curve, and fitted polynomials per order."""
    xs = np.linspace(data.column("x").min(), data.column("x").max(), grid_points)
    curves = {"x": xs, "target": target_function(xs)}
    for k in range(k_max + 1):
        beta, _ = _fit(data, k)
        curves[f"order_{k}"] = polynomial_design(xs, k) @ beta
    return curves
