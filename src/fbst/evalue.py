"""e-values, standardized e-values, and chi-square standardization numerics.

The chi-square CDF Q(d, z) is the regularized lower incomplete gamma
function P(d/2, z/2), and its quantile is 2 P^{-1}(d/2, c); both come from
scipy.special (gammainc, gammaincinv).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import gammainc, gammaincinv

from .model import Hypothesis, StatisticalModel
from .optimizer import Optimum, OptimizerConfig, maximize_surprise
from .sampler import DegenerateSeriesError, SurpriseSample, effective_sample_size
from .truth import TruthLadder, estimate_truth_ladder, eval_truth


def chi2_cdf(d: int, z: float) -> float:
    """Chi-square CDF Q(d, z) with d degrees of freedom."""
    if d < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if z < 0:
        raise ValueError("z must be non-negative")
    return float(gammainc(d / 2.0, z / 2.0))


def chi2_quantile(d: int, c: float) -> float:
    """Inverse of chi2_cdf in the second argument."""
    if d < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    return 2.0 * float(gammaincinv(d / 2.0, c))


def standardize(t: int, h: int, c: float) -> float:
    """sigma(t, h, c) = Q(t - h, Q^{-1}(t, c)); identity when h == t."""
    if t < 1 or not 0 <= h <= t:
        raise ValueError("need 1 <= t and 0 <= h <= t")
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must lie in [0, 1]")
    if h == t:
        # Q is only defined for positive degrees of freedom; the slack
        # full-dimension case passes the significance value through
        return c
    return chi2_cdf(t - h, chi2_quantile(t, c))


@dataclass
class EvidenceReport:
    """e-value, complement, standardized e-value, and diagnostics."""

    ev: float
    ev_bar: float
    log_s_star: float
    theta_star: np.ndarray
    t: int
    hdim: int
    sev: Optional[float] = None
    sev_bar: Optional[float] = None
    sev_interval: Optional[tuple] = None
    unstandardized: bool = False
    method: str = ""
    draw_count: int = 0
    ess: Optional[float] = None
    n_max: int = 0
    seed: Optional[int] = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "ev": self.ev,
            "ev_bar": self.ev_bar,
            "sev": self.sev,
            "sev_bar": self.sev_bar,
            "sev_interval": list(self.sev_interval) if self.sev_interval else None,
            "unstandardized": self.unstandardized,
            "log_s_star": self.log_s_star,
            "theta_star": np.asarray(self.theta_star).tolist(),
            "t": self.t,
            "hdim": self.hdim,
            "method": self.method,
            "draw_count": self.draw_count,
            "ess": self.ess,
            "n_max": self.n_max,
            "seed": self.seed,
        }
        out.update(self.extras)
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def evalue(
    model: StatisticalModel,
    H: Hypothesis,
    sample: SurpriseSample,
    n_max: int = 512,
    opt_cfg: Optional[OptimizerConfig] = None,
    ladder: Optional[TruthLadder] = None,
    optimum: Optional[Optimum] = None,
    ess: Optional[float] = None,
) -> EvidenceReport:
    """ev(H|X) = W(s*) from a posterior sample, with diagnostics.

    `ladder`, `optimum` and `ess` may be passed in when they were already
    computed on the same sample; each one left out is computed here.
    """
    if ladder is None:
        ladder = estimate_truth_ladder(sample, n_max)
    if optimum is None:
        optimum = maximize_surprise(model, H, sample, opt_cfg)
    ev = float(eval_truth(ladder, optimum.log_s_star))
    t = model.space.dimension
    if ess is None:
        try:
            ess = effective_sample_size(sample)
        except (DegenerateSeriesError, ValueError):
            ess = None
    report = EvidenceReport(
        ev=ev,
        ev_bar=1.0 - ev,
        log_s_star=optimum.log_s_star,
        theta_star=optimum.theta_star,
        t=t,
        hdim=H.hdim(t),
        method=optimum.method,
        draw_count=sample.size,
        ess=ess,
        n_max=n_max,
        seed=sample.config.seed,
    )
    return standardized_evalue(report)


def standardized_evalue(report: EvidenceReport) -> EvidenceReport:
    """Populate sev / sev_bar per the standardization function."""
    t, h = report.t, report.hdim
    report.sev_bar = standardize(t, h, report.ev_bar)
    report.sev = 1.0 - report.sev_bar
    report.unstandardized = h == t
    if report.ess and report.ev_bar < 1.0 / report.ess:
        # the standardization is tail-sensitive; report the MC bracket
        report.sev_interval = (
            1.0 - standardize(t, h, 2.0 / report.ess),
            1.0 - standardize(t, h, 0.0),
        )
    return report
