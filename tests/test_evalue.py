import json
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from fbst import (
    Hypothesis,
    StatisticalModel,
    chi2_cdf,
    chi2_quantile,
    complement,
    evalue,
    gaussian_mean_evalue_oracle,
    point_hypothesis,
    standardize,
)


class TestChi2:
    def test_cdf_against_quadrature(self):
        # independent oracle: direct quadrature of the chi-square density
        for d in (1, 2, 3, 7):
            for z in (0.3, 1.0, 4.0, 12.0):
                pdf = lambda u: u ** (d / 2 - 1) * math.exp(-u / 2) / (
                    2 ** (d / 2) * math.gamma(d / 2)
                )
                expected, _ = quad(pdf, 0, z, epsabs=1e-13)
                assert chi2_cdf(d, z) == pytest.approx(expected, abs=1e-10)

    def test_cdf_against_scipy(self):
        for d in range(1, 12):
            for z in (1e-6, 0.5, d, 5.0 * d, 40.0):
                assert chi2_cdf(d, z) == pytest.approx(stats.chi2.cdf(z, d), abs=1e-13)

    def test_cdf_edges(self):
        assert chi2_cdf(3, 0.0) == 0.0
        assert chi2_cdf(3, math.inf) == 1.0
        with pytest.raises(ValueError):
            chi2_cdf(0, 1.0)
        with pytest.raises(ValueError):
            chi2_cdf(2, -1.0)

    def test_quantile_round_trip(self):
        for d in (1, 2, 5, 10):
            for c in (0.001, 0.123, 0.5, 0.975, 0.999):
                z = chi2_quantile(d, c)
                assert chi2_cdf(d, z) == pytest.approx(c, abs=1e-12)

    def test_quantile_edges(self):
        assert chi2_quantile(4, 0.0) == 0.0
        assert math.isinf(chi2_quantile(4, 1.0))
        with pytest.raises(ValueError):
            chi2_quantile(4, 1.5)

    def test_median_of_chi2_2(self):
        # chi2 with 2 dof is Exp(1/2): median is 2 ln 2
        assert chi2_quantile(2, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


class TestStandardize:
    def test_identity_when_h_equals_t(self):
        for c in (0.0, 0.2, 1.0):
            assert standardize(3, 3, c) == c

    def test_reference_value(self):
        assert standardize(2, 1, 0.5) == pytest.approx(0.7611, abs=1e-3)

    def test_against_scipy(self):
        for t in range(2, 7):
            for h in range(t):
                for c in (0.01, 0.4, 0.9):
                    expected = stats.chi2.cdf(stats.chi2.ppf(c, t), t - h)
                    assert standardize(t, h, c) == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_c(self):
        grid = np.linspace(0.0, 1.0, 21)
        vals = [standardize(5, 2, c) for c in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_tails_against_mpmath(self):
        # 40-digit oracle: the chi-square quantile by Newton's method in
        # u = log z on the log of the smaller tail, which is concave in u
        mp = pytest.importorskip("mpmath")

        def sigma(t, h, c):
            a, c = mp.mpf(t) / 2, mp.mpf(c)
            lower = c < 0.5
            target = mp.log(c if lower else 1 - c)
            u = mp.log(t)
            for _ in range(200):
                z = mp.exp(u)
                tail = mp.gammainc(a, 0, z / 2, regularized=True) if lower else (
                    mp.gammainc(a, z / 2, mp.inf, regularized=True))
                slope = z * (z / 2) ** (a - 1) * mp.exp(-z / 2) / (2 * mp.gamma(a)) / tail
                step = (mp.log(tail) - target) / (slope if lower else -slope)
                u -= step
                if abs(step) < mp.mpf(10) ** -30:
                    break
            return float(mp.gammainc(mp.mpf(t - h) / 2, 0, mp.exp(u) / 2, regularized=True))

        with mp.workdps(40):
            for t in range(1, 11):
                for h in range(t):
                    for c in (1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9):
                        assert standardize(t, h, c) == pytest.approx(sigma(t, h, c), abs=1e-12)

    def test_edges(self):
        assert standardize(4, 1, 0.0) == 0.0
        assert standardize(4, 1, 1.0) == 1.0
        with pytest.raises(ValueError):
            standardize(2, 3, 0.5)


class TestEvalue:
    def test_gaussian_sharp_hypothesis(self, gauss_model, gauss_sample):
        # posterior N(1,1), H: theta = 0 -> oracle two-sided normal tail
        rep = evalue(gauss_model, point_hypothesis([0.0]), gauss_sample)
        oracle = gaussian_mean_evalue_oracle(1.0, 1.0, 0.0)
        assert rep.ev == pytest.approx(oracle, abs=0.01)
        assert rep.ev + rep.ev_bar == 1.0
        assert rep.hdim == 0 and rep.t == 1
        assert rep.sev == pytest.approx(1.0 - standardize(1, 0, rep.ev_bar))
        assert not rep.unstandardized

    def test_full_space_hypothesis_is_one(self, gauss_model, gauss_sample):
        rep = evalue(gauss_model, Hypothesis(), gauss_sample)
        assert rep.ev == 1.0
        assert rep.unstandardized  # h == t passes ev through
        assert rep.sev == rep.ev

    def test_complement_pair_on_common_ladder(self, gauss_model, gauss_sample):
        H = point_hypothesis([0.0])
        rep_h = evalue(gauss_model, H, gauss_sample)
        rep_c = evalue(gauss_model, complement(H), gauss_sample)
        assert max(rep_h.ev, rep_c.ev) == 1.0

    def test_kernel_constant_invariance(self, gauss_model, gauss_sample):
        # same draws, kernel shifted by a constant: identical e-value
        from fbst import SamplerConfig, sample_posterior

        shifted = StatisticalModel(
            gauss_model.space,
            lambda th: gauss_model.log_kernel(th) + 11.0,
            family=gauss_model.family,
            mode=gauss_model.mode,
            proposal_chol=gauss_model.proposal_chol,
            extra=gauss_model.extra,
        )
        cfg = SamplerConfig(seed=42, chains=4, draws=50_000, burnin=2_000)
        sample_b = sample_posterior(shifted, cfg)
        rep_a = evalue(gauss_model, point_hypothesis([0.0]), gauss_sample)
        rep_b = evalue(shifted, point_hypothesis([0.0]), sample_b)
        assert rep_b.ev == pytest.approx(rep_a.ev, abs=1e-12)

    def test_seed_determinism(self, gauss_model, gauss_sample):
        a = evalue(gauss_model, point_hypothesis([0.0]), gauss_sample)
        b = evalue(gauss_model, point_hypothesis([0.0]), gauss_sample)
        assert a.ev == b.ev and a.sev == b.sev

    def test_sev_interval_for_tiny_ev_bar(self, gauss_model, gauss_sample):
        rep = evalue(gauss_model, point_hypothesis([1.0]), gauss_sample)
        # s* at the mode: ev = 1 so ev_bar = 0 < 1/ESS
        assert rep.ev == 1.0
        assert rep.sev_interval is not None
        lo, hi = rep.sev_interval
        assert lo <= rep.sev <= hi
        assert hi == 1.0

    def test_regression_top_coefficient(self, reg2_model, reg2_sample):
        from fbst import coordinate_zero_hypothesis

        H = coordinate_zero_hypothesis(2, 4)
        rep = evalue(reg2_model, H, reg2_sample)
        # quadratic term is strongly supported by the benchmark data
        assert rep.ev < 0.05
        assert rep.hdim == 3 and rep.t == 4

    def test_json_round_trip(self, gauss_model, gauss_sample):
        rep = evalue(gauss_model, point_hypothesis([0.0]), gauss_sample)
        back = json.loads(rep.to_json())
        assert back["ev"] == rep.ev
        assert back["t"] == 1
        assert isinstance(back["theta_star"], list)
