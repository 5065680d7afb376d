import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chi2

from fbst import (
    SamplerConfig,
    SurpriseSample,
    TruthLadder,
    condense,
    estimate_truth_ladder,
    eval_truth,
)
from fbst.truth import sup_distance


# The previous ladder builders, kept as references: a stable argsort,
# np.unique and np.add.at build a full-size ladder, which is then condensed.
def _reference_condense(ladder, n_max):
    if ladder.size <= n_max:
        return ladder
    levels = np.arange(1, n_max + 1) / n_max
    idx = np.searchsorted(ladder.w, levels - 1e-15, side="left")
    idx = np.unique(np.minimum(idx, ladder.size - 1))
    return TruthLadder(ladder.log_v[idx], ladder.w[idx], ladder.provenance)


def _reference_ladder_from_atoms(log_v, masses, provenance):
    order = np.argsort(log_v, kind="stable")
    log_v = log_v[order]
    masses = masses[order]
    uniq, inverse = np.unique(log_v, return_inverse=True)
    agg = np.zeros(uniq.size)
    np.add.at(agg, inverse, masses)
    w = np.cumsum(agg)
    w /= w[-1]
    w[-1] = 1.0
    return TruthLadder(uniq, w, provenance)


def _reference_estimate(sample, n_max=512):
    values = np.sort(sample.log_surprise)
    uniq, counts = np.unique(values, return_counts=True)
    w = np.cumsum(counts) / values.size
    w[-1] = 1.0
    return _reference_condense(TruthLadder(uniq, w, "empirical"), n_max)


def iid_chi2_sample(d, draws=20_000, seed=0):
    """Exact draws of a d-dimensional unit gaussian, log-surprise -|z|^2/2."""
    z = np.random.default_rng(seed).standard_normal((draws, d))
    return SurpriseSample(
        draws=z,
        log_surprise=-0.5 * np.sum(z * z, axis=1),
        acceptance_rates=np.ones(1),
        config=SamplerConfig(chains=1, draws=draws, burnin=0),
    )


def assert_same_ladder(a, b):
    assert a.provenance == b.provenance
    assert np.array_equal(a.log_v, b.log_v)
    assert np.array_equal(a.w, b.w)


def four_atom_ladder():
    return TruthLadder(np.log([1.0, 2.0, 3.0, 4.0]), np.array([0.25, 0.5, 0.75, 1.0]))


class TestTruthLadder:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruthLadder(np.array([1.0, 0.5]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            TruthLadder(np.array([0.0, 1.0]), np.array([0.8, 0.5]))
        with pytest.raises(ValueError):
            TruthLadder(np.array([0.0]), np.array([0.9]))

    def test_atom_masses(self):
        ladder = four_atom_ladder()
        assert np.allclose(ladder.atom_masses(), 0.25)

    def test_eval_between_supports(self):
        ladder = four_atom_ladder()
        assert eval_truth(ladder, math.log(2.5)) == 0.5

    def test_eval_right_continuity(self):
        ladder = four_atom_ladder()
        at = eval_truth(ladder, math.log(2.0))
        just_below = eval_truth(ladder, np.nextafter(math.log(2.0), -np.inf))
        assert at == 0.5 and just_below == 0.25

    def test_eval_outside_support(self):
        ladder = four_atom_ladder()
        assert eval_truth(ladder, math.log(0.5)) == 0.0
        assert eval_truth(ladder, math.log(9.0)) == 1.0
        assert eval_truth(ladder, -np.inf) == 0.0
        assert eval_truth(ladder, np.inf) == 1.0

    def test_single_atom(self):
        ladder = TruthLadder(np.array([0.0]), np.array([1.0]))
        assert eval_truth(ladder, -0.1) == 0.0
        assert eval_truth(ladder, 0.0) == 1.0

    def test_vectorized_eval(self):
        ladder = four_atom_ladder()
        got = eval_truth(ladder, np.log([0.5, 1.0, 3.7, 10.0]))
        assert np.allclose(got, [0.0, 0.25, 0.75, 1.0])

    def test_csv(self, tmp_path):
        ladder = four_atom_ladder()
        path = tmp_path / "ladder.csv"
        ladder.to_csv(path)
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(body[:, 0], ladder.log_v)
        assert np.allclose(body[:, 1], ladder.w)


class TestCondense:
    def test_noop_when_small(self):
        ladder = four_atom_ladder()
        assert condense(ladder, 512) is ladder

    def test_size_bound_and_sup_distance(self):
        rng = np.random.default_rng(0)
        vals = np.sort(rng.standard_normal(20_000))
        full = TruthLadder(vals, np.arange(1, vals.size + 1) / vals.size)
        small = condense(full, 512)
        assert small.size <= 512
        assert sup_distance(full, small) <= 1.0 / 512

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        vals = np.sort(rng.standard_normal(5_000))
        full = TruthLadder(vals, np.arange(1, vals.size + 1) / vals.size)
        once = condense(full, 128)
        twice = condense(once, 128)
        assert np.array_equal(once.log_v, twice.log_v)
        assert np.array_equal(once.w, twice.w)

    @pytest.mark.parametrize("n_max", [2, 64, 512])
    def test_matches_reference(self, n_max):
        ladder = estimate_truth_ladder(iid_chi2_sample(3), n_max=4_000)
        assert_same_ladder(condense(ladder, n_max), _reference_condense(ladder, n_max))

    def test_keeps_total_mass(self):
        rng = np.random.default_rng(2)
        vals = np.sort(rng.standard_normal(4_000))
        full = TruthLadder(vals, np.arange(1, vals.size + 1) / vals.size)
        small = condense(full, 64)
        assert small.w[-1] == 1.0


class TestEstimateTruthLadder:
    def test_matches_analytic_gaussian_truth(self, gauss_model, gauss_sample):
        # for a unit gaussian, W(log s(theta)) = P((Theta-1)^2 >= -2 log s),
        # the chi2_1 upper tail at -2 log s(theta)
        ladder = estimate_truth_ladder(gauss_sample, n_max=512)
        for theta in (0.5, 1.0, 1.5, 2.5):
            log_s = -((theta - 1.0) ** 2) / 2.0
            expected = chi2.sf(-2.0 * log_s, df=1)
            assert eval_truth(ladder, log_s) == pytest.approx(expected, abs=0.01)

    def test_additive_shift_invariance(self, gauss_sample):
        from fbst import SurpriseSample

        shifted = SurpriseSample(
            draws=gauss_sample.draws,
            log_surprise=gauss_sample.log_surprise + 7.3,
            acceptance_rates=gauss_sample.acceptance_rates,
            config=gauss_sample.config,
            stationarity_flags=gauss_sample.stationarity_flags,
        )
        a = estimate_truth_ladder(gauss_sample, n_max=256)
        b = estimate_truth_ladder(shifted, n_max=256)
        assert np.allclose(b.log_v - a.log_v, 7.3, atol=1e-12)
        assert np.allclose(a.w, b.w)

    def test_requires_enough_draws(self, gauss_sample):
        with pytest.raises(ValueError):
            estimate_truth_ladder(gauss_sample, n_max=gauss_sample.size + 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bit_identical_to_reference(self, d):
        sample = iid_chi2_sample(d, seed=d)
        assert_same_ladder(estimate_truth_ladder(sample), _reference_estimate(sample))

    @pytest.mark.parametrize("n_max", [2, 64, 512, 4_000])
    def test_bit_identical_to_reference_with_ties(self, n_max):
        # rounding to 3 decimals leaves about 2 000 distinct values in 4 000
        sample = iid_chi2_sample(2, draws=4_000, seed=9)
        tied = dataclasses.replace(sample, log_surprise=np.round(sample.log_surprise, 3))
        assert np.unique(tied.log_surprise).size < tied.size
        got = estimate_truth_ladder(tied, n_max)
        assert_same_ladder(got, _reference_estimate(tied, n_max))
        assert got.size <= n_max

    def test_bit_identical_on_mcmc_sample(self, gauss_sample):
        assert_same_ladder(estimate_truth_ladder(gauss_sample), _reference_estimate(gauss_sample))

    def test_rejects_small_n_max(self, gauss_sample):
        with pytest.raises(ValueError):
            estimate_truth_ladder(gauss_sample, n_max=1)

    def test_truth_is_monotone_in_cutoff(self, gauss_sample):
        ladder = estimate_truth_ladder(gauss_sample, n_max=512)
        grid = np.linspace(ladder.log_v[0] - 1, ladder.log_v[-1] + 1, 200)
        vals = eval_truth(ladder, grid)
        assert np.all(np.diff(vals) >= 0)
