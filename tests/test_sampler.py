import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fbst import (
    ParameterSpace,
    SamplerConfig,
    StatisticalModel,
    SurpriseSample,
    effective_sample_size,
    make_gaussian_mean_model,
    make_polynomial_regression_model,
    model_from_spec,
    sample_posterior,
)
from fbst.sampler import (
    CHUNK,
    DegenerateSeriesError,
    InitializationError,
    SamplerStuckError,
    _initial_point,
)


def _reference_sample(model, cfg):
    """The sampler as first written: all randomness generated up front, one
    plain step at a time.  sample_posterior must reproduce it bit for bit."""
    d = model.space.dimension
    start = _initial_point(model)
    chol = model.proposal_chol if model.proposal_chol is not None else np.eye(d)
    base_scale = cfg.scale if cfg.scale is not None else 2.38 / math.sqrt(d)
    target = 0.44 if d == 1 else 0.234
    steps = cfg.burnin + cfg.draws * cfg.thin
    hit_and_run = cfg.algorithm == "hit-and-run"

    seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    zs = np.empty((steps, cfg.chains, d))
    log_us = np.empty((steps, cfg.chains))
    dirs = np.empty((steps, cfg.chains, d)) if hit_and_run else None
    for c, seq in enumerate(seqs):
        rng = np.random.default_rng(seq)
        zs[:, c, :] = rng.standard_normal((steps, d))
        log_us[:, c] = np.log(rng.random(steps))
        if hit_and_run:
            raw = rng.standard_normal((steps, d))
            dirs[:, c, :] = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    current = np.tile(start, (cfg.chains, 1))
    cur_lk = np.full(cfg.chains, float(model.log_kernel_safe(start)))
    log_scale = np.full(cfg.chains, math.log(base_scale))
    block_acc = np.zeros(cfg.chains)
    accepted_after = np.zeros(cfg.chains)
    retained = np.empty((cfg.chains, cfg.draws, d))
    retained_lk = np.empty((cfg.chains, cfg.draws))
    keep = 0
    for t in range(steps):
        scale = np.exp(log_scale)[:, None]
        if hit_and_run:
            step = dirs[t] * (zs[t, :, :1] * scale)
        else:
            step = (zs[t] @ chol.T) * scale
        proposal = current + step
        prop_lk = np.asarray(model.log_kernel_safe(proposal), dtype=float)
        with np.errstate(invalid="ignore"):
            accept = log_us[t] < (prop_lk - cur_lk)
        accept &= np.isfinite(prop_lk)
        current[accept] = proposal[accept]
        cur_lk[accept] = prop_lk[accept]
        block_acc += accept
        if t < cfg.burnin:
            if (t + 1) % 50 == 0:
                log_scale += 0.6 * (block_acc / 50 - target)
                block_acc[:] = 0.0
        else:
            accepted_after += accept
            if (t - cfg.burnin) % cfg.thin == 0:
                retained[:, keep, :] = current
                retained_lk[:, keep] = cur_lk
                keep += 1

    draws = retained.reshape(cfg.chains * cfg.draws, d)
    half = cfg.draws // 2
    first = retained[:, :half, :].reshape(-1, d)
    second = retained[:, half:2 * half, :].reshape(-1, d)
    se = np.sqrt(first.var(axis=0) / half + second.var(axis=0) / half) + 1e-300
    flags = np.abs(first.mean(axis=0) - second.mean(axis=0)) > 4.0 * se
    return SurpriseSample(
        draws=draws,
        log_surprise=retained_lk.reshape(-1) - model.log_reference_at(draws),
        acceptance_rates=accepted_after / (steps - cfg.burnin),
        config=cfg,
        stationarity_flags=flags,
    )


# 7 log p + 13 log(1 - p) on the closed interval [0, 1]: its bounds are -inf
BETA_SPEC = {"family": "generic", "coordinates": ["p"],
             "log_kernel": "7*log(p) + 13*log(1-p)", "bounds": [[0, 1]]}
BOUNDED_SPEC = {"family": "generic", "coordinates": ["p", "q"],
                "log_kernel": "7*log(p) + 13*log(1-p) - 0.5*(q - p)*(q - p)",
                "bounds": [[0, 1], [None, None]]}


def _manual_sample(values, seed=0):
    values = np.asarray(values, dtype=float)
    cfg = SamplerConfig(chains=1, draws=max(1000, values.size), burnin=0, seed=seed)
    return SurpriseSample(
        draws=values[:, None],
        log_surprise=values,
        acceptance_rates=np.array([1.0]),
        config=cfg,
    )


class TestSamplePosterior:
    def test_gaussian_moments(self):
        model = make_gaussian_mean_model(0.0, 1.0)
        cfg = SamplerConfig(seed=3, chains=4, draws=50_000, burnin=2_000)
        s = sample_posterior(model, cfg)
        assert abs(s.draws.mean()) < 0.01
        assert abs(s.draws.var() - 1.0) < 0.02

    def test_seed_determinism(self):
        model = make_gaussian_mean_model(0.0, 1.0)
        cfg = SamplerConfig(seed=42, chains=2, draws=2_000, burnin=500)
        a = sample_posterior(model, cfg)
        b = sample_posterior(model, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.log_surprise, b.log_surprise)

    def test_different_seeds_differ(self):
        model = make_gaussian_mean_model(0.0, 1.0)
        a = sample_posterior(model, SamplerConfig(seed=1, chains=1, draws=1_000, burnin=200))
        b = sample_posterior(model, SamplerConfig(seed=2, chains=1, draws=1_000, burnin=200))
        assert not np.array_equal(a.draws, b.draws)

    def test_regression_posterior_mean_near_beta_hat(self, reg2_model, reg2_sample):
        beta_hat = reg2_model.extra["beta_hat"]
        means = reg2_sample.draws[:, :3].mean(axis=0)
        sds = reg2_sample.draws[:, :3].std(axis=0)
        assert np.all(np.abs(means - beta_hat) < 3.0 * sds)

    def test_draws_within_bounds(self):
        sp = ParameterSpace(("u",), np.array([0.0]), np.array([1.0]))
        model = StatisticalModel(sp, lambda th: np.zeros(np.shape(th)[:-1]))
        s = sample_posterior(model, SamplerConfig(seed=0, chains=1, draws=1_000, burnin=200))
        assert np.all((s.draws >= 0.0) & (s.draws <= 1.0))

    def test_hit_and_run_moments(self):
        model = make_gaussian_mean_model(2.0, 4.0)
        cfg = SamplerConfig(
            algorithm="hit-and-run", seed=5, chains=2, draws=20_000, burnin=2_000
        )
        s = sample_posterior(model, cfg)
        assert abs(s.draws.mean() - 2.0) < 0.1
        assert abs(s.draws.var() - 4.0) < 0.3

    def test_stuck_chain_raises(self):
        sp = ParameterSpace(("u",), np.array([-np.inf]), np.array([np.inf]))

        def kernel(th):
            th = np.asarray(th)[..., 0]
            return np.where(np.abs(th) < 1e-12, 0.0, -np.inf)

        model = StatisticalModel(sp, kernel, mode=np.array([0.0]))
        with pytest.raises(SamplerStuckError):
            sample_posterior(model, SamplerConfig(seed=0, chains=1, draws=1_000, burnin=0))

    def test_bad_initial_point_raises(self):
        sp = ParameterSpace(("u",), np.array([-np.inf]), np.array([np.inf]))
        model = StatisticalModel(
            sp,
            lambda th: np.full(np.shape(th)[:-1], -np.inf),
            mode=np.array([0.0]),
        )
        with pytest.raises(InitializationError):
            sample_posterior(model, SamplerConfig(seed=0, chains=1, draws=1_000, burnin=0))

    def test_stationarity_halves_agree(self, gauss_sample):
        assert not gauss_sample.stationarity_flags.any()

    def test_detailed_balance_on_binned_chain(self):
        # three-level step density; binned flows of a reversible chain balance
        probs = np.array([0.2, 0.3, 0.5])
        sp = ParameterSpace(("u",), np.array([0.0]), np.array([3.0]))

        def kernel(th):
            th = np.asarray(th)[..., 0]
            idx = np.clip(th.astype(int), 0, 2)
            return np.log(probs[idx])

        model = StatisticalModel(sp, kernel, mode=np.array([1.5]))
        s = sample_posterior(model, SamplerConfig(seed=9, chains=1, draws=60_000, burnin=5_000))
        bins = np.clip(s.draws[:, 0].astype(int), 0, 2)
        for a in range(3):
            for b in range(a + 1, 3):
                ab = np.sum((bins[:-1] == a) & (bins[1:] == b))
                ba = np.sum((bins[:-1] == b) & (bins[1:] == a))
                assert abs(ab - ba) <= 3.0 * math.sqrt(ab + ba + 1)

    def test_closed_bounds_raise_no_warning(self):
        model, _ = model_from_spec(BETA_SPEC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sample_posterior(model, SamplerConfig(seed=0, chains=2, draws=1_000, burnin=200))
        assert np.all((s.draws > 0.0) & (s.draws < 1.0))
        assert abs(s.draws.mean() - 8 / 22) < 0.05  # the mean of Beta(8, 14)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(draws=10)
        with pytest.raises(ValueError):
            SamplerConfig(algorithm="nuts")
        with pytest.raises(ValueError):
            SamplerConfig(scale=-1.0)


def _regression(k):
    return lambda table2: make_polynomial_regression_model(table2, k)


BIT_IDENTITY_CASES = {
    "metropolis-order3": (_regression(3), SamplerConfig(seed=7, chains=4, draws=1_000, burnin=500)),
    "gaussian-one-chain": (lambda _: make_gaussian_mean_model(1.0, 2.0),
                           SamplerConfig(seed=1, chains=1, draws=1_000, burnin=300)),
    "hit-and-run-order2": (_regression(2), SamplerConfig(
        algorithm="hit-and-run", seed=2, chains=3, draws=1_000, burnin=400)),
    "bounded-generic": (lambda _: model_from_spec(BOUNDED_SPEC)[0],
                        SamplerConfig(seed=4, chains=2, draws=1_000, burnin=300)),
    "thin3-order1": (_regression(1), SamplerConfig(seed=5, chains=2, draws=1_000, burnin=200, thin=3)),
    # 777 + 3 * 1000 steps: several chunks, the last one partial
    "chunks-hit-and-run": (lambda _: make_gaussian_mean_model(1.0, 2.0), SamplerConfig(
        algorithm="hit-and-run", seed=6, chains=2, draws=1_000, burnin=777, thin=3)),
}


class TestBitIdentity:
    @pytest.mark.parametrize("case", sorted(BIT_IDENTITY_CASES))
    def test_matches_reference(self, case, table2):
        build, cfg = BIT_IDENTITY_CASES[case]
        model = build(table2)
        got = sample_posterior(model, cfg)
        want = _reference_sample(model, cfg)
        assert np.array_equal(got.draws, want.draws)
        assert np.array_equal(got.log_surprise, want.log_surprise)
        assert np.array_equal(got.acceptance_rates, want.acceptance_rates)
        assert np.array_equal(got.stationarity_flags, want.stationarity_flags)

    def test_case_spans_partial_chunks(self):
        cfg = BIT_IDENTITY_CASES["chunks-hit-and-run"][1]
        steps = cfg.burnin + cfg.draws * cfg.thin
        assert steps > 2 * CHUNK and steps % CHUNK != 0


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRandomnessMemory:
    BOUND = 400_000  # bytes

    def test_peak_bounded_by_chunk_not_steps(self):
        # 20_000 steps per chain, 1000 retained: the reference holds every
        # step's randomness at once, the chunked sampler CHUNK steps of it.
        # Measured peaks (numpy 2.4, CHUNK = 1024): reference 962 kB,
        # sample_posterior 137 kB.
        model = make_gaussian_mean_model(0.0, 1.0)
        cfg = SamplerConfig(seed=0, chains=2, draws=1_000, burnin=0, thin=20)
        assert _peak_bytes(sample_posterior, model, cfg) < self.BOUND
        assert _peak_bytes(_reference_sample, model, cfg) > self.BOUND


class TestEffectiveSampleSize:
    def test_iid_series(self):
        rng = np.random.default_rng(0)
        s = _manual_sample(rng.standard_normal(4000))
        ratio = effective_sample_size(s) / 4000
        assert 0.8 <= ratio <= 1.2

    def test_constant_series_raises(self):
        s = _manual_sample(np.ones(2000))
        with pytest.raises(DegenerateSeriesError):
            effective_sample_size(s)

    def test_thinning_raises_ess_ratio(self):
        rng = np.random.default_rng(1)
        n = 40_000
        ar = np.empty(n)
        ar[0] = 0.0
        eps = rng.standard_normal(n)
        for i in range(1, n):
            ar[i] = 0.95 * ar[i - 1] + eps[i]
        full = _manual_sample(ar)
        thinned = _manual_sample(ar[::10])
        r_full = effective_sample_size(full) / full.size
        r_thin = effective_sample_size(thinned) / thinned.size
        assert r_thin > r_full

    def test_capped_at_draw_count(self):
        rng = np.random.default_rng(2)
        # antithetic-style series can report super-efficiency; cap applies
        base = rng.standard_normal(2000)
        s = _manual_sample(np.concatenate([base, -base]))
        assert effective_sample_size(s) <= s.size

    def test_needs_minimum_draws(self):
        s = _manual_sample(np.arange(50.0))
        with pytest.raises(ValueError):
            effective_sample_size(s)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path, gauss_sample):
        path = tmp_path / "sample.csv"
        small = SurpriseSample(
            draws=gauss_sample.draws[:2000],
            log_surprise=gauss_sample.log_surprise[:2000],
            acceptance_rates=gauss_sample.acceptance_rates,
            config=gauss_sample.config,
            stationarity_flags=gauss_sample.stationarity_flags,
        )
        small.to_csv(path)
        back = SurpriseSample.from_csv(path)
        assert np.allclose(back.draws, small.draws)
        assert np.allclose(back.log_surprise, small.log_surprise)
        assert back.config == small.config
