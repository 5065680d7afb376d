import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fbst
from fbst import (
    ParameterSpace,
    SamplerConfig,
    StatisticalModel,
    SurpriseSample,
    coordinate_zero_hypothesis,
    effective_sample_size,
    estimate_truth_ladder,
    evalue,
    gaussian_mean_evalue_oracle,
    make_gaussian_mean_model,
    make_polynomial_regression_model,
    model_from_spec,
    point_hypothesis,
    sample_posterior,
)
from fbst import model as model_module, sampler
from fbst.model import KHAT_MAX, _pareto_khat, least_squares
from fbst.sampler import (
    CHUNK,
    PREFETCH,
    PREFETCH2,
    DegenerateSeriesError,
    InitializationError,
    SamplerStuckError,
    _ess_initial_positive,
    _initial_point,
)


def _reference_sample(model, cfg):
    """The sampler as first written: all randomness generated up front, one
    plain step at a time.  sample_posterior must reproduce it bit for bit."""
    d = model.space.dimension
    start = _initial_point(model)
    chol = model.proposal_chol if model.proposal_chol is not None else np.eye(d)
    target = 0.44 if d == 1 else 0.234
    steps = cfg.burnin + cfg.draws

    seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    zs = np.empty((steps, cfg.chains, d))
    log_us = np.empty((steps, cfg.chains))
    for c, seq in enumerate(seqs):
        normals, uniforms = (np.random.default_rng(s) for s in seq.spawn(2))
        zs[:, c, :] = normals.standard_normal((steps, d))
        log_us[:, c] = np.log(uniforms.random(steps))

    current = np.tile(start, (cfg.chains, 1))
    cur_lk = np.full(cfg.chains, float(model.log_kernel_safe(start)))
    log_scale = np.full(cfg.chains, math.log(2.38 / math.sqrt(d)))
    block_acc = np.zeros(cfg.chains)
    accepted_after = np.zeros(cfg.chains)
    retained = np.empty((cfg.chains, cfg.draws, d))
    retained_lk = np.empty((cfg.chains, cfg.draws))
    keep = 0
    for t in range(steps):
        scale = np.exp(log_scale)[:, None]
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


def _nonfinite_kernel(theta):
    # +inf right of 1.5 and NaN left of -1.5: the sampler must reject both
    th = np.asarray(theta, dtype=float)
    x = th[..., 0]
    with np.errstate(invalid="ignore"):
        return np.where(x > 1.5, np.inf, np.where(x < -1.5, np.nan, -0.5 * (th * th).sum(axis=-1)))


NONFINITE_MODEL = StatisticalModel(ParameterSpace(("u", "v"), np.full(2, -np.inf), np.full(2, np.inf)),
                                   _nonfinite_kernel, mode=np.zeros(2))


def _manual_sample(values, seed=0):
    values = np.asarray(values, dtype=float)
    cfg = SamplerConfig(chains=1, draws=max(1000, values.size), burnin=0, seed=seed)
    return SurpriseSample(
        draws=values[:, None],
        log_surprise=values,
        acceptance_rates=np.array([1.0]),
        config=cfg,
    )


def _reference_ess_initial_positive(series):
    """Geyer's initial positive sequence as first written: lag pairs added
    one at a time while positive."""
    n = series.size
    x = series - series.mean()
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[:n].real / n
    rho = acov / acov[0]
    tau = 1.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        k += 2
    return n / tau, k


def _ar1(rho, n, seed):
    eps = np.random.default_rng(seed).standard_normal(n)
    out = np.empty(n)
    out[0] = eps[0]
    for i in range(1, n):
        out[i] = rho * out[i - 1] + eps[i]
    return out


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
        beta_hat = reg2_model.mode[:-1]
        means = reg2_sample.draws[:, :3].mean(axis=0)
        sds = reg2_sample.draws[:, :3].std(axis=0)
        assert np.all(np.abs(means - beta_hat) < 3.0 * sds)

    def test_draws_within_bounds(self):
        sp = ParameterSpace(("u",), np.array([0.0]), np.array([1.0]))
        model = StatisticalModel(sp, lambda th: np.zeros(np.shape(th)[:-1]))
        s = sample_posterior(model, SamplerConfig(seed=0, chains=1, draws=1_000, burnin=200))
        assert np.all((s.draws >= 0.0) & (s.draws <= 1.0))

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
        # the independence sampler (its gate passes) and the random walk
        model, _ = model_from_spec(BETA_SPEC)
        assert model.laplace is not None
        for m in (model, _walk(model)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                s = sample_posterior(m, SamplerConfig(seed=0, chains=2, draws=1_000, burnin=200))
            assert np.all((s.draws > 0.0) & (s.draws < 1.0))
            assert abs(s.draws.mean() - 8 / 22) < 0.05  # the mean of Beta(8, 14)

    @pytest.mark.parametrize("bounds", [[None, None], [-5, 5]])
    def test_log_of_negative_raises_no_warning(self, bounds):
        # log(a) is NaN for a < 0: a rejected value, on unbounded and
        # bounded spaces alike, for both Metropolis samplers and the gate's
        # pilot; the Laplace fit starts at a = 0, where log(a) is -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, _ = model_from_spec({"family": "generic", "coordinates": ["a"],
                                        "log_kernel": "log(a) - a^2", "bounds": [bounds]})
        assert model.laplace is not None
        for m in (model, _walk(model)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                s = sample_posterior(m, SamplerConfig(seed=0, chains=2, draws=1_000, burnin=200))
            assert np.all(s.draws > 0.0)

    def test_constant_kernel_samples_the_box(self):
        # every row of a round inside the bounds (parked chains, the rows
        # past the chunk) still gives one kernel value a row
        model, _ = model_from_spec({"family": "generic", "coordinates": ["a"],
                                    "log_kernel": "0", "bounds": [[0, 1]]})
        s = sample_posterior(model, SamplerConfig(seed=0, chains=2, draws=2_000, burnin=200))
        assert np.all((s.draws >= 0.0) & (s.draws <= 1.0))
        assert abs(s.draws.mean() - 0.5) < 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(draws=10)
        with pytest.raises(ValueError):
            SamplerConfig(burnin=-1)
        # the random walk is the one MCMC algorithm, and its proposal scale
        # is the model's proposal_chol: neither is a config field
        with pytest.raises(TypeError):
            SamplerConfig(algorithm="metropolis")
        with pytest.raises(TypeError):
            SamplerConfig(scale=1.0)

    def test_every_post_burnin_step_is_kept(self):
        # no thinning: `thin` is a constant 1, read only by the benchmark's
        # step count, and not a field
        assert [f.name for f in dataclasses.fields(SamplerConfig)] == [
            "chains", "draws", "burnin", "seed"]
        assert SamplerConfig().thin == 1
        with pytest.raises(TypeError):
            SamplerConfig(thin=2)


def _walk(model):
    """The model without its exact draws or Laplace fit, so that the random
    walk samples it."""
    return dataclasses.replace(model, draw=None, laplace=None)


def _regression(k):
    return lambda table2: make_polynomial_regression_model(table2, k)


def _wide_bounded(_=None):
    """BOUNDED_SPEC's model with the random walk's proposal starting at
    scale 5: most proposals leave [0, 1]."""
    model = _walk(model_from_spec(BOUNDED_SPEC)[0])
    return dataclasses.replace(model, proposal_chol=np.eye(2) * (5.0 / (2.38 / math.sqrt(2))))


BIT_IDENTITY_CASES = {
    "metropolis-order3": (_regression(3), SamplerConfig(seed=7, chains=4, draws=1_000, burnin=500)),
    "gaussian-one-chain": (lambda _: make_gaussian_mean_model(1.0, 2.0),
                           SamplerConfig(seed=1, chains=1, draws=1_000, burnin=300)),
    "bounded-generic": (lambda _: model_from_spec(BOUNDED_SPEC)[0],
                        SamplerConfig(seed=4, chains=2, draws=1_000, burnin=300)),
    "order1": (_regression(1), SamplerConfig(seed=5, chains=2, draws=3_000, burnin=200)),
    # 777 + 3000 steps: several chunks, the last one partial
    "chunks-metropolis": (_regression(2), SamplerConfig(seed=8, chains=3, draws=3_000, burnin=777)),
    # the shapes of the benchmark's select-fbst and gaussian-batch samplers
    "select-fbst-order5": (_regression(5), SamplerConfig(seed=9, chains=4, draws=1_000, burnin=500)),
    "gaussian-batch": (lambda _: make_gaussian_mean_model(0.05, 1.0 / 200), SamplerConfig(
        seed=10, chains=2, draws=1_000, burnin=500)),
    # burn-in ends inside the first round
    "short-burnin-one-chain": (lambda _: make_gaussian_mean_model(-1.0, 0.5),
                               SamplerConfig(seed=11, chains=1, draws=1_000, burnin=5)),
    "eight-chains": (_regression(3), SamplerConfig(seed=12, chains=8, draws=1_000, burnin=400)),
    # d = 1 targets acceptance 0.44, so level 2 runs most often, and here
    # its runs are cut at adaptation points and at partial chunks' ends
    "chunks-gaussian-one-chain": (lambda _: make_gaussian_mean_model(1.0, 2.0), SamplerConfig(
        seed=6, chains=1, draws=3_000, burnin=777)),
    # burn-in 49: the first window ends at step 50, inside a level-2 run
    "gaussian-burnin-49": (lambda _: make_gaussian_mean_model(1.0, 2.0),
                           SamplerConfig(seed=2, chains=2, draws=1_000, burnin=49)),
    "nonfinite-kernel": (lambda _: NONFINITE_MODEL, SamplerConfig(seed=15, chains=3, draws=1_000, burnin=200)),
    # most proposals leave [0, 1], so most speculative rows are out of bounds
    "bounded-wide-scale": (_wide_bounded, SamplerConfig(seed=13, chains=3, draws=1_000, burnin=300)),
}


class TestBitIdentity:
    @pytest.mark.parametrize("case", sorted(BIT_IDENTITY_CASES))
    def test_matches_reference(self, case, table2):
        build, cfg = BIT_IDENTITY_CASES[case]
        model = _walk(build(table2))
        got = sample_posterior(model, cfg)
        want = _reference_sample(model, cfg)
        assert np.array_equal(got.draws, want.draws)
        assert np.array_equal(got.log_surprise, want.log_surprise)
        assert np.array_equal(got.acceptance_rates, want.acceptance_rates)
        assert np.array_equal(got.stationarity_flags, want.stationarity_flags)

    def test_one_chain_regression_differs_in_last_bits(self, table2):
        # The regression kernel's matmul rounds a batch of one row (the
        # reference's one chain) differently from a batch of several, in the
        # last bits; with two or more chains both are batches of several.
        model = _walk(make_polynomial_regression_model(table2, 3))
        cfg = SamplerConfig(seed=14, chains=1, draws=1_000, burnin=500)
        got, want = sample_posterior(model, cfg), _reference_sample(model, cfg)
        assert np.array_equal(got.draws, want.draws)
        assert np.allclose(got.log_surprise, want.log_surprise, rtol=0.0, atol=1e-12)

    def test_case_spans_partial_chunks(self):
        for case in ("chunks-gaussian-one-chain", "chunks-metropolis"):
            cfg = BIT_IDENTITY_CASES[case][1]
            steps = cfg.burnin + cfg.draws
            assert steps > 2 * CHUNK and steps % CHUNK != 0

    def test_short_burnin_ends_within_one_round(self):
        cfg = BIT_IDENTITY_CASES["short-burnin-one-chain"][1]
        assert cfg.chains == 1 and 0 < cfg.burnin < PREFETCH

    def test_wide_scale_leaves_the_bounds(self):
        rows = []

        class Recording(StatisticalModel):
            def log_kernel_safe(self, theta):
                rows.append(np.asarray(theta)[..., 0].ravel())
                return super().log_kernel_safe(theta)

        model = _wide_bounded()
        fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
        sample_posterior(Recording(**fields), BIT_IDENTITY_CASES["bounded-wide-scale"][1])
        p = np.concatenate(rows)
        assert np.mean((p < 0.0) | (p > 1.0)) > 0.5


def _counting(model):
    """The model with its kernel wrapped to record each call's shape."""
    shapes = []

    def counting(theta):
        shapes.append(np.shape(theta))
        return model.log_kernel(theta)

    return dataclasses.replace(model, log_kernel=counting), shapes


class TestPrefetch:
    def test_rounds_batch_kernel_calls(self, table2):
        model, shapes = _counting(_walk(make_polynomial_regression_model(table2, 3)))
        cfg = SamplerConfig(seed=0, chains=4, draws=1_000, burnin=500)
        sample_posterior(model, cfg)
        steps = cfg.burnin + cfg.draws
        # one call at the initial point, then one per round of PREFETCH
        # level-1 proposals per chain, each followed by PREFETCH2 level-2
        # ones; a one-step loop made `steps` calls
        assert shapes[0] == (5,)
        assert set(shapes[1:]) == {(cfg.chains * PREFETCH * (1 + PREFETCH2), 5)}
        assert len(shapes) < 0.25 * steps

    def test_round_takes_two_acceptances(self):
        # one acceptance a round would take at least as many rounds as the
        # busiest chain accepts
        model, shapes = _counting(_walk(make_gaussian_mean_model(0.05, 1.0 / 200)))
        cfg = BIT_IDENTITY_CASES["gaussian-batch"][1]
        s = sample_posterior(model, cfg)
        steps = cfg.burnin + cfg.draws
        assert len(shapes) - 1 < s.acceptance_rates.max() * steps

    def test_speculative_rows_raise_no_warning(self):
        # speculative proposals past a chain's first acceptance are
        # evaluated too, most of them outside [0, 1] at this scale
        model = _wide_bounded()
        cfg = SamplerConfig(seed=0, chains=4, draws=1_000, burnin=300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sample_posterior(model, cfg)
        assert np.all((s.draws[:, 0] > 0.0) & (s.draws[:, 0] < 1.0))


def _assert_same_sample(a, b):
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.log_surprise, b.log_surprise)
    assert np.array_equal(a.acceptance_rates, b.acceptance_rates)


# prints a digest of one seeded order-5 exact sample with 8 chains
BLAS_PROBE = """
import hashlib
from fbst import SamplerConfig, make_polynomial_regression_model, sample_posterior
from fbst.modelsel import benchmark_dataset
model = make_polynomial_regression_model(benchmark_dataset(), 5)
s = sample_posterior(model, SamplerConfig(seed=3, chains=8, draws=1000, burnin=500))
print(hashlib.sha256(s.draws.tobytes() + s.log_surprise.tobytes()).hexdigest())
"""


class TestExactDraws:
    def test_gaussian_moments(self):
        model = make_gaussian_mean_model(1.5, 4.0)
        s = sample_posterior(model, SamplerConfig(seed=3, chains=4, draws=50_000, burnin=2_000))
        assert abs(s.draws.mean() - 1.5) < 0.02
        assert abs(s.draws.var() / 4.0 - 1.0) < 0.02
        assert np.array_equal(s.acceptance_rates, np.ones(4))

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_regression_moments(self, table2, k):
        # beta is t about beta_hat with covariance SSR / (n - k - 3) (X'X)^-1,
        # and E[sigma^2] = SSR / (n - k - 3)
        X, _, _, beta_hat, ssr = least_squares(table2, k)
        cov = ssr / (table2.n - k - 3) * np.linalg.inv(X.T @ X)
        s = sample_posterior(make_polynomial_regression_model(table2, k),
                             SamplerConfig(seed=2, chains=4, draws=50_000))
        beta, sd = s.draws[:, : k + 1], np.sqrt(np.diag(cov))
        assert np.all(np.abs(beta.mean(axis=0) - beta_hat) < 5.0 * sd / math.sqrt(s.size))
        # about 0.004 standard error per entry, in units of sd_i sd_j
        err = (np.cov(beta, rowvar=False).reshape(cov.shape) - cov) / np.outer(sd, sd)
        assert np.max(np.abs(err)) < 0.03
        sigma2 = np.exp(2.0 * s.draws[:, k + 1]).mean()
        assert abs(sigma2 / (ssr / (table2.n - k - 3)) - 1.0) < 0.01

    @pytest.mark.parametrize("seed", [43, 44, 45])
    def test_gaussian_oracle(self, seed):
        # acceptance criterion c3's points, config and tolerance, at other
        # seeds than its 42
        model = make_gaussian_mean_model(0.0, 1.0)
        sample = sample_posterior(model, SamplerConfig(seed=seed, chains=4, draws=50_000, burnin=10_000))
        for theta_h in (0.0, 0.5, 1.0, 2.0):
            ev = evalue(model, point_hypothesis([theta_h]), sample).ev
            assert abs(ev - gaussian_mean_evalue_oracle(0.0, 1.0, theta_h)) <= 0.01

    @pytest.mark.parametrize("k", [0, 5])
    def test_seed_determinism(self, table2, k):
        model = make_polynomial_regression_model(table2, k)
        cfg = SamplerConfig(seed=4, chains=3, draws=1_000, burnin=300)
        _assert_same_sample(sample_posterior(model, cfg), sample_posterior(model, cfg))

    def test_chain_draws_do_not_depend_on_chain_count(self, table2):
        model = make_polynomial_regression_model(table2, 3)
        two = sample_posterior(model, SamplerConfig(seed=6, chains=2, draws=1_000))
        five = sample_posterior(model, SamplerConfig(seed=6, chains=5, draws=1_000))
        assert np.array_equal(five.draws[: two.size], two.draws)

    def test_burnin_and_scale_change_no_draw(self):
        # the random walk's scale is the model's proposal_chol
        model = make_gaussian_mean_model(1.0, 2.0)
        want = sample_posterior(model, SamplerConfig(seed=5, chains=3, draws=1_000, burnin=0))
        wide = dataclasses.replace(model, proposal_chol=3.0 * model.proposal_chol)
        got = sample_posterior(wide, SamplerConfig(seed=5, chains=3, draws=1_000, burnin=250))
        _assert_same_sample(got, want)

    def test_one_kernel_call(self, table2):
        model, shapes = _counting(make_polynomial_regression_model(table2, 5))
        sample_posterior(model, SamplerConfig(seed=0, chains=4, draws=1_000, burnin=500))
        assert shapes == [(4_000, 7)]

    def test_draw_chooses_the_sampler(self):
        # the same model without `draw` is sampled by the random walk
        gauss = make_gaussian_mean_model(1.0, 2.0)
        cfg = SamplerConfig(seed=1, chains=2, draws=1_000, burnin=100)
        walk = _reference_sample(gauss, cfg)
        _assert_same_sample(sample_posterior(_walk(gauss), cfg), walk)
        assert not np.array_equal(sample_posterior(gauss, cfg).draws, walk.draws)

    def test_draws_do_not_depend_on_blas_threads(self):
        # the beta block is one (draws, k + 1) product per chain, and the
        # regression kernel one product on every chain's draws
        src = str(Path(fbst.__file__).resolve().parents[1])
        digests = {subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True,
                                  check=True, env=dict(os.environ, PYTHONPATH=src,
                                                       OPENBLAS_NUM_THREADS=threads)).stdout
                   for threads in ("1", "2")}
        assert len(digests) == 1


def _row_major_regression(data, k):
    """The regression family's draw and kernel as they were before the
    column-major layout: each chain's draws in a row-major (size, k + 2)
    array, and |z|^2 summed over each row with sum(axis=-1)."""
    _, R, R_inv, beta_hat, ssr = least_squares(data, k)
    n = data.n
    shift = np.append(beta_hat, 0.0)
    factor = np.zeros((k + 2, k + 2))
    factor[: k + 1, : k + 1] = R.T
    factor[k + 1, k + 1] = -2.0

    def _reference_kernel(theta):
        w = (np.asarray(theta, dtype=float) - shift) @ factor
        w_lam = w[..., k + 1].copy()
        w *= w
        val = w[..., : k + 1].sum(axis=-1)
        val += ssr
        val *= np.exp(w_lam)
        w_lam *= n
        val -= w_lam
        val *= -0.5
        return val

    def _reference_draw(rng, size):
        sigma = np.sqrt(ssr / rng.chisquare(n - k - 1, size))
        theta = np.empty((size, k + 2))
        beta = theta[:, : k + 1]
        np.matmul(rng.standard_normal((size, k + 1)), R_inv.T, out=beta)
        beta *= sigma[:, None]
        beta += beta_hat
        np.log(sigma, out=theta[:, k + 1])
        return theta

    model = make_polynomial_regression_model(data, k)
    return dataclasses.replace(model, log_kernel=_reference_kernel, draw=_reference_draw)


class TestColumnMajorDraws:
    @pytest.mark.parametrize("chains", [1, 4])
    @pytest.mark.parametrize("k", range(7))
    def test_bits_equal_the_row_major_sample(self, table2, k, chains):
        # up to 7 squared terms, the kernel adds its columns in the order
        # that sum(axis=-1) adds a row
        model = make_polynomial_regression_model(table2, k)
        reference = _row_major_regression(table2, k)
        cfg = SamplerConfig(seed=3 + k, chains=chains, draws=1_000)
        got, want = sample_posterior(model, cfg), sample_posterior(reference, cfg)
        assert got.draws.flags.f_contiguous and want.draws.flags.c_contiguous
        _assert_same_sample(got, want)
        assert np.array_equal(got.stationarity_flags, want.stationarity_flags)
        got_ladder, want_ladder = estimate_truth_ladder(got), estimate_truth_ladder(want)
        assert np.array_equal(got_ladder.log_v, want_ladder.log_v)
        assert np.array_equal(got_ladder.w, want_ladder.w)
        H = coordinate_zero_hypothesis(k, k + 2)
        got_ev = evalue(model, H, got, ladder=got_ladder)
        want_ev = evalue(reference, H, want, ladder=want_ladder)
        assert (got_ev.ev, got_ev.sev, got_ev.ess) == (want_ev.ev, want_ev.sev, want_ev.ess)

    @pytest.mark.parametrize("k", [7, 8])
    def test_eight_or_more_terms_move_log_s_by_rounding(self, table2, k):
        # sum(axis=-1) groups 8 or more terms pairwise, the kernel adds its
        # columns in order: the draws stay, log s moves in its last bits
        cfg = SamplerConfig(seed=3, chains=4, draws=1_000)
        got = sample_posterior(make_polynomial_regression_model(table2, k), cfg)
        want = sample_posterior(_row_major_regression(table2, k), cfg)
        assert np.array_equal(got.draws, want.draws)
        rel = np.abs(got.log_surprise - want.log_surprise) / np.abs(want.log_surprise)
        assert rel.max() <= 1e-15

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_stationarity_flags_compare_the_halves(self, order):
        # coordinate 0 drifts within each chain; the flags are those of the
        # halves' means and variances, whatever the draws' layout
        def draw(rng, size):
            theta = np.array(rng.standard_normal((size, 3)), order=order)
            theta[:, 0] += np.linspace(0.0, 1.0, size)
            return theta

        space = ParameterSpace(("a", "b", "c"), np.full(3, -np.inf), np.full(3, np.inf))
        model = StatisticalModel(space=space, log_kernel=lambda t: -0.5 * (t * t).sum(axis=-1),
                                 draw=draw)
        cfg = SamplerConfig(seed=0, chains=2, draws=1_001)
        s = sample_posterior(model, cfg)
        chains = s.draws.reshape(2, 1_001, 3)
        first, second = chains[:, :500].reshape(-1, 3), chains[:, 500:1_000].reshape(-1, 3)
        se = np.sqrt(first.var(axis=0) / 500 + second.var(axis=0) / 500) + 1e-300
        want = np.abs(first.mean(axis=0) - second.mean(axis=0)) > 4.0 * se
        assert np.array_equal(s.stationarity_flags, want) and want.tolist() == [True, False, False]


class TestIndependence:
    # exact draws are independent within a chain, so their ESS per draw
    # is near 1 where the random walk's is not
    def test_ess_per_draw_five_times_the_random_walk(self, table2):
        model = make_polynomial_regression_model(table2, 3)
        cfg = SamplerConfig(seed=1, chains=4, draws=10_000, burnin=2_000)
        walk, exact = (effective_sample_size(sample_posterior(m, cfg)) for m in (_walk(model), model))
        assert exact >= 5.0 * walk


def _gaussian_spec(mean, var):
    """A 2-D isotropic gaussian kernel with the given mean and variance."""
    kernel = f"-((a - ({mean[0]!r}))^2 + (b - ({mean[1]!r}))^2) / (2 * {var!r})"
    return {"family": "generic", "coordinates": ["a", "b"], "log_kernel": kernel}


GAUSSIAN_SPEC = _gaussian_spec((1.3, -0.6), 0.09)
# kernels whose pilot weights have a heavy tail: the random walk samples them
BANANA_SPEC = {"family": "generic", "coordinates": ["a", "b"], "log_kernel": "-a^2/2 - (b - a^2)^2"}
HEAVY_SPEC = {"family": "generic", "coordinates": ["a"], "log_kernel": "-0.6*log(1 + a^2)"}
TWO_MODE_SPEC = {"family": "generic", "coordinates": ["a"],
                 "log_kernel": "log(exp(-(a-3)^2/2) + exp(-(a+3)^2/2))"}


def _t_spec(power):
    """The t-like kernel -power log(1 + a^2); power 1 is the Cauchy."""
    return {"family": "generic", "coordinates": ["a"], "log_kernel": f"-{power}*log(1 + a^2)"}


def _pilot_khats(monkeypatch):
    """The list that each k-hat the build's gate reads is appended to."""
    seen = []
    monkeypatch.setattr(model_module, "_pareto_khat", lambda log_w: seen.append(_pareto_khat(log_w)) or seen[-1])
    return seen


def _reference_khat(log_w):
    """Pareto k-hat as PSIS's reference code computes it: the excesses of
    the largest M log-weights over the next, Zhang & Stephens' estimate with
    its grid's weights summed one pair at a time, and the weak prior."""
    lw = np.sort(np.where(np.isfinite(log_w), log_w, -np.inf))
    lw = lw - lw[-1]
    tail_len = math.ceil(min(0.2 * lw.size, 3.0 * math.sqrt(lw.size)))
    cutoff = max(lw[-tail_len - 1], math.log(np.finfo(float).tiny))
    x = np.exp(lw[lw > cutoff]) - math.exp(cutoff)
    n = x.size
    m = 30 + int(math.sqrt(n))
    b = [1.0 / x[-1] + (1.0 - math.sqrt(m / (j + 0.5))) / (3.0 * x[int(n / 4 + 0.5) - 1]) for j in range(m)]
    ks = [float(np.mean(np.log1p(-bj * x))) for bj in b]
    L = [n * (math.log(-bj / kj) - kj - 1.0) for bj, kj in zip(b, ks)]
    w = [1.0 / sum(math.exp(Li - Lj) for Li in L) for Lj in L]
    k = float(np.mean(np.log1p(-(sum(wj * bj for wj, bj in zip(w, b)) / sum(w)) * x)))
    return (n * k + 5.0) / (n + 10.0)


class TestParetoKhat:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_as_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        log_w = rng.standard_t(3 + seed, 4096)
        log_w[rng.random(4096) < 0.1] = -np.inf  # proposals outside the bounds
        assert _pareto_khat(log_w) == pytest.approx(_reference_khat(log_w), rel=1e-9)

    @pytest.mark.parametrize("k", [0.3, 0.6, 0.9])
    def test_recovers_a_generalized_pareto_shape(self, k):
        # inverse-CDF draws of a GPD(k), whose every tail is a GPD(k); M =
        # 192 of 4096 puts k-hat's standard error near 0.1
        u = np.random.default_rng(0).random(4096)
        assert abs(_pareto_khat(np.log(((1.0 - u) ** -k - 1.0) / k)) - k) < 0.2

    def test_equal_weights_and_no_weight(self):
        assert _pareto_khat(np.zeros(4096)) == math.inf  # no excesses
        assert _pareto_khat(np.full(4096, -np.inf)) == math.inf


class TestLaplaceProposal:
    CFG = SamplerConfig(seed=0, chains=4, draws=1_000, burnin=500)

    @pytest.mark.parametrize("seed", range(5))
    def test_gaussian_oracle(self, seed):
        # a flat reference: ev of the point p is the chi-square(2) tail at
        # |m - p|^2 / v, exp(-|m - p|^2 / (2 v))
        mean, var, point = np.array([1.3, -0.6]), 0.09, np.array([1.6, -0.3])
        model = model_from_spec(_gaussian_spec(mean.tolist(), var))[0]
        s = sample_posterior(model, SamplerConfig(seed=seed, chains=4, draws=5_000, burnin=500))
        assert np.all(s.acceptance_rates > 0.8)  # the walk's are near 0.2
        report = evalue(model, point_hypothesis(point), s)
        want = math.exp(-float((mean - point) @ (mean - point)) / (2.0 * var))
        assert abs(report.ev - want) <= 4.0 * math.sqrt(want * (1.0 - want) / report.ess)
        # the random walk reads about 1 600 at this config
        assert report.ess > 5_000

    @pytest.mark.parametrize("spec", [TWO_MODE_SPEC, HEAVY_SPEC, BANANA_SPEC], ids=["two-mode", "heavy", "banana"])
    def test_refused_gate_runs_the_random_walk(self, spec):
        model = model_from_spec(spec)[0]
        assert model.laplace is None
        _assert_same_sample(sample_posterior(model, self.CFG), _reference_sample(model, self.CFG))

    @pytest.mark.parametrize("spec, khat", [
        (GAUSSIAN_SPEC, -1.7640), (BETA_SPEC, -1.6453), (BOUNDED_SPEC, -0.8765),
        (_t_spec(1), 0.6810), (_t_spec(1.2), 0.5995), (_t_spec(1.5), 0.4772),
        (BANANA_SPEC, 0.7984), (HEAVY_SPEC, 0.8480), (TWO_MODE_SPEC, 4.4955),
    ], ids=["gaussian", "beta", "bounded", "cauchy", "t-1.2", "t-1.5",
            "banana", "heavy", "two-mode"])
    def test_gate_khat(self, monkeypatch, spec, khat):
        # the build reads one k-hat, from its fixed pilot, and keeps the fit
        # iff it is at most KHAT_MAX
        seen = _pilot_khats(monkeypatch)
        model = model_from_spec(spec)[0]
        assert seen == [pytest.approx(khat, abs=1e-4)]
        assert (model.laplace is not None) == (khat <= KHAT_MAX)
        if khat < 0.0:  # bounded weights: the proposal is close to the posterior
            assert np.all(sample_posterior(model, self.CFG).acceptance_rates > 0.75)

    @pytest.mark.parametrize("power", [1.2, 1.5])
    def test_chain_count_does_not_choose_the_sampler(self, power):
        # the gate reads a pilot fixed at build, so chain 0's draws are the
        # same whatever the chain count
        model = model_from_spec(_t_spec(power))[0]
        assert model.laplace is not None
        one = sample_posterior(model, dataclasses.replace(self.CFG, chains=1))
        for chains in range(2, 6):
            s = sample_posterior(model, dataclasses.replace(self.CFG, chains=chains))
            assert np.array_equal(s.draws[: one.size], one.draws)

    def test_chain_draws_do_not_depend_on_chain_count(self):
        model = model_from_spec(GAUSSIAN_SPEC)[0]
        two = sample_posterior(model, SamplerConfig(seed=6, chains=2, draws=1_000, burnin=300))
        five = sample_posterior(model, SamplerConfig(seed=6, chains=5, draws=1_000, burnin=300))
        assert np.array_equal(five.draws[: two.size], two.draws)
        assert np.array_equal(five.log_surprise[: two.size], two.log_surprise)

    @pytest.mark.parametrize("chunk", [100, 333])
    def test_chunk_changes_no_draw(self, monkeypatch, chunk):
        model = model_from_spec(GAUSSIAN_SPEC)[0]
        cfg = SamplerConfig(seed=3, chains=3, draws=2_000, burnin=777)
        want = sample_posterior(model, cfg)
        monkeypatch.setattr(sampler, "CHUNK", chunk)
        _assert_same_sample(sample_posterior(model, cfg), want)


class TestPrefix:
    @pytest.mark.parametrize("spec, fitted", [(BANANA_SPEC, False), (GAUSSIAN_SPEC, True)],
                             ids=["random-walk", "independence"])
    def test_more_draws_extend_each_chain(self, spec, fitted):
        # each variable's generator is read in order, and the walk's scale
        # is fixed from burn-in on: a longer run continues the shorter one
        model = model_from_spec(spec)[0]
        assert (model.laplace is not None) == fitted
        cfg = SamplerConfig(seed=5, chains=3, draws=1_000, burnin=300)
        short = sample_posterior(model, cfg)
        long = sample_posterior(model, dataclasses.replace(cfg, draws=3_000))
        d = model.space.dimension
        assert np.array_equal(long.draws.reshape(3, 3_000, d)[:, :1_000], short.draws.reshape(3, 1_000, d))
        assert np.array_equal(long.log_surprise.reshape(3, 3_000)[:, :1_000],
                              short.log_surprise.reshape(3, 1_000))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRandomnessMemory:
    BOUND = 400_000  # bytes

    @pytest.mark.parametrize("sampler_name", ["metropolis", "exact", "independence"])
    def test_peak_bounded_by_chunk_not_steps(self, sampler_name):
        # 20_000 steps per chain, the last 1000 retained: the reference
        # holds every step's randomness at once, the two Metropolis
        # samplers CHUNK steps of it, and exact draws none past the
        # retained ones.
        # Measured peaks (numpy 2.4, CHUNK = 1024, PREFETCH = 6, PREFETCH2 =
        # 4): reference 963 kB, random walk 302 kB, exact draws 99 kB,
        # independence (2-D) 366 kB.
        model = make_gaussian_mean_model(0.0, 1.0)
        if sampler_name == "metropolis":
            model = _walk(model)
        elif sampler_name == "independence":
            model = model_from_spec(GAUSSIAN_SPEC)[0]
        cfg = SamplerConfig(seed=0, chains=2, draws=1_000, burnin=19_000)
        # a process's first sample imports modules lazily (about 700 kB of
        # module objects), which is not sampler memory; run alone, this test
        # would measure that too
        sample_posterior(model, cfg)
        assert _peak_bytes(sample_posterior, model, cfg) < self.BOUND
        if sampler_name == "metropolis":
            # the reference, a random walk, does not depend on the case
            assert _peak_bytes(_reference_sample, model, cfg) > self.BOUND


class TestEffectiveSampleSize:
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.95])
    @pytest.mark.parametrize("n", [999, 1000, 4097])
    def test_same_as_pair_loop(self, rho, n):
        series = _ar1(rho, n, seed=int(100 * rho) + n)
        assert _ess_initial_positive(series) == _reference_ess_initial_positive(series)[0]

    @pytest.mark.parametrize("n", [3, 4, 501, 502])
    def test_first_pair_not_positive(self, n):
        # an alternating series: rho[1] + rho[2] < 0 stops the sum at once
        series = np.where(np.arange(n) % 2, 1.0, -1.0) + 0.1 * _ar1(0.0, n, seed=n)
        ess, k = _reference_ess_initial_positive(series)
        assert k == 1 and ess == n
        assert _ess_initial_positive(series) == ess

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

    def test_computed_again_once_log_surprise_is_rebound(self):
        s = _manual_sample(_ar1(0.9, 4000, seed=3))
        first = effective_sample_size(s)
        assert effective_sample_size(s) == first
        s.log_surprise = _ar1(0.0, 4000, seed=4)
        second = effective_sample_size(s)
        assert second > 2.0 * first
        assert second == effective_sample_size(dataclasses.replace(s))

    def test_needs_minimum_draws(self):
        s = _manual_sample(np.arange(50.0))
        with pytest.raises(ValueError):
            effective_sample_size(s)

    def test_exact_sample_is_its_size(self, table2, monkeypatch):
        model = make_polynomial_regression_model(table2, 3)
        cfg = SamplerConfig(seed=1, chains=4, draws=1_000, burnin=500)
        exact, walk = sample_posterior(model, cfg), sample_posterior(_walk(model), cfg)
        assert exact.iid and not walk.iid
        series = []
        inner = _ess_initial_positive
        monkeypatch.setattr("fbst.sampler._ess_initial_positive",
                            lambda x: series.append(x) or inner(x))
        assert effective_sample_size(exact) == exact.size
        assert series == []
        # the random walk's autocorrelated series is still estimated
        assert effective_sample_size(walk) < walk.size
        assert len(series) == cfg.chains
