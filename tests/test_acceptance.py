"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (repeated in the terminal summary
by the conftest hook) and pins the published tolerances.
"""

import math
import time

import numpy as np
import pytest

from fbst import (
    CompositeStructure,
    Hypothesis,
    OptimizerConfig,
    ParameterSpace,
    SamplerConfig,
    StatisticalModel,
    TruthLadder,
    chi2_cdf,
    chi2_quantile,
    evalue,
    gaussian_mean_evalue_oracle,
    make_gaussian_mean_model,
    make_polynomial_regression_model,
    maximize_surprise,
    mellin_convolve,
    point_hypothesis,
    sample_posterior,
    standardize,
)
from fbst.composition import disjunctive_evalue
from fbst.gfbst import GridModel, check_logical_properties
from fbst.model import least_squares
from fbst.modelsel import selection_table
from fbst.truth import estimate_truth_ladder

TABLE3_ERRORS = np.array(
    [
        [0.03712, 0.04494, 0.04307, 0.04535, 0.04419],
        [0.02223, 0.02964, 0.02787, 0.03025, 0.02858],
        [0.01130, 0.01661, 0.01534, 0.01724, 0.01560],
        [0.01129, 0.01835, 0.01667, 0.01946, 0.01667],
        [0.01088, 0.01959, 0.01751, 0.02133, 0.01710],
        [0.01087, 0.02173, 0.01913, 0.02445, 0.01811],
    ]
)
TABLE3_EV = np.array([0.000, 0.009, 0.013, 0.999, 0.995, 0.999])


def report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_c1_deterministic_error_table(table2):
    """Orders 0-5, five error columns, all 30 values within 1e-4."""
    started = time.monotonic()
    rows = selection_table(table2, 5)
    got = np.array(
        [[r.r_emp, r.r_fpe, r.r_sbc, r.r_gcv, r.r_sms] for r in rows]
    )
    elapsed = time.monotonic() - started
    ok = bool(np.max(np.abs(got - TABLE3_ERRORS)) <= 1e-4) and elapsed < 1.0
    report("deterministic error table (30 values, +/-0.0001, <1s)", ok)


def test_c2_stochastic_evalue_column(table2):
    """ev(b_k = 0) medians over 5 seeds within 0.05; sev split property."""
    started = time.monotonic()
    seeds = (0, 1, 2, 3, 4)
    evs = np.empty((len(seeds), 6))
    split_ok = 0
    for i, seed in enumerate(seeds):
        cfg = SamplerConfig(seed=seed, chains=4, draws=50_000, burnin=10_000)
        rows = selection_table(table2, 5, cfg, with_evalues=True)
        evs[i] = [r.ev for r in rows]
        sevs = np.array([r.sev for r in rows])
        if np.all(sevs[3:] > 0.3) and np.all(sevs[:3] < 0.01):
            split_ok += 1
    medians = np.median(evs, axis=0)
    elapsed = time.monotonic() - started
    ok = (
        bool(np.max(np.abs(medians - TABLE3_EV)) <= 0.05)
        and split_ok >= 4
        and elapsed < 600.0
    )
    report(
        "stochastic e-value column (median of 5 seeds +/-0.05, 2e5 draws, "
        "sev split 4/5, <10min)",
        ok,
    )


def test_c3_gaussian_oracle():
    """MC e-values within 0.01 of the closed-form gaussian oracle."""
    started = time.monotonic()
    model = make_gaussian_mean_model(0.0, 1.0)
    cfg = SamplerConfig(seed=42, chains=4, draws=50_000, burnin=10_000)
    sample = sample_posterior(model, cfg)
    worst = 0.0
    for theta_h in (0.0, 0.5, 1.0, 2.0):
        rep = evalue(model, point_hypothesis([theta_h]), sample)
        oracle = gaussian_mean_evalue_oracle(0.0, 1.0, theta_h)
        worst = max(worst, abs(rep.ev - oracle))
    elapsed = time.monotonic() - started
    ok = worst <= 0.01 and elapsed < 60.0
    report("gaussian-mean closed-form oracle (4 points, +/-0.01, <1min)", ok)


def test_c4_asymptotic_properties():
    """(b) sev of a true sharp hypothesis ~ U[0,1]; (a) slack ev -> 1."""
    started = time.monotonic()
    rng = np.random.default_rng(2026)

    # (b): n = 200 observations, true theta = 0, sharp H: theta = 0
    n_b, reps_b = 200, 200
    sevs = np.empty(reps_b)
    cfg = SamplerConfig(chains=2, draws=5_000, burnin=1_000, seed=0)
    for i in range(reps_b):
        xbar = rng.normal(0.0, 1.0 / math.sqrt(n_b))
        model = make_gaussian_mean_model(xbar, 1.0 / n_b)
        cfg_i = SamplerConfig(chains=2, draws=5_000, burnin=1_000, seed=10_000 + i)
        sample = sample_posterior(model, cfg_i)
        sevs[i] = evalue(model, point_hypothesis([0.0]), sample).sev
    u = np.sort(sevs)
    grid = np.arange(1, reps_b + 1) / reps_b
    ks = float(np.max(np.maximum(np.abs(grid - u), np.abs(grid - 1.0 / reps_b - u))))

    # (a): n = 500, true theta = 0 interior to the slack H: |theta| <= 0.5
    n_a, reps_a = 500, 50
    evs = np.empty(reps_a)
    opt_cfg = OptimizerConfig(restarts=4, outer_iterations=4)
    slack = Hypothesis(inequalities=(lambda th: np.abs(np.asarray(th)[..., 0]) - 0.5,))
    for i in range(reps_a):
        xbar = rng.normal(0.0, 1.0 / math.sqrt(n_a))
        model = make_gaussian_mean_model(xbar, 1.0 / n_a)
        cfg_i = SamplerConfig(chains=2, draws=5_000, burnin=1_000, seed=20_000 + i)
        sample = sample_posterior(model, cfg_i)
        evs[i] = evalue(model, slack, sample, opt_cfg=opt_cfg).ev
    median_ev = float(np.median(evs))

    elapsed = time.monotonic() - started
    ok = ks <= 0.10 and median_ev >= 0.95 and elapsed < 1200.0
    report(
        f"asymptotics: sharp sev KS={ks:.3f} (<=0.10, 200 reps), "
        f"slack median ev={median_ev:.3f} (>=0.95, 50 reps), <20min",
        ok,
    )


def test_c5_logical_properties():
    """1000 random families on an exact 20x20 grid: zero violations."""
    started = time.monotonic()
    rng = np.random.default_rng(0)
    grid = GridModel.random(20, rng)
    clean = check_logical_properties(grid, trials=1000, c=0.05, seed=1)
    control = check_logical_properties(
        grid, trials=1000, c=0.05, seed=1, rule="broken-negative-control"
    )
    elapsed = time.monotonic() - started
    ok = (
        clean["total_violations"] == 0
        and control["total_violations"] >= 1
        and elapsed < 60.0
    )
    report(
        "logical-property suite (1000 trials clean, negative control caught, <1min)",
        ok,
    )


def test_c6_composition_suite():
    """Exact two-atom convolution; joint MC cross-check; {0,1} DNF networks."""
    started = time.monotonic()

    # exact enumeration for random two-atom ladders
    rng = np.random.default_rng(1)
    exact_ok = True
    for _ in range(20):
        v1, v2 = np.sort(rng.normal(size=2)), np.sort(rng.normal(size=2))
        p1, p2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        a = TruthLadder(v1, np.array([p1, 1.0]))
        b = TruthLadder(v2, np.array([p2, 1.0]))
        joint = mellin_convolve(a, b)
        sums = (v1[:, None] + v2[None, :]).ravel()
        masses = (np.array([p1, 1 - p1])[:, None] * np.array([p2, 1 - p2])[None, :]).ravel()
        order = np.argsort(sums)
        uniq, inv = np.unique(sums[order], return_inverse=True)
        agg = np.zeros(uniq.size)
        np.add.at(agg, inv, masses[order])
        exact_ok &= np.allclose(joint.log_v, uniq) and np.allclose(
            joint.w, np.cumsum(agg)
        )

    # two-component conjunction vs direct joint MC
    m1 = make_gaussian_mean_model(0.0, 1.0)
    m2 = make_gaussian_mean_model(1.0, 2.0)
    s1 = sample_posterior(m1, SamplerConfig(seed=5, chains=2, draws=30_000, burnin=3_000))
    s2 = sample_posterior(m2, SamplerConfig(seed=6, chains=2, draws=30_000, burnin=3_000))
    star1 = -((0.5 - 0.0) ** 2) / 2.0
    star2 = -((0.5 - 1.0) ** 2) / 4.0
    c = CompositeStructure(
        (estimate_truth_ladder(s1), estimate_truth_ladder(s2)),
        np.array([[star1, star2]]),
    )
    from fbst import conjunctive_evalue

    got = conjunctive_evalue(c)
    combined = s1.log_surprise + np.random.default_rng(7).permutation(s2.log_surprise)
    oracle = float(np.mean(combined <= star1 + star2))
    joint_ok = abs(got - oracle) <= 0.02

    # {0,1} components: composed e-value equals classical DNF evaluation
    unit = TruthLadder(np.array([0.0]), np.array([1.0]))
    dnf_ok = True
    for _ in range(100):
        truth = rng.random((3, 3)) < 0.5
        grid = np.where(truth, 0.0, -1.0)
        net = CompositeStructure((unit, unit, unit), grid)
        expected = 1.0 if any(all(row) for row in truth) else 0.0
        dnf_ok &= disjunctive_evalue(net) == expected

    elapsed = time.monotonic() - started
    ok = exact_ok and joint_ok and dnf_ok and elapsed < 300.0
    report(
        "composition suite (exact two-atom, joint MC +/-0.02, 100 DNF networks, <5min)",
        ok,
    )


def test_c7_invariance_suite(table2, reg2_model, reg2_sample):
    """e-values stable under reparameterization (< 0.02 shift)."""
    started = time.monotonic()

    # regression: direct-sigma coordinates against the built-in log-sigma ones
    k, n = 2, table2.n
    X, _, R_inv, beta_hat, ssr = least_squares(table2, k)
    s2 = ssr / (n - k)
    XtX = X.T @ X
    sigma_hat = math.sqrt((n - k) * s2 / (n + 1))

    def kernel(th):
        th = np.asarray(th, dtype=float)
        beta = th[..., : k + 1]
        sigma = th[..., k + 1]
        diff = beta - beta_hat
        quad = np.einsum("...i,ij,...j->...", diff, XtX, diff)
        return -(n + 1) * np.log(sigma) - ((n - k) * s2 + quad) / (2.0 * sigma ** 2)

    chol = np.zeros((k + 2, k + 2))
    chol[: k + 1, : k + 1] = np.linalg.cholesky(s2 * (R_inv @ R_inv.T))
    chol[k + 1, k + 1] = sigma_hat / math.sqrt(2.0 * (n - k))
    space = ParameterSpace(
        ("b0", "b1", "b2", "sigma"),
        np.array([-np.inf, -np.inf, -np.inf, 0.0]),
        np.full(4, np.inf),
    )
    direct = StatisticalModel(
        space,
        kernel,
        mode=np.concatenate([beta_hat, [sigma_hat]]),
        proposal_chol=chol,
    )
    cfg = SamplerConfig(seed=11, chains=2, draws=20_000, burnin=5_000)
    direct_sample = sample_posterior(direct, cfg)
    H = Hypothesis(equalities=(lambda th: np.asarray(th)[..., 2],))
    opt_cfg = OptimizerConfig(restarts=8, outer_iterations=6)
    ev_direct = evalue(direct, H, direct_sample, opt_cfg=opt_cfg).ev
    ev_logsig = evalue(reg2_model, H, reg2_sample, opt_cfg=opt_cfg).ev
    reg_ok = abs(ev_direct - ev_logsig) < 0.02

    # gaussian mean: phi = exp(theta) with the matching reference density
    base = make_gaussian_mean_model(1.0, 1.0)
    base_sample = sample_posterior(base, SamplerConfig(seed=3, chains=4, draws=50_000, burnin=5_000))
    ev_base = evalue(base, point_hypothesis([0.0]), base_sample).ev

    def exp_kernel(th):
        phi = np.asarray(th, dtype=float)[..., 0]
        u = np.log(phi)
        return -((u - 1.0) ** 2) / 2.0 - u

    def exp_reference(th):
        phi = np.asarray(th, dtype=float)[..., 0]
        return -np.log(phi)

    exp_space = ParameterSpace(("phi",), np.array([0.0]), np.array([np.inf]))
    exp_model = StatisticalModel(
        exp_space,
        exp_kernel,
        log_reference=exp_reference,
        mode=np.array([1.0]),
        proposal_chol=np.array([[3.0]]),
    )
    exp_sample = sample_posterior(
        exp_model, SamplerConfig(seed=4, chains=4, draws=50_000, burnin=5_000)
    )
    # theta = 0 maps to phi = 1
    ev_exp = evalue(exp_model, point_hypothesis([1.0]), exp_sample).ev
    exp_ok = abs(ev_exp - ev_base) < 0.02

    elapsed = time.monotonic() - started
    ok = reg_ok and exp_ok and elapsed < 300.0
    report(
        f"invariance suite (sigma reparam diff={abs(ev_direct - ev_logsig):.4f}, "
        f"exp reparam diff={abs(ev_exp - ev_base):.4f}, <0.02, <5min)",
        ok,
    )


def test_c8_standardization_numerics():
    """Quantile/CDF round trips and the sigma(2,1,1/2) anchor."""
    started = time.monotonic()
    worst = 0.0
    for d in range(1, 11):
        for c in (0.001, 0.5, 0.999):
            worst = max(worst, abs(chi2_cdf(d, chi2_quantile(d, c)) - c))
    anchor = abs(standardize(2, 1, 0.5) - 0.7611)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and anchor <= 1e-3 and elapsed < 1.0
    report(
        f"standardization numerics (round-trip err={worst:.1e} <=1e-10, "
        f"anchor err={anchor:.1e} <=1e-3, <1s)",
        ok,
    )
