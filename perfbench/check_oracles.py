"""Self-test of oracles.py against facts that do not come from fbst.

    python3 perfbench/check_oracles.py

Each check states what it compares.  Exits 1 if any fails.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import oracles

# the paper's 21-point dataset
PAPER_X = np.arange(21) * 0.05
PAPER_Y = np.array([
    0.125, 0.156, 0.193, -0.032, -0.075, -0.064, 0.006, -0.135, 0.105, 0.131, 0.154,
    0.114, -0.094, 0.215, 0.035, 0.327, 0.061, 0.383, 0.357, 0.605, 0.499,
])
PAPER_EV = np.array([0.000, 0.009, 0.013, 0.999, 0.995, 0.999])  # Table 3, ev(b_k = 0)

RESULTS = []


def check(name, ok):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}")


def regression():
    rng = np.random.default_rng(1)
    for k in range(6):
        reg = oracles.Regression(PAPER_X, PAPER_Y, k)
        check(f"order {k}: error columns equal Table 3 within 1e-4",
              np.max(np.abs(reg.error_columns() - oracles.TABLE3_ERRORS[k])) <= 1e-4)
        beta, sigma = reg.draws(200_000, rng)
        _, _, log_s_star = reg.constrained_optimum(np.eye(k + 1)[k])
        ev = oracles.evalue_from_draws(reg.log_surprise(beta, sigma), log_s_star)
        # the paper's column is its own MCMC estimate, printed to three decimals
        check(f"order {k}: exact-draw ev(b{k}=0) = {ev:.4f} within 0.02 of Table 3's {PAPER_EV[k]}",
              abs(ev - PAPER_EV[k]) <= 0.02)

    reg = oracles.Regression(PAPER_X, PAPER_Y, 2)
    beta, sigma = reg.draws(400_000, rng)
    nu = reg.n - reg.k - 1
    # E[sigma^2] = SSR / (nu - 2) and E[beta] = beta_hat under the exact posterior
    ratio = np.mean(sigma**2) / (reg.ssr / (nu - 2))
    check(f"E[sigma^2] ratio {ratio:.4f} within 0.01 of 1", abs(ratio - 1) <= 0.01)
    se = np.std(beta, axis=0) / math.sqrt(beta.shape[0])
    check("E[beta] within 5 standard errors of beta_hat",
          bool(np.all(np.abs(beta.mean(axis=0) - reg.beta_hat) <= 5 * se)))

    # the projection is feasible and beats feasible perturbations
    A = np.array([[0.0, 0.0, 1.0]])
    b_opt, s_opt, log_s = reg.constrained_optimum(A)
    check("projection satisfies A beta = 0", abs((A @ b_opt).item()) <= 1e-12)
    worst = -np.inf
    for _ in range(200):
        step = rng.normal(0, 1e-2, 3)
        step[2] = 0.0
        worst = max(worst, float(reg.log_surprise(b_opt + step, s_opt * math.exp(rng.normal(0, 1e-2)))[0]))
    check("no feasible perturbation has a higher surprise", worst <= log_s)


def gaussians():
    check("erfc oracle: ev(theta = mean) = 1", oracles.gaussian_sharp_evalue(0.3, 2.0, 0.3) == 1.0)
    check("erfc oracle: 1.959964 sd gives 0.05",
          abs(oracles.gaussian_sharp_evalue(0.0, 4.0, 2 * 1.959964) - 0.05) <= 1e-6)
    rng = np.random.default_rng(2)
    mean, var = np.array([1.3, -0.6]), 0.09
    draws = oracles.gaussian_draws(mean, var, 200_000, rng)
    check("gaussian draws: mean within 0.005, variance within 2 %",
          bool(np.all(np.abs(draws.mean(axis=0) - mean) <= 0.005)
               and np.all(np.abs(draws.var(axis=0) / var - 1) <= 0.02)))
    ev = oracles.evalue_from_draws(oracles.gaussian_log_surprise(draws[:, :1], mean[:1], var), -0.5)
    check("1-D draws: P(log s <= -1/2) within 0.005 of erfc(1/sqrt 2)",
          abs(ev - math.erfc(1 / math.sqrt(2))) <= 0.005)

    theta, log_s = oracles.circle_optimum(mean, var, 1.2)
    angles = np.linspace(0, 2 * np.pi, 200_001)
    ring = 1.2 * np.column_stack([np.cos(angles), np.sin(angles)])
    best = float(np.max(oracles.gaussian_log_surprise(ring, mean, var)))
    check("circle optimum: on the circle and at the best of a fine angular grid",
          abs(np.linalg.norm(theta) - 1.2) <= 1e-12 and 0 <= log_s - best <= 1e-8)

    theta, log_s = oracles.halfplane_optimum([0.6, 0.1], var, [1.0, 1.0], 0.2)
    t = np.linspace(-5, 5, 200_001)
    line = np.column_stack([t, 0.2 - t])
    best = float(np.max(oracles.gaussian_log_surprise(line, [0.6, 0.1], var)))
    check("half-plane optimum: on the boundary and at the best of a fine grid on it",
          abs(theta.sum() - 0.2) <= 1e-12 and 0 <= log_s - best <= 1e-8)
    check("half-plane optimum: a feasible mean is its own optimum",
          oracles.halfplane_optimum([0.0, 0.0], var, [1.0, 1.0], 0.2)[1] == 0.0)


def distributions():
    check("mc_tolerance(0.5, 10000) is 5 * 0.005", abs(oracles.mc_tolerance(0.5, 10_000) - 0.025) < 1e-15)
    check("dkw(n, alpha) = sqrt(ln(2/alpha) / 2n)",
          abs(oracles.dkw(1000, 0.05) - math.sqrt(math.log(40) / 2000)) < 1e-15)
    d = oracles.sup_distance_step_to_ecdf([0.0, 1.0], [0.5, 1.0], [0.0, 1.0])
    check("sup distance of a step CDF to its own sample is 0", d == 0.0)
    d = oracles.sup_distance_step_to_ecdf([0.0], [1.0], [1.0])
    check("sup distance of point masses at 0 and 1 is 1", d == 1.0)


def grids():
    masses = np.array([[1.0, 2.0], [3.0, 4.0]])
    surprise = masses / masses.sum()
    mask = np.array([[False, True], [False, False]])
    check("grid brute force: cells with surprise <= that of the mass-2 cell hold 3/10",
          oracles.grid_evalue_brute_force(masses, surprise, mask) == 0.3)
    check("grid brute force: the empty mask has e-value 0",
          oracles.grid_evalue_brute_force(masses, surprise, np.zeros((2, 2), bool)) == 0.0)


def chi_square():
    check("chi2_cdf(2, z) = 1 - exp(-z/2)", abs(oracles.chi2_cdf(2, 3.0) - (1 - math.exp(-1.5))) < 1e-15)
    check("chi2_quantile(1, 0.95) = 1.959964^2",
          abs(oracles.chi2_quantile(1, 0.95) - 1.959963984540054**2) < 1e-12)
    check("sigma(2, 1, 1/2) within 1e-3 of the paper's 0.7611",
          abs(oracles.standardize(2, 1, 0.5) - 0.7611) <= 1e-3)
    check("sigma(t, t, c) = c", oracles.standardize(3, 3, 0.25) == 0.25)


if __name__ == "__main__":
    for group in (regression, gaussians, distributions, grids, chi_square):
        group()
    print(f"{sum(RESULTS)}/{len(RESULTS)} oracle checks passed")
    sys.exit(0 if all(RESULTS) else 1)
