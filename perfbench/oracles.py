"""Reference computations made apart from fbst: numpy and scipy only.

Each function states the closed form it evaluates.  None of them imports
fbst, so a fault in the package cannot leak into the value it is checked
against.  `check_oracles.py` tests every function here on its own.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# ---------------------------------------------------------------------------
# Polynomial regression under the 1/sigma prior
# ---------------------------------------------------------------------------

# The paper's Table 3 on its 21-point dataset: for orders k = 0..5, SSR/n and
# the FPE, SBC, GCV and SMS columns.
TABLE3_ERRORS = np.array([
    [0.03712, 0.04494, 0.04307, 0.04535, 0.04419],
    [0.02223, 0.02964, 0.02787, 0.03025, 0.02858],
    [0.01130, 0.01661, 0.01534, 0.01724, 0.01560],
    [0.01129, 0.01835, 0.01667, 0.01946, 0.01667],
    [0.01088, 0.01959, 0.01751, 0.02133, 0.01710],
    [0.01087, 0.02173, 0.01913, 0.02445, 0.01811],
])


class Regression:
    """y = X beta + N(0, sigma^2), X the order-k polynomial design, prior 1/sigma.

    The posterior density in (beta, sigma) is proportional to
    sigma^-(n+1) exp(-(SSR + (beta - beta_hat)' X'X (beta - beta_hat)) / (2 sigma^2)),
    whose log is the log-surprise against the flat reference in (beta, sigma).
    """

    def __init__(self, x, y, k):
        x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.k = k
        self.n = x.size
        self.X = np.column_stack([x**j for j in range(k + 1)])
        self.beta_hat, *_ = np.linalg.lstsq(self.X, self.y, rcond=None)
        resid = self.y - self.X @ self.beta_hat
        self.ssr = float(resid @ resid)
        self.xtx = self.X.T @ self.X
        self.xtx_inv = np.linalg.inv(self.xtx)

    def log_surprise(self, beta, sigma):
        diff = np.atleast_2d(beta) - self.beta_hat
        quad = self.ssr + np.einsum("ij,jk,ik->i", diff, self.xtx, diff)
        return -(self.n + 1) * np.log(sigma) - quad / (2.0 * np.asarray(sigma) ** 2)

    def draws(self, m, rng):
        """Exact iid posterior draws: sigma^2 = SSR / chi2(n-k-1),
        beta | sigma ~ N(beta_hat, sigma^2 (X'X)^-1)."""
        sigma = np.sqrt(self.ssr / rng.chisquare(self.n - self.k - 1, size=m))
        chol = np.linalg.cholesky(self.xtx_inv)
        z = rng.standard_normal((m, self.k + 1))
        beta = self.beta_hat + sigma[:, None] * (z @ chol.T)
        return beta, sigma

    def constrained_optimum(self, A):
        """argmax of the surprise on A beta = 0: beta projected onto the
        constraint in the X'X metric, sigma^2 = (SSR + quad) / (n + 1).

        Returns (beta, sigma, log-surprise there).
        """
        A = np.atleast_2d(np.asarray(A, dtype=float))
        inv_at = self.xtx_inv @ A.T
        beta = self.beta_hat - inv_at @ np.linalg.solve(A @ inv_at, A @ self.beta_hat)
        diff = beta - self.beta_hat
        sigma = math.sqrt((self.ssr + diff @ self.xtx @ diff) / (self.n + 1))
        return beta, sigma, float(self.log_surprise(beta, sigma)[0])

    def mode(self):
        sigma = math.sqrt(self.ssr / (self.n + 1))
        return self.beta_hat, sigma, float(self.log_surprise(self.beta_hat, sigma)[0])

    def error_columns(self):
        """(SSR/n, and SSR/n times the FPE, SBC, GCV and SMS penalty factors)."""
        n, d = self.n, self.k + 2
        q = d / n
        emp = self.ssr / n
        return np.array([
            emp,
            emp * (1 + q) / (1 - q),
            emp * (1 + math.log(n) * q / (2 - 2 * q)),
            emp / (1 - q) ** 2,
            emp * (1 + 2 * q),
        ])


# ---------------------------------------------------------------------------
# Isotropic gaussian posteriors (the gaussian-mean family and the
# expression-language models of the constrained workload)
# ---------------------------------------------------------------------------


def gaussian_sharp_evalue(mean, var, theta0):
    """e-value of theta = theta0 under a N(mean, var) posterior:
    P(|theta - mean| >= |theta0 - mean|) = erfc(|theta0 - mean| / sqrt(2 var))."""
    return math.erfc(abs(theta0 - mean) / math.sqrt(2.0 * var))


def gaussian_draws(mean, var, m, rng):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return mean + math.sqrt(var) * rng.standard_normal((m, mean.size))


def gaussian_log_surprise(theta, mean, var):
    diff = np.atleast_2d(theta) - np.asarray(mean, dtype=float)
    return -np.sum(diff * diff, axis=-1) / (2.0 * var)


def circle_optimum(mean, var, radius):
    """argmax of an isotropic gaussian on |theta| = radius: radius * mean/|mean|."""
    mean = np.asarray(mean, dtype=float)
    norm = float(np.linalg.norm(mean))
    return radius * mean / norm, -((norm - radius) ** 2) / (2.0 * var)


def halfplane_optimum(mean, var, normal, offset):
    """argmax of an isotropic gaussian on normal . theta <= offset: the mean
    when feasible, else its orthogonal projection onto the boundary line."""
    mean = np.asarray(mean, dtype=float)
    normal = np.asarray(normal, dtype=float)
    excess = float(normal @ mean) - offset
    if excess <= 0.0:
        return mean, 0.0
    theta = mean - excess * normal / float(normal @ normal)
    return theta, float(gaussian_log_surprise(theta, mean, var)[0])


# ---------------------------------------------------------------------------
# Empirical distributions
# ---------------------------------------------------------------------------


def evalue_from_draws(log_s, log_s_star):
    """Share of exact posterior draws whose log-surprise is <= log s*."""
    return float(np.mean(np.asarray(log_s) <= log_s_star))


def dkw(n, alpha):
    """Dvoretzky-Kiefer-Wolfowitz radius: sup |F_n - F| <= this w.p. 1 - alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def mc_tolerance(p, ess, z=5.0):
    """z Monte-Carlo standard errors of a proportion p from ess draws; the
    variance is floored at 1/ess so that p near 0 or 1 keeps a margin."""
    return z * math.sqrt(max(p * (1.0 - p), 1.0 / ess) / ess)


def sup_distance_step_to_ecdf(support, cdf, values):
    """sup over x of |S(x) - F_n(x)|, S the right-continuous step function
    with jumps to cdf[i] at support[i] and F_n the empirical CDF of values.
    Both are step functions, so the sup is attained at a jump point of one
    of them or just below it."""
    support = np.asarray(support, dtype=float)
    cdf = np.asarray(cdf, dtype=float)
    values = np.sort(np.asarray(values, dtype=float))
    points = np.union1d(support, values)
    points = np.concatenate([points, np.nextafter(points, -np.inf)])
    step = np.concatenate([[0.0], cdf])[np.searchsorted(support, points, side="right")]
    ecdf = np.searchsorted(values, points, side="right") / values.size
    return float(np.max(np.abs(step - ecdf)))


# ---------------------------------------------------------------------------
# Exact grid models and chi-square numerics
# ---------------------------------------------------------------------------


def grid_evalue_brute_force(masses, surprise, mask):
    """Cell by cell: s* = max surprise over the mask, then the total posterior
    mass of the cells whose surprise does not exceed s*."""
    masses = np.asarray(masses, dtype=float).ravel()
    surprise = np.asarray(surprise, dtype=float).ravel()
    mask = np.asarray(mask, dtype=bool).ravel()
    total = math.fsum(masses)
    if not mask.any():
        return 0.0
    s_star = max(s for s, m in zip(surprise, mask) if m)
    return math.fsum(w for w, s in zip(masses, surprise) if s <= s_star) / total


def chi2_cdf(d, z):
    return float(special.gammainc(d / 2.0, z / 2.0))


def chi2_quantile(d, c):
    return float(2.0 * special.gammaincinv(d / 2.0, c))


def standardize(t, h, c):
    """sigma(t, h, c) = Q(t - h, Q^-1(t, c)), identity when h == t."""
    if h == t:
        return float(c)
    return chi2_cdf(t - h, chi2_quantile(t, c))
