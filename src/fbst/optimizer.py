"""Constrained maximization of the surprise function over a hypothesis set.

s* = sup over H of the surprise, found by the first rule that applies:

- exact feasibility: when every equality is affine (`linear_equalities`),
  `np.linalg.lstsq` on A theta = b checks the system; an inconsistent one
  raises InfeasibleHypothesisError at once, and redundant rows are dropped;
- mode in H: a built-in family's exact mode is the answer when H has no
  equalities and contains it, since sup_H s <= sup_Theta s = s(mode);
- affine closed forms: equalities that pin one point, and any consistent
  A beta = b on a polynomial regression's beta block (beta_hat projected in
  the X'X metric, sigma from the profile of the posterior exponent);
- everything else: scipy's SLSQP from the best posterior draws and the
  model's mode, given the equalities, the inequalities and the space's
  bounds.  The complement of a set with an equality has Theta as its
  closure, so it is solved unconstrained; the complement of an
  inequality-only set {g_i <= 0 for all i} takes the largest over i of the
  suprema over {g_i >= 0}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, minimize

from .model import (
    Hypothesis,
    InfeasibleHypothesisError,
    StatisticalModel,
    log_surprise,
)
from .sampler import SurpriseSample

EPS_OPT = 1e-8
AFFINE_TOL = 1e-9  # relative least-squares residual of a consistent A theta = b
SLSQP_OPTIONS = {"ftol": 1e-12, "maxiter": 500}
# finite stand-in for -log s where s vanishes (e.g. log(0) on a closed
# bound, or an overflow far out), so that SLSQP's line search and
# difference quotients stay finite
WALL = 1e10
# families whose `mode` is the exact maximizer of the surprise
EXACT_MODE_FAMILIES = ("gaussian-mean", "polynomial-regression")


class UnboundedSurpriseError(RuntimeError):
    """Surprise diverges along a feasible sequence."""


@dataclass(frozen=True)
class OptimizerConfig:
    """`restarts`: how many of the best posterior draws start SLSQP, besides
    the model's mode.

    `outer_iterations` is accepted and ignored: it counted the rounds of the
    quadratic-penalty ladder that SLSQP replaced, and callers still pass it.
    """

    restarts: int = 32
    outer_iterations: int = 8


@dataclass(frozen=True)
class Optimum:
    """Result of a surprise maximization over a hypothesis set."""

    log_s_star: float
    theta_star: np.ndarray
    method: str  # closed-form | multistart
    eq_residual: float
    ineq_residual: float
    restarts: int = 0
    boundary_flag: bool = False


def _surprise_at(model: StatisticalModel, theta: np.ndarray) -> float:
    theta = np.asarray(theta, dtype=float)
    if not model.space.contains(theta):
        return -math.inf
    return float(log_surprise(model, theta))


def _finish(model, H, theta, method, restarts=0) -> Optimum:
    theta = np.asarray(theta, dtype=float)
    eq_res, ineq_res = H.residuals(theta)
    lo, hi = model.space.lower, model.space.upper
    at_boundary = bool(np.any(np.isclose(theta, lo) | np.isclose(theta, hi)))
    return Optimum(
        log_s_star=_surprise_at(model, theta),
        theta_star=theta,
        method=method,
        eq_residual=eq_res,
        ineq_residual=ineq_res,
        restarts=restarts,
        boundary_flag=at_boundary,
    )


# ---------------------------------------------------------------------------
# Exact paths
# ---------------------------------------------------------------------------


def _regression_mode_on(model: StatisticalModel, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Surprise maximizer of a polynomial regression under A beta = b
    (A of full row rank)."""
    ex = model.extra
    XtX_inv, beta_hat = ex["XtX_inv"], ex["beta_hat"]
    n, k, s2 = ex["n"], ex["k"], ex["s2"]
    M = A @ XtX_inv @ A.T
    if np.linalg.matrix_rank(M) < len(A):
        raise ValueError("degenerate constraint direction")
    beta_tilde = beta_hat - XtX_inv @ A.T @ np.linalg.solve(M, A @ beta_hat - b)
    diff = beta_tilde - beta_hat
    quad = float(diff @ ex["XtX"] @ diff)
    sigma2 = ((n - k) * s2 + quad) / (n + 1)
    return np.concatenate([beta_tilde, [0.5 * math.log(sigma2)]])


def closed_form_constrained_mode(model: StatisticalModel, A, b=0.0) -> Optimum:
    """Constrained surprise maximizer of a polynomial-regression model under
    the linear equalities A beta = b; one row `a` gives a . beta = b.

    beta_tilde = beta_hat - (X'X)^-1 A' (A (X'X)^-1 A')^-1 (A beta_hat - b)
    projects beta_hat onto the constraints in the X'X metric; sigma_tilde
    maximizes the profile of the posterior exponent.
    """
    if model.family != "polynomial-regression":
        raise ValueError("closed form requires the polynomial-regression family")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.broadcast_to(np.asarray(b, dtype=float), (len(A),))
    theta = _regression_mode_on(model, A, b)
    k = model.extra["k"]
    eqs = tuple(lambda th, a=a, c=c: np.asarray(th)[..., : k + 1] @ a - c for a, c in zip(A, b))
    return _finish(model, Hypothesis(equalities=eqs, label="A.beta=b"), theta, "closed-form")


def _affine_system(H: Hypothesis):
    """(A, b, rows) for H's equalities when every one is affine, with the
    redundant rows dropped (`rows` indexes the kept ones), else None.

    Raises InfeasibleHypothesisError when A theta = b is inconsistent.
    """
    lins = H.linear_equalities
    if H.negated_of is not None or not lins or len(lins) != len(H.equalities):
        return None
    A = np.array([le.coeffs for le in lins])
    b = -np.array([le.offset for le in lins])
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    if np.linalg.norm(A @ x - b) > AFFINE_TOL * max(1.0, float(np.linalg.norm(b))):
        raise InfeasibleHypothesisError("the affine equalities are inconsistent")
    rows = []
    for i in range(len(A)):
        if np.linalg.matrix_rank(A[rows + [i]]) > len(rows):
            rows.append(i)
    return A[rows], b[rows], rows


def _exact_optimum(model: StatisticalModel, H: Hypothesis, affine) -> Optional[np.ndarray]:
    mode = model.mode if model.family in EXACT_MODE_FAMILIES else None
    if mode is not None and not H.equalities and bool(H.contains(mode)):
        return np.array(mode, dtype=float)
    if affine is None or H.inequalities:
        return None
    A, b, _ = affine
    if len(A) == model.space.dimension:
        # the constraints pin a unique point
        theta = np.linalg.solve(A, b)
        if not model.space.contains(theta):
            raise InfeasibleHypothesisError("pinned point outside parameter bounds")
        return theta
    if model.family == "polynomial-regression" and not A[:, -1].any():
        return _regression_mode_on(model, A[:, :-1], b)
    return None


# ---------------------------------------------------------------------------
# General path
# ---------------------------------------------------------------------------


def _starts(model, H, sample, cfg) -> list:
    """The best distinct posterior draws, members of H first, then the
    model's mode (the space's center when there is neither)."""
    starts = []
    if sample is not None and sample.size > 0 and cfg.restarts > 0:
        order = np.argsort(sample.log_surprise)[::-1]
        pool = sample.draws[order[: cfg.restarts * 4]]
        # a rejected Metropolis proposal repeats its draw; SLSQP is deterministic
        _, first = np.unique(pool, axis=0, return_index=True)
        pool = pool[np.sort(first)]
        if H.negated_of is not None or H.equalities or H.inequalities:
            member = H.contains(pool)
            pool = np.concatenate([pool[member], pool[~member]])
        starts.extend(pool[: cfg.restarts])
    if model.mode is not None:
        starts.append(np.asarray(model.mode, dtype=float))
    if not starts:
        starts.append(model.space.center())
    return starts


def _subproblems(H: Hypothesis, affine) -> list:
    """Hypotheses whose closures' suprema have H's supremum as their maximum."""
    inner = H.negated_of
    if inner is None:
        if affine is None:
            return [H]
        eqs = tuple(H.equalities[i] for i in affine[2])
        return [Hypothesis(inequalities=H.inequalities, equalities=eqs)]
    if inner.equalities:
        return [Hypothesis()]
    return [Hypothesis(inequalities=(lambda th, g=g: -g(th),)) for g in inner.inequalities]


def _slsqp(model, sub: Hypothesis, theta0, bounds) -> np.ndarray:
    def objective(theta):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = _surprise_at(model, theta)
        return -val if np.isfinite(val) else WALL

    cons = [{"type": "eq", "fun": h} for h in sub.equalities]
    cons += [{"type": "ineq", "fun": lambda th, g=g: -g(th)} for g in sub.inequalities]
    res = minimize(objective, theta0, method="SLSQP", bounds=bounds,
                   constraints=cons, options=SLSQP_OPTIONS)
    return res.x


def maximize_surprise(
    model: StatisticalModel,
    H: Hypothesis,
    sample: Optional[SurpriseSample] = None,
    cfg: Optional[OptimizerConfig] = None,
) -> Optimum:
    """sup of the surprise function over H, with the tangential point.

    Tries the exact rules first, then SLSQP from each start on each
    subproblem.  Raises InfeasibleHypothesisError when the affine equalities
    are inconsistent or no start reaches a feasible point.
    """
    cfg = cfg or OptimizerConfig()
    affine = _affine_system(H)
    exact = _exact_optimum(model, H, affine)
    if exact is not None:
        return _finish(model, H, exact, "closed-form")

    space = model.space
    finite = np.isfinite(space.lower) | np.isfinite(space.upper)
    bounds = Bounds(space.lower, space.upper) if finite.any() else None
    starts = _starts(model, H, sample, cfg)
    results = []
    for sub in _subproblems(H, affine):
        for theta0 in starts:
            theta = _slsqp(model, sub, theta0, bounds)
            if max(sub.residuals(theta)) <= EPS_OPT:
                results.append((_surprise_at(model, theta), theta))
    if not results:
        raise InfeasibleHypothesisError("no feasible point found for the hypothesis")
    best_val, best_theta = max(results, key=lambda r: r[0])
    if np.linalg.norm(best_theta) > 1e8:
        raise UnboundedSurpriseError("surprise keeps improving along a feasible ray")
    if not np.isfinite(best_val):
        if best_val == math.inf:
            raise UnboundedSurpriseError("surprise diverges on the hypothesis set")
        raise InfeasibleHypothesisError("no feasible point with finite surprise")
    return _finish(model, H, best_theta, "multistart", restarts=len(starts))
