"""Constrained maximization of the surprise function over a hypothesis set.

s* = sup over H of the surprise, found by the first rule that applies:

- exact feasibility: when every equality is affine (`linear_equalities`),
  `np.linalg.lstsq` on A theta = b checks the system; an inconsistent one
  raises InfeasibleHypothesisError at once, and redundant rows are dropped;
- mode in H: when H has no equalities and contains the maximizer over
  Theta that the model's `closed_form` gives (`fbst.model.exact_mode`),
  that is the answer, since sup_H s <= sup_Theta s = s(mode); the
  residuals that decide membership are the optimum's;
- affine closed forms: equalities that pin one point, and otherwise the
  maximizer over A theta = b that `closed_form` gives where the model has
  one (any consistent A beta = b on a polynomial regression's beta block);
- everything else: scipy's SLSQP from the best posterior draws and the
  model's mode, within the space's bounds, on each piece of `H.closure()`
  (for a complement, Theta or one {g_i >= 0} per inequality); the best end
  point whose `Hypothesis.residuals` (NaN read as +inf) are within EPS_OPT wins.
  SLSQP's objective, for one point and for a gradient's batch alike, is
  `_losses`: -log s from `StatisticalModel.log_surprise_safe`, with
  s = +inf read as the best value (-WALL) and s = 0 or NaN as WALL.
  Its gradients come from batched difference quotients: one call of the
  objective or of a constraint on x and the d points x + h e_i, equal to
  scipy's own 2-point quotients (`_forward_differences`).

What depends on H alone (the affine reduction, an inconsistent one
included, the pinned point, the reduced system and a complement's closure
pieces) is analysed once per Hypothesis and kept on it
(`Hypothesis.affine_system`, `pinned_point`, `reduced`, `closure`), so
a hypothesis tested against many posteriors pays for it once; what depends
on the model, such as whether the pinned point lies within the bounds, is
checked on every call, by `check_hypothesis`, which the CLI also runs
before it samples.

scipy.optimize is imported by the SLSQP path only, so `import fbst` and the
exact rules run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .model import (
    Hypothesis,
    InfeasibleHypothesisError,
    StatisticalModel,
    affine_hypothesis,
    exact_mode,
)
from .sampler import SurpriseSample

EPS_OPT = 1e-8
SLSQP_OPTIONS = {"ftol": 1e-12, "maxiter": 500}
# finite stand-in for -log s where s vanishes (e.g. log(0) on a closed
# bound, or an overflow far out), and -WALL where s = +inf, so that SLSQP's
# line search and difference quotients stay finite
WALL = 1e10
# scipy's SLSQP default difference step, sqrt of the float64 epsilon
STEP = math.sqrt(np.finfo(float).eps)


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


def _on_bound(theta, bounds) -> bool:
    """`np.isclose(theta, bounds).any()`, written out for one point:
    |t - b| <= 1e-8 + 1e-5 |b| at a finite bound b, t == b at an infinite
    one; a NaN coordinate is on no bound."""
    for t, b in zip(theta.tolist(), bounds.tolist()):
        if (abs(t - b) <= 1e-8 + 1e-5 * abs(b)) if math.isfinite(b) else t == b:
            return True
    return False


def _finish(model, H, theta, method, restarts=0, residuals=None) -> Optimum:
    """The Optimum at theta; `residuals`, when given, are H's at theta."""
    theta = np.asarray(theta, dtype=float)
    eq_res, ineq_res = H.residuals(theta) if residuals is None else residuals
    at_boundary = _on_bound(theta, model.space.lower) or _on_bound(theta, model.space.upper)
    return Optimum(
        log_s_star=float(model.log_surprise_safe(theta)),
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


def closed_form_constrained_mode(model: StatisticalModel, A, b=0.0) -> Optimum:
    """Constrained surprise maximizer under the linear equalities A beta = b
    on the coordinates before the last (a polynomial regression's beta
    block); one row `a` gives a . beta = b.  The closed form is the model's
    own `closed_form`; a model without one raises ValueError.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    A = np.column_stack([A, np.zeros(len(A))])
    theta = exact_mode(model, A, b)
    if theta is None:
        raise ValueError("the model has no closed form under A beta = b")
    return _finish(model, affine_hypothesis(A, b, "A.beta=b"), theta, "closed-form")


def check_hypothesis(model: StatisticalModel, H: Hypothesis) -> Optional[tuple]:
    """H's affine system (`Hypothesis.affine_system`), after the checks that
    need no sample: InfeasibleHypothesisError when A theta = b is
    inconsistent, or when its rows pin a point outside the model's bounds.
    Callers run it before they sample."""
    affine = H.affine_system()
    if (affine is not None and len(affine[0]) == model.space.dimension
            and not model.space.contains(H.pinned_point)):
        raise InfeasibleHypothesisError("pinned point outside parameter bounds")
    return affine


def _exact_optimum(model: StatisticalModel, H: Hypothesis, affine) -> Optional[tuple]:
    """(theta, H's residuals at theta or None) from an exact rule, or None."""
    if not H.equalities:
        mode = exact_mode(model)
        if mode is None:
            return None
        theta = np.array(mode, dtype=float)
        if H.negated_of is not None:
            return (theta, None) if H.contains(theta) else None
        # without equalities, H contains theta iff no inequality is violated
        residuals = H.residuals(theta)
        return (theta, residuals) if residuals[1] <= 0.0 else None
    if affine is None or H.inequalities:
        return None
    A, b, _ = affine
    if len(A) == model.space.dimension:
        # the constraints pin a unique point, within the bounds (`check_hypothesis`)
        return H.pinned_point.copy(), None
    theta = exact_mode(model, A, b)
    return None if theta is None else (theta, None)


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
        pool = pool[np.argsort(~H.contains(pool), kind="stable")]
        starts.extend(pool[: cfg.restarts])
    if model.mode is not None:
        starts.append(np.asarray(model.mode, dtype=float))
    if not starts:
        starts.append(model.space.center())
    return starts


def _subproblems(H: Hypothesis, affine) -> tuple:
    """Plain hypotheses whose suprema have H's supremum as their maximum:
    H's closure, with only the independent affine rows kept."""
    return H.closure() if affine is None else (H.reduced,)


def _losses(model, thetas: np.ndarray) -> np.ndarray:
    """SLSQP's objective, -log s, at one point or at each row of thetas:
    -WALL where s = +inf, the best value, and WALL where s vanishes or is NaN."""
    loss = -model.log_surprise_safe(thetas)
    return np.where(np.isfinite(loss), loss, np.where(loss < 0, -WALL, WALL))[()]


def _forward_differences(fun, lower, upper):
    """`jac=` for SLSQP: the gradient of the batched function `fun` from one
    call on x and the d points x + h_i e_i. It equals scipy's default, the
    2-point quotient of `approx_derivative` with absolute step sqrt(eps):
    x is clipped into the bounds, h_i is relative where x_i + h_i rounds to
    x_i, flipped or cut to the bound where x_i + h_i leaves the bounds, and
    the quotient is taken over dx_i = (x_i + h_i) - x_i."""
    d = lower.size

    def jac(x):
        x = np.minimum(np.maximum(x, lower), upper)
        sign = np.where(x >= 0, 1.0, -1.0)
        h = np.where((x + STEP) - x == 0, STEP * sign * np.maximum(1.0, np.abs(x)), STEP)
        below, above = x - lower, upper - x
        fitting = np.abs(h) <= np.maximum(below, above)
        h = np.where(((x + h < lower) | (x + h > upper)) & fitting, -h, h)
        h = np.where(fitting, h, np.where(above >= below, above, -below))
        ahead = x + h
        points = np.empty((d + 1, d))
        points[:] = x
        points.reshape(-1)[d :: d + 1] = ahead  # row i + 1 moves coordinate i
        f = np.empty(d + 1)
        f[:] = fun(points)
        return (f[1:] - f[0]) / (ahead - x)

    return jac


def _slsqp(model, sub: Hypothesis, theta0, bounds) -> np.ndarray:
    # local: only this path uses scipy.optimize, and it slows `import fbst`
    from scipy.optimize import minimize

    def clipped(g):
        # an infinite inequality (a closure piece where g_i is NaN) reads as WALL
        return lambda th: -np.clip(g(th), -WALL, WALL)

    lower, upper = model.space.lower, model.space.upper
    funs = [("eq", h) for h in sub.equalities] + [("ineq", clipped(g)) for g in sub.inequalities]
    cons = [{"type": kind, "fun": f, "jac": _forward_differences(f, lower, upper)} for kind, f in funs]
    loss = partial(_losses, model)
    with np.errstate(all="ignore"):
        res = minimize(loss, theta0, method="SLSQP", jac=_forward_differences(loss, lower, upper),
                       bounds=bounds, constraints=cons, options=SLSQP_OPTIONS)
    return res.x


def maximize_surprise(
    model: StatisticalModel,
    H: Hypothesis,
    sample: Optional[SurpriseSample] = None,
    cfg: Optional[OptimizerConfig] = None,
) -> Optimum:
    """sup of the surprise function over H, with the tangential point.

    Tries the exact rules first, then SLSQP from each start on each
    subproblem.  Raises InfeasibleHypothesisError when `check_hypothesis`
    does or no start reaches a feasible point.
    """
    cfg = cfg or OptimizerConfig()
    affine = check_hypothesis(model, H)
    exact = _exact_optimum(model, H, affine)
    if exact is not None:
        theta, residuals = exact
        return _finish(model, H, theta, "closed-form", residuals=residuals)

    # local, as in `_slsqp`: the exact rules above need no scipy.optimize
    from scipy.optimize import Bounds

    space = model.space
    finite = np.isfinite(space.lower) | np.isfinite(space.upper)
    bounds = Bounds(space.lower, space.upper) if finite.any() else None
    starts = _starts(model, H, sample, cfg)
    results = []
    for sub in _subproblems(H, affine):
        for theta0 in starts:
            theta = _slsqp(model, sub, theta0, bounds)
            if max(sub.residuals(theta)) <= EPS_OPT:
                results.append((float(model.log_surprise_safe(theta)), theta))
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
