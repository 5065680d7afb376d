"""Parametric Bayesian models, hypothesis constraint systems, built-in families.

All densities are handled as log-kernels, defined up to an additive constant;
the normalization constant of the posterior is never computed.  The default
reference density is flat (log r == 0).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .expressions import compile_expression, linear_coefficients

DEFAULT_EQ_TOL = 1e-9
AFFINE_TOL = 1e-9  # relative least-squares residual of a consistent A theta = b
# The independence sampler's t degrees of freedom; the fixed pilot of t
# proposals on which a generic model's Laplace fit is gated; and the largest
# Pareto k-hat of the pilot's weights at which the fit is kept (Vehtari et
# al. 2024: above 0.7, the weights' tails are too heavy)
NU = 4
PILOT = 4096
KHAT_MAX = 0.7


class DomainError(ValueError):
    """Parameter vector outside the parameter-space bounds."""


class SingularDesignError(ValueError):
    """Design matrix numerically singular: cond(R) > 1e6 for X = QR."""


class InfeasibleHypothesisError(ValueError):
    """No feasible point of the hypothesis set could be found."""


class SpecError(ValueError):
    """Malformed JSON model/network specification."""


@dataclass(frozen=True)
class ParameterSpace:
    """The parameter space: dimension, per-coordinate bounds, names."""

    names: tuple
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(self.names) < 1:
            raise ValueError("parameter space needs dimension >= 1")
        if lower.shape != (len(self.names),) or upper.shape != (len(self.names),):
            raise ValueError("bounds must match the coordinate count")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be below its upper bound")

    @property
    def dimension(self) -> int:
        return len(self.names)

    def contains(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return np.all((theta >= self.lower) & (theta <= self.upper), axis=-1)

    def center(self) -> np.ndarray:
        lo = np.where(np.isfinite(self.lower), self.lower, -1.0)
        hi = np.where(np.isfinite(self.upper), self.upper, 1.0)
        mid = 0.5 * (lo + hi)
        # one-sided bounds: stay a unit inside the finite side
        one_low = np.isfinite(self.lower) & ~np.isfinite(self.upper)
        one_high = ~np.isfinite(self.lower) & np.isfinite(self.upper)
        mid[one_low] = self.lower[one_low] + 1.0
        mid[one_high] = self.upper[one_high] - 1.0
        return mid


def unbounded_space(names: Sequence[str]) -> ParameterSpace:
    d = len(names)
    return ParameterSpace(tuple(names), np.full(d, -np.inf), np.full(d, np.inf))


@dataclass(frozen=True)
class StatisticalModel:
    """Parameter space + log-posterior kernel + log-reference density.

    `log_kernel` and `log_reference` must accept arrays of any leading
    shape (..., d) and return shape (...,).  A None reference means flat
    (log r == 0).  The random-walk sampler calls the kernel on speculative
    batches of shape (chains * PREFETCH * (1 + PREFETCH2), d), many of
    whose rows no chain moves to, so a kernel must be pure: no side
    effects, and no dependence on earlier calls.  `proposal_chol` is any
    factor C with C C' equal to the random walk's proposal covariance, not
    necessarily a lower-triangular Cholesky factor; the polynomial
    regression's is upper triangular.  `mode` is where the random walk's
    chains and the optimizer's last start begin.

    Two closures, set by the built-in builders, carry a family's exact
    calculus.  `closed_form(A=None, b=0.0)` returns the exact surprise
    maximizer over Theta when A is None, or over A theta = b (A 2-D, of
    full row rank), and None where the model has no closed form; without
    it (a generic model) `mode` is only a start.  `draw(rng, size)`
    returns `size` iid points of the posterior as a (size, d) array, read
    from the numpy Generator `rng`; a model that sets it is sampled by
    these exact draws.  `laplace = (center, factor)` is a mode and a C with
    C C' = (-Hessian of the log-kernel)^-1 there; `model_from_spec` sets it
    on a generic model whose `_laplace_fit` passes the Pareto k-hat gate on
    a fixed pilot (`_gated_fit`), so the build alone picks the sampler: a
    model with `laplace` set is sampled by independence Metropolis-Hastings.
    Any other model, `dataclasses.replace(model, draw=None, laplace=None)`
    included, is sampled by the random walk.

    The one evaluation rule, for one point or any batch: `log_kernel_safe`
    is -inf outside the bounds and where the kernel is NaN or +inf, and
    `log_surprise_safe` is kernel - reference where that is above -inf
    (+inf where the reference is -inf) and -inf elsewhere.  Neither raises.
    """

    space: ParameterSpace
    log_kernel: Callable
    log_reference: Optional[Callable] = None
    mode: Optional[np.ndarray] = None
    proposal_chol: Optional[np.ndarray] = None
    closed_form: Optional[Callable] = None
    draw: Optional[Callable] = None
    laplace: Optional[tuple] = None

    def log_kernel_safe(self, theta) -> np.ndarray:
        """The rule's log-kernel; log(0) and NaN are values here, so numpy
        does not warn of them (an overflow still warns)."""
        theta = np.asarray(theta, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = _on_rows(self.space.contains(theta), self.log_kernel, theta, -np.inf)
        return np.where(np.isfinite(vals), vals, -np.inf)[()]

    def log_surprise_safe(self, theta) -> np.ndarray:
        """The rule's log s; the reference is evaluated only where the
        kernel is above -inf."""
        theta = np.asarray(theta, dtype=float)
        kern = self.log_kernel_safe(theta)
        with np.errstate(divide="ignore"):
            ref = _on_rows(kern > -np.inf, self.log_reference_at, theta, 0.0)
        return (kern - ref)[()]

    def log_reference_at(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.log_reference is None:
            return np.zeros(theta.shape[:-1])
        return np.asarray(self.log_reference(theta), dtype=float)


def _on_rows(live, fn, theta, fill) -> np.ndarray:
    """fn at the rows of theta where `live` holds, `fill` elsewhere; fn gets
    theta itself when all are live, so one point reaches it as one vector."""
    if live.all():
        return np.asarray(fn(theta), dtype=float)
    out = np.full(live.shape, fill)
    if live.any():
        out[live] = fn(theta[live])
    return out


def _crude_mode_search(model: StatisticalModel, start: np.ndarray, iters: int = 100) -> np.ndarray:
    """Coordinate search for a rough posterior mode (initialization only)."""
    theta = start.astype(float).copy()
    step = np.ones(theta.size)
    best = float(model.log_kernel_safe(theta))
    for _ in range(iters):
        improved = False
        for i in range(theta.size):
            for sign in (1.0, -1.0):
                cand = theta.copy()
                cand[i] += sign * step[i]
                val = float(model.log_kernel_safe(cand))
                if val > best:
                    theta, best = cand, val
                    improved = True
        if not improved:
            step *= 0.5
            if np.all(step < 1e-10):
                break
    return theta


def _laplace_fit(model: StatisticalModel):
    """(center, factor) of the kernel's Laplace approximation, or None:
    Newton's method from the space's center, else from `_crude_mode_search`'s
    point, with gradient g and Hessian H by central differences from one
    kernel call an iterate on a stencil of 1 + 2d + 2d(d - 1) points, and a
    step that does not ascend halved.  It ends where -H = L L' and
    g' (-H)^-1 g < 1e-10, with factor L^-T.  Warns of nothing."""
    d = model.space.dimension
    eye = np.eye(d)
    i, j = np.triu_indices(d, 1)
    sign = np.array([1.0, -1.0])[:, None, None, None]
    # 0, +e_i, -e_i, then s e_i + t e_j for i < j and (s, t) in ++, +-, -+, --
    stencil = np.concatenate([np.zeros((1, d)), eye, -eye,
                              (sign * eye[i] + sign.swapaxes(0, 1) * eye[j]).reshape(-1, d)])
    center = model.space.center()
    with np.errstate(all="ignore"):
        for x in (center, None):
            x = _crude_mode_search(model, center) if x is None else x
            best, step = -math.inf, np.zeros(d)
            for _ in range(60):
                h = 1e-4 * np.maximum(1.0, np.abs(x))
                f = model.log_kernel_safe(x + stencil * h)
                if not f[0] > best:  # no ascent: halve the step back
                    if not step.any():
                        break
                    step /= 2.0
                    x = x - step
                    continue
                plus, minus = f[1 : d + 1], f[d + 1 : 2 * d + 1]
                cross = f[2 * d + 1 :].reshape(2, 2, -1)
                grad = (plus - minus) / (2.0 * h)
                neg_hess = np.diag((2.0 * f[0] - plus - minus) / (h * h))
                neg_hess[i, j] = neg_hess[j, i] = (
                    cross[0, 1] + cross[1, 0] - cross[0, 0] - cross[1, 1]) / (4.0 * h[i] * h[j])
                if not (np.all(np.isfinite(neg_hess)) and np.all(np.isfinite(grad))):
                    break
                try:
                    chol = np.linalg.cholesky(neg_hess)
                except np.linalg.LinAlgError:
                    break
                step = np.linalg.solve(neg_hess, grad)
                if grad @ step < 1e-10:
                    return x, np.linalg.inv(chol).T
                best, x = f[0], x + step
    return None


def t_proposal(center, factor, z, g):
    """(x, log q): t proposals x = m + (z C') sqrt(NU / g) at a Laplace fit
    (center m, factor C) from normals z (..., d) and g ~ chi2(NU) (...), and
    log q = -(NU + d)/2 log1p(|z|^2 / g), their log density up to a constant."""
    x = center + (z @ factor.T) * np.sqrt(NU / g)[..., None]
    return x, -0.5 * (NU + z.shape[-1]) * np.log1p(np.einsum("...i,...i->...", z, z) / g)


def _pareto_khat(log_w: np.ndarray) -> float:
    """Pareto k-hat of the weights exp(log_w), a non-finite value read as
    weight 0: the shape of a generalized Pareto fit to the excesses of the
    largest M = ceil(min(0.2 S, 3 sqrt(S))) of the S weights over the next,
    by Zhang & Stephens' (2009) profile likelihood with the weak prior of
    PSIS (Vehtari et al. 2024); +inf when fewer than 5 excesses are left."""
    x = np.sort(np.where(np.isfinite(log_w), log_w, -np.inf))
    if not x[-1] > -np.inf:
        return math.inf
    x -= x[-1]
    tail_len = math.ceil(min(0.2 * x.size, 3.0 * math.sqrt(x.size)))
    cutoff = max(x[-tail_len - 1], math.log(np.finfo(float).tiny))
    tail = np.exp(x[x > cutoff]) - math.exp(cutoff)
    n = tail.size
    if n < 5:
        return math.inf
    m = 30 + math.isqrt(n)
    grid = 1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))
    theta = 1.0 / tail[-1] + grid / (3.0 * tail[(n + 2) // 4 - 1])  # scaled by the first quartile
    k = np.log1p(-theta[:, None] * tail).mean(axis=1)
    profile = n * (np.log(-theta / k) - k - 1.0)
    weight = np.exp(profile - profile.max())
    k_hat = np.log1p(-(weight @ theta / weight.sum()) * tail).mean()
    return (n * k_hat + 5.0) / (n + 10.0)


def _gated_fit(model: StatisticalModel):
    """`_laplace_fit`'s (center, factor) if the Pareto k-hat of the weights
    kernel / q of PILOT t proposals from it, read from `default_rng(0)`, is
    at most KHAT_MAX; else None.  Warns of nothing."""
    fit = _laplace_fit(model)
    if fit is None:
        return None
    rng = np.random.default_rng(0)
    z = rng.standard_normal((PILOT, model.space.dimension))
    with np.errstate(all="ignore"):
        x, log_q = t_proposal(*fit, z, rng.chisquare(NU, PILOT))
        khat = _pareto_khat(model.log_kernel_safe(x) - log_q)
    return fit if khat <= KHAT_MAX else None


def log_surprise(model: StatisticalModel, theta) -> np.ndarray:
    """log of the surprise function s(theta) = p_n(theta) / r(theta).

    Defined up to one model-wide additive constant; `log_surprise_safe`'s
    values.  Raises DomainError outside the bounds.
    """
    if not np.all(model.space.contains(theta)):
        raise DomainError("parameter vector outside the parameter-space bounds")
    return model.log_surprise_safe(theta)


@dataclass(frozen=True)
class LinearEquality:
    """Affine equality constraint coeffs . theta + offset = 0."""

    coeffs: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))


@dataclass(frozen=True)
class Hypothesis:
    """Constraint system g(theta) <= 0, h(theta) = 0 over the parameter space.

    `negated_of` marks the hypothesis as the set-complement of another one,
    in which case the constraint lists are ignored for membership.

    What depends on the hypothesis alone (its affine reduction, pinned
    point, reduced system, complement and a complement's closure pieces) is
    computed on first use and kept on the instance.  It is no field, so
    equality and hashing ignore it.
    """

    inequalities: tuple = ()
    equalities: tuple = ()
    linear_equalities: Optional[tuple] = None
    negated_of: Optional["Hypothesis"] = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        if self.linear_equalities is not None:
            object.__setattr__(self, "linear_equalities", tuple(self.linear_equalities))

    @property
    def q(self) -> int:
        if self.negated_of is not None:
            return 0
        return len(self.equalities)

    @property
    def is_sharp(self) -> bool:
        return self.q >= 1

    def hdim(self, t: int) -> int:
        h = t - self.q
        if h < 0:
            raise ValueError("more equality constraints than dimensions")
        return h

    def residuals(self, theta):
        """(max |h_j|, max(0, g_i)) at theta, of shape theta.shape[:-1] (floats
        for one point); a NaN constraint value reads as +inf.  A complement's
        residuals are the least over the pieces of its closure."""
        theta = np.asarray(theta, dtype=float)
        eq = ineq = np.zeros(theta.shape[:-1])
        if self.negated_of is not None:  # each piece is Theta or one inequality
            ineq = np.full(eq.shape, np.inf)
            for piece in self.closure():
                ineq = np.minimum(ineq, piece.residuals(theta)[1])
        else:
            with np.errstate(all="ignore"):
                for h in self.equalities:
                    eq = np.maximum(eq, np.abs(np.asarray(h(theta), dtype=float)))
                for g in self.inequalities:
                    ineq = np.maximum(ineq, np.asarray(g(theta), dtype=float))
            eq, ineq = np.fmin(eq, np.inf), np.fmin(ineq, np.inf)  # fmin(NaN, inf) is inf
        return (float(eq), float(ineq)) if theta.ndim == 1 else (eq, ineq)

    def contains(self, theta):
        """Membership test; equalities hold to within DEFAULT_EQ_TOL."""
        if self.negated_of is not None:
            return np.logical_not(self.negated_of.contains(theta))
        eq, ineq = self.residuals(theta)
        return np.logical_and(eq <= DEFAULT_EQ_TOL, ineq <= 0.0)

    def closure(self) -> tuple:
        """Plain hypotheses whose union is the closure: the set itself; for a
        complement, Theta if the negated set has an equality, else {g_i >= 0},
        where a NaN g_i counts as inside, as it does for `contains`."""
        return (self,) if self.negated_of is None else self._pieces

    @cached_property
    def _complement(self) -> "Hypothesis":
        return Hypothesis(negated_of=self, label=f"not({self.label})" if self.label else "complement")

    @cached_property
    def _pieces(self) -> tuple:
        # a complement's closure pieces
        inner = self.negated_of
        if inner.equalities:
            return (Hypothesis(),)
        return tuple(Hypothesis(inequalities=(lambda th, g=g: -np.fmin(g(th), np.inf),))
                     for g in inner.inequalities)

    def affine_system(self) -> Optional[tuple]:
        """(A, b, rows) for the equalities when every one is affine, with the
        redundant rows dropped (`rows` indexes the kept ones), else None; a
        complement has none.  Raises InfeasibleHypothesisError, on every
        call, when A theta = b is inconsistent."""
        if self._affine is False:
            raise InfeasibleHypothesisError("the affine equalities are inconsistent")
        return self._affine

    @cached_property
    def _affine(self):
        # `affine_system`'s value, or False for an inconsistent system
        lins = self.linear_equalities
        if self.negated_of is not None or not lins or len(lins) != len(self.equalities):
            return None
        A = np.array([le.coeffs for le in lins])
        b = -np.array([le.offset for le in lins])
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        if np.linalg.norm(A @ x - b) > AFFINE_TOL * max(1.0, float(np.linalg.norm(b))):
            return False
        rows = []
        for i in range(len(A)):
            if np.linalg.matrix_rank(A[rows + [i]]) > len(rows):
                rows.append(i)
        return A[rows], b[rows], rows

    @cached_property
    def pinned_point(self) -> np.ndarray:
        """The one point of A theta = b when the independent affine rows are
        as many as the coordinates (read-only: copy it to hand it out)."""
        A, b, _ = self.affine_system()
        theta = np.linalg.solve(A, b)
        theta.flags.writeable = False
        return theta

    @cached_property
    def reduced(self) -> "Hypothesis":
        """H with only its independent affine rows (`affine_system`)."""
        rows = self.affine_system()[2]
        return Hypothesis(self.inequalities, tuple(self.equalities[i] for i in rows))


def complement(H: Hypothesis) -> Hypothesis:
    """The complement hypothesis, Theta minus H (involutive): the same
    object on every call, so its closure pieces are built once."""
    if H.negated_of is not None:
        return H.negated_of
    return H._complement


def hypothesis_contains(H: Hypothesis, theta):
    return H.contains(theta)


def affine_hypothesis(A, b, label: str = "") -> Hypothesis:
    """Sharp hypothesis A theta = b, one equality per row of A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.broadcast_to(np.asarray(b, dtype=float), (len(A),))
    # only the nonzero coefficients: a unit row reads one coordinate
    eqs = tuple(lambda th, a=a, c=c, nz=np.flatnonzero(a): np.asarray(th)[..., nz] @ a[nz] - c
                for a, c in zip(A, b))
    lins = tuple(LinearEquality(a, -c) for a, c in zip(A, b))
    return Hypothesis(equalities=eqs, linear_equalities=lins, label=label)


def point_hypothesis(point: Sequence[float], label: str = "") -> Hypothesis:
    """Sharp hypothesis pinning every coordinate: theta = point."""
    return affine_hypothesis(np.eye(len(point)), point, label)


def coordinate_zero_hypothesis(index: int, dim: int, label: str = "") -> Hypothesis:
    """Sharp hypothesis theta_index = 0 in a dim-dimensional space."""
    return affine_hypothesis(np.eye(dim)[index], 0.0, label or f"theta_{index}=0")


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def make_gaussian_mean_model(m: float, v: float) -> StatisticalModel:
    """1-D model with posterior N(m, v) and flat reference density."""
    m, v = float(m), float(v)
    if not math.isfinite(m):
        raise ValueError("mean must be finite")
    if not 0.0 < v < math.inf:
        raise ValueError("variance must be positive and finite")
    space = unbounded_space(("theta",))
    neg_2v, sd = -2.0 * v, math.sqrt(v)

    def kernel(theta):
        # -((theta - m)**2) / (2v) bit for bit: **2 is a square, and IEEE
        # division is symmetric in sign
        dev = np.asarray(theta, dtype=float)[..., 0] - m
        dev *= dev
        dev /= neg_2v
        return dev

    def draw(rng, size):
        theta = rng.standard_normal((size, 1))
        theta *= sd
        theta += m
        return theta

    mode = np.array([m])
    return StatisticalModel(
        space=space,
        log_kernel=kernel,
        mode=mode,
        proposal_chol=np.array([[sd]]),
        closed_form=lambda A=None, b=0.0: mode if A is None else None,
        draw=draw,
    )


def gaussian_mean_evalue_oracle(m: float, v: float, theta_h: float) -> float:
    """Analytic e-value for H: theta = theta_h under a N(m, v) posterior."""
    z = abs(theta_h - m) / math.sqrt(v)
    return math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class Dataset:
    """Observation matrix, n rows by s columns, with column names."""

    values: np.ndarray
    columns: tuple

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", tuple(self.columns))
        if values.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if values.shape[1] != len(self.columns):
            raise ValueError("column names must match the column count")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset entries must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValueError(f"dataset has no column {name!r}; its columns are {', '.join(self.columns)}")
        return self.values[:, self.columns.index(name)]

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(values, tuple(h.strip() for h in header))

    def to_csv(self, path) -> None:
        np.savetxt(path, self.values, delimiter=",", header=",".join(self.columns), comments="")


def polynomial_design(x: np.ndarray, k: int) -> np.ndarray:
    return np.vander(np.asarray(x, dtype=float), k + 1, increasing=True)


def least_squares(data: Dataset, k: int):
    """Order-k least-squares fit of y on x: (X, R, R^-1, beta_hat, ssr).

    From one QR factorization X = QR, R's diagonal made positive, so that
    R' is the Cholesky factor of X'X, which is never formed; beta_hat
    solves R beta = Q'y (Bjorck, Numerical Methods for Least Squares
    Problems, 1996, ch. 2).  Raises ValueError unless 0 <= k < n - 2, and
    SingularDesignError when cond(X'X) = cond(R)^2 > 1e12.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    if data.n <= k + 2:
        raise ValueError("need n > k + 2 observations")
    X = polynomial_design(data.column("x"), k)
    y = data.column("y")
    Q, R = np.linalg.qr(X)
    if np.linalg.cond(R) > 1e6:  # cond(X'X) = cond(R)^2 > 1e12
        raise SingularDesignError("X'X is numerically singular")
    # R is triangular, so solve and inv never pivot; R's row signs do not change beta_hat
    beta_hat = np.linalg.solve(R, Q.T @ y)
    R *= np.where(np.diag(R) < 0.0, -1.0, 1.0)[:, None]
    resid = y - X @ beta_hat
    return X, R, np.linalg.inv(R), beta_hat, float(resid @ resid)


def _inexact(fit):
    """A `least_squares` fit, unless SSR = 0: there the posterior is improper."""
    if fit[-1] == 0.0:
        raise ValueError(f"order {fit[3].size - 1} fits the data exactly (SSR = 0), "
                         "so the 1/sigma posterior is improper")
    return fit


def make_polynomial_regression_model(data: Dataset, k: int) -> StatisticalModel:
    """Polynomial regression of order k with the weakly informative 1/sigma
    prior: `_regression_model` on `least_squares(data, k)`.  Raises as
    `least_squares` does, and ValueError when SSR = 0."""
    return _regression_model(data.n, _inexact(least_squares(data, k)))


def _regression_model(n: int, fit) -> StatisticalModel:
    """The order-k polynomial regression on n observations from its
    `least_squares` fit (X, R, R^-1, beta_hat, ssr), with ssr > 0.

    Parameters are (b0..bk, log_sigma); sigma is handled as log(sigma)
    internally so the space is unbounded.  The surprise function equals
    the posterior density in the (beta, sigma) coordinates.  All of it
    reads that X = QR: the random walk's beta block is
    sqrt(s2) R^-1, an upper-triangular factor of s2 (X'X)^-1, and `draw` is
    the exact posterior (Gelman et al., Bayesian Data Analysis, 3rd ed.,
    14.2): sigma^2 = SSR / g with g ~ chi2(n - k - 1), then
    beta = beta_hat + sigma z' R^-T with z ~ N(0, I), of covariance
    sigma^2 R^-1 R^-T = sigma^2 (X'X)^-1 given sigma.

    With lam = log_sigma, the log-kernel is
    -n lam - exp(-2 lam) (SSR + |X (beta - beta_hat)|^2) / 2, the Jacobian
    of sigma -> lam folded in; the reference lam takes it out again, so the
    surprise stays reparameterization-invariant.  One (k+2)-square product
    w = (theta - (beta_hat, 0)) blockdiag(R', -2) gives both
    z = (beta - beta_hat) R', of norm |X (beta - beta_hat)|, and
    w_lam = -2 lam: the kernel is -(exp(w_lam) (SSR + |z|^2) - n w_lam) / 2.
    """
    _, R, R_inv, beta_hat, ssr = fit
    k = beta_hat.size - 1
    space = unbounded_space([f"b{i}" for i in range(k + 1)] + ["log_sigma"])
    shift = np.append(beta_hat, 0.0)
    factor = np.zeros((k + 2, k + 2))
    factor[: k + 1, : k + 1] = R.T
    factor[k + 1, k + 1] = -2.0

    def kernel(theta):
        # beta_hat goes before the product: (beta - beta_hat) R' is accurate
        # where beta R' - beta_hat R' would cancel
        x = np.asarray(theta, dtype=float) - shift
        # w column-major, so that cols[j], coordinate j's values over the
        # batch (its axes reversed; val.T restores them), is contiguous
        w = np.matmul(x, factor, out=np.empty(x.shape, order="F"))
        cols = w.T
        w_lam = cols[k + 1].copy()  # a view, and w is squared next
        w *= w
        # over a batch, one pass adds the squared columns left to right: for
        # up to 7 terms the bits of sum(axis=-1) on each row, in any layout
        val = cols[: k + 1].sum(axis=0)
        val += ssr
        val *= np.exp(w_lam)
        w_lam *= n
        val -= w_lam
        val *= -0.5
        return val.T

    def reference(theta):
        return np.asarray(theta, dtype=float)[..., k + 1]

    mode = np.concatenate([beta_hat, [0.5 * math.log(ssr / (n + 1))]])
    chol = np.zeros((k + 2, k + 2))
    chol[: k + 1, : k + 1] = math.sqrt(ssr / (n - k)) * R_inv
    chol[k + 1, k + 1] = math.sqrt(1.0 / (2.0 * (n - k)))

    def closed_form(A=None, b=0.0):
        """Under A theta = b with A's log_sigma column zero (A beta = b):
        beta_tilde = beta_hat - G (A G)^-1 (A beta_hat - b), with
        G = R^-1 (A R^-1)' = (X'X)^-1 A', projects beta_hat onto the
        constraints in the X'X metric, and sigma_tilde maximizes the profile
        of the posterior exponent.  Raises ValueError when A G is singular."""
        if A is None:
            return mode
        if A[:, -1].any():
            return None
        A = A[:, :-1]
        G = R_inv @ (A @ R_inv).T
        M = A @ G
        if np.linalg.matrix_rank(M) < len(A):
            raise ValueError("degenerate constraint direction")
        beta_tilde = beta_hat - G @ np.linalg.solve(M, A @ beta_hat - b)
        z = R @ (beta_tilde - beta_hat)
        return np.concatenate([beta_tilde, [0.5 * math.log((ssr + float(z @ z)) / (n + 1))]])

    def draw(rng, size):
        sigma = np.sqrt(ssr / rng.chisquare(n - k - 1, size))
        # column-major: each coordinate's draws are one contiguous column,
        # which the scale, the shift and the kernel's column sum run along
        theta = np.empty((size, k + 2), order="F")
        beta = theta[:, : k + 1]
        np.matmul(rng.standard_normal((size, k + 1)), R_inv.T, out=beta)
        beta *= sigma[:, None]
        beta += beta_hat
        np.log(sigma, out=theta[:, k + 1])
        return theta

    return StatisticalModel(
        space=space,
        log_kernel=kernel,
        log_reference=reference,
        mode=mode,
        proposal_chol=chol,
        closed_form=closed_form,
        draw=draw,
    )


def exact_mode(model: StatisticalModel, A=None, b=0.0) -> Optional[np.ndarray]:
    """`model.closed_form(A, b)`, or None for a model without one."""
    return None if model.closed_form is None else model.closed_form(A, b)


# ---------------------------------------------------------------------------
# JSON model-spec interface
# ---------------------------------------------------------------------------


def _texts(value, field: str) -> tuple:
    """A spec's list of strings; raises SpecError for any other value."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise SpecError(f"{field!r} must be a list of strings")
    return tuple(value)


def _number(spec: dict, field: str, kind=numbers.Real):
    """spec[field], a number of type `kind` (a bool is none); raises
    SpecError naming the field when it is missing or of another type."""
    if field not in spec:
        raise SpecError(f"{spec['family']} spec missing field {field!r}")
    value = spec[field]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SpecError(f"{field!r} must be {'an integer' if kind is numbers.Integral else 'a number'}")
    return value


def hypothesis_from_spec(spec: dict, names: Sequence[str]) -> Hypothesis:
    """Build a Hypothesis from {"equalities": [...], "inequalities": [...]}."""
    if not isinstance(spec, dict):
        raise SpecError("hypothesis spec must be an object")
    eq_texts = _texts(spec.get("equalities", []), "equalities")
    ineq_texts = _texts(spec.get("inequalities", []), "inequalities")
    eqs = [compile_expression(text, names) for text in eq_texts]
    lins = [linear_coefficients(fn, len(names)) for fn in eqs]
    return Hypothesis(
        inequalities=tuple(compile_expression(text, names) for text in ineq_texts),
        equalities=tuple(eqs),
        linear_equalities=(tuple(LinearEquality(*lin) for lin in lins)
                           if eqs and all(lin is not None for lin in lins) else None),
        label=" & ".join(eq_texts + ineq_texts),
    )


def model_from_spec(spec: dict, data: Optional[Dataset] = None):
    """Build (model, hypothesis-or-None) from a JSON model spec dict."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise SpecError("model spec must be an object with a 'family' field")
    family = spec["family"]
    if family == "gaussian-mean":
        model = make_gaussian_mean_model(_number(spec, "mean"), _number(spec, "variance"))
    elif family == "polynomial-regression":
        if data is None:
            if "data" not in spec:
                raise SpecError("polynomial-regression spec needs a dataset")
            try:
                rows = np.asarray(spec["data"], dtype=float)
            except (TypeError, ValueError) as exc:
                raise SpecError("'data' must be rows of numbers") from exc
            data = Dataset(rows, ("x", "y"))
        model = make_polynomial_regression_model(data, int(_number(spec, "order", numbers.Integral)))
    elif family == "generic":
        try:
            names = _texts(spec["coordinates"], "coordinates")
            kernel_text = spec["log_kernel"]
        except KeyError as exc:
            raise SpecError(f"generic spec missing field {exc}") from exc
        bounds = spec.get("bounds")
        bounds = [[None, None]] * len(names) if bounds is None else bounds
        if not (isinstance(bounds, list) and len(bounds) == len(names) and all(
                isinstance(b, list) and len(b) == 2 and all(v is None or type(v) in (int, float) for v in b)
                for b in bounds)):
            raise SpecError(f"'bounds' must be {len(names)} [low, high] pairs of numbers or nulls")
        lows, highs = np.array([[-math.inf if lo is None else lo, math.inf if hi is None else hi]
                                for lo, hi in bounds], dtype=float).T
        space = ParameterSpace(names, lows, highs)
        kernel = compile_expression(kernel_text, names)
        ref_text = spec.get("log_reference")
        reference = compile_expression(ref_text, names) if ref_text else None
        model = StatisticalModel(space=space, log_kernel=kernel, log_reference=reference)
        model = replace(model, laplace=_gated_fit(model))
    else:
        raise SpecError(f"unknown model family {family!r}")
    hyp = None
    if "hypothesis" in spec:
        hyp = hypothesis_from_spec(spec["hypothesis"], model.space.names)
    return model, hyp
