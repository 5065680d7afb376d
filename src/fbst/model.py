"""Parametric Bayesian models, hypothesis constraint systems, built-in families.

All densities are handled as log-kernels, defined up to an additive constant;
the normalization constant of the posterior is never computed.  The default
reference density is flat (log r == 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .expressions import compile_expression, linear_coefficients

DEFAULT_EQ_TOL = 1e-9


class DomainError(ValueError):
    """Parameter vector outside the parameter-space bounds."""


class SingularDesignError(ValueError):
    """Design matrix X'X is numerically singular."""


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

    `log_kernel` and `log_reference` must accept arrays of shape (..., d)
    and return shape (...,).  A None reference means flat (log r == 0).
    """

    space: ParameterSpace
    log_kernel: Callable
    log_reference: Optional[Callable] = None
    family: str = "generic"
    mode: Optional[np.ndarray] = None
    proposal_chol: Optional[np.ndarray] = None
    extra: dict = field(default_factory=dict)

    def log_kernel_safe(self, theta) -> np.ndarray:
        """Kernel evaluation with -inf outside the bounds (no error)."""
        theta = np.asarray(theta, dtype=float)
        inside = self.space.contains(theta)
        out = np.full(np.shape(inside), -np.inf, dtype=float)
        if np.ndim(inside) == 0:
            if inside:
                val = self.log_kernel(theta)
                out = np.asarray(val, dtype=float)
                if not np.isfinite(out) and out != -np.inf:
                    out = np.array(-np.inf)
            return out[()] if out.ndim == 0 else out
        if inside.any():
            vals = np.asarray(self.log_kernel(theta[inside]), dtype=float)
            vals[~np.isfinite(vals)] = -np.inf
            out[inside] = vals
        return out

    def log_reference_at(self, theta) -> np.ndarray:
        if self.log_reference is None:
            theta = np.asarray(theta, dtype=float)
            return np.zeros(theta.shape[:-1])
        return np.asarray(self.log_reference(np.asarray(theta, dtype=float)), dtype=float)


def log_surprise(model: StatisticalModel, theta) -> np.ndarray:
    """log of the surprise function s(theta) = p_n(theta) / r(theta).

    Defined up to one model-wide additive constant; -inf wherever the
    posterior kernel vanishes.  Raises DomainError outside the bounds.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(model.space.contains(theta)):
        raise DomainError("parameter vector outside the parameter-space bounds")
    kern = np.asarray(model.log_kernel(theta), dtype=float)
    kern = np.where(np.isfinite(kern) | (kern == -np.inf), kern, -np.inf)
    ref = model.log_reference_at(theta)
    with np.errstate(invalid="ignore"):
        out = np.where(kern == -np.inf, -np.inf, kern - ref)
    return out[()] if np.ndim(out) == 0 else out


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

    def contains(self, theta, eq_tol: float = DEFAULT_EQ_TOL):
        """Membership test; eq_tol is the equality feasibility tolerance."""
        if eq_tol <= 0:
            raise ValueError("eq_tol must be positive")
        if self.negated_of is not None:
            return np.logical_not(self.negated_of.contains(theta, eq_tol))
        theta = np.asarray(theta, dtype=float)
        ok = np.ones(theta.shape[:-1], dtype=bool)
        for g in self.inequalities:
            ok &= np.asarray(g(theta), dtype=float) <= 0.0
        for h in self.equalities:
            ok &= np.abs(np.asarray(h(theta), dtype=float)) <= eq_tol
        return ok[()] if np.ndim(ok) == 0 else ok

    def residuals(self, theta):
        """(max |h_j|, max positive g_i) at theta; zeros when unconstrained, and
        a complement's against its closure (Theta, or the union of g_i >= 0)."""
        theta = np.asarray(theta, dtype=float)
        if self.negated_of is not None:
            inner = self.negated_of
            if inner.equalities:
                return 0.0, 0.0
            gap = min((-float(g(theta)) for g in inner.inequalities), default=np.inf)
            return 0.0, max(0.0, gap)
        eq = max((abs(float(h(theta))) for h in self.equalities), default=0.0)
        ineq = max((max(0.0, float(g(theta))) for g in self.inequalities), default=0.0)
        return eq, ineq


def complement(H: Hypothesis) -> Hypothesis:
    """The complement hypothesis, Theta minus H (involutive)."""
    if H.negated_of is not None:
        return H.negated_of
    return Hypothesis(negated_of=H, label=f"not({H.label})" if H.label else "complement")


def hypothesis_contains(H: Hypothesis, theta, eq_tol: float = DEFAULT_EQ_TOL):
    return H.contains(theta, eq_tol)


def point_hypothesis(point: Sequence[float], label: str = "") -> Hypothesis:
    """Sharp hypothesis pinning every coordinate: theta = point."""
    point = np.asarray(point, dtype=float)
    eqs = []
    lins = []
    for i, p in enumerate(point):
        eqs.append(lambda th, i=i, p=p: np.asarray(th)[..., i] - p)
        coef = np.zeros(point.size)
        coef[i] = 1.0
        lins.append(LinearEquality(coef, -p))
    return Hypothesis(equalities=tuple(eqs), linear_equalities=tuple(lins), label=label)


def coordinate_zero_hypothesis(index: int, dim: int, label: str = "") -> Hypothesis:
    """Sharp hypothesis theta_index = 0 in a dim-dimensional space."""
    coef = np.zeros(dim)
    coef[index] = 1.0
    eq = lambda th, i=index: np.asarray(th)[..., i]
    return Hypothesis(
        equalities=(eq,),
        linear_equalities=(LinearEquality(coef, 0.0),),
        label=label or f"theta_{index}=0",
    )


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def make_gaussian_mean_model(m: float, v: float) -> StatisticalModel:
    """1-D model with posterior N(m, v) and flat reference density."""
    if v <= 0:
        raise ValueError("variance must be positive")
    m, v = float(m), float(v)
    space = unbounded_space(("theta",))

    def kernel(theta):
        th = np.asarray(theta, dtype=float)[..., 0]
        return -((th - m) ** 2) / (2.0 * v)

    return StatisticalModel(
        space=space,
        log_kernel=kernel,
        family="gaussian-mean",
        mode=np.array([m]),
        proposal_chol=np.array([[math.sqrt(v)]]),
        extra={"mean": m, "variance": v},
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


def make_polynomial_regression_model(data: Dataset, k: int) -> StatisticalModel:
    """Polynomial regression of order k with the weakly informative 1/sigma prior.

    Parameters are (b0..bk, log_sigma); sigma is handled as log(sigma)
    internally so the space is unbounded.  The surprise function equals
    the posterior density in the (beta, sigma) coordinates.
    """
    x = data.column("x")
    y = data.column("y")
    n = data.n
    if n <= k + 2:
        raise ValueError("need n > k + 2 observations")
    X = polynomial_design(x, k)
    XtX = X.T @ X
    if np.linalg.cond(XtX) > 1e12:
        raise SingularDesignError("X'X is numerically singular")
    beta_hat = np.linalg.solve(XtX, X.T @ y)
    y_hat = X @ beta_hat
    ssr = float((y - y_hat) @ (y - y_hat))
    s2 = ssr / (n - k)
    names = tuple(f"b{i}" for i in range(k + 1)) + ("log_sigma",)
    space = unbounded_space(names)

    def log_surprise_fn(theta):
        # the density of the (beta, sigma) parameterization, evaluated at
        # sigma = exp(log_sigma); equals kernel minus reference below
        th = np.asarray(theta, dtype=float)
        beta = th[..., : k + 1]
        lam = th[..., k + 1]
        resid = (beta - beta_hat) @ X.T
        quad = (n - k) * s2 + (resid * resid).sum(axis=-1)
        return -(n + 1) * lam - 0.5 * np.exp(-2.0 * lam) * quad

    def kernel(theta):
        # Jacobian of sigma -> log_sigma folds into the kernel; the matching
        # reference term keeps the surprise reparameterization-invariant
        th = np.asarray(theta, dtype=float)
        return log_surprise_fn(th) + th[..., k + 1]

    def reference(theta):
        return np.asarray(theta, dtype=float)[..., k + 1]

    sigma_mode2 = (n - k) * s2 / (n + 1)
    mode = np.concatenate([beta_hat, [0.5 * math.log(sigma_mode2)]])
    cov_beta = s2 * np.linalg.inv(XtX)
    chol = np.zeros((k + 2, k + 2))
    chol[: k + 1, : k + 1] = np.linalg.cholesky(cov_beta + 1e-12 * np.eye(k + 1))
    chol[k + 1, k + 1] = math.sqrt(1.0 / (2.0 * (n - k)))
    return StatisticalModel(
        space=space,
        log_kernel=kernel,
        log_reference=reference,
        family="polynomial-regression",
        mode=mode,
        proposal_chol=chol,
        extra={
            "X": X,
            "y": y,
            "XtX": XtX,
            "XtX_inv": np.linalg.inv(XtX),
            "beta_hat": beta_hat,
            "s2": s2,
            "ssr": ssr,
            "k": k,
            "n": n,
        },
    )


# ---------------------------------------------------------------------------
# JSON model-spec interface
# ---------------------------------------------------------------------------


def hypothesis_from_spec(spec: dict, names: Sequence[str]) -> Hypothesis:
    """Build a Hypothesis from {"equalities": [...], "inequalities": [...]}."""
    if not isinstance(spec, dict):
        raise SpecError("hypothesis spec must be an object")
    eq_texts = spec.get("equalities", [])
    ineq_texts = spec.get("inequalities", [])
    eqs, lins, ineqs = [], [], []
    all_linear = True
    for text in eq_texts:
        fn = compile_expression(text, names)
        eqs.append(fn)
        lin = linear_coefficients(fn, len(names))
        if lin is None:
            all_linear = False
        else:
            lins.append(LinearEquality(lin[0], lin[1]))
    for text in ineq_texts:
        ineqs.append(compile_expression(text, names))
    return Hypothesis(
        inequalities=tuple(ineqs),
        equalities=tuple(eqs),
        linear_equalities=tuple(lins) if (all_linear and eqs) else None,
        label=" & ".join(list(map(str, eq_texts)) + list(map(str, ineq_texts))),
    )


def model_from_spec(spec: dict, data: Optional[Dataset] = None):
    """Build (model, hypothesis-or-None) from a JSON model spec dict."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise SpecError("model spec must be an object with a 'family' field")
    family = spec["family"]
    if family == "gaussian-mean":
        try:
            model = make_gaussian_mean_model(spec["mean"], spec["variance"])
        except KeyError as exc:
            raise SpecError(f"gaussian-mean spec missing field {exc}") from exc
    elif family == "polynomial-regression":
        if data is None:
            if "data" not in spec:
                raise SpecError("polynomial-regression spec needs a dataset")
            rows = np.asarray(spec["data"], dtype=float)
            data = Dataset(rows, ("x", "y"))
        try:
            model = make_polynomial_regression_model(data, int(spec["order"]))
        except KeyError as exc:
            raise SpecError(f"polynomial-regression spec missing field {exc}") from exc
    elif family == "generic":
        try:
            names = tuple(spec["coordinates"])
            kernel_text = spec["log_kernel"]
        except KeyError as exc:
            raise SpecError(f"generic spec missing field {exc}") from exc
        bounds = spec.get("bounds")
        if bounds is None:
            space = unbounded_space(names)
        else:
            arr = [
                [-math.inf if b[0] is None else float(b[0]),
                 math.inf if b[1] is None else float(b[1])]
                for b in bounds
            ]
            lows = np.array([b[0] for b in arr])
            highs = np.array([b[1] for b in arr])
            space = ParameterSpace(names, lows, highs)
        kernel = compile_expression(kernel_text, names)
        ref_text = spec.get("log_reference")
        reference = compile_expression(ref_text, names) if ref_text else None
        model = StatisticalModel(space=space, log_kernel=kernel, log_reference=reference)
    else:
        raise SpecError(f"unknown model family {family!r}")
    hyp = None
    if "hypothesis" in spec:
        hyp = hypothesis_from_spec(spec["hypothesis"], model.space.names)
    return model, hyp
