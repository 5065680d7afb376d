"""Truth function estimation as a condensed step ladder, plus ladder algebra.

A TruthLadder is a right-continuous step CDF of the log-surprise value under
the posterior: W(v) = max{w_i : v_i <= v}, 0 below the first support point.
Support values are stored in log space throughout.
Empirical and convolved ladders take one sort and one cumulative sum, and
are condensed to n_max points before a TruthLadder is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import SurpriseSample


@dataclass(frozen=True)
class TruthLadder:
    """Step-function CDF on log-surprise support points."""

    log_v: np.ndarray  # strictly increasing support (log values)
    w: np.ndarray  # non-decreasing cumulative masses, last == 1
    provenance: str = "empirical"  # empirical | convolved | analytic

    def __post_init__(self):
        log_v = np.asarray(self.log_v, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "log_v", log_v)
        object.__setattr__(self, "w", w)
        if log_v.ndim != 1 or log_v.shape != w.shape or log_v.size == 0:
            raise ValueError("ladder needs matching 1-D support and mass arrays")
        if log_v.size > 1 and not np.all(np.diff(log_v) > 0):
            raise ValueError("support values must be strictly increasing")
        if np.any(np.diff(w) < 0) or w[0] < 0 or abs(w[-1] - 1.0) > 1e-12:
            raise ValueError("masses must be non-decreasing in [0, 1] ending at 1")

    @property
    def size(self) -> int:
        return self.log_v.size

    def atom_masses(self) -> np.ndarray:
        return np.diff(np.concatenate([[0.0], self.w]))

    def to_csv(self, path) -> None:
        np.savetxt(
            path,
            np.column_stack([self.log_v, self.w]),
            delimiter=",",
            header="log_v,w",
            comments="",
        )


def eval_truth(ladder: TruthLadder, log_v) -> np.ndarray:
    """Right-continuous evaluation W(v) at log-scale query points."""
    q = np.asarray(log_v, dtype=float)
    idx = np.searchsorted(ladder.log_v, q, side="right")
    padded = np.concatenate([[0.0], ladder.w])
    out = padded[idx]
    # +inf queries always see full mass, -inf none
    out = np.where(np.isposinf(q), 1.0, out)
    out = np.where(np.isneginf(q), 0.0, out)
    return out[()] if np.ndim(out) == 0 else out


def _condensed_index(w: np.ndarray, n_max: int):
    """Indices of the first crossing of each level j/n_max by the masses w;
    every index when w already has at most n_max points."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if w.size <= n_max:
        return slice(None)
    idx = np.searchsorted(w, np.arange(1, n_max + 1) / n_max - 1e-15, side="left")
    return np.unique(np.minimum(idx, w.size - 1))


def _ladder_from_sorted(log_v: np.ndarray, masses: np.ndarray, n_max: int, provenance: str) -> TruthLadder:
    """Ladder of at most n_max points from sorted support values (ties
    allowed) and their masses, condensed without building the full ladder."""
    new_run = log_v[1:] != log_v[:-1]
    if not new_run.all():
        # a run of equal values is summed first, then joins the running mass
        starts = np.flatnonzero(np.append(True, new_run))
        log_v, masses = log_v[starts], np.add.reduceat(masses, starts)
    w = np.cumsum(masses)
    w /= w[-1]
    idx = _condensed_index(w, n_max)
    return TruthLadder(log_v[idx], w[idx], provenance)


def condense(ladder: TruthLadder, n_max: int) -> TruthLadder:
    """Reduce a ladder to at most n_max support points.

    Keeps quantile-spaced supports (first crossing of each level j/n_max)
    with masses snapped to the input CDF there; sup-norm error <= 1/n_max;
    idempotent when the input already fits.
    """
    idx = _condensed_index(ladder.w, n_max)
    if ladder.size <= n_max:
        return ladder
    return TruthLadder(ladder.log_v[idx], ladder.w[idx], ladder.provenance)


def estimate_truth_ladder(sample: SurpriseSample, n_max: int = 512) -> TruthLadder:
    """Empirical CDF of the per-draw log-surprise values, condensed to n_max."""
    if sample.size == 0:
        raise ValueError("empty sample")
    if sample.size < n_max:
        raise ValueError("sample smaller than the condensation bound")
    values = np.sort(sample.log_surprise)
    return _ladder_from_sorted(values, np.ones(values.size), n_max, "empirical")


def sup_distance(a: TruthLadder, b: TruthLadder) -> float:
    """Sup-norm distance between two step ladders."""
    grid = np.union1d(a.log_v, b.log_v)
    diff = np.abs(eval_truth(a, grid) - eval_truth(b, grid))
    # also compare just below each jump point
    below = np.nextafter(grid, -np.inf)
    diff_below = np.abs(eval_truth(a, below) - eval_truth(b, below))
    return float(max(diff.max(), diff_below.max()))
