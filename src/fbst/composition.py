"""Compositional calculus: Mellin convolution of truth ladders and
conjunctive/disjunctive e-values over parallel-serial hypothesis networks.

All arithmetic is carried in log space: products of surprise values become
sums of log-supports, so k-fold products cannot underflow.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SpecError, hypothesis_from_spec, model_from_spec
from .optimizer import maximize_surprise
from .sampler import SamplerConfig, sample_posterior
from .truth import TruthLadder, _ladder_from_sorted, condense, estimate_truth_ladder, eval_truth

DEFAULT_PAIR_BUDGET = 2 ** 20


class MissingComponentError(ValueError):
    """A conjunctive row references a slot without an optimum."""


def mellin_convolve(
    w1: TruthLadder,
    w2: TruthLadder,
    n_max: int = 512,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> TruthLadder:
    """CDF ladder of the product of two independent ladder variables.

    Pairwise products of atoms (log-supports added, masses multiplied),
    sorted once and condensed to n_max points.
    """
    cap = max(2, int(math.isqrt(pair_budget)))
    w1c, w2c = condense(w1, cap), condense(w2, cap)
    sums = (w1c.log_v[:, None] + w2c.log_v[None, :]).ravel()
    masses = (w1c.atom_masses()[:, None] * w2c.atom_masses()[None, :]).ravel()
    order = np.argsort(sums)
    return _ladder_from_sorted(sums[order], masses[order], n_max, "convolved")


def convolve_all(
    ladders: Sequence[TruthLadder],
    n_max: int = 512,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> TruthLadder:
    """Balanced-tree reduction of a k-fold Mellin convolution (fixed shape)."""
    items = list(ladders)
    if not items:
        raise ValueError("need at least one ladder")
    while len(items) > 1:
        pairs = [mellin_convolve(a, b, n_max, pair_budget) for a, b in zip(items[::2], items[1::2])]
        items = pairs + items[2 * len(pairs):]
    return items[0]


@dataclass(frozen=True)
class CompositeStructure:
    """k serial component ladders with a q x k grid of component log-optima.

    NaN entries in `log_s_star` mark slots a disjunct leaves unconstrained;
    they evaluate at the component's global supremum.
    """

    ladders: tuple
    log_s_star: np.ndarray  # shape (q, k)

    def __post_init__(self):
        object.__setattr__(self, "ladders", tuple(self.ladders))
        grid = np.atleast_2d(np.asarray(self.log_s_star, dtype=float))
        object.__setattr__(self, "log_s_star", grid)
        if len(self.ladders) < 1 or grid.shape[0] < 1:
            raise ValueError("need k >= 1 components and q >= 1 disjuncts")
        if grid.shape[1] != len(self.ladders):
            raise ValueError("optimum grid width must match the component count")

    @property
    def k(self) -> int:
        return len(self.ladders)

    @property
    def q(self) -> int:
        return self.log_s_star.shape[0]


def conjunctive_evalue(c: CompositeStructure, row: int = 0, n_max: int = 512) -> float:
    """e-value of the conjunction in disjunct `row`: W(sum of log-optima)."""
    grid = c.log_s_star[row]
    if np.any(np.isnan(grid)):
        raise MissingComponentError(f"row {row} has missing component optima")
    joint = convolve_all(c.ladders, n_max)
    return float(eval_truth(joint, float(np.sum(grid))))


def disjunctive_evalue(c: CompositeStructure, n_max: int = 512) -> float:
    """max over disjunct rows of the conjunctive e-values."""
    joint = convolve_all(c.ladders, n_max)
    # an unconstrained slot contributes the component's global supremum
    tops = np.array([lad.log_v[-1] for lad in c.ladders])
    best = 0.0
    for i in range(c.q):
        grid = np.where(np.isnan(c.log_s_star[i]), tops, c.log_s_star[i])
        best = max(best, float(eval_truth(joint, float(np.sum(grid)))))
    return best


# ---------------------------------------------------------------------------
# Network spec (serial models x disjunct rows of hypotheses)
# ---------------------------------------------------------------------------


def analyze_network(
    spec: dict,
    sampler_cfg=None,
    n_max: int = 512,
):
    """Build a CompositeStructure from a network spec dict and return
    (structure, disjunctive e-value).

    Spec shape: {"serial": [model specs], "disjuncts": [[hyp or null, ...]]}.
    """
    if not isinstance(spec, dict) or "serial" not in spec or "disjuncts" not in spec:
        raise SpecError("network spec needs 'serial' and 'disjuncts' fields")
    models = [model_from_spec(ms)[0] for ms in spec["serial"]]
    k = len(models)
    rows = spec["disjuncts"]
    if not rows or any(len(r) != k for r in rows):
        raise SpecError("each disjunct row must list one hypothesis per serial slot")
    cfg = sampler_cfg or SamplerConfig()
    ladders, samples = [], []
    for j, m in enumerate(models):
        s = sample_posterior(m, dataclasses.replace(cfg, seed=cfg.seed + j))
        samples.append(s)
        ladders.append(estimate_truth_ladder(s, n_max))
    grid = np.full((len(rows), k), np.nan)
    for i, row in enumerate(rows):
        for j, hyp_spec in enumerate(row):
            if hyp_spec is None:
                continue
            H = hypothesis_from_spec(hyp_spec, models[j].space.names)
            opt = maximize_surprise(models[j], H, samples[j])
            grid[i, j] = opt.log_s_star
    structure = CompositeStructure(tuple(ladders), grid)
    return structure, disjunctive_evalue(structure, n_max)
