"""Compositional calculus: Mellin convolution of truth ladders and
conjunctive/disjunctive e-values over parallel-serial hypothesis networks.

All arithmetic is carried in log space: products of surprise values become
sums of log-supports, so k-fold products cannot underflow. Composite
e-values read the last convolution at their query points (`convolved_truth`)
instead of building the joint ladder. A network of sampled models
(`analyze_models`) needs no ladder: it counts its joint sample.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SpecError, hypothesis_from_spec, model_from_spec
from .optimizer import check_hypothesis, maximize_surprise
from .sampler import SamplerConfig, sample_posterior
from .truth import TruthLadder, _ladder_from_sorted, condense, eval_truth, sample_truth

DEFAULT_PAIR_BUDGET = 2 ** 20
_SIDE_CAP = math.isqrt(DEFAULT_PAIR_BUDGET)  # points per side of one convolution


class MissingComponentError(ValueError):
    """A conjunctive row references a slot without an optimum."""


def mellin_convolve(w1: TruthLadder, w2: TruthLadder, n_max: int = 512) -> TruthLadder:
    """CDF ladder of the product of two independent ladder variables.

    Pairwise products of atoms (log-supports added, masses multiplied),
    condensed to n_max points. Each side is first condensed to
    isqrt(DEFAULT_PAIR_BUDGET) points, so that at most DEFAULT_PAIR_BUDGET
    pairs are formed. The pair sums are ordered by one in-place sort of
    int64 keys (`_stable_pair_order`): the sum, quantized monotonically, in
    the high bits and the flat pair index in the low bits, so exact ties
    come out in pair-index order. Distinct sums that share a quantum are
    put in exact order by a stable argsort, run only when an inversion is
    left. The order is that of a stable argsort of the sums, infinite
    supports included, and so is the ladder, bit for bit. Finite sums in
    distinct quanta have no ties, and only their kept supports are formed.
    """
    w1c, w2c = condense(w1, _SIDE_CAP), condense(w2, _SIDE_CAP)
    a, b = w1c.log_v, w2c.log_v
    sums, index, sorted_sums = _stable_pair_order(a, b)
    # the masses' outer product reuses the sums' row, now gathered
    np.multiply.outer(w1c.atom_masses(), w2c.atom_masses(), out=sums.reshape(a.size, b.size))
    if sorted_sums is not None:
        return _ladder_from_sorted(sorted_sums, np.take(sums, index), n_max, "convolved")
    masses = np.take(sums, index, out=sums.base[1], mode="clip")  # into the free row

    def support(kept):  # the kept pairs' sums, the bits of np.add.outer's
        i, j = np.divmod(index[kept], b.size)
        return a[i] + b[j]

    return _ladder_from_sorted(None, masses, n_max, "convolved", support)


def _stable_pair_order(a: np.ndarray, b: np.ndarray):
    """(sums, order, sums[order]) for the pair sums (a[:, None] + b[None, :])
    .ravel() of two increasing supports and their stable argsort `order`,
    from one in-place sort of int64 keys: the pair index in the low
    bit_length(N - 1) bits and, above them, the sum quantized as
    (sum - least finite sum) * scale, monotone in the sum.  None stands for
    sums[order] when the sums are finite and in distinct quanta (so
    increasing), and the block's middle row is then free.

    The three are rows of one block, so that the caller holds at most four
    pair-sized arrays at once, and so that glibc's malloc reuses the block
    from one call to the next, where it maps fresh pages for three separate
    arrays on every call."""
    work = np.empty((3, a.size * b.size))
    sums, gathered, key = work[0], work[1], work[2].view(np.int64)
    np.add.outer(a, b, out=sums.reshape(a.size, b.size))
    bits = max(1, (sums.size - 1).bit_length())
    top = 2.0 ** (61 - bits)  # finite sums quantize into [0, top (1 + 4 eps)]
    fa, fb = a[np.isfinite(a)], b[np.isfinite(b)]
    lo = span = 0.0
    if fa.size and fb.size:
        # fl(x + y) is monotone in x and in y: the extreme finite sums
        lo = float(fa[0] + fb[0])
        span = float(fa[-1] + fb[-1]) - lo
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite span
        np.subtract(sums, lo, out=gathered)
        gathered *= top / span if 0.0 < span < math.inf else 0.0
    nonfinite = fa.size < a.size or fb.size < b.size or span == math.inf
    if nonfinite:
        # -inf shares key 0 with the least finite sum (the repair below
        # orders them); +inf and then NaN rank above every finite sum
        np.nan_to_num(gathered, copy=False, nan=3 * top, posinf=2 * top, neginf=0.0)
    key[:] = gathered
    key <<= bits
    grid = key.reshape(a.size, b.size)
    grid += (np.arange(a.size, dtype=np.int64) * b.size)[:, None]
    grid += np.arange(b.size, dtype=np.int64)
    key.sort()
    quanta = np.right_shift(key, bits, out=gathered.view(np.int64))
    key &= (1 << bits) - 1
    if not nonfinite and np.all(quanta[1:] != quanta[:-1]):
        return sums, key, None
    # mode="clip" (every index is in range) writes into `out` directly,
    # where "raise" would fill a pair-sized temporary first
    np.take(sums, key, out=gathered, mode="clip")
    if not np.all(gathered[1:] >= gathered[:-1]):
        # distinct sums that share a quantum (or a NaN sum): a stable
        # argsort of the nearly sorted sums keeps ties in index order; the
        # reordered keys go to the gathered sums' row, and the sums are
        # gathered again into the old keys' row
        order = np.argsort(gathered, kind="stable")
        np.take(key, order, out=gathered.view(np.int64), mode="clip")
        key, gathered = gathered.view(np.int64), key.view(np.float64)
        np.take(sums, key, out=gathered, mode="clip")
    return sums, key, gathered


def convolve_all(ladders: Sequence[TruthLadder], n_max: int = 512) -> TruthLadder:
    """Balanced-tree reduction of a k-fold Mellin convolution (fixed shape)."""
    items = list(ladders)
    if not items:
        raise ValueError("need at least one ladder")
    while len(items) > 1:
        pairs = [mellin_convolve(a, b, n_max) for a, b in zip(items[::2], items[1::2])]
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


def convolved_truth(ladders: Sequence[TruthLadder], log_v, n_max: int = 512) -> np.ndarray:
    """W(v) of the k-fold Mellin convolution of `ladders` at each query v.

    The balanced tree of `convolve_all` runs to its last level, where two
    ladders are left, and those two are read at the queries, not
    convolved: W(v) = sum_i m_i W_B(v - a_i) over the atoms (a_i, m_i) of
    the left ladder, its masses normalized by their total as a convolved
    ladder's are. Each side is first condensed to isqrt(DEFAULT_PAIR_BUDGET)
    points, as `mellin_convolve` condenses it. W_B is read at the count of
    b_j with fl(a_i + b_j) <= v, the pair sums that `mellin_convolve`
    forms, found by a bisection on that predicate (`_pair_counts`). A
    search of b for v - a_i, even with a check of its neighbours, can miss
    such pairs: when b is tiny next to a, many b round a + b to a. So the
    value is the final ladder's without its condensation to n_max: it lies
    at or above `eval_truth(convolve_all(ladders, n_max), v)` and within
    1/n_max of it. Against the uncondensed composition, the error is that
    of the k ladders' own condensations and the k - 2 inner ones,
    (2k - 2)/n_max, where the full joint ladder carries (2k - 1)/n_max.
    One ladder is read by `eval_truth`; as there, +inf queries read 1,
    -inf queries 0, and a NaN query (a row whose log-optima sum -inf and
    +inf) raises ValueError.
    """
    v = np.atleast_1d(np.asarray(log_v, dtype=float))
    if np.isnan(v).any():
        raise ValueError("truth function queried at NaN")
    k = len(ladders)
    if k == 1:
        return np.atleast_1d(eval_truth(ladders[0], v))
    # the last level of convolve_all's tree: the first 2^m ladders
    # (2^m < k <= 2^(m+1)) against the rest, each reduced by the same tree
    half = 1 << ((k - 1).bit_length() - 1)
    left = condense(convolve_all(ladders[:half], n_max), _SIDE_CAP)
    right = condense(convolve_all(ladders[half:], n_max), _SIDE_CAP)
    masses = left.atom_masses()
    below = np.concatenate([[0.0], right.w])[_pair_counts(left.log_v, right.log_v, v)]
    # a row that counts every pair sums the same terms as the total, in the
    # same order, and so reads exactly 1
    out = (below * masses).sum(axis=1) / (right.w[-1] * masses).sum()
    # as eval_truth reads them
    out[np.isposinf(v)] = 1.0
    out[np.isneginf(v)] = 0.0
    return out


def _pair_counts(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """count[q, i] = #{j : fl(a[i] + b[j]) <= v[q]} for an increasing b.

    fl(a_i + b_j) is monotone in b_j, so the pairs counted are a prefix of
    b. A branchless bisection on that predicate, one array step per bit
    of b.size: each step adds a power of two to every count whose last
    counted pair it would still include. b is padded with NaN, whose sums
    compare False, so that no probe leaves the array."""
    top = 1 << b.size.bit_length()
    padded = np.full(top, np.nan)
    padded[:b.size] = b
    count = np.zeros((v.size, a.size), dtype=np.intp)
    step = top >> 1
    while step:
        fits = padded[count + (step - 1)] + a <= v[:, None]
        np.add(count, step, out=count, where=fits)
        step >>= 1
    return count


def conjunctive_evalue(c: CompositeStructure, row: int = 0, n_max: int = 512) -> float:
    """e-value of the conjunction in disjunct `row`: W(sum of log-optima).

    `convolved_truth` reads the convolution's last tree level at the query
    exactly, counting the pair sums fl(a_i + b_j) <= v by bisection (a
    neighbour check after a search for v - a_i misses sums that round down
    to v), so the error is (2k - 2)/n_max, not the joint ladder's
    (2k - 1)/n_max."""
    grid = c.log_s_star[row]
    if np.any(np.isnan(grid)):
        raise MissingComponentError(f"row {row} has missing component optima")
    with np.errstate(invalid="ignore"):  # -inf + inf is NaN, which convolved_truth rejects
        total = np.sum(grid)
    return float(convolved_truth(c.ladders, total, n_max)[0])


def disjunctive_evalue(c: CompositeStructure, n_max: int = 512) -> float:
    """max over disjunct rows of the conjunctive e-values.

    One `convolved_truth` call reads every row: the convolution's last tree
    level is read exactly at each row's query, counting the pair sums
    fl(a_i + b_j) <= v by bisection (a neighbour check after a search for
    v - a_i misses sums that round down to v), so the error is
    (2k - 2)/n_max, not the joint ladder's (2k - 1)/n_max."""
    # an unconstrained slot contributes the component's global supremum
    tops = np.array([lad.log_v[-1] for lad in c.ladders])
    grid = np.where(np.isnan(c.log_s_star), tops, c.log_s_star)
    with np.errstate(invalid="ignore"):  # as in conjunctive_evalue
        totals = grid.sum(axis=1)
    return float(np.max(convolved_truth(c.ladders, totals, n_max)))


# ---------------------------------------------------------------------------
# Network spec (serial models x disjunct rows of hypotheses)
# ---------------------------------------------------------------------------


def network_models(spec: dict) -> tuple:
    """(models, disjunct rows) of a network spec, each serial slot's model
    built once and each row's hypotheses compiled against its slot's
    coordinates (None for an unconstrained slot); raises SpecError when the
    spec is malformed.

    Spec shape: {"serial": [model specs], "disjuncts": [[hyp or null, ...]]}.
    """
    if not isinstance(spec, dict) or "serial" not in spec or "disjuncts" not in spec:
        raise SpecError("network spec needs 'serial' and 'disjuncts' fields")
    serial, rows = spec["serial"], spec["disjuncts"]
    if not isinstance(serial, list) or not serial:
        raise SpecError("'serial' must be a non-empty list of model specs")
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and len(r) == len(serial) for r in rows)):
        raise SpecError("each disjunct row must list one hypothesis per serial slot")
    models = [model_from_spec(ms)[0] for ms in serial]
    return models, [[None if h is None else hypothesis_from_spec(h, m.space.names)
                     for h, m in zip(row, models)] for row in rows]


def analyze_models(models, rows, sampler_cfg=None):
    """(log_s_star grid of shape (q, k), disjunctive e-value) of the network
    that `network_models` returned as (models, rows of compiled hypotheses).

    Slot j is sampled with seed + j from one SamplerConfig, so every slot
    has the same M draws, and draw i of every slot, taken together, is a
    draw of the joint posterior: iid pairs for exact draws, a stationary
    joint chain for the Metropolis samplers.  Row r's e-value is then the
    joint sample's own count, #{i : sum_j log s_j,i <= q_r} / M
    (`sample_truth`), where q_r sums the row's constrained log s*_j and,
    for each unconstrained slot, that slot's largest sampled log s; the
    disjunctive e-value is the rows' maximum.  No ladder is built: one slot
    reads what `evalue` reads on the same model, hypothesis and config.
    `check_hypothesis` runs on every hypothesis before any sampling.
    """
    for row in rows:
        for H, m in zip(row, models):
            if H is not None:
                check_hypothesis(m, H)
    cfg = sampler_cfg or SamplerConfig()
    samples = [sample_posterior(m, dataclasses.replace(cfg, seed=cfg.seed + j))
               for j, m in enumerate(models)]
    grid = np.full((len(rows), len(models)), np.nan)
    for i, row in enumerate(rows):
        for j, H in enumerate(row):
            if H is not None:
                grid[i, j] = maximize_surprise(models[j], H, samples[j]).log_s_star
    tops = [s.log_surprise.max() for s in samples]
    # both sums add the slots in order, so a row of every slot's top reads 1;
    # -inf + inf is NaN, which sample_truth rejects
    with np.errstate(invalid="ignore"):
        totals = sum(np.where(np.isnan(grid), tops, grid).T)
        joint = sum(s.log_surprise for s in samples)
    return grid, max(sample_truth(joint, q) for q in totals)


def analyze_network(spec: dict, sampler_cfg=None):
    """(log_s_star grid, disjunctive e-value) of a network spec dict; see
    `network_models` for the spec and `analyze_models` for the count."""
    return analyze_models(*network_models(spec), sampler_cfg)
