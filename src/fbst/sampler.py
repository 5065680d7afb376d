"""Seeded posterior sampling and basic convergence diagnostics.

The model picks the sampler: exact iid draws on a model that sets `draw`
(the built-in families), independence Metropolis-Hastings on one that sets
`laplace` (a generic spec model whose Laplace fit passed its gate at build),
random-walk Metropolis on any other.  Each chain draws its randomness from
its own child of `SeedSequence(seed).spawn(chains)`, so serial and
(hypothetical) parallel execution produce bit-identical output for a fixed
model and configuration, and chain c's draws do not depend on how many
chains run.

The two Metropolis samplers lay out their randomness alike: chain c's child
seed spawns one generator per variable, read CHUNK steps at a time, so the
buffers take O(CHUNK x chains x d) memory whatever the step count, and a
run with more draws, and the same burn-in, seed and chains, begins with the
shorter run's draws.  Exact draws have no such prefix: the regression's
`draw` reads all its chi-squares, then its normals.

Exact draws.  Chain c takes `draws` points from one call of the model's
`draw` on `default_rng(SeedSequence(seed).spawn(chains)[c])`; there is no
burn-in or proposal scale, and every draw counts as accepted.  The sample
is marked `iid`, so its effective sample size is its size.
One kernel call on all chains' points gives their log-kernels.  A model
whose `draw` returns column-major arrays (the polynomial regression's) gets
a column-major `SurpriseSample.draws`, of the same (M, d) shape.

Independence Metropolis-Hastings.  The proposal q is `t_proposal`'s t at
the fit (center m).  Its generators hold the normals, the chi-squares and
the log-uniforms.  A chain starts at m; a step accepts iff
log u < w - w_current, w = log kernel - log q.  Both Metropolis samplers
keep the state after every post-burn-in step (`_retain`).

Random-walk Metropolis.  Its generators hold the proposal normals and the
acceptance uniforms.

Each chunk's moves, scaled by each chain's current proposal scale, sit in
one per-chain moves buffer, and each chain's log-uniforms are converted to
Python floats once a chunk.  The sampler then runs rounds, each one kernel
call on a two-level tree of proposals per chain.  Level 1 is the chain's
next `PREFETCH` moves m_{p+j} added to its current point x; while a chain
rejects, x does not change, so these are the proposals a step-by-step loop
would make.  Level 2 holds, for each level-1 position j, the next
`PREFETCH2` moves added to fl(x + m_{p+j}), the point the chain reaches if
it accepts at j: the same bits the loop would add.  Each chain, on its own,
takes level 1 up to its first acceptance at j, then row j of level 2 up to
its next acceptance, so a round consumes up to two acceptances.  Either
run stops at the end of the chain's window: the chunk's end and, during
burn-in, the chain's next 50-step adaptation point, so the scale is fixed
within it; a burn-in end between two such points changes no scale and ends
no window.  Each chain logs the steps it accepted and their log-kernels,
and at the chunk's end a cumulative sum of the accepted moves from its
chunk-start state repeats the loop's additions.
The draws therefore equal, bit for bit, those of generating each segment
in one call and stepping one step at a time, provided the kernel gives a
point the same value in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .model import NU, StatisticalModel, _crude_mode_search, t_proposal

# Steps of randomness generated at a time; bounds the sampler's random
# buffers and changes no draw.
CHUNK = 1024
# Level-1 proposals per chain in one kernel call, and level-2 proposals
# after each of them; neither changes a draw.  (6, 4) was the fastest pair
# of a sweep over (4, 3) to (12, 8), and beats one level of 8 on
# constrained-ev's generic models (see the README's Sampling section).
PREFETCH = 6
PREFETCH2 = 4


class SamplerStuckError(RuntimeError):
    """Chain rejected every proposal after adaptation."""


class InitializationError(RuntimeError):
    """Posterior kernel not finite at the initial point."""


class DegenerateSeriesError(ValueError):
    """Constant series has no meaningful effective sample size."""


@dataclass(frozen=True)
class SamplerConfig:
    """Sampler configuration; identical model, config and seed give
    identical draws.

    Exact draws, on a model that sets `draw`, read `chains`, `draws` and
    `seed` only: `burnin` has no effect on them, and their `chains * draws`
    points are iid, so that is their ESS.  The two Metropolis samplers read
    every field and keep all `draws` post-burn-in steps.  The random walk's
    proposal starts at 2.38 / sqrt(d) times the model's `proposal_chol` and
    adapts during burn-in; scale `proposal_chol` for another start.
    """

    chains: int = 4
    draws: int = 50_000  # retained draws per chain
    burnin: int = 10_000
    seed: int = 0
    thin: ClassVar[int] = 1  # not a field: no thinning; the benchmark's step count reads it

    def __post_init__(self):
        if self.draws < 1000:
            raise ValueError("need at least 1000 retained draws per chain")
        if self.burnin < 0 or self.chains < 1:
            raise ValueError("bad sampler configuration")


@dataclass
class SurpriseSample:
    """Retained posterior draws with aligned per-draw log-surprise values."""

    draws: np.ndarray  # (M_total, d)
    log_surprise: np.ndarray  # (M_total,)
    acceptance_rates: np.ndarray  # per chain
    config: SamplerConfig
    stationarity_flags: np.ndarray = field(default_factory=lambda: np.array([], dtype=bool))
    iid: bool = False  # exact independent draws, whose ESS is their count

    @property
    def size(self) -> int:
        return self.draws.shape[0]

    @property
    def dimension(self) -> int:
        return self.draws.shape[1]


def _initial_point(model: StatisticalModel) -> np.ndarray:
    if model.mode is not None:
        return np.asarray(model.mode, dtype=float)
    return _crude_mode_search(model, model.space.center())


def _window_end(t: int, burnin: int, block: int, limit: int) -> int:
    """The step before which a chain at step t must stop: during burn-in its
    next adaptation point, and never past `limit`."""
    if t < burnin:
        return min((t // block + 1) * block, limit)
    return limit


def sample_posterior(model: StatisticalModel, cfg: SamplerConfig) -> SurpriseSample:
    """Run the model's sampler (see the module docstring) and return
    retained draws with logS."""
    space = model.space
    # log_kernel_safe's bounds mask is needed only on bounded spaces: the
    # random walk's acceptance test rejects the NaN and +inf it would map to
    # -inf, and on a 2-D generic gaussian kernel a 120-row round takes 13 us
    # raw against 38 us through the mask (medians of 2000, 2-core x86-64);
    # exact draws are posterior points, where the kernel is finite
    unbounded = np.all(space.lower == -np.inf) and np.all(space.upper == np.inf)
    kernel = model.log_kernel if unbounded else model.log_kernel_safe
    run = _metropolis if model.laplace is None else _independence
    run = run if model.draw is None else _exact
    retained, lks, rates = run(model, kernel, cfg)
    if np.any(rates == 0.0):
        raise SamplerStuckError("a chain rejected every proposal after adaptation")

    d = space.dimension
    draws = retained.reshape(cfg.chains * cfg.draws, d)
    # logS = kernel - reference on the retained draws, where the kernel is
    # finite: a NaN is a reference undefined at a posterior point
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = lks.reshape(-1) - model.log_reference_at(draws)
    undefined = np.count_nonzero(np.isnan(log_s))
    if undefined:
        raise ValueError(f"log reference density undefined (NaN) at {undefined} of "
                         f"{log_s.size} posterior draws")

    # stationarity smoke test (flag, not error): compare per-coordinate
    # means of the two halves of each chain against 4 standard errors.  Both
    # halves go into one (2, d, chains * half) copy, read along contiguous
    # runs of column-major draws, and its sums run along its last axis:
    # the bits of mean(axis=-1) and var(axis=-1) on each half
    half = cfg.draws // 2
    halves = (retained[:, : 2 * half].reshape(cfg.chains, 2, half, d)
              .transpose(1, 3, 0, 2).reshape(2, d, -1))
    size = halves.shape[-1]
    mean = halves.sum(axis=-1, keepdims=True) / size
    dev = halves - mean
    dev *= dev
    var = dev.sum(axis=-1) / size
    se = np.sqrt(var[0] / half + var[1] / half) + 1e-300
    flags = np.abs(mean[0, :, 0] - mean[1, :, 0]) > 4.0 * se

    return SurpriseSample(
        draws=draws,
        log_surprise=log_s,
        acceptance_rates=rates,
        config=cfg,
        stationarity_flags=flags,
        iid=model.draw is not None,
    )


def _exact(model, kernel, cfg):
    """(draws, log-kernels, acceptance rates) of `cfg.draws` iid points
    per chain from the model's `draw`; see the module docstring."""
    seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    # column-major draws stay so: the concatenation keeps their layout, and
    # splitting the row axis into (chains, draws) is a view
    draws = np.concatenate([model.draw(np.random.default_rng(seq), cfg.draws) for seq in seqs])
    lks = np.asarray(kernel(draws), dtype=float)
    return draws.reshape(cfg.chains, cfg.draws, -1), lks, np.ones(cfg.chains)


def _retain(retained, retained_lk, first, n, burnin, at, states, state_lks) -> int:
    """Keep one chain's state and log-kernel after each post-burn-in step of
    its chunk of n steps from step `first`, and return how many of those
    accepted.  `at` holds the chunk's accepted steps, states[i] the state
    after the i-th of them and states[0] the chunk-start state."""
    lo = max(burnin - first, 0)  # the chunk's first post-burn-in step, if any
    last = np.searchsorted(at, np.arange(lo, n), side="right")
    kept = slice(max(first - burnin, 0), max(first + n - burnin, 0))
    retained[kept] = states[last]
    retained_lk[kept] = state_lks[last]
    return at.size - np.searchsorted(at, lo)


def _independence(model, kernel, cfg):
    """(draws, log-kernels, acceptance rates) of independence
    Metropolis-Hastings from the t proposal at the model's Laplace fit; see
    the module docstring."""
    center, factor = model.laplace
    chains, d = cfg.chains, center.size
    steps = cfg.burnin + cfg.draws
    streams = [[np.random.default_rng(s) for s in seq.spawn(3)]
               for seq in np.random.SeedSequence(cfg.seed).spawn(chains)]
    current = np.tile(center, (chains, 1))
    cur_lk = [float(model.log_kernel_safe(center))] * chains
    cur_w = list(cur_lk)  # log q is 0 at the center
    retained = np.empty((chains, cfg.draws, d))
    retained_lk = np.empty((chains, cfg.draws))
    accepted_after = np.zeros(chains)
    for first in range(0, steps, CHUNK):
        n = min(CHUNK, steps - first)
        z, g = np.empty((chains, n, d)), np.empty((chains, n))
        for c, (normals, chi2, _) in enumerate(streams):
            normals.standard_normal(out=z[c])
            g[c] = chi2.chisquare(NU, n)
        prop, log_q = t_proposal(center, factor, z, g)
        with np.errstate(divide="ignore", invalid="ignore"):
            lk = np.asarray(kernel(prop.reshape(-1, d)), dtype=float).reshape(chains, n)
        w = lk - log_q
        for c in range(chains):
            u, now, at = np.log(streams[c][2].random(n)).tolist(), cur_w[c], []
            for j, wj in enumerate(w[c].tolist()):
                # now is finite, so NaN compares False; +inf is rejected
                if u[j] < wj - now and wj < math.inf:
                    at.append(j)
                    now = wj
            cur_w[c] = now
            at = np.array(at, dtype=np.intp)
            states = np.concatenate([current[c, None], prop[c, at]])
            state_lks = np.concatenate([[cur_lk[c]], lk[c, at]])
            accepted_after[c] += _retain(retained[c], retained_lk[c], first, n, cfg.burnin,
                                         at, states, state_lks)
            current[c], cur_lk[c] = states[-1], state_lks[-1]
    return retained, retained_lk, accepted_after / cfg.draws


def _metropolis(model, kernel, cfg):
    """(draws, log-kernels, acceptance rates) of adaptive random-walk
    Metropolis in rounds of proposal trees; see the module docstring."""
    start = _initial_point(model)
    start_lk = float(model.log_kernel_safe(start))
    if not np.isfinite(start_lk):
        raise InitializationError("posterior kernel not finite at the initial point")
    d = start.size
    chol = model.proposal_chol
    if chol is None:
        chol = np.eye(d)
    target = 0.44 if d == 1 else 0.234
    steps = cfg.burnin + cfg.draws

    chains = cfg.chains
    streams = [[np.random.default_rng(s) for s in seq.spawn(2)]
               for seq in np.random.SeedSequence(cfg.seed).spawn(chains)]
    width = min(CHUNK, steps)
    zs = np.empty((width, chains, d))
    steer = np.empty_like(zs)  # unscaled moves: the proposal directions
    # per chain and chunk step: the scaled move; the PREFETCH + PREFETCH2
    # rows past the chunk keep every round's gather inside
    stride = width + PREFETCH + PREFETCH2
    moves = np.zeros((chains, stride, d))
    step_major = moves.swapaxes(0, 1)
    flat = moves.reshape(chains * stride, d)
    log_us = [None] * chains  # per chain: the chunk's log-uniforms, as floats
    row_of = list(range(0, chains * stride, stride))  # each chain's first row in `flat`
    offset = np.array(row_of)  # each chain's next row in `flat`
    # A round's proposals, level-major so that its two broadcast adds run
    # over contiguous rows: proposals[0, j, c] is chain c's current point plus
    # its move j steps ahead, and proposals[1 + i, j, c] is proposals[0, j, c]
    # plus the move i + 1 steps after that, so tree[l, j] = j + l.
    tree = np.add.outer(np.arange(1 + PREFETCH2), np.arange(PREFETCH))[:, :, None]
    idx = np.empty((1 + PREFETCH2, PREFETCH, chains), dtype=np.intp)
    proposals = np.empty((1 + PREFETCH2, PREFETCH, chains, d))
    level1, level2 = proposals[0], proposals[1:]
    rows = proposals.reshape(-1, d)

    current = np.tile(start, (chains, 1))
    cur_lk = [start_lk] * chains
    retained = np.empty((chains, cfg.draws, d))
    retained_lk = np.empty((chains, cfg.draws))
    accepted_after = np.zeros(chains)
    log_scale = np.full(chains, math.log(2.38 / math.sqrt(d)))
    scale = np.exp(log_scale)
    block_acc = [0] * chains

    def scale_moves(c, lo=0):
        """Write chain c's moves (every chain's for a slice) from step lo of
        the chunk of n steps on, at its current scale."""
        np.multiply(steer[lo:n, c], scale[c, None], out=step_major[lo:n, c])

    block = 50
    for first in range(0, steps, CHUNK):
        n = min(CHUNK, steps - first)
        for c, (normals, uniforms) in enumerate(streams):
            zs[:n, c, :] = normals.standard_normal((n, d))
            log_us[c] = np.log(uniforms.random(n)).tolist()
        # the chunk's proposal directions in one stacked matmul, the same
        # (chains, d) @ (d, d) product per step as one call a step
        np.matmul(zs[:n], chol.T, out=steer[:n])

        scale_moves(slice(None))
        moves[:, n:] = 0.0
        chunk_start, chunk_start_lk = current.copy(), cur_lk.copy()
        pos = [0] * chains
        end = [_window_end(first, cfg.burnin, block, first + n) - first] * chains
        offset[:] = row_of
        accepted_at = [[] for _ in range(chains)]
        accepted_lk = [[] for _ in range(chains)]
        parked = 0

        # Rounds: one kernel call on every chain's proposal tree.  Level 1
        # starts from the chain's current point, which holds while it
        # rejects, so each chain takes it up to its first acceptance at j
        # or its window's end; after an acceptance, row j of level 2 starts
        # from the point reached, and the chain takes it up to its next
        # acceptance or its window's end.  A parked chain's rows are zero
        # moves.  log(0) and NaN are kernel values here, on bounded and
        # unbounded spaces alike: one errstate for the chunk, not one a round
        with np.errstate(divide="ignore", invalid="ignore"):
            while parked < chains:
                np.add(tree, offset, out=idx)
                flat.take(idx, axis=0, out=proposals, mode="clip")
                # move + point: the same bits as point + move
                level1 += current
                level2 += level1
                prop_lk = np.asarray(kernel(rows), dtype=float)
                # lks[c][j]: level 1's value at j, then row j of level 2
                lks = prop_lk.reshape(1 + PREFETCH2, PREFETCH, chains).T.tolist()
                for c in range(chains):
                    p = pos[c]
                    lim = min(end[c] - p, PREFETCH)
                    if lim == 0:
                        continue
                    u, now, chain_lks = log_us[c], cur_lk[c], lks[c]
                    for j in range(lim):
                        lk = chain_lks[j][0]
                        # now is finite, so NaN compares False; +inf is rejected
                        if u[p + j] < lk - now and lk < math.inf:
                            at, at_lk = accepted_at[c], accepted_lk[c]
                            at.append(p + j)
                            at_lk.append(lk)
                            # level 2: row j, from the point just accepted
                            level, row, p = 0, chain_lks[j], p + j + 1
                            for i in range(1, min(end[c] - p, PREFETCH2) + 1):
                                if u[p] < row[i] - lk and row[i] < math.inf:
                                    at.append(p)
                                    at_lk.append(row[i])
                                    level, lk = i, row[i]
                                    p += 1
                                    break
                                p += 1
                            current[c] = proposals[level, j, c]
                            cur_lk[c] = lk
                            block_acc[c] += 1 + (level > 0)
                            break
                    else:
                        p += lim
                    pos[c] = p
                    offset[c] = row_of[c] + p
                    if p < end[c]:
                        continue
                    t = first + p
                    if t % block == 0 and t <= cfg.burnin:
                        log_scale[c] += 0.6 * (block_acc[c] / block - target)
                        block_acc[c] = 0
                        scale = np.exp(log_scale)
                        scale_moves(c, p)
                    if p == n:
                        parked += 1
                    else:
                        end[c] = _window_end(t, cfg.burnin, block, first + n) - first

        # A chain's state after step t is its chunk-start state plus its
        # moves accepted up to t, added in the order the steps added them
        for c in range(chains):
            at = np.array(accepted_at[c], dtype=np.intp)
            states = np.cumsum(np.concatenate([chunk_start[c, None], moves[c, at]]), axis=0)
            state_lks = np.array([chunk_start_lk[c]] + accepted_lk[c])
            accepted_after[c] += _retain(retained[c], retained_lk[c], first, n, cfg.burnin,
                                         at, states, state_lks)

    return retained, retained_lk, accepted_after / cfg.draws


def _ess_initial_positive(series: np.ndarray) -> float:
    """Geyer initial-positive-sequence ESS of one scalar series."""
    n = series.size
    x = series - series.mean()
    var = float(x @ x) / n
    if var == 0.0:
        raise DegenerateSeriesError("constant series")
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[:n].real / n
    rho = acov / acov[0]
    # sum consecutive lag pairs while positive, in sequence as cumsum adds
    pairs = rho[1 : n - 1 : 2] + rho[2:n:2]
    ends = np.flatnonzero(pairs <= 0.0)
    tau = np.cumsum(np.concatenate(([1.0], 2.0 * pairs)))[ends[0] if ends.size else -1]
    return n / float(tau)


def effective_sample_size(sample: SurpriseSample) -> float:
    """ESS of the log-surprise series: M itself for an iid sample, else
    Geyer's initial-positive-sequence estimate summed over chains, capped
    at M."""
    if sample.size < 100:
        raise ValueError("need at least 100 draws for an ESS estimate")
    if sample.iid:
        return float(sample.size)
    per_chain = sample.config.draws
    chains = sample.config.chains
    if per_chain * chains == sample.size:
        segments = sample.log_surprise.reshape(chains, per_chain)
    else:
        segments = sample.log_surprise[None, :]
    return float(min(sum(_ess_initial_positive(seg) for seg in segments), sample.size))
