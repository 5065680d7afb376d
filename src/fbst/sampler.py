"""Seeded posterior sampling via MCMC and basic convergence diagnostics.

Two Metropolis-Hastings samplers, chosen by the model: the independence
sampler on a model that sets `proposal_df` (the built-in families) and
random-walk Metropolis on any other.  Each chain draws its randomness from
its own child of `SeedSequence(seed).spawn(chains)`, so serial and
(hypothetical) parallel execution produce bit-identical output for a fixed
model and configuration.  Both generate randomness `CHUNK` steps at a
time, so their buffers take O(CHUNK x chains x d) memory whatever the step
count, and both retain draws at each chunk's end from the steps each chain
accepted there.

Independence Metropolis-Hastings (Tierney 1994).  Each proposal is
theta = mode + T_SCALE C z sqrt(nu / g), with C the model's
`proposal_chol`, nu its `proposal_df`, z ~ N(0, I_d) and g ~ chi2_nu: a
multivariate t at the mode, whatever the chain's state.  Its weight is
w = log k(theta) + ((nu + d) / 2) log1p(|z|^2 / g), the log-kernel less the
proposal's log-density up to a constant.  A chain starts at the mode, where
the second term is 0, and a step accepts when log u < w_prop - w_cur.
Chain c reads three streams, the children of
`SeedSequence(seed).spawn(chains)[c].spawn(3)`: its normals (d a step),
its mixing variables g, and its uniforms, each in order, so CHUNK changes
no draw of an elementwise kernel.  A chunk builds every chain's proposals
in preallocated buffers and makes one kernel call on all `chains x n` of
them; each chain then scans its weights against its log-uniforms as Python
floats, and its state is its last accepted proposal.  There is no
adaptation: burn-in steps run and are discarded.

Random-walk Metropolis.  Chain c's stream, from
`default_rng(SeedSequence(seed).spawn(chains)[c])`, is laid out as
`steps x d` proposal normals, then `steps` acceptance uniforms.  The
sampler reads each segment through its own generator, positioned at the
segment's start by generating and discarding the normals before it
(ziggurat normals consume a variable amount of the bit stream, so the
generator cannot simply be advanced).

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
no window.  Retention is deferred to the chunk's end: each chain logs the
steps it accepted and their log-kernels, and a cumulative sum of the
accepted moves from its chunk-start state repeats the loop's additions.
The draws therefore equal, bit for bit, those of generating each segment
in one call and stepping one step at a time, provided the kernel gives a
point the same value in any batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .model import StatisticalModel

# Steps of randomness generated at a time; bounds the sampler's random
# buffers and changes no draw.
CHUNK = 1024
# Level-1 proposals per chain in one kernel call, and level-2 proposals
# after each of them; neither changes a draw.  (6, 4) was the fastest pair
# of a sweep over (4, 3) to (12, 8), on select-fbst's and gaussian-batch's
# samplers (see the README's Sampling section).
PREFETCH = 6
PREFETCH2 = 4
# The independence sampler's proposal is t_nu(mode, T_SCALE^2 C C'): a
# little wider than the posterior's own scale.
T_SCALE = 1.3


class SamplerStuckError(RuntimeError):
    """Chain rejected every proposal after adaptation."""


class InitializationError(RuntimeError):
    """Posterior kernel not finite at the initial point."""


class DegenerateSeriesError(ValueError):
    """Constant series has no meaningful effective sample size."""


@dataclass(frozen=True)
class SamplerConfig:
    """MCMC configuration; identical model, config and seed give identical
    draws.

    `algorithm` names Metropolis-Hastings, the one algorithm; its proposal
    is the model's: an independence t where the model sets `proposal_df`,
    a random walk elsewhere.  `scale` is the random walk's initial proposal
    scale; the independence sampler does not read it.
    """

    algorithm: str = "metropolis"
    chains: int = 4
    draws: int = 50_000  # retained draws per chain
    burnin: int = 10_000
    thin: int = 1
    scale: Optional[float] = None  # None = auto 2.38 / sqrt(d)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm != "metropolis":
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.draws < 1000:
            raise ValueError("need at least 1000 retained draws per chain")
        if self.burnin < 0 or self.chains < 1 or self.thin < 1:
            raise ValueError("bad sampler configuration")
        if self.scale is not None and self.scale <= 0:
            raise ValueError("proposal scale must be positive")


@dataclass
class SurpriseSample:
    """Retained posterior draws with aligned per-draw log-surprise values."""

    draws: np.ndarray  # (M_total, d)
    log_surprise: np.ndarray  # (M_total,)
    acceptance_rates: np.ndarray  # per chain
    config: SamplerConfig
    stationarity_flags: np.ndarray = field(default_factory=lambda: np.array([], dtype=bool))

    @property
    def size(self) -> int:
        return self.draws.shape[0]

    @property
    def dimension(self) -> int:
        return self.draws.shape[1]

    def to_csv(self, path) -> None:
        """Write draws + logS as CSV plus a JSON sidecar with the config."""
        header = ",".join([f"theta_{i}" for i in range(self.dimension)] + ["logS"])
        body = np.column_stack([self.draws, self.log_surprise])
        np.savetxt(path, body, delimiter=",", header=header, comments="")
        sidecar = {
            "config": asdict(self.config),
            "acceptance_rates": self.acceptance_rates.tolist(),
            "stationarity_flags": self.stationarity_flags.tolist(),
        }
        with open(str(path) + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2)

    @classmethod
    def from_csv(cls, path) -> "SurpriseSample":
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        with open(str(path) + ".json") as fh:
            sidecar = json.load(fh)
        return cls(
            draws=body[:, :-1],
            log_surprise=body[:, -1],
            acceptance_rates=np.asarray(sidecar["acceptance_rates"]),
            config=SamplerConfig(**sidecar["config"]),
            stationarity_flags=np.asarray(sidecar.get("stationarity_flags", []), dtype=bool),
        )


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


def _initial_point(model: StatisticalModel) -> np.ndarray:
    if model.mode is not None:
        return np.asarray(model.mode, dtype=float)
    return _crude_mode_search(model, model.space.center())


def _discard(draw, count: int, width: int) -> None:
    """Advance a generator past `count` rows of `draw` (a bound method such
    as `rng.standard_normal`), CHUNK rows at a time."""
    buf = np.empty((min(CHUNK, count), width))
    for first in range(0, count, CHUNK):
        draw(out=buf[: min(CHUNK, count - first)])


def _chain_streams(seq, steps: int, d: int) -> tuple:
    """Generators at the starts of one chain's normals and uniforms; see
    the module docstring."""
    normals = np.random.default_rng(seq)
    uniforms = np.random.default_rng(seq)
    _discard(uniforms.standard_normal, steps, d)
    return normals, uniforms


def _window_end(t: int, burnin: int, block: int, limit: int) -> int:
    """The step before which a chain at step t must stop: during burn-in its
    next adaptation point, and never past `limit`."""
    if t < burnin:
        return min((t // block + 1) * block, limit)
    return limit


class _Retention:
    """Each chain's retained draws and log-kernels, and its acceptances after
    burn-in, filled in at each chunk's end from the steps it accepted."""

    def __init__(self, cfg: SamplerConfig, d: int):
        self.cfg, self.keep = cfg, 0
        self.draws = np.empty((cfg.chains, cfg.draws, d))
        self.lks = np.empty((cfg.chains, cfg.draws))
        self.accepted_after = np.zeros(cfg.chains)

    def chunk(self, first: int, n: int) -> None:
        """Start the chunk of steps first .. first + n - 1."""
        cfg = self.cfg
        self.lo = min(max(cfg.burnin - first, 0), n)
        self.kept = np.arange(self.lo + (cfg.burnin - first - self.lo) % cfg.thin, n, cfg.thin)
        self.rows = slice(self.keep, self.keep + self.kept.size)
        self.keep += self.kept.size

    def chain(self, c: int, at: np.ndarray, states=None, lks=None) -> None:
        """Chain c accepted at the chunk's steps `at`, ascending; states[0]
        and lks[0] are its chunk-start state and log-kernel, and states[i + 1]
        and lks[i + 1] those it reached at step at[i].  A chunk that keeps
        no draw (`kept` is empty) needs neither."""
        self.accepted_after[c] += at.size - np.searchsorted(at, self.lo)
        if not self.kept.size:
            return
        last = np.searchsorted(at, self.kept, side="right")
        self.draws[c, self.rows] = states[last]
        self.lks[c, self.rows] = lks[last]


def sample_posterior(model: StatisticalModel, cfg: SamplerConfig) -> SurpriseSample:
    """Run the model's sampler (see the module docstring) and return
    retained draws with logS."""
    d = model.space.dimension
    start = _initial_point(model)
    start_lk = float(model.log_kernel_safe(start))
    if not np.isfinite(start_lk):
        raise InitializationError("posterior kernel not finite at the initial point")

    space = model.space
    # log_kernel_safe's bounds mask is needed only on bounded spaces; here
    # the acceptance test rejects the NaN and +inf it would map to -inf, and
    # the mask would cost 12 us a round against a 3 us gaussian-mean kernel
    unbounded = np.all(space.lower == -np.inf) and np.all(space.upper == np.inf)
    kernel = model.log_kernel if unbounded else model.log_kernel_safe
    kept = _Retention(cfg, d)
    run = _metropolis if model.proposal_df is None else _independence
    run(model, kernel, cfg, start, start_lk, kept)

    rates = kept.accepted_after / max(cfg.draws * cfg.thin, 1)
    if np.any(rates == 0.0):
        raise SamplerStuckError("a chain rejected every proposal after adaptation")

    retained = kept.draws
    draws = retained.reshape(cfg.chains * cfg.draws, d)
    # logS = kernel - reference on the retained draws
    ref = model.log_reference_at(draws)
    log_s = kept.lks.reshape(-1) - ref

    # stationarity smoke test (flag, not error): compare per-coordinate
    # means of the two halves of each chain against 4 standard errors
    flags = np.zeros(d, dtype=bool)
    half = cfg.draws // 2
    if half >= 10:
        first = retained[:, :half, :].reshape(-1, d)
        second = retained[:, half:2 * half, :].reshape(-1, d)
        se = np.sqrt(first.var(axis=0) / half + second.var(axis=0) / half) + 1e-300
        flags = np.abs(first.mean(axis=0) - second.mean(axis=0)) > 4.0 * se

    return SurpriseSample(
        draws=draws,
        log_surprise=log_s,
        acceptance_rates=rates,
        config=cfg,
        stationarity_flags=flags,
    )


def _independence(model, kernel, cfg, start, start_lk, kept: _Retention) -> None:
    """Independence Metropolis-Hastings from the model's t proposal; see the
    module docstring."""
    chains, d = cfg.chains, start.size
    nu = float(model.proposal_df)
    power = 0.5 * (nu + d)
    factor = T_SCALE * np.asarray(model.proposal_chol, dtype=float).T
    steps = cfg.burnin + cfg.draws * cfg.thin
    streams = [[np.random.default_rng(s) for s in seq.spawn(3)]
               for seq in np.random.SeedSequence(cfg.seed).spawn(chains)]
    # flat buffers: a chunk of n steps uses their first chains * n rows, as
    # contiguous (chains, n, ...) arrays
    size = chains * min(CHUNK, steps)
    z_buf, prop_buf = np.empty((size, d)), np.empty((size, d))
    g_buf, t_buf = np.empty(size), np.empty(size)
    current = [start] * chains
    cur_lk = [start_lk] * chains
    cur_w = [start_lk] * chains  # the weight's t term is 0 at the mode

    for first in range(0, steps, CHUNK):
        n = min(CHUNK, steps - first)
        z = z_buf[:chains * n].reshape(chains, n, d)
        g = g_buf[:chains * n].reshape(chains, n)
        t = t_buf[:chains * n].reshape(chains, n)
        prop = prop_buf[:chains * n]
        log_us = []
        for c, (normals, mixing, uniforms) in enumerate(streams):
            normals.standard_normal(out=z[c])
            mixing.standard_gamma(0.5 * nu, out=g[c])
            log_us.append(np.log(uniforms.random(n)).tolist())
        g *= 2.0  # chi2_nu, as Generator.chisquare draws it
        np.einsum("...i,...i->...", z, z, out=t)
        t /= g
        np.log1p(t, out=t)
        t *= power  # the weight's t term, ((nu + d) / 2) log1p(|z|^2 / g)
        np.divide(nu, g, out=g)
        np.sqrt(g, out=g)
        np.matmul(z.reshape(-1, d), factor, out=prop)
        prop *= g.reshape(-1, 1)
        prop += model.mode
        # log(0) and NaN are kernel values here, as on the random walk
        with np.errstate(divide="ignore", invalid="ignore"):
            lk = np.asarray(kernel(prop), dtype=float).reshape(chains, n)
        t += lk

        kept.chunk(first, n)
        for c in range(chains):
            u, now, at = log_us[c], cur_w[c], []
            for j, w in enumerate(t[c].tolist()):
                # now is finite, so NaN compares False; +inf is rejected
                if u[j] < w - now and w < math.inf:
                    at.append(j)
                    now = w
            at = np.array(at, dtype=np.intp)
            states = np.concatenate([current[c][None], prop[c * n + at]])
            lks = np.concatenate([[cur_lk[c]], lk[c, at]])
            kept.chain(c, at, states, lks)
            current[c], cur_lk[c], cur_w[c] = states[-1], lks[-1], now


def _metropolis(model, kernel, cfg, start, start_lk, kept: _Retention) -> None:
    """Adaptive random-walk Metropolis in rounds of proposal trees; see the
    module docstring."""
    d = start.size
    chol = model.proposal_chol
    if chol is None:
        chol = np.eye(d)
    base_scale = cfg.scale if cfg.scale is not None else 2.38 / math.sqrt(d)
    target = 0.44 if d == 1 else 0.234
    steps = cfg.burnin + cfg.draws * cfg.thin

    chains = cfg.chains
    streams = [_chain_streams(seq, steps, d)
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
    log_scale = np.full(chains, math.log(base_scale))
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

        # Retention, deferred to the chunk's end: a chain's state after step
        # t is its chunk-start state plus its moves accepted up to t, added
        # in the order the steps added them.  A burn-in chunk keeps nothing.
        kept.chunk(first, n)
        for c in range(chains):
            at = np.array(accepted_at[c], dtype=np.intp)
            if not kept.kept.size:
                kept.chain(c, at)
                continue
            states = np.cumsum(np.concatenate([chunk_start[c, None], moves[c, at]]), axis=0)
            kept.chain(c, at, states, np.array([chunk_start_lk[c]] + accepted_lk[c]))


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
    """ESS of the log-surprise series, summed over chains, capped at M."""
    if sample.size < 100:
        raise ValueError("need at least 100 draws for an ESS estimate")
    per_chain = sample.config.draws
    chains = sample.config.chains
    if per_chain * chains == sample.size:
        segments = sample.log_surprise.reshape(chains, per_chain)
    else:
        segments = sample.log_surprise[None, :]
    ess = sum(_ess_initial_positive(seg) for seg in segments)
    return float(min(ess, sample.size))
