"""Seeded posterior sampling via MCMC and basic convergence diagnostics.

Chains draw their randomness from per-chain sub-seeds spawned from the
master seed, so serial and (hypothetical) parallel execution produce
bit-identical output for a fixed configuration.

Chain c's stream, from `default_rng(SeedSequence(seed).spawn(chains)[c])`,
is laid out as `steps x d` proposal normals, then `steps` acceptance
uniforms, then, for hit-and-run only, `steps x d` direction normals.  The
sampler reads each segment through its own generator, positioned at the
segment's start by generating and discarding the segments before it
(ziggurat normals consume a variable amount of the bit stream, so the
generator cannot simply be advanced).  Randomness is generated
`CHUNK` steps at a time, so its memory is O(CHUNK x chains x d) whatever
the step count, and the draws equal, bit for bit, those of generating each
segment in one call.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .model import StatisticalModel, log_surprise

# Steps of randomness generated at a time; bounds the sampler's random
# buffers and changes no draw.
CHUNK = 1024


class SamplerStuckError(RuntimeError):
    """Chain rejected every proposal after adaptation."""


class InitializationError(RuntimeError):
    """Posterior kernel not finite at the initial point."""


class DegenerateSeriesError(ValueError):
    """Constant series has no meaningful effective sample size."""


@dataclass(frozen=True)
class SamplerConfig:
    """MCMC configuration; identical config + seed gives identical draws."""

    algorithm: str = "metropolis"  # or "hit-and-run"
    chains: int = 4
    draws: int = 50_000  # retained draws per chain
    burnin: int = 10_000
    thin: int = 1
    scale: Optional[float] = None  # None = auto 2.38 / sqrt(d)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("metropolis", "hit-and-run"):
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
    # probes may land on closed bounds, where kernels such as log(p) are -inf
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _chain_streams(seq, steps: int, d: int, hit_and_run: bool) -> tuple:
    """Generators at the starts of one chain's normals, uniforms and (for
    hit-and-run) direction normals; see the module docstring."""
    normals = np.random.default_rng(seq)
    uniforms = np.random.default_rng(seq)
    _discard(uniforms.standard_normal, steps, d)
    if not hit_and_run:
        return normals, uniforms, None
    directions = copy.deepcopy(uniforms)
    _discard(directions.random, steps, 1)
    return normals, uniforms, directions


def sample_posterior(model: StatisticalModel, cfg: SamplerConfig) -> SurpriseSample:
    """Run the configured MCMC sampler and return retained draws with logS."""
    d = model.space.dimension
    start = _initial_point(model)
    start_lk = float(model.log_kernel_safe(start))
    if not np.isfinite(start_lk):
        raise InitializationError("posterior kernel not finite at the initial point")

    chol = model.proposal_chol
    if chol is None:
        chol = np.eye(d)
    base_scale = cfg.scale if cfg.scale is not None else 2.38 / math.sqrt(d)
    target = 0.44 if d == 1 else 0.234
    steps = cfg.burnin + cfg.draws * cfg.thin
    hit_and_run = cfg.algorithm == "hit-and-run"
    space = model.space
    # the bounds check of log_kernel_safe is needed only on bounded spaces;
    # elsewhere the isfinite test below rejects what it would map to -inf
    unbounded = np.all(space.lower == -np.inf) and np.all(space.upper == np.inf)
    kernel = model.log_kernel if unbounded else model.log_kernel_safe

    streams = [_chain_streams(seq, steps, d, hit_and_run)
               for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.chains)]
    zs = np.empty((min(CHUNK, steps), cfg.chains, d))
    log_us = np.empty((zs.shape[0], cfg.chains))
    dirs = np.empty_like(zs) if hit_and_run else None

    current = np.tile(start, (cfg.chains, 1))
    cur_lk = np.full(cfg.chains, start_lk)
    log_scale = np.full(cfg.chains, math.log(base_scale))
    scale = np.exp(log_scale)[:, None]
    block_acc = np.zeros(cfg.chains)
    accepted_after = np.zeros(cfg.chains)

    retained = np.empty((cfg.chains, cfg.draws, d))
    retained_lk = np.empty((cfg.chains, cfg.draws))
    keep = 0
    block = 50
    for first in range(0, steps, CHUNK):
        n = min(CHUNK, steps - first)
        for c, (normals, uniforms, directions) in enumerate(streams):
            zs[:n, c, :] = normals.standard_normal((n, d))
            log_us[:n, c] = np.log(uniforms.random(n))
            if hit_and_run:
                raw = directions.standard_normal((n, d))
                dirs[:n, c, :] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        # Metropolis: the chunk's proposal directions in one stacked matmul,
        # the same (chains, d) @ (d, d) product per step as one call a step
        moves = None if hit_and_run else zs[:n] @ chol.T
        for i in range(n):
            t = first + i
            if hit_and_run:
                # uniform direction on the sphere; 1-D Metropolis step along it
                proposal = current + dirs[i] * (zs[i, :, :1] * scale)
            else:
                proposal = current + moves[i] * scale
            prop_lk = np.asarray(kernel(proposal), dtype=float)
            # cur_lk is finite, so this cannot warn; isfinite rejects NaN and +inf
            accept = log_us[i] < (prop_lk - cur_lk)
            accept &= np.isfinite(prop_lk)
            np.copyto(current, proposal, where=accept[:, None])
            np.copyto(cur_lk, prop_lk, where=accept)
            if t < cfg.burnin:
                block_acc += accept
                if (t + 1) % block == 0:
                    rate = block_acc / block
                    log_scale += 0.6 * (rate - target)
                    scale = np.exp(log_scale)[:, None]
                    block_acc[:] = 0.0
            else:
                accepted_after += accept
                if (t - cfg.burnin) % cfg.thin == 0:
                    retained[:, keep, :] = current
                    retained_lk[:, keep] = cur_lk
                    keep += 1

    post_steps = steps - cfg.burnin
    rates = accepted_after / max(post_steps, 1)
    if np.any(rates == 0.0):
        raise SamplerStuckError("a chain rejected every proposal after adaptation")

    draws = retained.reshape(cfg.chains * cfg.draws, d)
    # logS = kernel - reference on the retained draws
    ref = model.log_reference_at(draws)
    log_s = retained_lk.reshape(-1) - ref

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
    # sum consecutive lag pairs while positive
    tau = 1.0
    k = 1
    while k + 1 < n:
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        k += 2
    return n / tau


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
