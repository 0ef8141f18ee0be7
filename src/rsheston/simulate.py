"""Full stochastic simulation of the regime-switching Heston market.

Only what the checks read is simulated: wealth V, the factor X and the
regime, under a given weight.  Scheme per step of size dt (state e
frozen at the step start):

* chain transitions are resolved exactly by exponential clocks, never
  by a per-step Bernoulli approximation;
* the factor uses full-truncation Euler, with xp = max(X, 0) inside
  drift and diffusion:
      X <- X + kappa(e) (theta(e) - xp) dt + chi(e) sqrt(xp) dW_X
* wealth uses log-Euler (hence stays positive):
      ln V  <- ln V  + [r + pi lam_hat xp - pi^2 nu^2 xp / 2] dt
                     + pi nu sqrt(xp) dW_P
* dW_P = rho dW_X + sqrt(1 - rho^2) dW_perp.

What depends only on (step, state) is tabulated once per run, per step
k and state e: r, pi lam_hat, (pi nu)^2 / 2, pi nu, kappa, theta and
chi, with pi = strategy(t_k, e).  Each entry is the product the wealth
and factor updates would form left to right, so a step gathers one row
per path and updates X and ln V in place without changing a bit of the
result.

Paths come in stream blocks of 256: block j (paths 256 j onward) owns
the RNG stream derived from (seed, j).  It draws the chain trajectories
of all its paths first (``sample_block``) and then their normal
increments, step-major: driver step by driver step, the pair (dW_X,
dW_perp) of every path in the block.  The stream layout does not depend
on ``block_size``, which only sets how many stream blocks are stepped
together, so results are bitwise reproducible regardless of batching.
Setting ``driver_steps_per_year`` draws the Brownian increments on a
finer grid and sums them per step as they are drawn: two runs at
different step sizes but the same driver resolution then share their
Brownian paths exactly, which makes discretization-convergence
comparisons nearly noise-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .markov_chain import _STREAM_BLOCK, MarkovChainSpec, RegimePath, path_stream, sample_block
from .models import HestonRegimeParams, Variant
from .regime_expectation import XiTable, upsilon_heston, xi_ode
from .riccati import D_leverage, d_leverage_fn
from .value_strategy import ValueQuery, optimal_weights, value_smmh_rho

__all__ = [
    "SimConfig",
    "PathBundle",
    "simulate_paths",
    "expected_utility_mc",
    "terminal_wealth_histogram",
    "HistogramTable",
    "martingale_diagnostic",
    "variance_observable",
    "constant_strategy",
    "optimal_weight_fn",
]

# A strategy maps step times to weights that broadcast to (len(times), n_states).
Strategy = Callable[[np.ndarray], np.ndarray]

_BLOCK = 8192  # paths stepped together when block_size is not given
_DRIVER_CHUNK = 64  # driver steps of normals drawn per call into the reused buffer
_OVERFLOW = "wealth overflowed; check the strategy and parameters"


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    ``driver_steps_per_year`` (optional) must be an integer multiple of
    ``steps_per_year``; see the module docstring.
    """

    n_paths: int
    steps_per_year: int
    seed: int
    v0: float
    x0: float
    state0: int
    driver_steps_per_year: int | None = None

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.steps_per_year < 1:
            raise ConfigError("steps_per_year must be >= 1")
        if not (math.isfinite(self.v0) and self.v0 > 0.0):
            raise ConfigError(f"v0 must be finite and strictly positive, got {self.v0}")
        if not (math.isfinite(self.x0) and self.x0 >= 0.0):
            raise ConfigError(f"x0 must be finite and nonnegative, got {self.x0}")
        if self.state0 < 1:
            raise ConfigError("state0 must be a 1-based state label")
        if self.driver_steps_per_year is not None and (
            self.driver_steps_per_year % self.steps_per_year != 0
        ):
            raise ConfigError("driver_steps_per_year must be a multiple of steps_per_year")


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Simulated trajectories sampled at ``record_times``.

    ``states`` holds 1-based labels, ``X`` the truncated factor (the
    value actually driving variance, hence nonnegative) and ``V``
    wealth; the asset price is not simulated.  ``min_v`` and
    ``min_x_effective`` are tracked over every step, not only recorded
    ones.  RNG provenance: under ``seed``, stream j belongs to paths
    256 j to 256 j + 255 (see the module docstring).
    """

    grid: np.ndarray
    record_times: np.ndarray
    states: np.ndarray
    X: np.ndarray
    V: np.ndarray
    seed: int
    min_v: float
    min_x_effective: float

    @property
    def n_paths(self) -> int:
        return self.V.shape[0]

    @property
    def terminal_wealth(self) -> np.ndarray:
        return self.V[:, -1]

    def column(self, t: float) -> int:
        hits = np.flatnonzero(np.abs(self.record_times - t) <= 1e-9)
        if not hits.size:
            raise KeyError(f"time {t} was not recorded")
        return int(hits[0])


def constant_strategy(weight: float) -> Strategy:
    """Strategy holding a fixed fraction of wealth in the risky asset."""

    def fn(times: np.ndarray) -> np.ndarray:
        return np.full((len(times), 1), float(weight))

    return fn


def optimal_weight_fn(p: HestonRegimeParams) -> Strategy:
    """The optimal total weight pi_mv + pi_h as a strategy."""

    def fn(times: np.ndarray) -> np.ndarray:
        pi_mv, pi_h = optimal_weights(p, times)
        return pi_mv + pi_h

    return fn


def _record_indices(record, n_steps: int, grid: np.ndarray) -> np.ndarray:
    if isinstance(record, str):
        if record == "all":
            return np.arange(n_steps + 1)
        if record == "terminal":
            return np.array([n_steps])
        raise ConfigError(f"unknown record mode {record!r}")
    idx = set()
    tol = 1e-9 * max(1.0, grid[-1])
    for t in record:
        if not -tol <= float(t) <= grid[-1] + tol:  # also rejects nan
            raise ConfigError(f"record time {t} is outside [0, T] = [0, {grid[-1]}]")
        j = int(round(float(t) / grid[1])) if n_steps else 0
        j = min(max(j, 0), n_steps)
        if abs(grid[j] - float(t)) > tol:
            raise ConfigError(f"record time {t} is not on the step grid")
        idx.add(j)
    idx.add(n_steps)
    return np.array(sorted(idx))


def simulate_paths(
    p: HestonRegimeParams,
    chain: MarkovChainSpec,
    strategy: Strategy,
    cfg: SimConfig,
    record="all",
    frozen_path: RegimePath | None = None,
    block_size: int | None = None,
) -> PathBundle:
    """Simulate the market under a given strategy.

    ``strategy`` is called once, on the step start times.  ``record`` is
    "all", "terminal", or a sequence of times in [0, T] that must lie on
    the step grid (the terminal time is always included).  With
    ``frozen_path`` the regime trajectory is fixed instead of sampled,
    which conditions the whole run on one chain path.  ``block_size``
    only bounds memory: it is rounded up to whole stream blocks, and
    results are bitwise identical for any batching.
    """
    if chain.n_states != p.n_states:
        raise ConfigError("chain and model disagree on the state count")
    if cfg.state0 > p.n_states:
        raise ConfigError(f"state0 exceeds n_states = {p.n_states}")
    if frozen_path is not None and abs(frozen_path.horizon - p.horizon) > 1e-12:
        raise ConfigError("frozen path horizon must match the model horizon")

    horizon = p.horizon
    n_steps = max(1, int(round(horizon * cfg.steps_per_year)))
    dt = horizon / n_steps
    grid = np.arange(n_steps + 1) * dt
    grid[-1] = horizon
    refine = 1
    if cfg.driver_steps_per_year is not None:
        refine = cfg.driver_steps_per_year // cfg.steps_per_year
    sq_dtd = math.sqrt(dt / refine)

    rec_idx = _record_indices(record, n_steps, grid)
    rec_times = grid[rec_idx]
    rec_slot = {int(j): s for s, j in enumerate(rec_idx)}

    l = p.n_states
    pi = np.broadcast_to(np.asarray(strategy(grid[:-1]), dtype=float), (n_steps, l))
    # coef[k, :, e]: r, pi lam_hat, (pi nu)^2 / 2, pi nu, kappa, theta, chi
    # at step k in state e (see the module docstring)
    coef = np.empty((n_steps, 7, l))
    with np.errstate(over="ignore", invalid="ignore"):  # a weight too large to step is rejected below
        pi_nu = pi * p.nu
        coef[:, 0] = p.r
        coef[:, 1] = pi * p.excess_slope
        coef[:, 2] = 0.5 * pi_nu**2
        coef[:, 3] = pi_nu
        coef[:, 4:] = np.stack([p.kappa, p.theta, p.chi])
    if not np.isfinite(coef).all():
        raise FloatingPointError(_OVERFLOW)
    rho, sq1mr = p.rho, math.sqrt(max(0.0, 1.0 - p.rho**2))

    n_paths = cfg.n_paths
    m = len(rec_idx)
    out_states = np.empty((n_paths, m), dtype=np.int16)
    out_x = np.empty((n_paths, m))
    out_v = np.empty((n_paths, m))
    min_lnv = math.inf
    min_xeff = math.inf

    sb = _STREAM_BLOCK
    block = -(-(block_size or _BLOCK) // sb) * sb
    chunk = max(1, _DRIVER_CHUNK // refine)  # steps per normal draw
    buf = np.empty(chunk * refine * 2 * sb)
    state0 = cfg.state0 if frozen_path is None else int(frozen_path.state_at(grid[0]))
    for i0 in range(0, n_paths, block):
        i1 = min(i0 + block, n_paths)
        b = i1 - i0
        streams = [(j0 - i0, min(sb, i1 - j0), path_stream(cfg.seed, j0 // sb)) for j0 in range(i0, i1, sb)]
        changes = _state_changes(chain, frozen_path, grid, state0, b, streams)
        dwx = np.empty((chunk, b))
        dwp = np.empty((chunk, b))

        e = np.full(b, state0 - 1, dtype=np.int16)
        x = np.full(b, cfg.x0)
        lnv = np.full(b, math.log(cfg.v0))
        g = np.empty((7, b))
        rr, pl, h, pn, kap, th, ch = g
        xp, sq, acc, tmp = np.empty((4, b))
        lo_xp = np.full(b, math.inf)
        lo_lnv = np.full(b, math.inf)
        # an overflowing path is caught at the end of its draw chunk
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps + 1):
                if k in changes:
                    idx, labels = changes[k]
                    e[idx] = labels
                if k in rec_slot:
                    s = rec_slot[k]
                    out_states[i0:i1, s] = e + 1
                    out_x[i0:i1, s] = np.maximum(x, 0.0)
                    out_v[i0:i1, s] = np.exp(lnv)
                if k == n_steps:
                    break
                c = k % chunk
                if c == 0:
                    _draw_increments(streams, min(chunk, n_steps - k), refine, buf, sq_dtd, rho, sq1mr, dwx, dwp)
                # the labels are valid indices; mode="clip" lets take write into g unbuffered
                np.take(coef[k], e, axis=1, out=g, mode="clip")
                np.maximum(x, 0.0, out=xp)
                np.sqrt(xp, out=sq)
                # lnv += (rr + pl * xp - h * xp) * dt + pn * sq * dwp[c]
                np.multiply(pl, xp, out=acc)
                acc += rr
                np.multiply(h, xp, out=tmp)
                acc -= tmp
                acc *= dt
                np.multiply(pn, sq, out=tmp)
                tmp *= dwp[c]
                acc += tmp
                lnv += acc
                # x += kap * (th - xp) * dt, then x += ch * sq * dwx[c]: drift first,
                # since fixed-seed outputs depend on the order
                np.subtract(th, xp, out=acc)
                acc *= kap
                acc *= dt
                x += acc
                np.multiply(ch, sq, out=acc)
                acc *= dwx[c]
                x += acc
                np.minimum(lo_xp, xp, out=lo_xp)
                np.minimum(lo_lnv, lnv, out=lo_lnv)
                if (c == chunk - 1 or k == n_steps - 1) and not np.isfinite(lnv).all():
                    raise FloatingPointError(_OVERFLOW)
        min_xeff = min(min_xeff, float(lo_xp.min()))
        min_lnv = min(min_lnv, float(lo_lnv.min()))

    return PathBundle(
        grid=grid,
        record_times=rec_times,
        states=out_states,
        X=out_x,
        V=out_v,
        seed=cfg.seed,
        min_v=math.exp(min_lnv),
        min_x_effective=min_xeff,
    )


def _state_changes(chain, frozen_path, grid, state0, b, streams) -> dict[int, tuple]:
    """Regime changes of one memory block, keyed by grid index.

    Entry k is (paths, 0-based labels) to assign before grid time k is
    used, so that every path holds the state ``state_at(grid[k])`` would
    give: a jump at time s lands on the first k with grid[k] >= s.  A
    frozen path changes every path at once; otherwise each stream block
    draws its chain from its stream, and only the last jump of a path
    within one step is kept, since a fancy assignment with repeated
    indices has no defined order.
    """
    if frozen_path is not None:
        steps = np.searchsorted(grid, frozen_path.jump_times, side="left").tolist()
        # later jumps in the same step overwrite earlier ones
        return {k: (slice(None), label - 1) for k, label in zip(steps, frozen_path.states[1:].tolist())}
    paths, times, labels = [], [], []
    for off, nb, rng in streams:
        table = sample_block(chain, grid[-1], state0, nb, rng)
        jump = np.ones(len(table.lo), dtype=bool)
        jump[table.first[:-1]] = False
        paths.append(np.repeat(np.arange(off, off + nb), np.diff(table.first))[jump])
        times.append(table.lo[jump])
        labels.append(table.states[jump] - 1)
    paths, labels = np.concatenate(paths), np.concatenate(labels)
    steps = np.searchsorted(grid, np.concatenate(times), side="left")
    # stable on (step, path), so a path's jumps within one step stay in time order
    key = steps * b + paths
    order = np.argsort(key, kind="stable")
    key, steps, paths, labels = key[order], steps[order], paths[order], labels[order]
    last = np.ones(len(key), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    steps, paths, labels = steps[last], paths[last], labels[last].astype(np.int16)
    cuts = np.flatnonzero(np.diff(steps)) + 1
    return {
        int(ks[0]): (ps, ls)
        for ks, ps, ls in zip(np.split(steps, cuts), np.split(paths, cuts), np.split(labels, cuts))
        if len(ks)
    }


def _draw_increments(streams, n, refine, buf, sq_dtd, rho, sq1mr, dwx, dwp) -> None:
    """Fill rows :n of dwx and dwp with the next n steps' increments of every stream block.

    Each stream draws its (driver step, pair, path) normals into ``buf``;
    consecutive calls continue the stream exactly where the last one
    stopped, so chunking does not change a single draw.
    """
    for off, nb, rng in streams:
        z = buf[: n * refine * 2 * nb].reshape(n * refine, 2, nb)
        rng.standard_normal(out=z)
        zx, zp = z[:, 0], z[:, 1]
        if refine > 1:
            zx = zx.reshape(n, refine, nb).sum(axis=1)
            zp = zp.reshape(n, refine, nb).sum(axis=1)
        cols = slice(off, off + nb)
        np.multiply(zx, sq_dtd, out=dwx[:n, cols])
        dwp[:n, cols] = rho * dwx[:n, cols] + sq1mr * (zp * sq_dtd)


def expected_utility_mc(bundle: PathBundle, delta: float) -> tuple[float, float]:
    """Sample mean and standard error of U(V(T)) over the bundle.

    With a single path the standard error is NaN (absent).
    """
    u = bundle.terminal_wealth**delta / delta
    mean = float(u.mean())
    if len(u) == 1:
        return mean, float("nan")
    return mean, float(u.std(ddof=1) / math.sqrt(len(u)))


@dataclass(frozen=True, eq=False)
class HistogramTable:
    """Terminal-wealth histogram with an overflow bucket and tail quantiles."""

    bin_edges: np.ndarray
    counts: np.ndarray
    overflow: int
    q05: float
    q95: float


def terminal_wealth_histogram(bundle: PathBundle, bin_edges) -> HistogramTable:
    """Bin the terminal wealth; everything above the last edge lands in overflow."""
    edges = np.asarray(bin_edges, dtype=float)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must be strictly increasing with >= 2 entries")
    w = bundle.terminal_wealth
    counts = np.array(
        [int(np.count_nonzero((w >= edges[i]) & (w < edges[i + 1]))) for i in range(len(edges) - 1)]
    )
    return HistogramTable(
        bin_edges=edges,
        counts=counts,
        overflow=int(np.count_nonzero(w >= edges[-1])),
        q05=float(np.quantile(w, 0.05)),
        q95=float(np.quantile(w, 0.95)),
    )


def martingale_diagnostic(
    p: HestonRegimeParams,
    chain: MarkovChainSpec,
    cfg: SimConfig,
    checkpoints: Sequence[float],
    xi: XiTable | None = None,
    strategy: Strategy | None = None,
) -> list[tuple[float, float, float, float]]:
    """Sample means of the value process along simulated paths.

    Evaluates Phi(t, V(t), X(t), state(t)) at each checkpoint; there
    must be at least one, each in [0, T] and on the step grid.  Under
    the optimal strategy (the default) the means are flat in t up to
    Monte Carlo noise; under any other admissible strategy they drift
    downward.  Returns rows (t, mean, std_err, z) where z measures the
    gap to Phi(0, v0, x0, state0).
    """
    if p.variant is Variant.MMH:
        raise ConfigError("the value diagnostic is defined for the separable variants")
    if len(checkpoints) == 0:
        raise ConfigError("need at least one checkpoint")
    if xi is None:
        xi = xi_ode(chain, upsilon_heston(p, d_leverage_fn(p)))
    if strategy is None:
        strategy = optimal_weight_fn(p)
    bundle = simulate_paths(p, chain, strategy, cfg, record=list(checkpoints))
    phi0 = value_smmh_rho(p, ValueQuery(t=0.0, v=cfg.v0, x=cfg.x0, state=cfg.state0), xi)
    util = 1.0 / p.delta
    rows = []
    for t in checkpoints:
        col = bundle.column(float(t))
        d_t = D_leverage(p, float(t))
        xi_row = xi.row(float(t))
        phi = (
            bundle.V[:, col] ** p.delta
            * util
            * xi_row[bundle.states[:, col] - 1]
            * np.exp(d_t * bundle.X[:, col])
        )
        mean = float(phi.mean())
        err = 0.0 if len(phi) == 1 else float(phi.std(ddof=1) / math.sqrt(len(phi)))
        if err <= 1e-13 * max(1.0, abs(mean)):
            # all paths coincide (e.g. the t = 0 anchor); rounding noise is not noise
            err = 0.0
            z = 0.0 if abs(mean - phi0) <= 1e-9 * max(1.0, abs(phi0)) else math.inf
        else:
            z = (mean - phi0) / err
        rows.append((float(t), mean, err, z))
    return rows


def variance_observable(bundle: PathBundle, p: HestonRegimeParams) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous log-return variance nu(state)^2 * X per path and time.

    Jumps by the ratio of squared nu exactly at chain transitions.
    """
    nu2 = p.nu**2
    return bundle.record_times, nu2[bundle.states - 1] * bundle.X

