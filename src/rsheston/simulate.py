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

A weight reads neither V nor X, so given the chain and dW_X the dW_perp
terms of ln V sum to a Gaussian: over any run of steps its mean is 0
and its variance (1 - rho^2) dt times the sum of (pi nu)^2 xp.  The
steps therefore draw dW_X only.  Each path carries

      m <- m + [r + pi lam_hat xp - pi^2 nu^2 xp / 2] dt + rho pi nu sqrt(xp) dW_X
      S <- S + (pi nu)^2 xp

``m`` and ``s^2 = (1 - rho^2) dt S`` are the mean and variance of ln V
given the chain and the factor path, and ``PathBundle`` keeps them at
each record time.  Wealth itself is drawn once per path, at the
horizon, from one more N(0, 1), Z:

      V(T) = exp(m + sqrt(s^2) Z),

so (state, X, V) at T has exactly the law of the per-step scheme.  Only
the terminal-wealth histogram reads V.  The estimators average
E[V^delta | chain, X] = exp(delta m + delta^2 s^2 / 2) in place of
V^delta: conditional Monte Carlo (Glasserman, *Monte Carlo Methods in
Financial Engineering*, 2004, section 4.5), never noisier than the
plain mean.

The rho part of m's increments, C = sum_k rho pi nu sqrt(xp) dW_X, is a
martingale whose increments are Gaussian given the past, with
quadratic variation <C> = rho^2 dt S.  Each path carries

      C <- C + rho pi nu sqrt(xp) dW_X

(the product the m update already forms), and ``PathBundle`` keeps C
and <C> at each record time; <C> comes from S, so it is exact at
|rho| = 1 too, where s^2 is 0.  G = exp(delta C - delta^2 <C> / 2) - 1
then has mean exactly 0 under the scheme, and
``expected_utility_controlled`` regresses it out of the conditional
values as a control variate (Glasserman, section 4.1).

What depends only on (step, state) is tabulated once per run, per step
k and state e, with pi = strategy(t_k, e) and h = sqrt(dt) the scale of
one step's normal: r dt, (pi lam_hat - (pi nu)^2 / 2) dt, rho h pi nu,
(pi nu)^2, kappa dt, kappa theta dt and chi h.  A step
gathers one row per path and updates m, S and X in place.

Paths come in stream blocks of 256: block j (paths 256 j onward) owns
one RNG stream, ``path_stream(seed, j)``.  It draws the chain
trajectories of all the block's paths (``sample_block``), then their
dW_X normals, step-major: step by step, one normal per path; then
each path's Z.  So nothing drawn depends on ``record``.  Nor does it
depend on ``_BLOCK``, which only sets how many paths (whole stream
blocks) are stepped together to bound memory, so results are bitwise
reproducible regardless of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .markov_chain import _STREAM_BLOCK, MarkovChainSpec, RegimePath, path_stream, sample_block
from .models import HestonRegimeParams, Variant
from .regime_expectation import upsilon_heston, xi_ode
from .riccati import D_leverage, d_leverage_fn
from .value_strategy import ValueQuery, optimal_weights, value_smmh_rho

__all__ = [
    "SimConfig",
    "PathBundle",
    "simulate_paths",
    "expected_utility_mc",
    "expected_utility_controlled",
    "terminal_wealth_histogram",
    "HistogramTable",
    "martingale_diagnostic",
    "constant_strategy",
    "optimal_weight_fn",
]

# A strategy maps step times to weights that broadcast to (len(times), n_states).
Strategy = Callable[[np.ndarray], np.ndarray]

_BLOCK = 8192  # paths stepped together, a multiple of _STREAM_BLOCK: bounds memory only
_DRAW_CHUNK = 64  # steps of normals drawn per call into the reused buffer
_OVERFLOW = "wealth overflowed; check the strategy and parameters"


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    The counts, the seed and ``state0`` must be integers (Python or
    numpy), else ConfigError names the field.
    """

    n_paths: int
    steps_per_year: int
    seed: int
    v0: float
    x0: float
    state0: int

    def __post_init__(self):
        for name in ("n_paths", "steps_per_year", "seed", "state0"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")
        if self.steps_per_year < 1:
            raise ConfigError("steps_per_year must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.v0) and self.v0 > 0.0):
            raise ConfigError(f"v0 must be finite and strictly positive, got {self.v0}")
        if not (math.isfinite(self.x0) and self.x0 >= 0.0):
            raise ConfigError(f"x0 must be finite and nonnegative, got {self.x0}")
        if self.state0 < 1:
            raise ConfigError("state0 must be a 1-based state label")


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Simulated trajectories sampled at ``record_times``.

    ``states`` holds 1-based labels and ``X`` the truncated factor (the
    value actually driving variance, hence nonnegative); the asset price
    is not simulated.  ``log_v_mean`` and ``log_v_var`` are the mean and
    variance of ln V given the chain and the factor path up to each
    record time (m and s^2 in the module docstring).  ``rho_part`` and
    ``rho_part_qv`` are the martingale C and its quadratic variation
    <C> = rho^2 dt S (module docstring).  ``terminal_wealth`` holds one
    draw of V(T) per path, exp(m + sqrt(s^2) Z) at the horizon.
    ``record_times`` ends at the horizon.  Whatever ``record`` lists,
    the values at each recorded time and ``terminal_wealth`` are the
    same.
    ``min_x_effective``, the least truncated factor of any path, is
    tracked over every step, not only recorded ones.  RNG provenance:
    under the run's seed, the stream of block j belongs to paths 256 j
    to 256 j + 255 (see the module docstring).
    """

    record_times: np.ndarray
    states: np.ndarray
    X: np.ndarray
    terminal_wealth: np.ndarray
    log_v_mean: np.ndarray
    log_v_var: np.ndarray
    rho_part: np.ndarray
    rho_part_qv: np.ndarray
    min_x_effective: float

    def column(self, t: float) -> int:
        """Column of record time t, matched within ``record``'s on-grid tolerance; KeyError if absent."""
        hits = np.flatnonzero(np.abs(self.record_times - t) <= _on_grid_tol(self.record_times[-1]))
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


def _on_grid_tol(horizon: float) -> float:
    """How far a time may lie from a step grid time and still name it: 1e-9 max(1, T)."""
    return 1e-9 * max(1.0, horizon)


def _step_grid(horizon: float, steps_per_year: int) -> np.ndarray:
    """The simulation's step times: round(T steps_per_year) equal steps (at least one), ending at T."""
    n_steps = max(1, int(round(horizon * steps_per_year)))
    grid = np.arange(n_steps + 1) * (horizon / n_steps)
    grid[-1] = horizon
    return grid


def _record_indices(record, grid: np.ndarray) -> np.ndarray:
    """Sorted grid indices of the times in ``record``, and of the horizon."""
    if isinstance(record, str):
        raise ConfigError("record takes a sequence of times, not a string")
    idx = {len(grid) - 1}
    tol = _on_grid_tol(grid[-1])
    for t in record:
        if not -tol <= float(t) <= grid[-1] + tol:  # also rejects nan
            raise ConfigError(f"record time {t} is outside [0, T] = [0, {grid[-1]}]")
        j = min(max(int(round(float(t) / grid[1])), 0), len(grid) - 1)
        if abs(grid[j] - float(t)) > tol:
            raise ConfigError(f"record time {t} is not on the step grid")
        idx.add(j)
    return np.array(sorted(idx))


def simulate_paths(
    p: HestonRegimeParams,
    chain: MarkovChainSpec,
    strategy: Strategy,
    cfg: SimConfig,
    record: Sequence[float] = (),
    frozen_path: RegimePath | None = None,
) -> PathBundle:
    """Simulate the market under a given strategy.

    ``strategy`` is called once, on the step start times.  ``record`` is
    a sequence of times in [0, T] on the step grid; the horizon is
    always recorded, and by default it is the only record time.  With
    ``frozen_path`` the regime trajectory is fixed instead of sampled,
    which conditions the whole run on one chain path: it must start at
    t = 0 in ``cfg.state0``, end at the model's horizon and carry no
    label above the model's state count.
    """
    if chain.n_states != p.n_states:
        raise ConfigError("chain and model disagree on the state count")
    if cfg.state0 > p.n_states:
        raise ConfigError(f"state0 exceeds n_states = {p.n_states}")
    if frozen_path is not None:
        if frozen_path.start != 0.0 or abs(frozen_path.horizon - p.horizon) > 1e-12:
            raise ConfigError("frozen path must run from t = 0 to the model horizon")
        if frozen_path.states[0] != cfg.state0:
            raise ConfigError(f"frozen path must start in state0 = {cfg.state0}, not in {frozen_path.states[0]}")
        if frozen_path.states.max() > p.n_states:
            raise ConfigError(f"frozen path labels exceed n_states = {p.n_states}")

    grid = _step_grid(p.horizon, cfg.steps_per_year)
    n_steps, dt = len(grid) - 1, grid[1]
    sq_dt = math.sqrt(dt)

    rec_idx = _record_indices(record, grid)
    rec_times = grid[rec_idx]
    rec_slot = {int(j): s for s, j in enumerate(rec_idx)}

    l = p.n_states
    pi = np.broadcast_to(np.asarray(strategy(grid[:-1]), dtype=float), (n_steps, l))
    # coef[k, :, e]: r dt, (pi lam_hat - (pi nu)^2 / 2) dt, rho h pi nu, (pi nu)^2,
    # kappa dt, kappa theta dt, chi h at step k in state e (see the module docstring)
    coef = np.empty((n_steps, 7, l))
    with np.errstate(over="ignore", invalid="ignore"):  # a weight too large to step is rejected below
        pi_nu = pi * p.nu
        pi_nu2 = pi_nu**2
        coef[:, 0] = p.r * dt
        coef[:, 1] = (pi * p.excess_slope - 0.5 * pi_nu2) * dt
        coef[:, 2] = (p.rho * sq_dt) * pi_nu
        coef[:, 3] = pi_nu2
        coef[:, 4:] = np.stack([p.kappa * dt, p.kappa * p.theta * dt, p.chi * sq_dt])
    if not np.isfinite(coef).all():
        raise FloatingPointError(_OVERFLOW)
    orth = max(0.0, 1.0 - p.rho**2) * dt  # the variance of ln V's dW_perp part is orth * S
    rho2dt = p.rho**2 * dt  # <C> = rho2dt * S

    n_paths = cfg.n_paths
    m = len(rec_idx)
    out_states = np.empty((n_paths, m), dtype=np.int16)
    out_x = np.empty((n_paths, m))
    out_w = np.empty(n_paths)
    out_mean = np.empty((n_paths, m))
    out_var = np.empty((n_paths, m))
    out_c = np.empty((n_paths, m))
    out_cqv = np.empty((n_paths, m))
    min_xeff = math.inf

    sb = _STREAM_BLOCK
    buf = np.empty(_DRAW_CHUNK * sb)
    for i0 in range(0, n_paths, _BLOCK):
        i1 = min(i0 + _BLOCK, n_paths)
        b = i1 - i0
        streams = [(j0 - i0, min(sb, i1 - j0), path_stream(cfg.seed, j0 // sb)) for j0 in range(i0, i1, sb)]
        changes = _state_changes(chain, frozen_path, grid, cfg.state0, b, streams)
        dwx = np.empty((_DRAW_CHUNK, b))

        e = np.full(b, cfg.state0 - 1, dtype=np.intp)
        x = np.full(b, cfg.x0)
        lnv_mean = np.full(b, math.log(cfg.v0))
        s_sum, c_sum = np.zeros((2, b))  # S, C
        g = np.empty((7, b))
        a, bx, c, pn2, kdt, kthdt, ch = g
        xp, sq, acc, tmp = np.empty((4, b))
        lo_xp = np.full(b, math.inf)
        # an overflow leaves m or S non-finite to the end, so it is caught at the horizon
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps + 1):
                if k in changes:
                    idx, labels = changes[k]
                    e[idx] = labels
                if k in rec_slot:
                    s = rec_slot[k]
                    out_states[i0:i1, s] = e + 1
                    out_x[i0:i1, s] = np.maximum(x, 0.0)
                    out_mean[i0:i1, s] = lnv_mean
                    np.multiply(s_sum, orth, out=out_var[i0:i1, s])
                    out_c[i0:i1, s] = c_sum
                    np.multiply(s_sum, rho2dt, out=out_cqv[i0:i1, s])
                if k == n_steps:
                    break
                j = k % _DRAW_CHUNK
                if j == 0:
                    _draw_increments(streams, min(_DRAW_CHUNK, n_steps - k), buf, dwx)
                # the labels are valid indices; mode="clip" lets take write into g unbuffered
                np.take(coef[k], e, axis=1, out=g, mode="clip")
                np.maximum(x, 0.0, out=xp)
                np.sqrt(xp, out=sq)
                sq *= dwx[j]
                # m += (a + bx * xp) + c * sq, C += c * sq, S += pn2 * xp
                np.multiply(bx, xp, out=acc)
                acc += a
                np.multiply(c, sq, out=tmp)
                acc += tmp
                c_sum += tmp
                lnv_mean += acc
                np.multiply(pn2, xp, out=tmp)
                s_sum += tmp
                # x += kthdt - kdt * xp, then x += ch * sq
                np.multiply(kdt, xp, out=acc)
                np.subtract(kthdt, acc, out=acc)
                x += acc
                np.multiply(ch, sq, out=acc)
                x += acc
                np.minimum(lo_xp, xp, out=lo_xp)
            # ln V(T) = m + sqrt(s^2) Z: each stream block's next nb normals, after its dW_X ones
            for off, nb, rng in streams:
                rng.standard_normal(out=tmp[off : off + nb])
            np.sqrt(out_var[i0:i1, -1], out=acc)
            acc *= tmp
            acc += lnv_mean
            if not np.isfinite(acc).all():
                raise FloatingPointError(_OVERFLOW)
            np.exp(acc, out=out_w[i0:i1])
        min_xeff = min(min_xeff, float(lo_xp.min()))

    return PathBundle(
        record_times=rec_times,
        states=out_states,
        X=out_x,
        terminal_wealth=out_w,
        log_v_mean=out_mean,
        log_v_var=out_var,
        rho_part=out_c,
        rho_part_qv=out_cqv,
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
    steps, paths, labels = steps[last], paths[last], labels[last].astype(np.intp)
    cuts = np.flatnonzero(np.diff(steps)) + 1
    return {
        int(ks[0]): (ps, ls)
        for ks, ps, ls in zip(np.split(steps, cuts), np.split(paths, cuts), np.split(labels, cuts))
        if len(ks)
    }


def _draw_increments(streams, n, buf, dwx) -> None:
    """Fill rows :n of dwx with the next n steps' dW_X normals of every stream block.

    Each stream draws its (step, path) normals, one per path per step,
    into the contiguous ``buf`` and copies them to its columns of dwx;
    consecutive calls continue the stream exactly where the last one
    stopped, so chunking does not change a single draw.  Their scale
    sqrt(dt) sits in the coefficient table.
    """
    for off, nb, rng in streams:
        z = buf[: n * nb].reshape(n, nb)
        rng.standard_normal(out=z)
        dwx[:n, off : off + nb] = z


def _conditional_power(bundle: PathBundle, col: int, delta: float, log_factor=0.0) -> np.ndarray:
    """E[V^delta | chain, X] exp(log_factor) per path at record column ``col``.

    That is exp(delta m + delta^2 s^2 / 2 + log_factor) with m and s^2
    the bundle's conditional moments of ln V.  A non-finite value raises
    FloatingPointError, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(
            delta * bundle.log_v_mean[:, col] + (0.5 * delta * delta) * bundle.log_v_var[:, col] + log_factor
        )
    if not np.isfinite(out).all():
        raise FloatingPointError(_OVERFLOW)
    return out


def expected_utility_mc(bundle: PathBundle, delta: float) -> tuple[float, float]:
    """Conditional Monte Carlo mean and standard error of U(V(T)) = V(T)^delta / delta.

    Averages E[U(V(T)) | chain, X] = exp(delta m + delta^2 s^2 / 2) / delta
    over the paths, with m and s^2 the conditional mean and variance of
    ln V(T) (``PathBundle.log_v_mean``, ``.log_v_var``).  Its variance is
    at most that of the plain mean of ``terminal_wealth**delta / delta``.
    With a single path the standard error is NaN (absent).
    """
    u = _conditional_power(bundle, -1, delta) / delta
    mean = float(u.mean())
    if len(u) == 1:
        return mean, float("nan")
    return mean, float(u.std(ddof=1) / math.sqrt(len(u)))


def expected_utility_controlled(bundle: PathBundle, delta: float) -> tuple[float, float]:
    """``expected_utility_mc`` with the rho part of ln V(T) as a control variate.

    Regresses G = exp(delta C - delta^2 <C> / 2) - 1, whose mean is
    exactly 0 (``PathBundle.rho_part``, ``.rho_part_qv``), out of the
    conditional values Y = exp(delta m + delta^2 s^2 / 2) / delta: with
    beta the in-sample least-squares slope of Y on G, the estimate is
    the mean of Y - beta G and the standard error the residual standard
    deviation (n - 2 degrees of freedom) over sqrt(n).  The in-sample
    slope biases the estimate by O(1 / n).  With fewer than three paths,
    or when G does not vary (rho = 0, a zero weight), beta is 0 and the
    result is exactly ``expected_utility_mc``'s.  A non-finite G raises
    FloatingPointError, without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.expm1(delta * bundle.rho_part[:, -1] - (0.5 * delta * delta) * bundle.rho_part_qv[:, -1])
        centred = g - g.mean()
        spread = float(centred @ centred)
    if not (np.isfinite(g).all() and math.isfinite(spread)):
        raise FloatingPointError(_OVERFLOW)
    if len(g) < 3 or spread == 0.0:
        return expected_utility_mc(bundle, delta)
    u = _conditional_power(bundle, -1, delta) / delta
    with np.errstate(over="ignore", invalid="ignore"):
        resid = u - (float(centred @ u) / spread) * g
        mean, err = float(resid.mean()), float(resid.std(ddof=2) / math.sqrt(len(u)))
    if not (math.isfinite(mean) and math.isfinite(err)):
        raise FloatingPointError(_OVERFLOW)
    return mean, err


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
    wealth = bundle.terminal_wealth
    n_bins = len(edges) - 1
    # bin i holds edges[i] <= wealth < edges[i + 1]; below edges[0] is dropped
    i = np.searchsorted(edges, wealth, side="right") - 1
    counts = np.bincount(i[(i >= 0) & (i < n_bins)], minlength=n_bins)
    q05, q95 = np.quantile(wealth, [0.05, 0.95]).tolist()
    return HistogramTable(
        bin_edges=edges,
        counts=counts,
        overflow=int(np.count_nonzero(wealth >= edges[-1])),
        q05=q05,
        q95=q95,
    )


def martingale_diagnostic(
    p: HestonRegimeParams,
    chain: MarkovChainSpec,
    cfg: SimConfig,
    checkpoints: Sequence[float] | None = None,
    strategy: Strategy | None = None,
) -> list[tuple[float, float, float, float]]:
    """Sample means of the value process along simulated paths.

    Evaluates Phi(t, V(t), X(t), state(t)) at each checkpoint; there
    must be at least one, each in [0, T] and on the step grid.  By
    default the checkpoints are six step-grid times spread evenly from
    0 to T (each grid time once, should the grid have fewer steps).  Under
    the optimal strategy (the default) the means are flat in t up to
    Monte Carlo noise; under any other admissible strategy they drift
    downward.  Returns rows (t, mean, std_err, z) where z measures the
    gap to Phi(0, v0, x0, state0).  Phi reads xi from ``xi_ode`` at its
    default tolerance, on a mesh through the checkpoints, so each one is
    a node of the table; a checkpoint outside [0, T] raises
    DomainViolation there.

    Phi = V^delta / delta * xi(t, e) exp(D(t) X), and every factor but
    V^delta is a function of the chain and the factor path, so each path
    contributes its conditional mean: V^delta is replaced by
    exp(delta m + delta^2 s^2 / 2), as in ``expected_utility_mc``.  A
    checkpoint where all paths agree to rounding (the t = 0 anchor) has
    std_err 0, and z 0 if its mean is Phi(0, ...) to rounding, else inf.
    With a single path std_err and z are NaN (absent) at every checkpoint.
    """
    if p.variant is Variant.MMH:
        raise ConfigError("the value diagnostic is defined for the separable variants")
    if checkpoints is None:
        grid = _step_grid(p.horizon, cfg.steps_per_year)
        checkpoints = grid[np.unique(np.rint(np.linspace(0, len(grid) - 1, 6)).astype(int))].tolist()
    if len(checkpoints) == 0:
        raise ConfigError("need at least one checkpoint")
    xi = xi_ode(chain, upsilon_heston(p, d_leverage_fn(p)), times=checkpoints)
    if strategy is None:
        strategy = optimal_weight_fn(p)
    bundle = simulate_paths(p, chain, strategy, cfg, record=list(checkpoints))
    phi0 = value_smmh_rho(p, ValueQuery(t=0.0, v=cfg.v0, x=cfg.x0, state=cfg.state0), xi)
    util = 1.0 / p.delta
    rows = []
    for t in checkpoints:
        col = bundle.column(float(t))
        log_factor = D_leverage(p, float(t)) * bundle.X[:, col]
        xi_e = xi.row(float(t))[bundle.states[:, col] - 1]
        phi = util * xi_e * _conditional_power(bundle, col, p.delta, log_factor)
        mean = float(phi.mean())
        err = math.nan if len(phi) == 1 else float(phi.std(ddof=1) / math.sqrt(len(phi)))
        if err <= 1e-13 * abs(mean):  # false on nan: one path gives a NaN z too
            # all paths coincide (e.g. the t = 0 anchor); rounding noise is not noise
            err = 0.0
            z = 0.0 if abs(mean - phi0) <= 1e-9 * abs(phi0) else math.inf
        else:
            z = (mean - phi0) / err
        rows.append((float(t), mean, err, z))
    return rows
