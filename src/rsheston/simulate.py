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

and at each record time draws one N(0, 1), Z, for the orthogonal part
of the interval since the previous record (S' is S at that record):

      W <- W + sqrt((1 - rho^2) dt (S - S')) Z,   V = exp(m + W).

(state, X, V) at the record times then has exactly the law of the
per-step scheme.  ``m`` and ``s^2 = (1 - rho^2) dt S`` are the mean and
variance of ln V given the chain and the factor path, and
``PathBundle`` keeps them.  The estimators average
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
k and state e, with pi = strategy(t_k, e) and h = sqrt(dt / refine) the
scale of one driver normal: r dt, (pi lam_hat - (pi nu)^2 / 2) dt,
rho h pi nu, (pi nu)^2, kappa dt, kappa theta dt and chi h.  A step
gathers one row per path and updates m, S and X in place.

Paths come in stream blocks of 256: block j (paths 256 j onward) owns
two RNG streams derived from (seed, j), ``path_stream(seed, j)`` and
the first child of its seed sequence (``Generator.spawn``).  The first
draws the chain trajectories of all the block's paths
(``sample_block``) and then their dW_X normals, step-major: driver step
by driver step, one normal per path.  The second draws the record
normals, record time by record time, one per path.  So X and the states
do not depend on ``record``, and the record normals do not depend on
the step size.  Neither layout depends on ``_BLOCK``, which only sets
how many paths (whole stream blocks) are stepped together to bound
memory, so results are bitwise reproducible regardless of batching.
Setting ``driver_steps_per_year`` draws dW_X on a finer grid and sums
it per step as it is drawn: two runs at different step sizes but the
same driver resolution then share their Brownian paths and their record
normals exactly, which makes discretization-convergence comparisons
nearly noise-free.
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
_DRIVER_CHUNK = 64  # driver steps of normals drawn per call into the reused buffer
_OVERFLOW = "wealth overflowed; check the strategy and parameters"


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    The counts, the seed and ``state0`` must be integers (Python or
    numpy), else ConfigError names the field.  ``driver_steps_per_year``
    (optional) must be a positive multiple of ``steps_per_year``; see
    the module docstring.
    """

    n_paths: int
    steps_per_year: int
    seed: int
    v0: float
    x0: float
    state0: int
    driver_steps_per_year: int | None = None

    def __post_init__(self):
        optional = () if self.driver_steps_per_year is None else ("driver_steps_per_year",)
        for name in ("n_paths", "steps_per_year", "seed", "state0", *optional):
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
        if optional and (self.driver_steps_per_year < 1 or self.driver_steps_per_year % self.steps_per_year):
            raise ConfigError("driver_steps_per_year must be a positive multiple of steps_per_year")


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Simulated trajectories sampled at ``record_times``.

    ``states`` holds 1-based labels, ``X`` the truncated factor (the
    value actually driving variance, hence nonnegative) and ``V``
    wealth; the asset price is not simulated.  ``log_v_mean`` and
    ``log_v_var`` are the mean and variance of ln V given the chain and
    the factor path up to each record time (m and s^2 in the module
    docstring); the drawn ``V`` is one sample of that Gaussian.  The
    moments at the terminal time do not depend on ``record``.
    ``rho_part`` and ``rho_part_qv`` are the martingale C and its
    quadratic variation <C> = rho^2 dt S (module docstring), which
    depend on neither ``record`` nor the record normals.
    ``min_x_effective``, the least truncated factor of any path, is
    tracked over every step, not only recorded ones.  RNG provenance:
    under ``seed``, the streams of block j belong to paths 256 j to
    256 j + 255 (see the module docstring).
    """

    grid: np.ndarray
    record_times: np.ndarray
    states: np.ndarray
    X: np.ndarray
    V: np.ndarray
    log_v_mean: np.ndarray
    log_v_var: np.ndarray
    rho_part: np.ndarray
    rho_part_qv: np.ndarray
    seed: int
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
) -> PathBundle:
    """Simulate the market under a given strategy.

    ``strategy`` is called once, on the step start times.  ``record`` is
    "all", "terminal", or a sequence of times in [0, T] that must lie on
    the step grid (the terminal time is always included).  With
    ``frozen_path`` the regime trajectory is fixed instead of sampled,
    which conditions the whole run on one chain path; its labels must
    not exceed the model's state count.
    """
    if chain.n_states != p.n_states:
        raise ConfigError("chain and model disagree on the state count")
    if cfg.state0 > p.n_states:
        raise ConfigError(f"state0 exceeds n_states = {p.n_states}")
    if frozen_path is not None and abs(frozen_path.horizon - p.horizon) > 1e-12:
        raise ConfigError("frozen path horizon must match the model horizon")
    if frozen_path is not None and frozen_path.states.max() > p.n_states:
        raise ConfigError(f"frozen path labels exceed n_states = {p.n_states}")

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
    # coef[k, :, e]: r dt, (pi lam_hat - (pi nu)^2 / 2) dt, rho h pi nu, (pi nu)^2,
    # kappa dt, kappa theta dt, chi h at step k in state e (see the module docstring)
    coef = np.empty((n_steps, 7, l))
    with np.errstate(over="ignore", invalid="ignore"):  # a weight too large to step is rejected below
        pi_nu = pi * p.nu
        pi_nu2 = pi_nu**2
        coef[:, 0] = p.r * dt
        coef[:, 1] = (pi * p.excess_slope - 0.5 * pi_nu2) * dt
        coef[:, 2] = (p.rho * sq_dtd) * pi_nu
        coef[:, 3] = pi_nu2
        coef[:, 4:] = np.stack([p.kappa * dt, p.kappa * p.theta * dt, p.chi * sq_dtd])
    if not np.isfinite(coef).all():
        raise FloatingPointError(_OVERFLOW)
    orth = max(0.0, 1.0 - p.rho**2) * dt  # the variance of ln V's dW_perp part is orth * S
    rho2dt = p.rho**2 * dt  # <C> = rho2dt * S

    n_paths = cfg.n_paths
    m = len(rec_idx)
    out_states = np.empty((n_paths, m), dtype=np.int16)
    out_x = np.empty((n_paths, m))
    out_v = np.empty((n_paths, m))
    out_mean = np.empty((n_paths, m))
    out_var = np.empty((n_paths, m))
    out_c = np.empty((n_paths, m))
    out_cqv = np.empty((n_paths, m))
    min_xeff = math.inf

    sb = _STREAM_BLOCK
    chunk = max(1, _DRIVER_CHUNK // refine)  # steps per normal draw
    buf = np.empty(chunk * refine * sb)
    state0 = cfg.state0 if frozen_path is None else int(frozen_path.state_at(grid[0]))
    for i0 in range(0, n_paths, _BLOCK):
        i1 = min(i0 + _BLOCK, n_paths)
        b = i1 - i0
        streams = []
        for j0 in range(i0, i1, sb):
            rng = path_stream(cfg.seed, j0 // sb)
            streams.append((j0 - i0, min(sb, i1 - j0), rng, rng.spawn(1)[0]))
        changes = _state_changes(chain, frozen_path, grid, state0, b, streams)
        dwx = np.empty((chunk, b))

        e = np.full(b, state0 - 1, dtype=np.intp)
        x = np.full(b, cfg.x0)
        lnv_mean = np.full(b, math.log(cfg.v0))
        s_sum, s_rec, w, z_rec, c_sum = np.zeros((5, b))  # S, S at the last record, W, record normals, C
        g = np.empty((7, b))
        a, bx, c, pn2, kdt, kthdt, ch = g
        xp, sq, acc, tmp = np.empty((4, b))
        lo_xp = np.full(b, math.inf)
        # an overflowing path is caught at the next record time
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps + 1):
                if k in changes:
                    idx, labels = changes[k]
                    e[idx] = labels
                if k in rec_slot:
                    s = rec_slot[k]
                    for off, nb, _, rec_rng in streams:
                        rec_rng.standard_normal(out=z_rec[off : off + nb])
                    # W += sqrt(orth (S - S')) Z, then ln V = m + W
                    np.subtract(s_sum, s_rec, out=tmp)
                    tmp *= orth
                    np.sqrt(tmp, out=tmp)
                    tmp *= z_rec
                    w += tmp
                    s_rec[:] = s_sum
                    np.add(lnv_mean, w, out=tmp)
                    if not np.isfinite(tmp).all():
                        raise FloatingPointError(_OVERFLOW)
                    out_states[i0:i1, s] = e + 1
                    out_x[i0:i1, s] = np.maximum(x, 0.0)
                    out_v[i0:i1, s] = np.exp(tmp)
                    out_mean[i0:i1, s] = lnv_mean
                    np.multiply(s_sum, orth, out=out_var[i0:i1, s])
                    out_c[i0:i1, s] = c_sum
                    np.multiply(s_sum, rho2dt, out=out_cqv[i0:i1, s])
                if k == n_steps:
                    break
                j = k % chunk
                if j == 0:
                    _draw_increments(streams, min(chunk, n_steps - k), refine, buf, dwx)
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
        min_xeff = min(min_xeff, float(lo_xp.min()))

    return PathBundle(
        grid=grid,
        record_times=rec_times,
        states=out_states,
        X=out_x,
        V=out_v,
        log_v_mean=out_mean,
        log_v_var=out_var,
        rho_part=out_c,
        rho_part_qv=out_cqv,
        seed=cfg.seed,
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
    for off, nb, rng, _ in streams:
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


def _draw_increments(streams, n, refine, buf, dwx) -> None:
    """Fill rows :n of dwx with the next n steps' dW_X normals of every stream block.

    Each stream draws its (driver step, path) normals into ``buf``;
    consecutive calls continue the stream exactly where the last one
    stopped, so chunking does not change a single draw.  A row holds
    each path's sum of the step's ``refine`` driver normals; their scale
    sqrt(dt / refine) sits in the coefficient table.
    """
    for off, nb, rng, _ in streams:
        z = buf[: n * refine * nb].reshape(n, refine, nb)
        rng.standard_normal(out=z)
        z.sum(axis=1, out=dwx[:n, off : off + nb])


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
    w = bundle.terminal_wealth
    n_bins = len(edges) - 1
    # bin i holds edges[i] <= w < edges[i + 1]; below edges[0] is dropped
    i = np.searchsorted(edges, w, side="right") - 1
    counts = np.bincount(i[(i >= 0) & (i < n_bins)], minlength=n_bins)
    q05, q95 = np.quantile(w, [0.05, 0.95]).tolist()
    return HistogramTable(
        bin_edges=edges,
        counts=counts,
        overflow=int(np.count_nonzero(w >= edges[-1])),
        q05=q05,
        q95=q95,
    )


def martingale_diagnostic(
    p: HestonRegimeParams,
    chain: MarkovChainSpec,
    cfg: SimConfig,
    checkpoints: Sequence[float],
    strategy: Strategy | None = None,
) -> list[tuple[float, float, float, float]]:
    """Sample means of the value process along simulated paths.

    Evaluates Phi(t, V(t), X(t), state(t)) at each checkpoint; there
    must be at least one, each in [0, T] and on the step grid.  Under
    the optimal strategy (the default) the means are flat in t up to
    Monte Carlo noise; under any other admissible strategy they drift
    downward.  Returns rows (t, mean, std_err, z) where z measures the
    gap to Phi(0, v0, x0, state0).  Phi reads xi from ``xi_ode`` at its
    default tolerance, on a mesh through the checkpoints, so xi is never
    interpolated between nodes; a checkpoint outside [0, T] raises
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
