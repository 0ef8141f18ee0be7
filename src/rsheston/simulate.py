"""Full stochastic simulation of the regime-switching Heston market.

Scheme per step of size dt (state e frozen at the step start):

* chain transitions are resolved exactly by exponential clocks, never
  by a per-step Bernoulli approximation;
* the factor uses full-truncation Euler, with xp = max(X, 0) inside
  drift and diffusion:
      X <- X + kappa(e) (theta(e) - xp) dt + chi(e) sqrt(xp) dW_X
* wealth and the asset price use log-Euler (hence stay positive):
      ln V  <- ln V  + [r + pi lam_hat xp - pi^2 nu^2 xp / 2] dt
                     + pi nu sqrt(xp) dW_P
      ln P1 <- ln P1 + [r + lam_hat xp - nu^2 xp / 2] dt
                     + nu sqrt(xp) dW_P
* dW_P = rho dW_X + sqrt(1 - rho^2) dW_perp.

Each path owns one RNG stream derived from (seed, path index) and draws
the chain trajectory first and then its normal increments, so results
are bitwise reproducible regardless of how paths are batched.  Setting
``driver_steps_per_year`` draws the Brownian increments on a finer grid
and aggregates them per step: two runs at different step sizes but the
same driver resolution then share their Brownian paths exactly, which
makes discretization-convergence comparisons nearly noise-free.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .errors import ConfigError
from .markov_chain import MarkovChainSpec, RegimePath, path_stream, sample_path
from .models import HestonRegimeParams, Variant
from .regime_expectation import XiTable, upsilon_heston, xi_ode
from .riccati import D_leverage, d_leverage_fn
from .value_strategy import ValueQuery, optimal_strategy, value_smmh_rho

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
    "write_path_dump",
    "read_path_dump",
]

_DUMP_MAGIC = b"RAPB1"
_DUMP_FIELDS = ("state", "X", "V", "P1")


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
        if self.v0 <= 0.0:
            raise ConfigError("v0 must be strictly positive")
        if self.x0 < 0.0:
            raise ConfigError("x0 must be nonnegative")
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
    value actually driving variance, hence nonnegative), ``V`` wealth
    and ``P1`` the asset price (P1(0) = 1).  ``min_v`` and
    ``min_x_effective`` are tracked over every step, not only recorded
    ones.  RNG provenance: stream i belongs to path i under ``seed``.
    """

    grid: np.ndarray
    record_times: np.ndarray
    states: np.ndarray
    X: np.ndarray
    V: np.ndarray
    P1: np.ndarray
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


def constant_strategy(weight: float) -> Callable[[float, int], float]:
    """Strategy holding a fixed fraction of wealth in the risky asset."""

    def fn(t: float, state: int) -> float:
        return weight

    return fn


def optimal_weight_fn(p: HestonRegimeParams) -> Callable[[float, int], float]:
    """The optimal total weight as a plain (t, state) callable."""

    def fn(t: float, state: int) -> float:
        return optimal_strategy(p, t, state).pi_total

    return fn


def _record_indices(record, n_steps: int, grid: np.ndarray) -> np.ndarray:
    if isinstance(record, str):
        if record == "all":
            return np.arange(n_steps + 1)
        if record == "terminal":
            return np.array([n_steps])
        raise ConfigError(f"unknown record mode {record!r}")
    idx = set()
    for t in record:
        j = int(round(float(t) / grid[1])) if n_steps else 0
        j = min(max(j, 0), n_steps)
        if abs(grid[j] - float(t)) > 1e-9 * max(1.0, grid[-1]):
            raise ConfigError(f"record time {t} is not on the step grid")
        idx.add(j)
    idx.add(n_steps)
    return np.array(sorted(idx))


def simulate_paths(
    p: HestonRegimeParams,
    chain: MarkovChainSpec,
    strategy: Callable[[float, int], float],
    cfg: SimConfig,
    record="all",
    frozen_path: RegimePath | None = None,
    block_size: int | None = None,
) -> PathBundle:
    """Simulate the market under a given strategy.

    ``record`` is "all", "terminal", or a sequence of times that must
    lie on the step grid (the terminal time is always included).  With
    ``frozen_path`` the regime trajectory is fixed instead of sampled,
    which conditions the whole run on one chain path.  ``block_size``
    only bounds memory; results are bitwise identical for any batching
    because every path owns its own stream.
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
    n_driver = n_steps * refine
    dt_d = dt / refine
    sq_dtd = math.sqrt(dt_d)

    rec_idx = _record_indices(record, n_steps, grid)
    rec_times = grid[rec_idx]
    rec_slot = {int(j): s for s, j in enumerate(rec_idx)}

    l = p.n_states
    pi_tab = np.empty((n_steps, l))
    for k in range(n_steps):
        for e in range(l):
            pi_tab[k, e] = strategy(float(grid[k]), e + 1)

    r_arr = p.r
    lam_arr = p.excess_slope
    nu_arr = p.nu
    kap_arr = p.kappa
    th_arr = p.theta
    chi_arr = p.chi
    rho, sq1mr = p.rho, math.sqrt(max(0.0, 1.0 - p.rho**2))

    n_paths = cfg.n_paths
    m = len(rec_idx)
    out_states = np.empty((n_paths, m), dtype=np.int16)
    out_x = np.empty((n_paths, m))
    out_v = np.empty((n_paths, m))
    out_p1 = np.empty((n_paths, m))
    min_lnv = math.inf
    min_xeff = math.inf

    block = block_size or max(128, min(n_paths, int(4_200_000 // max(n_driver, 1)) + 1))
    for i0 in range(0, n_paths, block):
        i1 = min(i0 + block, n_paths)
        b = i1 - i0
        zx = np.empty((b, n_driver))
        zp = np.empty((b, n_driver))
        st_steps = np.empty((b, n_steps), dtype=np.int16)
        for ib in range(b):
            rng = path_stream(cfg.seed, i0 + ib)
            # draw order per path: chain first, then the normal block
            path = frozen_path
            if path is None:
                path = sample_path(chain, 0.0, horizon, cfg.state0, rng)
            z = rng.standard_normal((n_driver, 2))
            zx[ib] = z[:, 0]
            zp[ib] = z[:, 1]
            st_steps[ib] = path.state_at(grid[:-1])
            out_states[i0 + ib] = path.state_at(rec_times)

        x = np.full(b, cfg.x0)
        lnv = np.full(b, math.log(cfg.v0))
        lnp1 = np.zeros(b)
        if 0 in rec_slot:
            s = rec_slot[0]
            out_x[i0:i1, s] = np.maximum(x, 0.0)
            out_v[i0:i1, s] = np.exp(lnv)
            out_p1[i0:i1, s] = np.exp(lnp1)
        for k in range(n_steps):
            e0 = st_steps[:, k] - 1
            pi = pi_tab[k][e0]
            rr = r_arr[e0]
            lh = lam_arr[e0]
            nn = nu_arr[e0]
            xp = np.maximum(x, 0.0)
            sq = np.sqrt(xp)
            if refine == 1:
                dwx = zx[:, k] * sq_dtd
                dwp_perp = zp[:, k] * sq_dtd
            else:
                sl = slice(k * refine, (k + 1) * refine)
                dwx = zx[:, sl].sum(axis=1) * sq_dtd
                dwp_perp = zp[:, sl].sum(axis=1) * sq_dtd
            dwp = rho * dwx + sq1mr * dwp_perp
            pn = pi * nn
            lnv += (rr + pi * lh * xp - 0.5 * pn**2 * xp) * dt + pn * sq * dwp
            lnp1 += (rr + lh * xp - 0.5 * nn**2 * xp) * dt + nn * sq * dwp
            x = x + kap_arr[e0] * (th_arr[e0] - xp) * dt + chi_arr[e0] * sq * dwx
            min_xeff = min(min_xeff, float(xp.min()))
            min_lnv = min(min_lnv, float(lnv.min()))
            if k + 1 in rec_slot:
                s = rec_slot[k + 1]
                out_x[i0:i1, s] = np.maximum(x, 0.0)
                out_v[i0:i1, s] = np.exp(lnv)
                out_p1[i0:i1, s] = np.exp(lnp1)
        if not np.all(np.isfinite(lnv)):
            raise FloatingPointError("wealth overflowed; check the strategy and parameters")

    return PathBundle(
        grid=grid,
        record_times=rec_times,
        states=out_states,
        X=out_x,
        V=out_v,
        P1=out_p1,
        seed=cfg.seed,
        min_v=math.exp(min_lnv),
        min_x_effective=min_xeff,
    )


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
    underflow: int
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
        underflow=int(np.count_nonzero(w < edges[0])),
        q05=float(np.quantile(w, 0.05)),
        q95=float(np.quantile(w, 0.95)),
    )


def martingale_diagnostic(
    p: HestonRegimeParams,
    chain: MarkovChainSpec,
    cfg: SimConfig,
    checkpoints: Sequence[float],
    xi: XiTable | None = None,
    strategy: Callable[[float, int], float] | None = None,
) -> list[tuple[float, float, float, float]]:
    """Sample means of the value process along simulated paths.

    Evaluates Phi(t, V(t), X(t), state(t)) at each checkpoint.  Under
    the optimal strategy (the default) the means are flat in t up to
    Monte Carlo noise; under any other admissible strategy they drift
    downward.  Returns rows (t, mean, std_err, z) where z measures the
    gap to Phi(0, v0, x0, state0).
    """
    if p.variant is Variant.MMH:
        raise ConfigError("the value diagnostic is defined for the separable variants")
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


def write_path_dump(bundle: PathBundle, fh: BinaryIO) -> None:
    """Binary dump: magic RAPB1, counts, field list, times, then path-major data."""
    fh.write(_DUMP_MAGIC)
    fh.write(struct.pack("<QQI", bundle.n_paths, len(bundle.record_times), len(_DUMP_FIELDS)))
    for name in _DUMP_FIELDS:
        raw = name.encode("ascii")
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
    fh.write(bundle.record_times.astype("<f8").tobytes())
    data = {
        "state": bundle.states.astype("<f8"),
        "X": bundle.X.astype("<f8"),
        "V": bundle.V.astype("<f8"),
        "P1": bundle.P1.astype("<f8"),
    }
    for i in range(bundle.n_paths):
        for name in _DUMP_FIELDS:
            fh.write(data[name][i].tobytes())


def read_path_dump(fh: BinaryIO) -> dict:
    """Inverse of write_path_dump; returns times plus one array per field."""
    if fh.read(5) != _DUMP_MAGIC:
        raise ValueError("not a path dump (bad magic)")
    n_paths, n_times, n_fields = struct.unpack("<QQI", fh.read(20))
    fields = []
    for _ in range(n_fields):
        (ln,) = struct.unpack("<I", fh.read(4))
        fields.append(fh.read(ln).decode("ascii"))
    times = np.frombuffer(fh.read(8 * n_times), dtype="<f8")
    out = {name: np.empty((n_paths, n_times)) for name in fields}
    for i in range(n_paths):
        for name in fields:
            out[name][i] = np.frombuffer(fh.read(8 * n_times), dtype="<f8")
    return {"times": times, "n_paths": n_paths, **out}
