"""Value functions and optimal portfolio weights for the solved variants.

Every value function follows the same exponential-affine shape

    Phi(t, v, x, e) = (v**delta / delta) * f(t, x, e),    f > 0,

so Phi scales as c**delta in wealth and carries the sign of delta.
The optimal weight splits into a mean-variance part and a hedging part;
the hedging part vanishes whenever the asset and factor noises are
uncorrelated (rho = 0):

    pi_mv(t) = (1/(1-delta)) * lam_hat(e) / nu(e)^2
    pi_h(t)  = (1/(1-delta)) * rho * (chi(e)/nu(e)) * f_x/f (t)

Neither component depends on wealth or on the current factor level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation
from .markov_chain import MarkovChainSpec, Segments
from .models import HestonRegimeParams, Variant
from .regime_expectation import XiTable, _truncation_mc
from .riccati import D_leverage, compose_segments

__all__ = [
    "ValueQuery",
    "StrategyPoint",
    "optimal_weights",
    "optimal_strategy",
    "value_mmh_general",
    "value_mmh_table",
    "value_smmh_rho",
]


@dataclass(frozen=True)
class ValueQuery:
    """Evaluation point (t, wealth, factor level, state label).

    Wealth must be finite and positive and the factor level finite and
    nonnegative, else ValueError.
    """

    t: float
    v: float
    x: float
    state: int

    def __post_init__(self):
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise ValueError(f"wealth must be finite and strictly positive, got {self.v}")
        if not (math.isfinite(self.x) and self.x >= 0.0):
            raise ValueError(f"factor level must be finite and nonnegative, got {self.x}")
        if self.state < 1:
            raise ValueError("state labels start at 1")

    def check(self, p: HestonRegimeParams) -> "ValueQuery":
        if not 0.0 <= self.t <= p.horizon + 1e-12:
            raise DomainViolation(f"t must lie in [0, {p.horizon}]")
        if self.state > p.n_states:
            raise ValueError(f"state {self.state} exceeds n_states = {p.n_states}")
        return self


@dataclass(frozen=True)
class StrategyPoint:
    """Optimal weight decomposition; pi_total = pi_mv + pi_h by construction."""

    pi_mv: float
    pi_h: float
    pi_total: float

    @classmethod
    def of(cls, pi_mv: float, pi_h: float) -> "StrategyPoint":
        return cls(pi_mv=pi_mv, pi_h=pi_h, pi_total=pi_mv + pi_h)


def optimal_weights(p: HestonRegimeParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Optimal (pi_mv, pi_h) at every time and state, as two (n_t, l) arrays.

    Wealth and factor free.  The separable variants use the exponent
    D(t) in the hedging part, which vanishes at rho = 0 (always for
    SMMH); MMH is solved only at rho = 0 and has no hedging part.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    shape = (len(times), p.n_states)
    inv = 1.0 / (1.0 - p.delta)
    if p.variant is Variant.MMH:
        if p.rho != 0.0:
            raise DomainViolation(
                "no optimal strategy is available for MMH with rho != 0 and "
                "state-dependent coefficients"
            )
        return np.broadcast_to(inv * p.lam_hat / p.nu**2, shape), np.zeros(shape)
    pi_mv = np.broadcast_to(inv * p.d / p.nu, shape)
    pi_h = inv * p.rho * (p.chi / p.nu) * D_leverage(p, times)[:, None]
    return pi_mv, pi_h


def optimal_strategy(p: HestonRegimeParams, t: float, state: int) -> StrategyPoint:
    """Optimal portfolio weight at (t, state): one cell of ``optimal_weights``."""
    if not 1 <= state <= p.n_states:
        raise ValueError(f"state must be in 1..{p.n_states}")
    pi_mv, pi_h = optimal_weights(p, t)
    return StrategyPoint.of(float(pi_mv[0, state - 1]), float(pi_h[0, state - 1]))


def value_mmh_general(
    p: HestonRegimeParams,
    chain: MarkovChainSpec,
    q: ValueQuery,
    n_paths: int,
    seed,
) -> tuple[float, float]:
    """Partial Monte Carlo value for the general regime-switching model, rho = 0.

    The (q.t, q.state) cell of ``value_mmh_table`` at (q.v, q.x), for any
    grid: both read the same paths drawn on [0, T], which gives common
    random numbers across cells.  Returns (estimate, std_err).
    """
    q.check(p)
    phi, err = _mmh_cells(p, chain, [q.t], [q.state], q.v, q.x, n_paths, seed)
    return float(phi[0, 0]), float(err[0, 0])


def value_mmh_table(
    p: HestonRegimeParams,
    chain: MarkovChainSpec,
    times,
    v: float,
    x: float,
    n_paths: int,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Partial Monte Carlo value at every (time, state), as two (n_t, l) arrays.

    Only the chain is simulated.  Each trajectory contributes
    exp{ int delta r } * exp{ vt A(t) + vt B(t) x }, the value along that
    frozen trajectory up to the utility factor (vt = 1 at rho = 0), with
    (A, B) composed backward over its segments, and the average is scaled
    by v**delta/delta.
    For each state, n_paths paths are drawn once on [0, T], block j of 256
    paths on stream (seed, j), the same streams for every state; time t
    reads them cut at T - t and shifted by t, and (A, B) are composed
    backward over all of them at once.  Returns (estimate, std_err).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    for t in times:
        ValueQuery(t=float(t), v=v, x=x, state=1).check(p)
    return _mmh_cells(p, chain, times, range(1, p.n_states + 1), v, x, n_paths, seed)


def _mmh_cells(p: HestonRegimeParams, chain: MarkovChainSpec, times, starts, v, x, n_paths, seed):
    if p.rho != 0.0:
        raise DomainViolation("the regime-switching value requires rho = 0")
    vt = p.vartheta
    delta_r = p.delta * p.r

    def log_weight(segs: Segments) -> np.ndarray:
        big_a, b = compose_segments(p, segs)
        rate = np.add.reduceat(delta_r[segs.states - 1] * (segs.hi - segs.lo), segs.first[:-1])
        return rate + vt * big_a + vt * b * x

    mean, err = _truncation_mc(chain, p.horizon, times, starts, n_paths, seed, log_weight)
    util = v**p.delta / p.delta
    return util * mean, abs(util) * err


def value_smmh_rho(p: HestonRegimeParams, q: ValueQuery, xi: XiTable) -> float:
    """Separable value (SMMH or SMMH_RHO): (v**delta/delta) xi(t, e) exp{D(t) x}, t a node of ``xi``."""
    if p.variant is Variant.MMH:
        raise DomainViolation("value_smmh_rho applies to the separable variants only")
    q.check(p)
    util = q.v**p.delta / p.delta
    return float(util * xi.at(q.t, q.state) * np.exp(D_leverage(p, q.t) * q.x))
