"""Regime expectation xi(t, e) = E[ exp{ int_t^T u(s, MC(s)) ds } | MC(t) = e ].

Two independent routes are provided and cross-checked in the tests:

* ``xi_mc``  - Monte Carlo over chain trajectories, using the
  integrand's path integral (closed form for ``upsilon_heston``,
  ``occupation_integral`` for ``RegimeIntegrand.from_scalar``).
* ``xi_ode`` - backward RK4 integration of the equivalent coupled
  linear ODE system

      d/dt xi(t, e_i) = -u(t, e_i) xi(t, e_i) - sum_j q_ij xi(t, e_j),
      xi(T, e_i) = 1.

Positivity of xi is preserved by local step halving; losing it at the
minimum step signals an integrand far outside the intended regime.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StepFailure
from .markov_chain import MarkovChainSpec, RegimePath, occupation_integral, path_stream, sample_path
from .models import HestonRegimeParams
from .riccati import D_leverage, D_leverage_integral

__all__ = [
    "RegimeIntegrand",
    "XiTable",
    "upsilon_heston",
    "xi_mc",
    "xi_ode",
    "xi_mc_table",
]

_MIN_STEP = 1e-10


@dataclass(frozen=True, eq=False)
class RegimeIntegrand:
    """Per-state time functions u(t, e), continuous and C^1 in t.

    ``fn_all(t)`` evaluates all states at once as an array of length
    n_states; ``path_integral(path, t)`` is int_t^T u(s, path(s)) ds,
    by ``occupation_integral`` for ``from_scalar`` integrands.
    """

    horizon: float
    n_states: int
    fn_all: Callable[[float], np.ndarray]
    path_integral: Callable[[RegimePath, float], float]

    @classmethod
    def from_scalar(cls, fn: Callable[[float, int], float], horizon: float, n_states: int):
        def fn_all(t: float) -> np.ndarray:
            return np.array([fn(t, e) for e in range(1, n_states + 1)])

        def path_integral(path: RegimePath, t: float) -> float:
            return occupation_integral(path, fn, t, horizon)

        return cls(horizon=horizon, n_states=n_states, fn_all=fn_all, path_integral=path_integral)


def upsilon_heston(p: HestonRegimeParams, coeff_fn: Callable[[float], float]) -> RegimeIntegrand:
    """Integrand u(t, e) = delta r(e) + D(t) kappa(e) theta(e).

    ``fn_all`` (the ``xi_ode`` hot loop) evaluates D by ``coeff_fn``,
    normally ``d_leverage_fn``; one that disagrees with ``D_leverage`` at
    t = 0 raises ValueError.  Path integrals are exact, by segment sums
    and ``D_leverage_integral``.
    """
    d0 = D_leverage(p, 0.0)
    if abs(coeff_fn(0.0) - d0) > 1e-12 * max(1.0, abs(d0)):
        raise ValueError(f"coeff_fn(0) = {coeff_fn(0.0)!r} disagrees with D_leverage(p, 0) = {d0!r}")
    delta_r = p.delta * p.r
    kap_th = p.kappa * p.theta

    def fn_all(t: float) -> np.ndarray:
        return delta_r + coeff_fn(t) * kap_th

    def path_integral(path: RegimePath, t: float) -> float:
        lo, hi, state = path.segments(t)
        big_d = D_leverage_integral(p, np.append(lo, hi[-1:]))  # int_s^T D at every segment edge s
        return float(delta_r[state - 1] @ (hi - lo) + kap_th[state - 1] @ (big_d[:-1] - big_d[1:]))

    return RegimeIntegrand(horizon=p.horizon, n_states=p.n_states, fn_all=fn_all, path_integral=path_integral)


@dataclass(frozen=True, eq=False)
class XiTable:
    """Sampled xi values on a time grid, one column per state.

    Linear interpolation in t is used between grid nodes; the terminal
    row is exactly 1.  ``std_err`` is populated for the MC method.
    """

    times: np.ndarray
    values: np.ndarray
    method: str
    std_err: np.ndarray | None = None

    @property
    def n_states(self) -> int:
        return self.values.shape[1]

    def row(self, t: float) -> np.ndarray:
        """All-state values at time t (linear interpolation)."""
        t = float(t)
        if not self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12:
            raise ValueError(f"t = {t} outside the tabulated range")
        out = np.array(
            [np.interp(t, self.times, self.values[:, e]) for e in range(self.n_states)]
        )
        return out

    def at(self, t: float, state: int) -> float:
        return float(np.interp(float(t), self.times, self.values[:, state - 1]))

    def write_csv(self, stream: io.TextIOBase, comment: str | None = None) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        if comment:
            stream.write(f"# {comment}\n")
        writer.writerow(["t", "state", "xi", "std_err", "method"])
        for i, t in enumerate(self.times):
            for e in range(self.n_states):
                err = "" if self.std_err is None else f"{self.std_err[i, e]:.17g}"
                writer.writerow([f"{t:.17g}", e + 1, f"{self.values[i, e]:.17g}", err, self.method])


def xi_mc(
    spec: MarkovChainSpec,
    integrand: RegimeIntegrand,
    t: float,
    state: int,
    n_paths: int,
    seed,
) -> tuple[float, float]:
    """Monte Carlo estimate of xi(t, state) with its standard error.

    One dedicated RNG stream per chain path, derived from (seed, path
    index), so the estimate is reproducible for a fixed seed.
    """
    return _chain_mc(spec, t, integrand.horizon, state, n_paths, seed, lambda path: integrand.path_integral(path, t))


def _chain_mc(spec, t: float, horizon: float, state: int, n_paths: int, seed, log_weight) -> tuple[float, float]:
    """Mean and standard error of exp(log_weight(path)) over paths i from (t, state), each on stream (seed, i)."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if t >= horizon:
        return 1.0, 0.0
    vals = np.empty(n_paths)
    for i in range(n_paths):
        path = sample_path(spec, t, horizon, state, path_stream(seed, i))
        vals[i] = np.exp(log_weight(path))
    est = float(vals.mean())
    err = 0.0 if n_paths == 1 else float(vals.std(ddof=1) / np.sqrt(n_paths))
    return est, err


def xi_mc_table(
    spec: MarkovChainSpec,
    integrand: RegimeIntegrand,
    times,
    n_paths: int,
    seed,
) -> XiTable:
    """Tabulate xi_mc at the given times for every state.

    Streams are derived from (seed, time index, state, path index) so
    entries are independent and the table is reproducible.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    l = spec.n_states
    values = np.ones((len(times), l))
    errs = np.zeros((len(times), l))
    for k, t in enumerate(times):
        for e in range(1, l + 1):
            if t >= integrand.horizon:
                continue  # xi(T, e) = 1 exactly
            sub_seed = np.random.SeedSequence((int(seed), k, e)).generate_state(1)[0]
            values[k, e - 1], errs[k, e - 1] = xi_mc(spec, integrand, float(t), e, n_paths, sub_seed)
    return XiTable(times=times, values=values, method="MC", std_err=errs)


def _rk4_step(y: np.ndarray, t: float, h: float, rhs) -> np.ndarray:
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def xi_ode(spec: MarkovChainSpec, integrand: RegimeIntegrand, grid_step: float | None = None) -> XiTable:
    """Backward RK4 solution of the coupled linear system for xi.

    The default grid step is horizon/5000.  If a step loses positivity
    or finiteness it is halved locally; below a step of 1e-10 the
    integration aborts with StepFailure.
    """
    horizon = integrand.horizon
    if grid_step is None:
        grid_step = horizon / 5000.0
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if integrand.n_states != spec.n_states:
        raise ValueError("integrand and chain disagree on the state count")
    q = spec.intensity

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return -integrand.fn_all(t) * y - q @ y

    n = max(1, int(np.ceil(horizon / grid_step - 1e-12)))
    h = horizon / n
    times = horizon - h * np.arange(n + 1)
    times[-1] = 0.0
    values = np.empty((n + 1, spec.n_states))
    values[0] = 1.0
    y = values[0].copy()
    for k in range(n):
        t = times[k]
        y = _advance(y, t, -h, rhs)
        values[k + 1] = y
    return XiTable(times=times[::-1].copy(), values=values[::-1].copy(), method="ODE")


def _advance(y: np.ndarray, t: float, h: float, rhs) -> np.ndarray:
    """One backward step, bisected locally until positivity holds.

    Bisection recurses into the failing half first, so a genuinely
    divergent system reaches the minimum step quickly instead of
    retrying ever-finer uniform refinements of the whole step.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y_new = _rk4_step(y, t, h, rhs)
    if np.all(np.isfinite(y_new)) and np.all(y_new > 0.0):
        return y_new
    if abs(h) * 0.5 < _MIN_STEP:
        raise StepFailure("positivity or finiteness lost at the minimum step size")
    y_mid = _advance(y, t, 0.5 * h, rhs)
    return _advance(y_mid, t + 0.5 * h, 0.5 * h, rhs)
