"""Regime expectation xi(t, e) = E[ exp{ int_t^T u(s, MC(s)) ds } | MC(t) = e ].

Two independent routes are provided and cross-checked in the tests:

* ``xi_mc``  - Monte Carlo over chain trajectories, summing the
  integrand's segment integrals along each path (closed form for
  ``upsilon_heston``, adaptive quadrature for
  ``RegimeIntegrand.from_scalar``, which imports scipy on its first
  segment integral).
* ``xi_ode`` - backward RK4 integration of the equivalent coupled
  linear ODE system

      d/dt xi(t, e_i) = -u(t, e_i) xi(t, e_i) - sum_j q_ij xi(t, e_j),
      xi(T, e_i) = 1.

  The system is linear, so each RK4 step is one l x l propagator; a
  chunk of them is built at once by batched matrix products from one
  evaluation of u at all of the chunk's stage times, and the chunk's
  running products are formed by a log-depth prefix-product scan, so
  every step's value is one batched product with the chunk's start
  value.

Positivity of xi is preserved by redoing a failing step from its start
value with scalar RK4 steps, halved locally; losing positivity at the
minimum step signals an integrand far outside the intended regime.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainViolation, StepFailure
from .markov_chain import MarkovChainSpec, PathTable, Segments, quad
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
_CHUNK_SEGMENTS = 1 << 18  # table segments times grid times per truncation chunk: bounds its memory
_CHUNK_ENTRIES = 1 << 12  # xi_ode steps times l * l propagator entries per chunk: bounds its memory


@dataclass(frozen=True, eq=False)
class RegimeIntegrand:
    """Per-state time functions u(t, e), continuous and C^1 in t.

    ``fn_all(t)`` evaluates all states at once: an array of length
    n_states for a scalar t, of shape (len(t), n_states) for an array of
    times; ``segment_integral(lo, hi, states)`` is the array of
    int_lo^hi u(s, state) ds over flat arrays of segments, by adaptive
    quadrature (absolute and relative tolerance 1e-12) for ``from_scalar``
    integrands; scipy is imported on the first such call.
    """

    horizon: float
    n_states: int
    fn_all: Callable[[float | np.ndarray], np.ndarray]
    segment_integral: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def from_scalar(cls, fn: Callable[[float, int], float], horizon: float, n_states: int):
        def fn_all(t) -> np.ndarray:
            rows = [[fn(s, e) for e in range(1, n_states + 1)] for s in np.ravel(t).tolist()]
            return np.array(rows).reshape(np.shape(t) + (n_states,))

        def segment_integral(lo: np.ndarray, hi: np.ndarray, states: np.ndarray) -> np.ndarray:
            return np.array(
                [
                    quad(fn, a, b, args=(int(e),), epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                    for a, b, e in zip(lo.tolist(), hi.tolist(), states)
                ]
            )

        return cls(horizon=horizon, n_states=n_states, fn_all=fn_all, segment_integral=segment_integral)


def upsilon_heston(p: HestonRegimeParams, coeff_fn: Callable[[float], float]) -> RegimeIntegrand:
    """Integrand u(t, e) = delta r(e) + D(t) kappa(e) theta(e).

    ``fn_all`` evaluates D by ``coeff_fn`` (normally ``d_leverage_fn``) on
    a scalar time or on an array of times at once; a ``coeff_fn`` that
    disagrees with ``D_leverage`` at t = 0 raises ValueError.  Segment
    integrals are exact, from ``D_leverage_integral`` at each distinct
    segment edge once: an upper edge equal to the next segment's lower
    edge reuses its value, and the integral is 0 at the horizon.
    """
    d0 = D_leverage(p, 0.0)
    if abs(coeff_fn(0.0) - d0) > 1e-12 * max(1.0, abs(d0)):
        raise ValueError(f"coeff_fn(0) = {coeff_fn(0.0)!r} disagrees with D_leverage(p, 0) = {d0!r}")
    delta_r = p.delta * p.r
    kap_th = p.kappa * p.theta

    def fn_all(t) -> np.ndarray:
        return delta_r + np.multiply.outer(np.broadcast_to(coeff_fn(t), np.shape(t)), kap_th)

    def segment_integral(lo: np.ndarray, hi: np.ndarray, states: np.ndarray) -> np.ndarray:
        big_lo = D_leverage_integral(p, lo)  # int_s^T D at every lower edge s
        big_hi = np.zeros(len(hi))  # D_leverage_integral(p, T) is exactly 0
        shared = np.flatnonzero(hi[:-1] == lo[1:])  # as inside a cell: the next lower edge
        big_hi[shared] = big_lo[shared + 1]
        own = hi != p.horizon
        own[shared] = False
        big_hi[own] = D_leverage_integral(p, hi[own])
        e = states - 1
        return delta_r[e] * (hi - lo) + kap_th[e] * (big_lo - big_hi)

    return RegimeIntegrand(
        horizon=p.horizon, n_states=p.n_states, fn_all=fn_all, segment_integral=segment_integral
    )


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

    def _checked_time(self, t: float) -> float:
        t = float(t)
        if not self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12:  # also rejects nan
            raise ValueError(f"t = {t} outside the tabulated range")
        return t

    def row(self, t: float) -> np.ndarray:
        """All-state values at time t (linear interpolation)."""
        t = self._checked_time(t)
        out = np.array(
            [np.interp(t, self.times, self.values[:, e]) for e in range(self.n_states)]
        )
        return out

    def at(self, t: float, state: int) -> float:
        """Value of state (1..n_states) at time t; raises ValueError like ``row``."""
        if state not in range(1, self.n_states + 1):
            raise ValueError(f"state {state!r} outside 1..{self.n_states}")
        return float(np.interp(self._checked_time(t), self.times, self.values[:, state - 1]))

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

    The paths are those of ``PathTable.sample`` on [0, T] from state,
    cut at T - t and shifted by t, so the estimate is reproducible for a
    fixed seed; it is the (t, state) cell of ``xi_mc_table`` for any
    grid.  A time outside [0, T] raises DomainViolation.
    """
    mean, err = _xi_cells(spec, integrand, [t], [state], n_paths, seed)
    return float(mean[0, 0]), float(err[0, 0])


def xi_mc_table(
    spec: MarkovChainSpec,
    integrand: RegimeIntegrand,
    times,
    n_paths: int,
    seed,
) -> XiTable:
    """Tabulate xi_mc at the given times for every state.

    One truncation pass: for each state, ``n_paths`` paths are drawn once
    on [0, T] (block j of 256 paths on stream (seed, j), the same streams
    for every state); each grid time t reads every path cut at T - t and
    shifted by t.  Every cell is therefore the matching ``xi_mc`` call
    (common random numbers across cells).  A time outside [0, T] raises
    DomainViolation.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values, errs = _xi_cells(spec, integrand, times, range(1, spec.n_states + 1), n_paths, seed)
    return XiTable(times=times, values=values, method="MC", std_err=errs)


def _xi_cells(spec, integrand: RegimeIntegrand, times, starts, n_paths: int, seed):
    def log_weight(segs: Segments) -> np.ndarray:
        return np.add.reduceat(integrand.segment_integral(segs.lo, segs.hi, segs.states), segs.first[:-1])

    return _truncation_mc(spec, integrand.horizon, times, starts, n_paths, seed, log_weight)


def _truncation_mc(
    spec: MarkovChainSpec, horizon: float, times, starts, n_paths: int, seed, log_weight
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of exp(log_weight) per (time, start state) cell.

    Draws ``PathTable.sample`` once on [0, T], whatever the times, and
    truncates it for every time, in chunks of bounded memory; block
    streams do not survive truncation, so a fixed length keeps each
    cell independent of the rest of the grid.  ``log_weight(segs)``
    returns one value per cell of ``segs``.  A time outside [0, T]
    (up to 1e-12 above T) raises DomainViolation; times at or after the
    horizon give exactly (1, 0); one path gives a standard error of 0.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    outside = times[~((times >= 0.0) & (times <= horizon + 1e-12))]  # also catches nan
    if len(outside):
        raise DomainViolation(f"t = {outside[0]} must lie in [0, {horizon}]")
    starts = list(starts)
    mean = np.ones((len(times), len(starts)))
    err = np.zeros_like(mean)
    live = np.flatnonzero(times < horizon)
    if not len(live):
        return mean, err
    table = PathTable.sample(spec, horizon, starts, n_paths, seed)
    step = max(1, _CHUNK_SEGMENTS // len(table.lo))
    for k in range(0, len(live), step):
        rows = live[k : k + step]
        w = np.exp(log_weight(table.truncate(times[rows], horizon))).reshape(len(rows), len(starts), n_paths)
        mean[rows] = w.mean(axis=2)
        if n_paths > 1:
            err[rows] = w.std(axis=2, ddof=1) / np.sqrt(n_paths)
    return mean, err


def _rk4_step(y: np.ndarray, t: float, h: float, rhs) -> np.ndarray:
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def xi_ode(spec: MarkovChainSpec, integrand: RegimeIntegrand, grid_step: float | None = None) -> XiTable:
    """Backward RK4 solution of the coupled linear system for xi.

    The system is linear, y' = M(t) y with M = -diag(u(t)) - Q, so one
    classic RK4 step from t_k to t_{k+1} = t_k - h is an l x l matrix
    P_k with y_{k+1} = P_k y_k.  Steps are taken in chunks of bounded
    memory: one ``fn_all`` call gives u at every stage time of the chunk
    (t_k, t_k - h/2, t_{k+1}), the chunk's propagators are formed by
    batched matmuls, and ``_propagate`` applies them by a prefix-product
    scan.  The products are reassociated against step-by-step
    application, which moves the result by rounding only (about 1e-14
    relative; the propagators are nonnegative at the step sizes in use,
    so nothing cancels).

    The default grid step is horizon/5000, and every step is shortened so
    that whole steps span the horizon; a step that is not finite, not
    positive or longer than the horizon raises ValueError.  A step whose
    result is not finite and positive is redone from the previous value
    by local halving (``_advance``); below a step of 1e-10 the
    integration aborts with StepFailure.
    """
    horizon = integrand.horizon
    if grid_step is None:
        grid_step = horizon / 5000.0
    if not 0.0 < grid_step <= horizon:  # also rejects nan and inf
        raise ValueError(
            f"grid_step must be finite, positive and at most the horizon {horizon}, got {grid_step}"
        )
    if integrand.n_states != spec.n_states:
        raise ValueError("integrand and chain disagree on the state count")
    q = spec.intensity

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return -integrand.fn_all(t) * y - q @ y

    l = spec.n_states
    n = max(1, int(np.ceil(horizon / grid_step - 1e-12)))
    h = horizon / n
    times = horizon - h * np.arange(n + 1)
    times[-1] = 0.0
    stage_times = np.empty(2 * n + 1)  # t_0, t_0 - h/2, t_1, t_1 - h/2, ..., t_n
    stage_times[::2] = times
    stage_times[1::2] = times[:-1] - 0.5 * h
    eye = np.eye(l)
    values = np.empty((n + 1, l))
    values[0] = 1.0
    chunk = max(1, _CHUNK_ENTRIES // (l * l))
    with np.errstate(over="ignore", invalid="ignore"):  # a lost step is caught and redone below
        for k0 in range(0, n, chunk):
            k1 = min(n, k0 + chunk)
            u = integrand.fn_all(stage_times[2 * k0 : 2 * k1 + 1])
            m = -q - u[:, :, None] * eye  # M at the chunk's stage times
            a1, a2, a4 = m[:-1:2], m[1::2], m[2::2]
            s2 = a2 @ (eye - 0.5 * h * a1)
            s3 = a2 @ (eye - 0.5 * h * s2)
            s4 = a4 @ (eye - h * s3)
            _propagate(eye - h / 6.0 * (a1 + 2.0 * s2 + 2.0 * s3 + s4), values, k0, times, h, rhs)
    return XiTable(times=times[::-1].copy(), values=values[::-1].copy(), method="ODE")


def _propagate(props, values, k0, times, h, rhs) -> None:
    """Fill values[k0 + 1 : k0 + len(props) + 1] by y_{k+1} = P_k y_k.

    A pass from step k forms the running products P_j ... P_k for every
    j of the chunk by a Hillis-Steele scan (log2 of the chunk length
    batched matmuls) and applies them all to y_k at once.  The pass is
    checked as a whole; the first step that is not finite and positive
    is redone by ``_advance`` and a new pass starts after it.
    """
    k, stop = k0, k0 + len(props)
    while k < stop:
        acc = props[k - k0 :].copy()
        s = 1
        while s < len(acc):
            acc[s:] = acc[s:] @ acc[:-s]
            s *= 2
        new = values[k + 1 : stop + 1]
        new[:] = acc @ values[k]
        bad = np.flatnonzero(~((new > 0.0) & (new < np.inf)).all(axis=1))
        if not len(bad):
            return
        k += int(bad[0])
        values[k + 1] = _advance(values[k], times[k], -h, rhs)
        k += 1


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
