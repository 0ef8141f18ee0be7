"""Regime expectation xi(t, e) = E[ exp{ int_t^T u(s, MC(s)) ds } | MC(t) = e ].

Two independent routes are provided and cross-checked in the tests:

* ``xi_mc``  - Monte Carlo over chain trajectories, summing the
  integrand's segment integrals along each path (closed form for
  ``upsilon_heston``).
* ``xi_ode`` - backward RK4 integration of the equivalent coupled
  linear ODE system

      d/dt xi(t, e_i) = -u(t, e_i) xi(t, e_i) - sum_j q_ij xi(t, e_j),
      xi(T, e_i) = 1.

  The mesh passes through 0, T and every time the caller asks for, so
  those are table nodes; an ``XiTable`` is read at its nodes only.
  Every step is bisected, from steps of at most T/50, until the
  step-doubling estimate of the relative error is at most ``_RTOL`` =
  1e-10 on a table that is finite and positive; the table carries that
  estimate, and a mesh that would need more than ``_MAX_STEPS`` steps
  raises StepFailure.
  The system is linear, so each RK4 step is one l x l propagator; a
  chunk of them is built at once by batched matrix products from one
  evaluation of u at all of the chunk's stage times, and applied by a
  work-efficient scan: an up-sweep of pairwise matrix products and a
  down-sweep of matrix-vector products, about 2m products for m steps
  in about 2 log2(m) batched calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainViolation, StepFailure
from .markov_chain import MarkovChainSpec, PathTable, Segments
from .models import HestonRegimeParams
from .riccati import D_leverage, D_leverage_integral

__all__ = ["RegimeIntegrand", "XiTable", "upsilon_heston", "xi_mc", "xi_ode", "xi_mc_table"]

_RTOL = 1e-10  # relative error the xi_ode mesh is refined to
_LEVEL0_STEPS = 50  # the mesh starts from steps of at most T/50
_MAX_STEPS = 1 << 18  # the mesh gives up (StepFailure) beyond this many steps
_CHUNK_SEGMENTS = 1 << 18  # table segments times grid times per truncation chunk: bounds its memory
_CHUNK_ENTRIES = 1 << 12  # xi_ode steps times l * l entries per chunk: bounds propagators and up-sweep (as many)


@dataclass(frozen=True, eq=False)
class RegimeIntegrand:
    """Per-state time functions u(t, e), continuous and C^1 in t.

    ``fn_all(t)`` evaluates all states at once: an array of length
    n_states for a scalar t, of shape (len(t), n_states) for an array of
    times; ``segment_integral(lo, hi, states)`` is the array of
    int_lo^hi u(s, state) ds over flat arrays of segments.
    """

    horizon: float
    n_states: int
    fn_all: Callable[[float | np.ndarray], np.ndarray]
    segment_integral: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


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

    ``row`` and ``at`` return the value stored at a node, never one made
    up between nodes: a time farther than 1e-12 from every node raises
    ValueError.  The times must not decrease (ValueError otherwise), and
    the terminal row is exactly 1.  ``std_err`` is populated by
    ``xi_mc_table``, and ``error_estimate`` (the step-doubling estimate
    of the largest relative error, which holds at the nodes) by
    ``xi_ode``.
    """

    times: np.ndarray
    values: np.ndarray
    std_err: np.ndarray | None = None
    error_estimate: float | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) < 0.0):
            raise ValueError("XiTable times must not decrease")

    @property
    def n_states(self) -> int:
        return self.values.shape[1]

    def _nodes(self, t) -> np.ndarray:
        """Index of the node nearest each time in t, which must lie within 1e-12 of it."""
        t = np.asarray(t, dtype=float)
        times = self.times
        outside = t[~((times[0] - 1e-12 <= t) & (t <= times[-1] + 1e-12))]  # also catches nan
        if outside.size:
            raise ValueError(f"t = {outside[0]} outside the tabulated range")
        j = np.minimum(np.searchsorted(times, t), len(times) - 1)
        below = np.maximum(j - 1, 0)
        j = np.where(t - times[below] < times[j] - t, below, j)
        off = t[np.abs(times[j] - t) > 1e-12]
        if off.size:
            raise ValueError(f"t = {off[0]} is not a node of the table; xi is read only where it was solved")
        return j

    def row(self, t) -> np.ndarray:
        """All-state values at the node t; for an array of times, one row per time."""
        return self.values[self._nodes(t)]

    def at(self, t: float, state: int) -> float:
        """Value of state (1..n_states) at the node t; raises ValueError like ``row``."""
        if state not in range(1, self.n_states + 1):
            raise ValueError(f"state {state!r} outside 1..{self.n_states}")
        return float(self.values[self._nodes(t), state - 1])


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
    DomainViolation, and times that decrease raise ValueError.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values, errs = _xi_cells(spec, integrand, times, range(1, spec.n_states + 1), n_paths, seed)
    return XiTable(times=times, values=values, std_err=errs)


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
    horizon give exactly (1, 0); before it, one path gives a NaN
    standard error (absent).
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
        err[rows] = w.std(axis=2, ddof=1) / np.sqrt(n_paths) if n_paths > 1 else math.nan
    return mean, err


def xi_ode(spec: MarkovChainSpec, integrand: RegimeIntegrand, *, times=()) -> XiTable:
    """Backward RK4 solution of the coupled linear system for xi.

    The mesh runs through the knots {0, T} and ``times``: each time is a
    table node bitwise, where ``XiTable.row`` and ``.at`` read it.
    A time that is not in [0, T] raises DomainViolation.  Each gap
    between neighbouring knots is split into equal steps of at most T/50
    first; then every step is bisected and the system solved again until
    the finer table is finite and positive and the step-doubling
    (Richardson) estimate of its relative error, max |y_fine - y_coarse|
    / (15 |y_fine|) over the coarser mesh's nodes, is at most ``_RTOL``
    (Hairer, Norsett and Wanner, Solving ODEs I, section II.4; RK4 is of
    order 4, 2**4 - 1 = 15).  That table is returned with the estimate as
    ``error_estimate``.  There is no other mesh policy and no step
    argument.  StepFailure is raised only at the cap: when a system,
    divergent ones included, needs more than ``_MAX_STEPS`` steps.

    The system is linear, y' = M(t) y with M = -diag(u(t)) - Q, so one
    classic RK4 step of length h_k from t_k to t_{k+1} = t_k - h_k is an
    l x l matrix P_k with y_{k+1} = P_k y_k.  Steps are taken in chunks
    of bounded memory: one ``fn_all`` call gives u at every stage time
    of the chunk (t_k, t_k - h_k/2, t_{k+1}), the chunk's propagators
    are formed by batched matmuls, and ``_sweep`` applies them by an
    up-sweep and down-sweep scan (about 2m products in 2 log2(m) batched
    calls).  The products are reassociated against step-by-step
    application, which moves the result by rounding only (about 1e-14
    relative; the propagators are nonnegative at the step sizes in use,
    so nothing cancels).
    """
    horizon = integrand.horizon
    if integrand.n_states != spec.n_states:
        raise ValueError("integrand and chain disagree on the state count")
    times = np.asarray(times, dtype=float).ravel()
    outside = times[~((times >= 0.0) & (times <= horizon))]  # also catches nan
    if len(outside):
        raise DomainViolation(f"time {outside[0]} is outside [0, T] = [0, {horizon}]")
    knots = np.sort(np.concatenate(([0.0, horizon], times)))[::-1]  # T first: the solve runs backward
    knots = knots[np.append(True, knots[1:] < knots[:-1])]  # each time once; np.unique would import numpy.ma
    gaps = knots[:-1] - knots[1:]
    counts = np.maximum(1, np.ceil(gaps / (horizon / _LEVEL0_STEPS) - 1e-12)).astype(np.int64)
    nodes, values = _solve(spec.intensity, integrand.fn_all, knots, counts)
    estimate = math.inf
    while True:
        counts = 2 * counts
        if counts.sum() > _MAX_STEPS:
            raise StepFailure(
                f"xi_ode stopped at {len(nodes) - 1} steps (cap {_MAX_STEPS}) with a relative error estimate"
                f" of {estimate}, above {_RTOL:g}"
            )
        coarse = values
        nodes, values = _solve(spec.intensity, integrand.fn_all, knots, counts)
        positive = values.min() > 0.0 and values.max() < np.inf  # finite and positive; false on nan
        estimate = float((np.abs(values[::2] - coarse) / (15.0 * values[::2])).max()) if positive else math.inf
        if estimate <= _RTOL:
            return XiTable(times=nodes[::-1].copy(), values=values[::-1].copy(), error_estimate=estimate)


def _solve(q: np.ndarray, fn_all, knots: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes from T down to 0, and xi on them, with counts[i] equal steps from knots[i] to knots[i + 1]."""
    n, l = int(counts.sum()), len(q)
    h = np.repeat((knots[:-1] - knots[1:]) / counts, counts)
    within = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)  # step index inside its gap
    nodes = np.append(np.repeat(knots[:-1], counts) - h * within, knots[-1])
    stage_times = np.empty(2 * n + 1)  # t_0, t_0 - h_0/2, t_1, t_1 - h_1/2, ..., t_n
    stage_times[::2] = nodes
    stage_times[1::2] = nodes[:-1] - 0.5 * h
    eye = np.eye(l)
    values = np.empty((n + 1, l))
    values[0] = 1.0
    chunk = max(1, _CHUNK_ENTRIES // (l * l))
    with np.errstate(over="ignore", invalid="ignore"):  # xi_ode refines a table that is not finite
        for k0 in range(0, n, chunk):
            k1 = min(n, k0 + chunk)
            u = fn_all(stage_times[2 * k0 : 2 * k1 + 1])
            m = np.repeat(-q[None], len(u), axis=0)  # M = -Q - diag(u) at the chunk's stage times
            for e in range(l):  # one 1-d strided update per state, much faster than one 2-d update
                m[:, e, e] -= u[:, e]
            a1, a2, a4 = m[:-1:2], m[1::2], m[2::2]
            hk = h[k0:k1, None, None]
            s2 = a2 @ (eye - 0.5 * hk * a1)
            s3 = a2 @ (eye - 0.5 * hk * s2)
            s4 = a4 @ (eye - hk * s3)
            _sweep(eye - hk / 6.0 * (a1 + 2.0 * s2 + 2.0 * s3 + s4), values[k0 : k1 + 1])
    return nodes, values


def _sweep(props: np.ndarray, out: np.ndarray) -> None:
    """Fill out[1:] by out[j + 1] = props[j] @ out[j] from out[0] (Blelloch 1990).

    The up-sweep multiplies neighbouring pairs, level by level, until one
    product spans all steps (a level of odd length carries its last
    element up unpaired); the down-sweep fills each pair's midpoint from
    its start by one matrix-vector product, top level first.  out[j]
    depends on props[:j] only.
    """
    levels = [props]  # level i: products of 2**i consecutive propagators
    while len(levels[-1]) > 1:
        a = levels[-1]
        up = a[1::2] @ a[: len(a) - 1 : 2]
        levels.append(np.concatenate((up, a[-1:])) if len(a) % 2 else up)
    out[len(props)] = levels[-1][0] @ out[0]
    for i in range(len(levels) - 2, -1, -1):
        firsts, s = levels[i][: len(levels[i]) - 1 : 2], 1 << i  # the first of each pair
        end = 2 * s * len(firsts)
        np.matmul(firsts, out[:end : 2 * s, :, None], out=out[s:end : 2 * s, :, None])
