"""Finite-state continuous-time Markov chain: validation, simulation, path functionals.

The chain is specified by an intensity (generator) matrix Q, where the
off-diagonal entry q_ij >= 0 is the instantaneous rate of jumping from
state i to state j and every row sums to zero.  States are labeled
1..l to match the convention used in parameter files and CSV output.

Holding times in state i are Exponential(-q_ii); on a jump the next
state j is drawn with probability q_ij / (-q_ii).  A state with
q_ii = 0 is absorbing and never jumps.  ``PathTable`` keeps many paths
as flat arrays and restarts them at any later time by truncation;
``sample_block`` draws a block of paths from one RNG stream as array
passes.  Every array route gives one RNG stream to each block of
``_STREAM_BLOCK`` paths: block j holds paths 256 j onward and draws from
``path_stream(seed, j)``.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NegativeRate, RowSumNonZero

__all__ = [
    "MarkovChainSpec",
    "PathTable",
    "RegimePath",
    "Segments",
    "validate_intensity",
    "sample_path",
    "sample_block",
    "transition_probabilities",
    "occupation_integral",
    "path_stream",
]

_ROW_SUM_TOL = 1e-12
_SERIES_TOL = 1e-16
_MAX_STATES = 32
_STREAM_BLOCK = 256  # paths per RNG stream: fixes the draw layout, not a memory bound


@dataclass(frozen=True, eq=False)
class MarkovChainSpec:
    """Validated intensity matrix of a finite-state chain.

    Attributes
    ----------
    n_states : int
        Number of states l (labels run 1..l).
    intensity : ndarray
        The l x l generator matrix Q, per unit time (years).
    """

    n_states: int
    intensity: np.ndarray

    @functools.cached_property
    def _jump_table(self) -> tuple[tuple[float, list[int], list[float]], ...]:
        """Per state: outflow rate, 1-based jump targets, cumulative target probabilities.

        Built once, with the same arithmetic ``sample_path`` would use per
        jump, so paths drawn from the table are bitwise those of the
        per-jump construction.
        """
        table = []
        for i, row in enumerate(self.intensity):
            targets = np.flatnonzero(row > 0.0)
            cum = np.cumsum(row[targets])
            if len(cum):  # an absorbing state has no targets
                cum /= cum[-1]
            table.append((float(-row[i]), (targets + 1).tolist(), cum.tolist()))
        return tuple(table)

    @functools.cached_property
    def _jump_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_jump_table`` as (rate, targets, cum) arrays, rows padded to one width.

        ``targets`` holds 0-based labels and ``cum`` is padded with inf, so
        ``(cum[i] <= u).sum()`` is ``bisect_right`` on state i's row.
        """
        l = self.n_states
        rate = np.array([row[0] for row in self._jump_table])
        targets = np.zeros((l, l), dtype=np.int64)
        cum = np.full((l, l), np.inf)
        for i, (_, tg, cm) in enumerate(self._jump_table):
            targets[i, : len(tg)] = np.array(tg) - 1
            cum[i, : len(cm)] = cm
        return rate, targets, cum


@dataclass(frozen=True, eq=False)
class RegimePath:
    """One piecewise-constant regime trajectory on [start, horizon].

    ``states`` has length K+1 for K jumps: states[j] is occupied on
    [t_j, t_{j+1}) with t_0 = start and t_{K+1} = horizon.  A jump
    landing exactly at the horizon is kept (the closed right endpoint),
    consistent with half-open occupation intervals.
    """

    start: float
    horizon: float
    jump_times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        st = np.asarray(self.states, dtype=np.int64)
        if st.ndim != 1 or jt.ndim != 1 or len(st) != len(jt) + 1:
            raise ValueError("states must have exactly one more entry than jump_times")
        if len(jt) and (jt[0] <= self.start or jt[-1] > self.horizon + 1e-15):
            raise ValueError("jump times must lie in (start, horizon]")
        if (jt[1:] <= jt[:-1]).any():
            raise ValueError("jump times must be strictly increasing")
        if (st[1:] == st[:-1]).any():
            raise ValueError("consecutive states must differ across a jump")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "states", st)

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times)

    def state_at(self, t):
        """State label occupied at time(s) t, right-continuous."""
        idx = np.searchsorted(self.jump_times, t, side="right")
        out = self.states[idx]
        return out if np.ndim(t) else int(out)

    def boundaries(self) -> np.ndarray:
        """Segment edges start = b_0 < ... < b_{K+1} = horizon."""
        return np.concatenate(([self.start], self.jump_times, [self.horizon]))

    def segments(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonempty segments clipped to [t, horizon] as (lo, hi, state) arrays."""
        if not self.start <= t <= self.horizon:
            raise ValueError("need path.start <= t <= path.horizon")
        edges = self.boundaries()
        lo = np.maximum(edges[:-1], t)
        hi = np.minimum(edges[1:], self.horizon)
        keep = hi > lo
        return lo[keep], hi[keep], self.states[keep]


def validate_intensity(matrix) -> MarkovChainSpec:
    """Validate a candidate intensity matrix and wrap it in a spec.

    Raises
    ------
    NegativeRate
        If any off-diagonal entry is negative.
    RowSumNonZero
        If any row sum exceeds 1e-12 in magnitude.
    """
    q = np.array(matrix, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"intensity matrix must be square, got shape {q.shape}")
    l = q.shape[0]
    if l < 1 or l > _MAX_STATES:
        raise ValueError(f"n_states must be in [1, {_MAX_STATES}], got {l}")
    bad = np.argwhere((q < 0) & ~np.eye(l, dtype=bool)) + 1
    if bad.size:
        raise NegativeRate(f"negative off-diagonal rate(s) at {[tuple(ij) for ij in bad.tolist()]}")
    sums = q.sum(axis=1)
    if np.any(np.abs(sums) > _ROW_SUM_TOL):
        bad_rows = [i + 1 for i in range(l) if abs(sums[i]) > _ROW_SUM_TOL]
        raise RowSumNonZero(f"row(s) {bad_rows} sum to {sums[np.array(bad_rows) - 1]}")
    q.setflags(write=False)
    return MarkovChainSpec(n_states=l, intensity=q)


def path_stream(seed, index: int) -> np.random.Generator:
    """Dedicated RNG stream for one path, or one block of paths.

    Streams are derived deterministically from (seed, index), so a run
    is reproducible no matter how its paths are batched.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


def sample_path(
    spec: MarkovChainSpec,
    t0: float,
    horizon: float,
    state0: int,
    rng: np.random.Generator,
) -> RegimePath:
    """Draw one chain trajectory on [t0, horizon] started in state0.

    Holding times use inverse-CDF exponential sampling on uniforms from
    ``rng``; the successor state uses one more uniform against the
    state's cumulative target probabilities (``spec._jump_table``).
    Absorbing states (zero outflow rate) simply hold forever.
    """
    _check_start(spec, t0, horizon, state0)
    jump_times, states = _draw_jumps(spec, t0, horizon, state0, rng)
    return RegimePath(
        start=t0,
        horizon=horizon,
        jump_times=np.asarray(jump_times),
        states=np.asarray(states, dtype=np.int64),
    )


def _check_start(spec: MarkovChainSpec, t0: float, horizon: float, state0: int) -> None:
    if not t0 < horizon:
        raise ValueError("t0 must be strictly before the horizon")
    if not 1 <= state0 <= spec.n_states:
        raise ValueError(f"state0 must be in 1..{spec.n_states}")


def _draw_jumps(
    spec: MarkovChainSpec, t0: float, horizon: float, state0: int, rng: np.random.Generator
) -> tuple[list[float], list[int]]:
    """The jump times and visited states of ``sample_path``, as lists."""
    table = spec._jump_table
    random = rng.random
    jump_times: list[float] = []
    states = [state0]
    t, state = t0, state0
    while True:
        rate, targets, cum = table[state - 1]
        if rate <= 0.0:
            break
        u = random()
        while u == 0.0:  # zero holding time would repeat a jump instant
            u = random()
        t = t - math.log1p(-u) / rate
        if t > horizon:
            break
        state = targets[bisect.bisect_right(cum, random())]
        jump_times.append(t)
        states.append(state)
        if t == horizon:  # jump exactly at the closed right endpoint
            break
    return jump_times, states


def sample_block(
    spec: MarkovChainSpec, length: float, state0: int, n_paths: int, rng: np.random.Generator
) -> "PathTable":
    """Draw ``n_paths`` chain trajectories on [0, length] from state0, all from ``rng``.

    The paths advance together in rounds.  Each round draws one holding
    uniform per path still running, in path order, and then redraws the
    zero ones in the same order until none is left.  It then draws one
    target uniform per path whose jump lands at or before ``length``, in
    path order, and picks the successor against the state's cumulative
    row of ``spec._jump_table``.  As in ``sample_path``, a jump exactly
    at ``length`` is kept and ends the path, and an absorbing state
    never jumps.
    """
    _check_start(spec, 0.0, length, state0)
    rate, targets, cum = spec._jump_arrays
    path = np.arange(n_paths)
    state = np.full(n_paths, state0 - 1)
    t = np.zeros(n_paths)
    paths, times, states = [path], [t], [state]
    live = rate[state] > 0.0
    while live.any():
        path, state, t = path[live], state[live], t[live]
        u = rng.random(len(path))
        zero = np.flatnonzero(u == 0.0)
        while zero.size:  # a zero holding time would repeat a jump instant
            u[zero] = rng.random(zero.size)
            zero = zero[u[zero] == 0.0]
        t = t - np.log1p(-u) / rate[state]
        jumped = t <= length
        path, state, t = path[jumped], state[jumped], t[jumped]
        hits = (cum[state] <= rng.random(len(path))[:, None]).sum(axis=1)
        state = targets[state, hits]
        paths.append(path)
        times.append(t)
        states.append(state)
        live = (t < length) & (rate[state] > 0.0)
    # round-major to path-major: a stable sort keeps each path's jumps in time order
    path = np.concatenate(paths)
    order = np.argsort(path, kind="stable")
    return PathTable(
        length=length,
        first=np.concatenate(([0], np.cumsum(np.bincount(path, minlength=n_paths)))),
        lo=np.concatenate(times)[order],
        states=np.concatenate(states)[order] + 1,
    )


@dataclass(frozen=True, eq=False)
class Segments:
    """Flat segments of many truncated paths ("cells").

    Cell c occupies ``states[first[c]:first[c + 1]]`` on the consecutive
    intervals ``[lo, hi)`` at the same indices, in time order; ``first``
    has one entry more than there are cells.
    """

    first: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    states: np.ndarray


@dataclass(frozen=True, eq=False)
class PathTable:
    """Chain paths drawn once from time 0 and stored as flat arrays.

    Path p's segments are ``lo`` (0, then the jump times) and ``states``
    at ``first[p]:first[p + 1]``.  From ``sample``, for each start state
    ``starts[k]`` and each i < ``n_paths``, path ``k * n_paths + i`` is
    path ``i % 256`` of ``sample_block`` on [0, length] from that state
    on stream ``path_stream(seed, i // 256)``: every start state reads
    the same streams.
    """

    length: float
    first: np.ndarray
    lo: np.ndarray
    states: np.ndarray

    @classmethod
    def sample(cls, spec: MarkovChainSpec, length: float, starts, n_paths: int, seed) -> "PathTable":
        sb = _STREAM_BLOCK
        blocks = [
            sample_block(spec, length, int(e), min(sb, n_paths - j0), path_stream(seed, j0 // sb))
            for e in starts
            for j0 in range(0, n_paths, sb)
        ]
        counts = np.concatenate([np.diff(b.first) for b in blocks])
        return cls(
            length=length,
            first=np.concatenate(([0], np.cumsum(counts))),
            lo=np.concatenate([b.lo for b in blocks]),
            states=np.concatenate([b.states for b in blocks]),
        )

    def truncate(self, times, horizon: float) -> Segments:
        """Every path restarted at each time t and run to ``horizon``, as cells.

        The chain is time-homogeneous, so a path from (t, e) on [t, horizon]
        is the table's path from (0, e) cut at horizon - t and shifted by t.
        Cell ``k * n_table_paths + p`` is path p at ``times[k]``; a jump
        landing exactly on the cut is kept, as ``sample_block`` keeps one at
        its length.  Needs t < horizon <= t + length for every t.
        """
        times = np.asarray(times, dtype=float)
        cut = horizon - times
        if (cut <= 0.0).any() or (cut > self.length).any():
            raise ValueError("need t < horizon <= t + length for every time")
        # segments per cell: those whose lower edge lies at or before the cut
        counts = np.add.reduceat(self.lo <= cut[:, None], self.first[:-1], axis=1).ravel()
        first = np.concatenate(([0], np.cumsum(counts)))
        total = int(first[-1])
        # table index of every cell segment: its path's first segment plus its rank in the cell
        src = np.arange(total) + np.repeat(np.tile(self.first[:-1], len(times)) - first[:-1], counts)
        lo = self.lo[src] + np.repeat(np.repeat(times, len(self.first) - 1), counts)
        hi = np.empty(total)
        hi[:-1] = lo[1:]
        hi[first[1:] - 1] = horizon
        return Segments(first=first, lo=lo, hi=hi, states=self.states[src])


def transition_probabilities(spec: MarkovChainSpec, t: float) -> np.ndarray:
    """Transition matrix exp(Q t) by scaling-and-squaring.

    The Taylor series is truncated once the term's max-norm falls below
    1e-16; the argument is pre-scaled by 2**s so the series converges in
    a few terms, then squared s times.  Rows sum to 1 within 1e-10.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    l = spec.n_states
    a = spec.intensity * float(t)
    norm = np.linalg.norm(a, np.inf)
    s = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm))) + 1
    a /= 2.0**s
    p = np.eye(l)
    term = np.eye(l)
    k = 1
    while True:
        term = term @ a / k
        p += term
        if np.linalg.norm(term, np.inf) < _SERIES_TOL or k > 80:
            break
        k += 1
    for _ in range(s):
        p = p @ p
    # rounding can leave entries a hair outside [0, 1]
    return np.clip(p, 0.0, 1.0)


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    Only the quadrature references call it, so loading the library or
    running the CLI does not import scipy.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def occupation_integral(
    path: RegimePath,
    g: Callable[[float, int], float],
    t: float,
    horizon: float,
) -> float:
    """Integrate s -> g(s, state(s)) along a regime path over [t, horizon].

    The generic quadrature reference: within one segment the state is
    constant and adaptive quadrature (absolute tolerance 1e-12) handles
    the time dependence.  It serves ``RegimeIntegrand.from_scalar``; the
    library's own integrands have closed-form path integrals.  scipy is
    imported on the first call (see ``quad``).
    """
    if not path.start <= t <= horizon <= path.horizon + 1e-12:
        raise ValueError("need path.start <= t <= horizon <= path.horizon")
    edges = path.boundaries()
    total = 0.0
    for j in range(len(path.states)):
        lo = max(edges[j], t)
        hi = min(edges[j + 1], horizon)
        if hi <= lo:
            continue
        state = int(path.states[j])
        val, _ = quad(g, lo, hi, args=(state,), epsabs=1e-12, epsrel=1e-12, limit=200)
        total += val
    return total
