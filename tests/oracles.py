"""Reference implementations that the tests compare the library against.

* ``riccati_numeric`` integrates the exponent ODE pair backward by RK4,
  independently of the closed form in ``rsheston.riccati``.
* ``value_timedep_heston`` and ``timedep_strategy`` give the value and
  the optimal weight along one frozen regime trajectory, composed by
  ``compose_piecewise`` path by path.
* ``path_segments`` clips one regime path's segments to [t, horizon].
* ``xi_ode_uniform`` solves xi on a given number of equal RK4 steps,
  finer than ``xi_ode``'s own mesh, for references.
* ``scalar_integrand`` wraps a per-state function u(t, e) as a
  ``RegimeIntegrand`` whose segment integrals come from adaptive
  quadrature; scipy is imported on its first segment integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rsheston as rs
from rsheston.markov_chain import quad
from rsheston.regime_expectation import _solve

_B_ESCAPE = 1e8


class BlowUp(rs.RsHestonError):
    """Numeric Riccati integration escaped to infinity."""


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Backward RK4 samples of (A(t), B(t)) on a grid aligned with segment edges."""

    times: np.ndarray
    A: np.ndarray
    B: np.ndarray


def riccati_numeric(
    boundaries,
    kappa,
    theta,
    chi,
    beta,
    terminal_alpha: float = 0.0,
    grid_step: float = 1e-3,
) -> RiccatiSolution:
    """Integrate the coefficient ODE pair backward with classic RK4.

    ``boundaries`` are the segment edges t_0 < ... < t_n (the last one
    is the horizon); ``kappa``/``theta``/``chi``/``beta`` give the
    constant coefficients on each of the n segments.  Integration starts
    from (A, B)(t_n) = (0, terminal_alpha) and is continuous across
    segment edges.  Each segment is subdivided so steps never exceed
    ``grid_step`` and always land exactly on the edges.

    Raises BlowUp once |B| exceeds 1e8, the signature of a violated
    solvability condition (finite-time Riccati escape).
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    edges = np.asarray(boundaries, dtype=float)
    kap = np.atleast_1d(np.asarray(kappa, dtype=float))
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ch = np.atleast_1d(np.asarray(chi, dtype=float))
    be = np.atleast_1d(np.asarray(beta, dtype=float))
    n_seg = len(edges) - 1
    if n_seg < 1 or not (len(kap) == len(th) == len(ch) == len(be) == n_seg):
        raise ValueError("need one (kappa, theta, chi, beta) tuple per segment")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("boundaries must be strictly increasing")

    times = [np.array([edges[-1]])]
    a_vals = [np.array([0.0])]
    b_vals = [np.array([float(terminal_alpha)])]
    b_cur, a_cur = float(terminal_alpha), 0.0
    for j in range(n_seg - 1, -1, -1):
        seg_len = edges[j + 1] - edges[j]
        m = max(1, int(math.ceil(seg_len / grid_step - 1e-12)))
        h = seg_len / m
        kj, tj, cj, bj = kap[j], th[j], ch[j], be[j]
        c2 = 0.5 * cj * cj

        def rhs(b):
            return -c2 * b * b + kj * b - bj

        seg_t = np.empty(m)
        seg_a = np.empty(m)
        seg_b = np.empty(m)
        t = edges[j + 1]
        for k in range(m):
            # one RK4 step of size -h for the pair (B, A)
            k1b = rhs(b_cur)
            k1a = -kj * tj * b_cur
            b2 = b_cur - 0.5 * h * k1b
            k2b = rhs(b2)
            k2a = -kj * tj * b2
            b3 = b_cur - 0.5 * h * k2b
            k3b = rhs(b3)
            k3a = -kj * tj * b3
            b4 = b_cur - h * k3b
            k4b = rhs(b4)
            k4a = -kj * tj * b4
            b_cur = b_cur - h / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            a_cur = a_cur - h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            t -= h
            if not math.isfinite(b_cur) or abs(b_cur) > _B_ESCAPE:
                raise BlowUp(f"|B| escaped past {_B_ESCAPE:g} near t = {t:.6g}")
            seg_t[k] = t
            seg_a[k] = a_cur
            seg_b[k] = b_cur
        seg_t[-1] = edges[j]  # pin the edge exactly against rounding drift
        times.append(seg_t)
        a_vals.append(seg_a)
        b_vals.append(seg_b)
    t_all = np.concatenate(times)[::-1]
    return RiccatiSolution(times=t_all, A=np.concatenate(a_vals)[::-1], B=np.concatenate(b_vals)[::-1])


def path_segments(path: rs.RegimePath, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonempty segments of ``path`` clipped to [t, horizon] as (lo, hi, state) arrays."""
    if not path.start <= t <= path.horizon:
        raise ValueError("need path.start <= t <= path.horizon")
    edges = path.boundaries()
    lo = np.maximum(edges[:-1], t)
    hi = np.minimum(edges[1:], path.horizon)
    keep = hi > lo
    return lo[keep], hi[keep], path.states[keep]


def timedep_strategy(p: rs.HestonRegimeParams, coeffs: rs.PiecewiseAB) -> Callable[[np.ndarray], np.ndarray]:
    """Optimal weight along one frozen regime trajectory, as an (n_t, l) table.

    pi(t, e) = (1/(1-delta)) [ lam_hat(e)/nu(e)^2
                               + rho (chi(e)/nu(e)) vt B(t) ].
    """
    inv = 1.0 / (1.0 - p.delta)
    slope = p.excess_slope / p.nu**2
    hedge_coef = p.rho * p.chi / p.nu * coeffs.vartheta

    def weight(times: np.ndarray) -> np.ndarray:
        return inv * (slope + hedge_coef * coeffs.ab(times)[1][:, None])

    return weight


def value_timedep_heston(p: rs.HestonRegimeParams, path: rs.RegimePath, q: rs.ValueQuery) -> float:
    """Value along a frozen regime trajectory.

    Phi(t, v, x) = (v**delta/delta) * exp{ int_t^T delta r(m(s)) ds }
                   * exp{ vt A(t) + vt B(t) x }
    with (A, B) composed backward over the trajectory's segments.
    """
    q.check(p)
    coeffs = rs.compose_piecewise(path, p)
    lo, hi, state = path_segments(path, q.t)
    vt = coeffs.vartheta
    a, b = coeffs.ab(q.t)
    log_value = (p.delta * p.r)[state - 1] @ (hi - lo) + vt * a + vt * b * q.x
    return float(q.v**p.delta / p.delta * np.exp(log_value))


def xi_ode_uniform(spec: rs.MarkovChainSpec, integrand: rs.RegimeIntegrand, n_steps: int) -> rs.XiTable:
    """xi on ``n_steps`` equal backward RK4 steps over [0, T], without error control.

    The integrator inside ``xi_ode`` on a mesh the caller chooses, for
    references finer than ``xi_ode``'s own mesh.
    """
    knots = np.array([integrand.horizon, 0.0])
    nodes, values = _solve(spec.intensity, integrand.fn_all, knots, np.array([n_steps]))
    return rs.XiTable(times=nodes[::-1].copy(), values=values[::-1].copy())


def scalar_integrand(fn: Callable[[float, int], float], horizon: float, n_states: int) -> rs.RegimeIntegrand:
    """u(t, e) = fn(t, e), with segment integrals by adaptive quadrature (tolerances 1e-12)."""

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

    return rs.RegimeIntegrand(horizon=horizon, n_states=n_states, fn_all=fn_all, segment_integral=segment_integral)
