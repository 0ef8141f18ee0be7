"""Exponent coefficient functions for the CIR exponential-affine transform.

For a CIR factor dX = kappa (theta - X) dt + chi sqrt(X) dW and real
exponents with beta <= kappa^2/(2 chi^2), alpha <= (kappa + a)/chi^2,
a = sqrt(kappa^2 - 2 beta chi^2), the conditional transform

    E[ exp{ alpha X(T) + beta int_t^T X(s) ds } | X(t) = x ]
      = exp{ A(T - t) + B(T - t) x }

has closed-form coefficients

    B(tau) = ( -c (kappa + a) e^{-a tau} + kappa - a )
             / ( chi^2 (1 - c e^{-a tau}) ),
    A(tau) = kappa theta (kappa - a)/chi^2 * tau
             - (2 kappa theta / chi^2) ln( (1 - c e^{-a tau}) / (1 - c) ),

with c = (kappa - a - alpha chi^2) / (kappa + a - alpha chi^2).  In
backward time they solve

    B_t + (1/2) chi^2 B^2 - kappa B + beta = 0,   B(T) = alpha,
    A_t + kappa theta B = 0,                      A(T) = 0.

This module provides the closed forms, an independent backward RK4
integrator over piecewise-constant coefficients, the backward
composition across one regime path or across many at once, and the
separable variants' factor exponent D = vt B and its integral.  All evaluate the closed form on the
tilted parameters of ``models.exponent_params``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUp, DomainViolation
from .markov_chain import RegimePath, Segments
from .models import HestonRegimeParams, Variant, exponent_params

__all__ = [
    "CharFnCoeffs",
    "PiecewiseAB",
    "RiccatiSolution",
    "char_fn_coeffs",
    "riccati_numeric",
    "compose_piecewise",
    "compose_segments",
    "D_leverage",
    "D_leverage_integral",
    "d_leverage_fn",
]

_B_ESCAPE = 1e8


@dataclass(frozen=True)
class CharFnCoeffs:
    """One evaluation (A, B) of the exponential-affine coefficients."""

    A: float
    B: float


def _discriminant_root(kappa: float, chi: float, beta: float) -> float:
    disc = kappa * kappa - 2.0 * beta * chi * chi
    if disc < 0.0:
        # roundoff at the boundary beta = kappa^2/(2 chi^2) must map to a = 0
        if disc > -1e-12 * kappa * kappa:
            return 0.0
        raise DomainViolation(
            f"beta = {beta} exceeds kappa^2/(2 chi^2) = {kappa**2 / (2 * chi**2)}"
        )
    return math.sqrt(disc)


def _closed_ab(kappa, theta, chi, alpha, beta, tau):
    """Vectorized closed-form (A(tau), B(tau)); tau scalar or ndarray."""
    if kappa <= 0 or theta <= 0 or chi <= 0:
        raise DomainViolation("closed forms need kappa, theta, chi > 0")
    tau = np.asarray(tau, dtype=float)
    if (tau < 0).any():
        raise DomainViolation("tau must be nonnegative")
    a = _discriminant_root(kappa, chi, beta)
    chi2 = chi * chi
    bound = (kappa + a) / chi2
    if alpha == bound:
        # boundary branch: B is frozen at its terminal value
        b = np.full_like(tau, bound)
        big_a = kappa * theta * bound * tau
        return big_a, b
    if a == 0.0:
        raise DomainViolation(
            "beta = kappa^2/(2 chi^2) is only admissible with alpha = kappa/chi^2"
        )
    if alpha > bound:
        raise DomainViolation(f"alpha = {alpha} exceeds (kappa + a)/chi^2 = {bound}")
    return _interior_ab(kappa, theta, chi2, a, alpha, tau)


def _interior_ab(kappa, theta, chi2, a, alpha, tau):
    """(A(tau), B(tau)) for a > 0 and alpha below its bound, elementwise over arrays."""
    c = (kappa - a - alpha * chi2) / (kappa + a - alpha * chi2)
    decay = np.exp(-a * tau)
    den = 1.0 - c * decay
    if (den <= 0.0).any():
        raise DomainViolation("coefficient denominator vanished inside the domain")
    b = (-c * (kappa + a) * decay + kappa - a) / (chi2 * den)
    big_a = kappa * theta * (kappa - a) / chi2 * tau - (2.0 * kappa * theta / chi2) * np.log(
        den / (1.0 - c)
    )
    return big_a, b


def char_fn_coeffs(
    kappa: float, theta: float, chi: float, alpha: float, beta: float, tau: float
) -> CharFnCoeffs:
    """Closed-form (A, B) at elapsed backward time tau.

    Raises DomainViolation whenever (alpha, beta) leave the region where
    the transform is well defined.
    """
    big_a, b = _closed_ab(kappa, theta, chi, alpha, beta, float(tau))
    return CharFnCoeffs(A=float(big_a), B=float(b))


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


@dataclass(frozen=True, eq=False)
class _Segment:
    t_lo: float
    t_hi: float
    alpha_end: float  # B value carried in from the later segment
    beta: float
    kappa_t: float
    theta_t: float
    chi: float
    a_tail: float  # accumulated A contributions of all later segments


@dataclass(frozen=True, eq=False)
class PiecewiseAB:
    """Piecewise closed-form coefficient functions along one regime path.

    Built backward from the horizon: the last segment starts from
    terminal value 0, each earlier segment from the B value its
    successor attains at their shared edge, which makes B continuous at
    every edge and forces A(horizon) = B(horizon) = 0.
    """

    segments: tuple[_Segment, ...]
    start: float
    horizon: float
    vartheta: float

    def ab(self, t):
        """(A(t), B(t)) from one evaluation: floats for scalar t, else arrays."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < self.start - 1e-12) or np.any(t_arr > self.horizon + 1e-12):
            raise DomainViolation("query time outside the path interval")
        edges = np.array([s.t_lo for s in self.segments] + [self.horizon])
        idx = np.clip(np.searchsorted(edges, t_arr, side="right") - 1, 0, len(self.segments) - 1)
        a_out = np.empty_like(t_arr)
        b_out = np.empty_like(t_arr)
        for j, seg in enumerate(self.segments):
            mask = idx == j
            if not mask.any():
                continue
            tau = seg.t_hi - t_arr[mask]
            big_a, b = _closed_ab(seg.kappa_t, seg.theta_t, seg.chi, seg.alpha_end, seg.beta, tau)
            a_out[mask] = big_a + seg.a_tail
            b_out[mask] = b
        if np.ndim(t) == 0:
            return float(a_out[0]), float(b_out[0])
        return a_out, b_out

    def A(self, t):
        return self.ab(t)[0]

    def B(self, t):
        return self.ab(t)[1]


def compose_piecewise(path: RegimePath, p: HestonRegimeParams) -> PiecewiseAB:
    """Backward composition of the closed forms over a regime path.

    Each segment uses its state's tilted (kappa, theta, beta) from
    ``exponent_params``; A and B come out unscaled (multiply by vartheta
    for the value exponent).
    """
    if np.any(path.states > p.n_states):
        raise ValueError("path states exceed the model's state count")
    kt, tt, beta, vt = exponent_params(p)
    if np.any(kt <= 0.0):
        raise DomainViolation("drift-adjusted reversion speed must stay positive")

    edges = path.boundaries()
    segs: list[_Segment] = []
    alpha = 0.0
    a_tail = 0.0
    for j in range(len(path.states) - 1, -1, -1):
        e = int(path.states[j]) - 1
        tau_j = edges[j + 1] - edges[j]
        seg = _Segment(
            t_lo=float(edges[j]),
            t_hi=float(edges[j + 1]),
            alpha_end=alpha,
            beta=float(beta[e]),
            kappa_t=float(kt[e]),
            theta_t=float(tt[e]),
            chi=float(p.chi[e]),
            a_tail=a_tail,
        )
        segs.append(seg)
        big_a, b = _closed_ab(seg.kappa_t, seg.theta_t, seg.chi, alpha, seg.beta, tau_j)
        alpha = float(b)
        a_tail += float(big_a)
    return PiecewiseAB(
        segments=tuple(reversed(segs)), start=path.start, horizon=path.horizon, vartheta=vt
    )


def compose_segments(p: HestonRegimeParams, segs: Segments) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) at the start of every cell: ``compose_piecewise`` on all cells at once.

    Step j applies the closed form over the j-th segment from the end of
    every cell that has one, with B carried in from step j - 1.  The
    domain checks of ``_closed_ab`` run elementwise, and every state's
    exponent is validated whether or not a cell visits it.  Unscaled, as
    ``compose_piecewise``.
    """
    if np.any(segs.states > p.n_states):
        raise ValueError("path states exceed the model's state count")
    kt, tt, beta, _ = exponent_params(p)
    if np.any(kt <= 0.0):
        raise DomainViolation("drift-adjusted reversion speed must stay positive")
    if np.any(p.chi <= 0.0):
        raise DomainViolation("closed forms need kappa, theta, chi > 0")
    a = np.array([_discriminant_root(k, c, b) for k, c, b in zip(kt, p.chi, beta)])
    chi2 = p.chi * p.chi
    per_state = np.stack((kt, tt, chi2, a, (kt + a) / chi2))
    dur = segs.hi - segs.lo
    n_seg = np.diff(segs.first)
    order = np.argsort(-n_seg, kind="stable")  # cells still composing at step j are a prefix
    last = segs.first[1:][order] - 1
    n_active = len(n_seg) - np.cumsum(np.bincount(n_seg))[:-1]
    big_a = np.zeros(len(n_seg))
    alpha = np.zeros(len(n_seg))
    for j, n in enumerate(n_active):
        s = last[:n] - j
        kj, tj, c2j, aj, bound = per_state[:, segs.states[s] - 1]
        alpha_j, tau = alpha[:n], dur[s]
        if (alpha_j > bound).any():
            raise DomainViolation("B carried into a segment exceeds its state's (kappa + a)/chi^2")
        live = alpha_j < bound  # at the bound, B is frozen at its terminal value
        if ((aj == 0.0) & live).any():
            raise DomainViolation("beta = kappa^2/(2 chi^2) is only admissible with alpha = kappa/chi^2")
        if live.all():
            a_j, b_j = _interior_ab(kj, tj, c2j, aj, alpha_j, tau)
        else:
            a_j, b_j = kj * tj * bound * tau, bound.copy()
            a_j[live], b_j[live] = _interior_ab(kj[live], tj[live], c2j[live], aj[live], alpha_j[live], tau[live])
        big_a[:n] += a_j
        alpha[:n] = b_j
    out_a, out_b = np.empty_like(big_a), np.empty_like(alpha)
    out_a[order], out_b[order] = big_a, alpha
    return out_a, out_b


def _tilted_ab(p: HestonRegimeParams, t):
    """Closed-form (A, B)(T - t) with alpha = 0 on the tilted state-1 parameters."""
    if p.variant is Variant.MMH:
        raise DomainViolation("D_leverage applies to the separable variants only")
    t_arr = np.asarray(t, dtype=float)
    if ((t_arr < -1e-12) | (t_arr > p.horizon + 1e-12)).any():
        raise DomainViolation(f"t must lie in [0, {p.horizon}]")
    ep = exponent_params(p)
    tau = np.maximum(p.horizon - t_arr, 0.0)
    return ep, *_closed_ab(float(ep.kappa[0]), float(ep.theta[0]), float(p.chi[0]), 0.0, float(ep.beta[0]), tau)


def D_leverage(p: HestonRegimeParams, t):
    """Factor exponent D(t) = vt B(T - t) of the separable variants.

    B is the closed form on the tilted (kappa, theta, beta) of
    ``exponent_params`` with alpha = 0, so D(T) = 0.  Serves SMMH and
    SMMH_RHO alike (at rho = 0, vt = 1 and the tilt vanishes).
    """
    ep, _, b = _tilted_ab(p, t)
    out = ep.vartheta * b
    return float(out) if np.ndim(t) == 0 else out


def D_leverage_integral(p: HestonRegimeParams, t):
    """int_t^T D(s) ds = vt A(T - t) / (kappa theta), since dA/dtau = kappa theta B."""
    ep, big_a, _ = _tilted_ab(p, t)
    out = ep.vartheta / (ep.kappa[0] * ep.theta[0]) * big_a
    return float(out) if np.ndim(t) == 0 else out


def d_leverage_fn(p: HestonRegimeParams):
    """D_leverage without per-call validation: validates once, then pure math.

    The returned function takes a scalar time or an array of times (as
    ``upsilon_heston``'s ``fn_all`` passes them) and returns the same
    values as D_leverage, without its range checks on t.
    """
    D_leverage(p, 0.0)  # run the full validation once
    ep = exponent_params(p)
    kt, chi, vt, horizon = float(ep.kappa[0]), float(p.chi[0]), ep.vartheta, p.horizon
    a = _discriminant_root(kt, chi, float(ep.beta[0]))
    c = (kt - a) / (kt + a)
    chi2 = chi * chi

    def d_of(t):
        decay = np.exp(-a * (horizon - t))
        return vt * ((-c * (kt + a) * decay + kt - a) / (chi2 * (1.0 - c * decay)))

    return d_of
