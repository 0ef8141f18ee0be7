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

``char_fn_coeffs`` is the one evaluation of this closed form and of its
domain.  It runs in two halves, ``_exponent_table`` (the checks on kappa,
theta, chi and beta) and ``_ab`` (the checks on alpha and tau), so that
callers that reuse parameters check them once: the backward composition
across one regime path or across many at once, and the separable
variants' factor exponent D = vt B and its integral.  All evaluate the
closed form on the tilted parameters of ``models.exponent_params``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DomainViolation
from .markov_chain import RegimePath, Segments
from .models import HestonRegimeParams, Variant, exponent_params

__all__ = [
    "PiecewiseAB",
    "char_fn_coeffs",
    "compose_piecewise",
    "compose_segments",
    "D_leverage",
    "D_leverage_integral",
    "d_leverage_fn",
]


def _exponent_table(kappa, theta, chi, beta) -> np.ndarray:
    """The closed form's per-parameter constants, as rows for ``_ab``.

    Raises DomainViolation unless kappa, theta, chi > 0 and beta <=
    kappa^2/(2 chi^2); roundoff just past the beta bound maps to a = 0.
    Rows: kappa, a, chi^2, the alpha bound (kappa + a)/chi^2, and the
    coefficients kappa theta (kappa - a)/chi^2, 2 kappa theta/chi^2 and
    kappa theta (kappa + a)/chi^2 of A, each formed as A's expression
    forms it.
    """
    if not np.all((kappa > 0.0) & (theta > 0.0) & (chi > 0.0)):
        raise DomainViolation("closed forms need kappa, theta, chi > 0")
    disc = kappa * kappa - 2.0 * beta * chi * chi
    if np.any(disc <= -1e-12 * kappa * kappa):
        raise DomainViolation("beta exceeds kappa^2/(2 chi^2)")
    a = np.sqrt(np.maximum(disc, 0.0))
    chi2 = chi * chi
    bound = (kappa + a) / chi2
    k_th = kappa * theta
    rows = (kappa, a, chi2, bound, k_th * (kappa - a) / chi2, 2.0 * kappa * theta / chi2, k_th * bound)
    return np.array(np.broadcast_arrays(*rows), dtype=float)


def _all(x) -> bool:
    """``x.all()``, without numpy's slow reduction of a scalar."""
    return x.all() if isinstance(x, np.ndarray) else bool(x)


def _ab(table, alpha, tau, with_a: bool = True):
    """(A(tau), B(tau)) on ``_exponent_table`` rows, elementwise; A is None without ``with_a``.

    Raises DomainViolation unless tau >= 0 and alpha <= (kappa + a)/chi^2
    (nan fails both), and where 1 - c e^{-a tau} can vanish, which is
    where a = 0 with alpha below its bound.  At the bound B stays at alpha.
    """
    tau = np.asarray(tau, dtype=float)
    if not tau.min(initial=0.0) >= 0.0:  # nan fails too
        raise DomainViolation("tau must be nonnegative")
    kappa, a, chi2, bound, lin, log_coef, _ = table
    live = alpha < bound
    if not _all(live):
        if not np.all(alpha <= bound):  # also rejects nan
            raise DomainViolation("alpha exceeds (kappa + a)/chi^2")
        # at the bound B stays there and A = kappa theta bound tau; the rest take the interior form
        *rows, alpha, tau, live = np.broadcast_arrays(*table, alpha, tau, live)
        b, big_a = np.array(rows[3]), np.array(rows[6] * tau)
        sub_a, b[live] = _ab(np.array(rows)[:, live], alpha[live], tau[live], with_a)
        if not with_a:
            return None, b
        big_a[live] = sub_a
        return big_a, b
    kpa, ac = kappa + a, alpha * chi2
    c = (kappa - a - ac) / (kpa - ac)
    # e^{-a tau} <= 1, so 1 - c e^{-a tau} > 0 wherever c < 1; c = 1 where a = 0
    if not _all(c < 1.0):  # nan fails too
        raise DomainViolation("coefficient denominator vanished: beta = kappa^2/(2 chi^2) needs alpha = kappa/chi^2")
    decay = np.exp(-a * tau)
    den = 1.0 - c * decay
    b = (-c * kpa * decay + kappa - a) / (chi2 * den)
    if not with_a:
        return None, b
    return lin * tau - log_coef * np.log(den / (1.0 - c)), b


def char_fn_coeffs(kappa, theta, chi, alpha, beta, tau):
    """Closed-form (A(tau), B(tau)), elementwise over arguments that broadcast.

    Raises DomainViolation whenever (alpha, beta, tau) leave the region
    where the transform is well defined (see ``_exponent_table`` and
    ``_ab``).
    """
    return _ab(_exponent_table(kappa, theta, chi, beta), alpha, tau)


@dataclass(frozen=True, eq=False)
class _Segment:
    t_lo: float
    t_hi: float
    alpha_end: float  # B value carried in from the later segment
    table: np.ndarray  # the state's ``_exponent_table`` column
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
        if not ((t_arr >= self.start - 1e-12) & (t_arr <= self.horizon + 1e-12)).all():  # also rejects nan
            raise DomainViolation("query time outside the path interval")
        edges = np.array([s.t_lo for s in self.segments] + [self.horizon])
        idx = np.clip(np.searchsorted(edges, t_arr, side="right") - 1, 0, len(self.segments) - 1)
        a_out = np.empty_like(t_arr)
        b_out = np.empty_like(t_arr)
        for j, seg in enumerate(self.segments):
            mask = idx == j
            if not mask.any():
                continue
            big_a, b = _ab(seg.table, seg.alpha_end, seg.t_hi - t_arr[mask])
            a_out[mask] = big_a + seg.a_tail
            b_out[mask] = b
        if np.ndim(t) == 0:
            return float(a_out[0]), float(b_out[0])
        return a_out, b_out


def compose_piecewise(path: RegimePath, p: HestonRegimeParams) -> PiecewiseAB:
    """Backward composition of the closed forms over a regime path.

    Each segment uses its state's tilted (kappa, theta, beta) from
    ``exponent_params``, and every state's are checked, visited or not.
    A and B come out unscaled (multiply by vartheta for the value
    exponent).
    """
    if np.any(path.states > p.n_states):
        raise ValueError("path states exceed the model's state count")
    kt, tt, beta = exponent_params(p)
    table = _exponent_table(kt, tt, p.chi, beta)

    edges = path.boundaries()
    segs: list[_Segment] = []
    alpha = 0.0
    a_tail = 0.0
    for j in range(len(path.states) - 1, -1, -1):
        e = int(path.states[j]) - 1
        seg = _Segment(
            t_lo=float(edges[j]), t_hi=float(edges[j + 1]), alpha_end=alpha, table=table[:, e], a_tail=a_tail
        )
        segs.append(seg)
        big_a, b = _ab(seg.table, alpha, seg.t_hi - seg.t_lo)
        alpha = float(b)
        a_tail += float(big_a)
    return PiecewiseAB(
        segments=tuple(reversed(segs)), start=path.start, horizon=path.horizon, vartheta=p.vartheta
    )


def compose_segments(p: HestonRegimeParams, segs: Segments) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) at the start of every cell: ``compose_piecewise`` on all cells at once.

    Step j applies the closed form over the j-th segment from the end of
    every cell that has one, with B carried in from step j - 1; its
    checks run elementwise, and every state's parameters are checked
    whether or not a cell visits the state.  Unscaled, as
    ``compose_piecewise``.  A label outside 1..l raises ValueError.
    """
    if np.any((segs.states < 1) | (segs.states > p.n_states)):
        raise ValueError(f"path states must be labels 1..{p.n_states}")
    kt, tt, beta = exponent_params(p)
    table = _exponent_table(kt, tt, p.chi, beta)
    state = segs.states - 1
    dur = segs.hi - segs.lo
    n_seg = np.diff(segs.first)
    order = np.argsort(-n_seg, kind="stable")  # cells still composing at step j are a prefix
    last = segs.first[1:][order] - 1
    n_active = len(n_seg) - np.cumsum(np.bincount(n_seg))[:-1]
    big_a = np.zeros(len(n_seg))
    alpha = np.zeros(len(n_seg))
    for j, n in enumerate(n_active):
        s = last[:n] - j
        a_j, alpha[:n] = _ab(table[:, state[s]], alpha[:n], dur[s])
        big_a[:n] += a_j
    out_a, out_b = np.empty_like(big_a), np.empty_like(alpha)
    out_a[order], out_b[order] = big_a, alpha
    return out_a, out_b


@lru_cache(maxsize=32)
def _tilted_table(p: HestonRegimeParams) -> tuple[float, ...]:
    """``_exponent_table`` of the separable variants' tilted parameters (state 1).

    A tuple of floats, cached per parameter set as ``exponent_params``.
    """
    if p.variant is Variant.MMH:
        raise DomainViolation("D_leverage applies to the separable variants only")
    ep = exponent_params(p)
    return tuple(_exponent_table(ep.kappa[0], ep.theta[0], p.chi[0], ep.beta[0]).tolist())


def _tilted_ab(p: HestonRegimeParams, t, with_a: bool = True):
    """Closed-form (A, B)(T - t) with alpha = 0 on the tilted state-1 parameters."""
    table = _tilted_table(p)
    t_arr = np.asarray(t, dtype=float)
    if not ((t_arr >= -1e-12) & (t_arr <= p.horizon + 1e-12)).all():  # also rejects nan
        raise DomainViolation(f"t must lie in [0, {p.horizon}]")
    return _ab(table, 0.0, np.maximum(p.horizon - t_arr, 0.0), with_a)


def D_leverage(p: HestonRegimeParams, t):
    """Factor exponent D(t) = vt B(T - t) of the separable variants.

    B is the closed form on the tilted (kappa, theta, beta) of
    ``exponent_params`` with alpha = 0, so D(T) = 0.  Serves SMMH and
    SMMH_RHO alike (at rho = 0, vt = 1 and the tilt vanishes).
    """
    _, b = _tilted_ab(p, t, with_a=False)
    out = p.vartheta * b
    return float(out) if np.ndim(t) == 0 else out


def D_leverage_integral(p: HestonRegimeParams, t):
    """int_t^T D(s) ds = vt A(T - t) / (kappa theta), since dA/dtau = kappa theta B."""
    big_a, _ = _tilted_ab(p, t)
    ep = exponent_params(p)
    out = p.vartheta / (ep.kappa[0] * ep.theta[0]) * big_a
    return float(out) if np.ndim(t) == 0 else out


def d_leverage_fn(p: HestonRegimeParams):
    """``D_leverage`` bound to p, as a function of a scalar time or an array of times.

    ``upsilon_heston`` takes it as the ``coeff_fn`` of its ``fn_all``.
    """
    return partial(D_leverage, p)
