"""Randomized property suite for the closed-form exponent coefficients.

Shared between the module tests (small draw count) and the acceptance
suite (100 draws).  Each draw samples (kappa, theta, chi, alpha, beta)
inside the well-definedness region.  Two sampling constraints keep the
fixed absolute tolerances meaningful: beta stays at most 0.9 of its
upper bound (so the long-horizon decay rate is bounded away from 0),
and the initial slope |chi^2 alpha^2/2 - kappa alpha + beta| is capped
(so the tau -> 0 limit check at 1e-8 is not swamped by a huge slope).
"""

from __future__ import annotations

import numpy as np

import rsheston as rs

GRID_T = 2.0
GRID_STEP = 1e-3
_SLOPE_CAP = 50.0


def draw_valid(rng: np.random.Generator):
    for _ in range(1000):
        kappa = float(rng.uniform(0.5, 6.0))
        theta = float(rng.uniform(0.005, 0.1))
        chi = float(rng.uniform(0.05, 1.0))
        beta = float(rng.uniform(-3.0, 0.9)) * kappa**2 / (2 * chi**2)
        a = np.sqrt(kappa**2 - 2 * beta * chi**2)
        alpha = float(rng.uniform(-2.0, 0.9)) * (kappa + a) / chi**2
        if abs(0.5 * chi**2 * alpha**2 - kappa * alpha + beta) <= _SLOPE_CAP:
            return kappa, theta, chi, alpha, beta, float(a)
    raise RuntimeError("sampler failed to find an admissible draw")


def _b_on_grid(kappa, theta, chi, alpha, beta, taus):
    return np.array([rs.char_fn_coeffs(kappa, theta, chi, alpha, beta, t)[1] for t in taus])


def _a_on_grid(kappa, theta, chi, alpha, beta, taus):
    return np.array([rs.char_fn_coeffs(kappa, theta, chi, alpha, beta, t)[0] for t in taus])


def check_draw(rng: np.random.Generator) -> list[str]:
    """Run all properties on one draw; returns failure descriptions."""
    kappa, theta, chi, alpha, beta, a = draw_valid(rng)
    label = f"(k={kappa:.3g}, th={theta:.3g}, ch={chi:.3g}, al={alpha:.3g}, be={beta:.3g})"
    failures = []
    taus = np.arange(0.0, GRID_T + GRID_STEP / 2, GRID_STEP)
    b_grid = _b_on_grid(kappa, theta, chi, alpha, beta, taus)
    scale = max(1.0, np.abs(b_grid).max())
    diffs = np.diff(b_grid)

    # monotone in tau (either direction)
    if not (np.all(diffs >= -1e-9 * scale) or np.all(diffs <= 1e-9 * scale)):
        failures.append(f"B not monotone {label}")

    # short-horizon limit B -> alpha
    if abs(rs.char_fn_coeffs(kappa, theta, chi, alpha, beta, 1e-8)[1] - alpha) >= 1e-6:
        failures.append(f"B(0+) != alpha {label}")

    # long-horizon limit (kappa - a)/chi^2, sign governed by beta
    limit = (kappa - a) / chi**2
    b_inf = rs.char_fn_coeffs(kappa, theta, chi, alpha, beta, 1e3)[1]
    if abs(b_inf - limit) >= 1e-6:
        failures.append(f"B(inf) limit off {label}")
    if abs(limit) > 1e-12 and np.sign(limit) != np.sign(beta):
        failures.append(f"B(inf) sign mismatch {label}")

    # A monotone when alpha and beta share a sign
    if alpha >= 0.0 and beta > 0.0:
        a_grid = _a_on_grid(kappa, theta, chi, alpha, beta, taus)
        if not np.all(np.diff(a_grid) >= -1e-9 * max(1.0, np.abs(a_grid).max())):
            failures.append(f"A not nondecreasing {label}")
    if alpha <= 0.0 and beta < 0.0:
        a_grid = _a_on_grid(kappa, theta, chi, alpha, beta, taus)
        if not np.all(np.diff(a_grid) <= 1e-9 * max(1.0, np.abs(a_grid).max())):
            failures.append(f"A not nonincreasing {label}")

    # A bounds for nonnegative exponents
    if alpha >= 0.0 and beta >= 0.0:
        a_grid = _a_on_grid(kappa, theta, chi, alpha, beta, taus)
        lo = -2 * kappa * theta / chi**2 * np.log(1 + GRID_T * kappa)
        hi = 3 * kappa**2 * theta * GRID_T / chi**2
        if a_grid.min() < lo - 1e-12 or a_grid.max() > hi + 1e-12:
            failures.append(f"A bounds violated {label}")

    # domination: alpha below a level inside the strip keeps B below it
    lo_b, hi_b = (kappa - a) / chi**2, (kappa + a) / chi**2
    span = hi_b - lo_b
    c2 = float(rng.uniform(max(alpha, lo_b) + 1e-6 * span, hi_b - 1e-6 * span))
    if alpha < c2:
        b2 = _b_on_grid(kappa, theta, chi, alpha, beta, taus[1:])
        if not np.all(b2 < c2):
            failures.append(f"B domination violated {label}")
    return failures


def run_suite(n_draws: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(n_draws):
        failures.extend(check_draw(rng))
    return failures
