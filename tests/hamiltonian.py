"""Brute-force control check: grid search of the one-step optimality target.

At fixed (t, x, state) the candidate weight maximizes

    pi * x * (lam_hat + rho nu chi f_x/f) + pi^2 nu^2 x (delta - 1) / 2,

the pi-dependent part of the generator applied to the value ansatz,
divided by the positive factor v**delta f.  The grid argmax must land
within one grid step of the closed-form weight.
"""

from __future__ import annotations

import numpy as np

import rsheston as rs
from rsheston.models import Variant


def hamiltonian_grid_argmax(
    p: rs.HestonRegimeParams,
    t: float,
    x: float,
    state: int,
    lo: float = -20.0,
    hi: float = 20.0,
    step: float = 1e-4,
) -> float:
    e = state - 1
    lam = p.excess_slope[e]
    nu = p.nu[e]
    chi = p.chi[e]
    # MMH is solved only at rho = 0, which removes the hedging term entirely
    fx_ratio = 0.0 if p.variant is Variant.MMH else rs.D_leverage(p, t)
    grid = np.arange(lo, hi + step / 2, step)
    objective = grid * x * (lam + p.rho * nu * chi * fx_ratio) + 0.5 * grid**2 * nu**2 * x * (
        p.delta - 1.0
    )
    return float(grid[np.argmax(objective)])
