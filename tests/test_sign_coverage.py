"""The separable closed form agrees with the regime-path composition for
both signs of d, rho and delta.

Every draw has one state, so the chain never jumps and three routes must
coincide: D_leverage against vt * B of compose_piecewise on the frozen
one-segment path, value_smmh_rho against value_timedep_heston, and the
solvability report's tilted rate against HestonRegimeParams.tilted_kappa.
Draws are seeded and kept only where validate_solution_assumptions
accepts them; each sign combination of (d, rho, delta) is drawn once,
plus SMMH (rho = 0) with either sign of d.  The d < 0 probe is also
simulated under its optimal weight, where the value process must stay
flat.
"""

import itertools

import numpy as np
import pytest

import rsheston as rs

# set1's first state with the slope flipped: the case that exposed a sign bug
PROBE = dict(
    variant="smmh_rho", horizon=5.0, delta=0.3, rho=-0.8,
    r=0.03, nu=1.0, kappa=4.0, theta=0.02, chi=0.35, d=-1.7,
)


def _draw(rng, variant, d_sign, rho_sign, delta_sign) -> rs.HestonRegimeParams:
    while True:
        kappa = float(rng.uniform(1.0, 6.0))
        theta = float(rng.uniform(0.01, 0.09))
        delta = delta_sign * float(rng.uniform(0.05, 0.7 if delta_sign > 0 else 2.0))
        p = rs.HestonRegimeParams(
            variant=variant,
            horizon=float(rng.uniform(1.0, 3.0)),
            delta=delta,
            rho=rho_sign * float(rng.uniform(0.1, 0.9)),
            r=float(rng.uniform(0.0, 0.05)),
            nu=float(rng.uniform(0.5, 2.0)),
            kappa=kappa,
            theta=theta,
            chi=float(np.sqrt(2 * kappa * theta) * rng.uniform(0.3, 0.95)),
            d=d_sign * float(rng.uniform(0.2, 2.5)),
        )
        if rs.validate_solution_assumptions(p).ok:
            return p


def _cases() -> list[rs.HestonRegimeParams]:
    rng = np.random.default_rng(20260411)
    cases = [rs.HestonRegimeParams(**PROBE)]
    for signs in itertools.product((-1.0, 1.0), repeat=3):
        cases.append(_draw(rng, "smmh_rho", *signs))
    for d_sign in (-1.0, 1.0):
        cases.append(_draw(rng, "smmh", d_sign, 0.0, 1.0))
    return cases


CASES = _cases()


def _single_path(p: rs.HestonRegimeParams) -> rs.RegimePath:
    return rs.RegimePath(start=0.0, horizon=p.horizon, jump_times=np.array([]), states=np.array([1]))


def test_draws_cover_every_sign():
    signs = {(np.sign(p.d), np.sign(p.rho), np.sign(p.delta)) for p in CASES}
    assert signs >= set(itertools.product((-1.0, 1.0), repeat=3))
    assert (-1.0, 0.0, 1.0) in signs and (1.0, 0.0, 1.0) in signs


@pytest.mark.parametrize("p", CASES, ids=range(len(CASES)))
def test_separable_exponent_matches_composition(p):
    ts = np.linspace(0.0, p.horizon, 41)
    d_closed = rs.D_leverage(p, ts)
    d_composed = p.vartheta * rs.compose_piecewise(_single_path(p), p).B(ts)
    assert np.abs(d_closed - d_composed).max() <= 1e-10


@pytest.mark.parametrize("p", CASES, ids=range(len(CASES)))
def test_separable_value_matches_timedep_value(p, chain1):
    # one state: every chain path is the same, so one path gives xi up to
    # quadrature error (xi_ode's RK4 error would exceed 1e-10 on stiff draws)
    times = [0.0, 0.37 * p.horizon, p.horizon]
    xi = rs.xi_mc_table(chain1, rs.upsilon_heston(p, rs.d_leverage_fn(p)), times, n_paths=1, seed=0)
    path = _single_path(p)
    for t in times:
        for x in (0.02, 0.4):
            q = rs.ValueQuery(t=t, v=10.0, x=x, state=1)
            a = rs.value_timedep_heston(p, path, q)
            b = rs.value_smmh_rho(p, q, xi)
            assert abs(a - b) <= 1e-10 * abs(b)


@pytest.mark.parametrize("p", CASES, ids=range(len(CASES)))
def test_reported_tilted_rate_is_the_model_rate(p):
    report = rs.validate_solution_assumptions(p)
    rate = next(c for c in report.checks if c.name == "tilted_rate_positive")
    assert rate.rhs == p.tilted_kappa()[0]


def test_negative_slope_value_process_is_flat(chain1):
    # sized so that an exponent built on |d| instead of d fails here
    # (z = +5.9 at t = 5 for this seed)
    p = rs.HestonRegimeParams(**PROBE)
    cfg = rs.SimConfig(n_paths=50_000, steps_per_year=20, seed=20260411, v0=10.0, x0=0.02, state0=1)
    rows = rs.martingale_diagnostic(p, chain1, cfg, [0.0, 1.0, 2.5, 5.0])
    assert all(abs(z) <= 3.0 for _, _, _, z in rows), rows
