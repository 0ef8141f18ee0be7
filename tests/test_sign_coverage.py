"""The separable closed form agrees with the regime-path composition for
both signs of d, rho and delta.

The single-state draws never jump, so three routes must coincide:
D_leverage against vt * B of compose_piecewise on the frozen one-segment
path, value_smmh_rho against the frozen-path value of tests/oracles.py,
and the solvability report's tilted rate against exponent_params.  The
one closed form gives D_leverage, d_leverage_fn and vt * B of
compose_segments on one-segment cells bit for bit.  Draws are
seeded and kept only where validate_solution_assumptions accepts them;
each sign combination of (d, rho, delta) is drawn once, plus SMMH
(rho = 0) with either sign of d.  The d < 0 probe is also simulated
under its optimal weight, where the value process must stay flat.

The same two equalities are checked next to the solvability bounds,
with d solved for a relative slack in (1e-3, 2e-2).  For delta > 0 the
slack is that of excess_slope_bound, drawn for every sign of (d, rho).
For delta < 0 the excess-slope side is negative, so that bound never
binds; there the slack is that of the tilted rate kt > 0, which only
rho * d < 0 can approach.  The two draws with delta < 0 and rho * d > 0
have no bound within reach and are left out.

Draws on 1-3 states check the closed-form path integral of
upsilon_heston against quadrature for every sign combination, and the
full-market simulation's controlled expected utility against
value_smmh_rho; draws on 2-3 states with d < 0 check xi_mc against
xi_ode.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import rsheston as rs
from conftest import Q_TWO_STATE, random_intensity
from oracles import path_segments, value_timedep_heston

# set1's first state with the slope flipped: the case that exposed a sign bug
PROBE = dict(
    variant="smmh_rho", horizon=5.0, delta=0.3, rho=-0.8,
    r=0.03, nu=1.0, kappa=4.0, theta=0.02, chi=0.35, d=-1.7,
)


def _draw(rng, variant, d_sign, rho_sign, delta_sign, l=1) -> rs.HestonRegimeParams:
    while True:
        kappa = float(rng.uniform(1.0, 6.0))
        theta = rng.uniform(0.01, 0.09, size=l)
        delta = delta_sign * float(rng.uniform(0.05, 0.7 if delta_sign > 0 else 2.0))
        p = rs.HestonRegimeParams(
            variant=variant,
            horizon=float(rng.uniform(1.0, 3.0)),
            delta=delta,
            rho=rho_sign * float(rng.uniform(0.1, 0.9)),
            r=rng.uniform(0.0, 0.05, size=l),
            nu=rng.uniform(0.5, 2.0, size=l),
            kappa=kappa,
            theta=theta,
            chi=float(np.sqrt(2 * kappa * theta.min()) * rng.uniform(0.3, 0.95)),
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


def _path_cases() -> list[rs.HestonRegimeParams]:
    # one draw per sign combination of (d, rho, delta), on 1, 2, 3, 1, ... states
    rng = np.random.default_rng(20261018)
    signs = itertools.product((-1.0, 1.0), repeat=3)
    return [_draw(rng, "smmh_rho", *s, l=1 + i % 3) for i, s in enumerate(signs)]


PATH_CASES = _path_cases()


def _near_bound(rng, d_sign, rho_sign, delta_sign) -> rs.HestonRegimeParams:
    # a regular draw with d solved for a relative slack in (2e-3, 1.5e-2)
    while True:
        p = _draw(rng, "smmh_rho", d_sign, rho_sign, delta_sign)
        kappa, chi, ratio = p.kappa[0], p.chi[0], p.delta_ratio
        slack = float(rng.uniform(2e-3, 1.5e-2))
        if p.delta > 0:
            # ratio d^2 = (1 - slack) vt kt^2 / chi^2 with kt = kappa - ratio rho chi d
            g = math.sqrt((1.0 - slack) * p.vartheta) / chi
            size = g * kappa / (math.sqrt(ratio) + g * ratio * p.rho * d_sign * chi)
        else:
            # kt = slack * kappa
            size = (1.0 - slack) * kappa / (-ratio * abs(p.rho) * chi)
        p = dataclasses.replace(p, d=float(d_sign * size))
        if rs.validate_solution_assumptions(p).ok:
            return p


def _near_bound_cases() -> list[rs.HestonRegimeParams]:
    rng = np.random.default_rng(20261020)
    signs = itertools.product((-1.0, 1.0), repeat=3)
    return [_near_bound(rng, *s) for s in signs if s[2] > 0 or s[0] * s[1] < 0]


NEAR_BOUND = _near_bound_cases()
SEPARABLE_CASES = [
    *(pytest.param(p, id=str(i)) for i, p in enumerate(CASES)),
    *(pytest.param(p, id=f"near_bound{i}") for i, p in enumerate(NEAR_BOUND)),
]


def _bound_slack(p: rs.HestonRegimeParams) -> float:
    checks = {c.name: c for c in rs.validate_solution_assumptions(p).checks}
    if p.delta > 0:
        bound = checks["excess_slope_bound"]
        return (bound.rhs - bound.lhs) / bound.rhs
    return checks["tilted_rate_positive"].rhs / p.kappa[0]


def _single_path(p: rs.HestonRegimeParams) -> rs.RegimePath:
    return rs.RegimePath(start=0.0, horizon=p.horizon, jump_times=np.array([]), states=np.array([1]))


def test_draws_cover_every_sign():
    signs = {(np.sign(p.d), np.sign(p.rho), np.sign(p.delta)) for p in CASES}
    assert signs >= set(itertools.product((-1.0, 1.0), repeat=3))
    assert (-1.0, 0.0, 1.0) in signs and (1.0, 0.0, 1.0) in signs


def test_near_bound_draws_sit_at_the_bound():
    signs = [(np.sign(p.d), np.sign(p.rho), np.sign(p.delta)) for p in NEAR_BOUND]
    assert len(set(signs)) == len(signs) == 6
    for p in NEAR_BOUND:
        assert 1e-3 < _bound_slack(p) < 2e-2, p


@pytest.mark.parametrize("p", SEPARABLE_CASES)
def test_separable_exponent_matches_composition(p):
    ts = np.linspace(0.0, p.horizon, 41)
    d_closed = rs.D_leverage(p, ts)
    d_composed = p.vartheta * rs.compose_piecewise(_single_path(p), p).ab(ts)[1]
    assert np.abs(d_closed - d_composed).max() <= 1e-10


@pytest.mark.parametrize("p", SEPARABLE_CASES)
def test_separable_exponent_routes_are_bitwise_equal(p):
    ts = np.linspace(0.0, p.horizon, 41)
    d_closed = rs.D_leverage(p, ts)
    cells = rs.Segments(  # cell k: one segment in state 1 on [ts[k], T]
        first=np.arange(len(ts) + 1), lo=ts, hi=np.full(len(ts), p.horizon), states=np.ones(len(ts), dtype=np.int64)
    )
    assert np.array_equal(d_closed, rs.d_leverage_fn(p)(ts))
    assert np.array_equal(d_closed, p.vartheta * rs.compose_segments(p, cells)[1])


@pytest.mark.parametrize("p", SEPARABLE_CASES)
def test_separable_value_matches_timedep_value(p, chain1):
    # one state: every chain path is the same, so one path gives xi up to
    # quadrature error (xi_ode's RK4 error would exceed 1e-10 on stiff draws)
    times = [0.0, 0.37 * p.horizon, p.horizon]
    xi = rs.xi_mc_table(chain1, rs.upsilon_heston(p, rs.d_leverage_fn(p)), times, n_paths=1, seed=0)
    path = _single_path(p)
    for t in times:
        for x in (0.02, 0.4):
            q = rs.ValueQuery(t=t, v=10.0, x=x, state=1)
            a = value_timedep_heston(p, path, q)
            b = rs.value_smmh_rho(p, q, xi)
            assert abs(a - b) <= 1e-10 * abs(b)


@pytest.mark.parametrize("p", CASES, ids=range(len(CASES)))
def test_reported_tilted_rate_is_the_model_rate(p):
    report = rs.validate_solution_assumptions(p)
    rate = next(c for c in report.checks if c.name == "tilted_rate_positive")
    assert rate.rhs == rs.exponent_params(p).kappa[0]


def test_negative_slope_value_process_is_flat(chain1):
    # sized so that an exponent built on |d| instead of d fails here
    # (z = +5.9 at t = 5 for this seed)
    p = rs.HestonRegimeParams(**PROBE)
    cfg = rs.SimConfig(n_paths=50_000, steps_per_year=20, seed=20260411, v0=10.0, x0=0.02, state0=1)
    rows = rs.martingale_diagnostic(p, chain1, cfg, [0.0, 1.0, 2.5, 5.0])
    assert all(abs(z) <= 3.0 for _, _, _, z in rows), rows


@pytest.mark.parametrize("p", PATH_CASES, ids=range(len(PATH_CASES)))
def test_closed_form_path_integral_matches_quadrature(p):
    integrand = rs.upsilon_heston(p, rs.d_leverage_fn(p))
    T = p.horizon
    if p.n_states == 1:
        path, times = _single_path(p), [0.0, 0.41 * T, T]
    else:
        jumps = np.array([0.3, 0.55, 1.0]) * T  # the last jump lands on the horizon
        states = {2: [1, 2, 1, 2], 3: [3, 1, 2, 3]}[p.n_states]
        path = rs.RegimePath(start=0.0, horizon=T, jump_times=jumps, states=np.array(states))
        times = [0.0, jumps[0], 0.41 * T, jumps[1], T]
    for t in times:
        closed = integrand.segment_integral(*path_segments(path, t)).sum()
        quad = rs.occupation_integral(path, lambda s, e: integrand.fn_all(s)[e - 1], t, T)
        assert abs(closed - quad) <= 1e-12 * max(1.0, abs(quad)), (t, closed, quad)


PATH_CHAINS = {
    1: [[0.0]],
    2: Q_TWO_STATE,
    3: [[-1.5, 1.5, 0.0], [0.2, -2.7, 2.5], [4.0, 0.3, -4.3]],
}


@pytest.mark.parametrize("p", PATH_CASES, ids=range(len(PATH_CASES)))
def test_controlled_expected_utility_matches_the_closed_form(p):
    # 250 steps per year: at 50 the controlled estimator resolves the Euler bias
    chain = rs.validate_intensity(PATH_CHAINS[p.n_states])
    cfg = rs.SimConfig(n_paths=20_000, steps_per_year=250, seed=20261021, v0=10.0, x0=0.02, state0=1)
    bundle = rs.simulate_paths(p, chain, rs.optimal_weight_fn(p), cfg, record="terminal")
    controlled, controlled_err = rs.expected_utility_controlled(bundle, p.delta)
    _, conditional_err = rs.expected_utility_mc(bundle, p.delta)
    xi = rs.xi_ode(chain, rs.upsilon_heston(p, rs.d_leverage_fn(p)))
    target = rs.value_smmh_rho(p, rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1), xi)
    assert controlled_err <= conditional_err
    assert abs(controlled - target) <= 3 * controlled_err, (controlled, controlled_err, target)


def _chain_cases():
    # d < 0 on 2-3 states, one draw per sign of (rho, delta), each on its own random chain
    rng = np.random.default_rng(20261019)
    cases = []
    for rho_sign, delta_sign in itertools.product((-1.0, 1.0), repeat=2):
        l = int(rng.integers(2, 4))
        p = _draw(rng, "smmh_rho", -1.0, rho_sign, delta_sign, l=l)
        cases.append((p, rs.validate_intensity(random_intensity(rng, l, max_rate=1.5))))
    return cases


@pytest.mark.parametrize("p, chain", _chain_cases(), ids=range(4))
def test_xi_mc_matches_xi_ode_at_negative_slope(p, chain):
    integrand = rs.upsilon_heston(p, rs.d_leverage_fn(p))
    table = rs.xi_ode(chain, integrand)
    for e in range(1, p.n_states + 1):
        est, err = rs.xi_mc(chain, integrand, 0.0, e, 2000, seed=31 + e)
        assert abs(est - table.at(0.0, e)) <= 3 * err, (e, est, err, table.at(0.0, e))
