"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  The heavy Monte Carlo fixtures (10^5 paths at 250
steps/year) are shared across criteria.
"""

import time

import numpy as np
import pytest

import rsheston as rs
from conftest import Q_TWO_STATE, make_params, random_intensity
from hamiltonian import hamiltonian_grid_argmax
from oracles import riccati_numeric, scalar_integrand, value_timedep_heston, xi_ode_uniform
from riccati_properties import run_suite

REF_UTILITY_SET1 = 7.4261
REF_UTILITY_SET2 = -0.0802
CHECKPOINTS = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
N_FULL = 100_000


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def chain():
    return rs.validate_intensity(Q_TWO_STATE)


@pytest.fixture(scope="module")
def set1():
    return make_params()


@pytest.fixture(scope="module")
def set2():
    return make_params(delta=-1.0)


@pytest.fixture(scope="module")
def xi_set1(chain, set1):
    return rs.xi_ode(chain, rs.upsilon_heston(set1, rs.d_leverage_fn(set1)))


@pytest.fixture(scope="module")
def set1_run(chain, set1):
    """Full MC under the optimal strategy, recorded at the checkpoints."""
    cfg = rs.SimConfig(
        n_paths=N_FULL, steps_per_year=250, seed=20240211, v0=10.0, x0=0.02, state0=1
    )
    started = time.perf_counter()
    bundle = rs.simulate_paths(set1, chain, rs.optimal_weight_fn(set1), cfg, record=CHECKPOINTS)
    return bundle, cfg, time.perf_counter() - started


@pytest.fixture(scope="module")
def set2_run(chain, set2):
    cfg = rs.SimConfig(
        n_paths=N_FULL, steps_per_year=250, seed=20240212, v0=10.0, x0=0.02, state0=1
    )
    started = time.perf_counter()
    bundle = rs.simulate_paths(set2, chain, rs.optimal_weight_fn(set2), cfg)
    return bundle, cfg, time.perf_counter() - started


def test_criterion_1_closed_form_reference_value(chain, set1):
    started = time.perf_counter()
    integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
    xi = rs.xi_ode(chain, integrand)
    q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
    phi_ode = rs.value_smmh_rho(set1, q, xi)

    est, err = rs.xi_mc(chain, integrand, 0.0, 1, 10_000, seed=77)
    amp = (10.0**0.3 / 0.3) * np.exp(rs.D_leverage(set1, 0.0) * 0.02)
    phi_mc, phi_mc_err = amp * est, amp * err
    elapsed = time.perf_counter() - started

    ok_ode = abs(phi_ode - REF_UTILITY_SET1) <= 0.005
    ok_mc = abs(phi_mc - REF_UTILITY_SET1) <= 3 * phi_mc_err + 5e-5
    ok_time = elapsed < 10.0
    ok = ok_ode and ok_mc and ok_time
    assert report(
        "criterion-1",
        ok,
        f"ode={phi_ode:.5f} (|d|={abs(phi_ode - REF_UTILITY_SET1):.2g} <= 0.005), "
        f"mc={phi_mc:.5f} +/- {phi_mc_err:.2g} "
        f"(|d|={abs(phi_mc - REF_UTILITY_SET1):.2g} <= 3se), runtime={elapsed:.1f}s < 10s",
    )


def test_criterion_2_full_simulation_reference_values(set1_run, set2_run, set1, set2):
    ok = True
    details = []
    for label, (bundle, _, elapsed), p, target in (
        ("set1", set1_run, set1, REF_UTILITY_SET1),
        ("set2", set2_run, set2, REF_UTILITY_SET2),
    ):
        mean, err = rs.expected_utility_mc(bundle, p.delta)
        z = (mean - target) / err
        ok_here = abs(z) <= 3.0 and elapsed < 900.0
        ok = ok and ok_here
        details.append(f"{label}: eu={mean:.5f} +/- {err:.2g} z={z:+.2f}, {elapsed:.0f}s < 900s")
    assert report("criterion-2", ok, "; ".join(details))


def test_criterion_3_oracle_equivalence(set1):
    rng = np.random.default_rng(314)

    # (a) the two regime-expectation routes across random chains
    mismatches = 0
    for trial in range(25):
        l = int(rng.integers(2, 5))
        spec = rs.validate_intensity(random_intensity(rng, l, max_rate=1.5))
        c0 = rng.uniform(-0.25, 0.25, size=l)
        c1 = rng.uniform(-0.15, 0.15, size=l)
        horizon = float(rng.uniform(1.0, 2.0))
        omega = float(rng.uniform(0.5, 3.0))

        def u(t, e):
            return c0[e - 1] + c1[e - 1] * np.sin(omega * t)

        integrand = scalar_integrand(u, horizon, l)
        table = rs.xi_ode(spec, integrand)
        state = int(rng.integers(1, l + 1))
        est, err = rs.xi_mc(spec, integrand, 0.0, state, 1500, seed=9000 + trial)
        if abs(est - table.at(0.0, state)) > 3 * max(err, 1e-12):
            mismatches += 1
    ok_a = mismatches == 0

    # (b) closed-form exponents against the backward integrator
    worst_b = 0.0
    for trial in range(25):
        while True:
            kap = float(rng.uniform(1.0, 6.0))
            th = float(rng.uniform(0.01, 0.09))
            chi = float(np.sqrt(2 * kap * th) * rng.uniform(0.3, 0.95))
            d = float(rng.uniform(0.2, 2.5)) * (1 if trial % 2 == 0 else -1)
            rho = float(rng.uniform(-0.9, 0.9))
            delta = float(rng.uniform(-2.0, 0.7))
            horizon = float(rng.uniform(1.0, 3.0))
            if abs(delta) < 0.01:
                continue
            try:
                p_rho = rs.HestonRegimeParams(
                    variant="smmh_rho", horizon=horizon, delta=delta, rho=rho,
                    r=0.02, nu=1.0, kappa=kap, theta=th, chi=chi, d=d,
                )
                p_sep = rs.HestonRegimeParams(
                    variant="smmh", horizon=horizon, delta=delta, rho=0.0,
                    r=0.02, nu=1.0, kappa=kap, theta=th, chi=chi, d=d,
                )
            except ValueError:
                continue
            if (
                rs.validate_solution_assumptions(p_rho).ok
                and rs.validate_solution_assumptions(p_sep).ok
            ):
                break
        vt = p_rho.vartheta
        ratio = delta / (1 - delta)
        kb = float(rs.exponent_params(p_rho).kappa[0])
        sol_d = riccati_numeric(
            [0.0, horizon], kb, th, chi, ratio * d**2 / (2 * vt), grid_step=1e-4
        )
        worst_b = max(worst_b, np.abs(rs.D_leverage(p_rho, sol_d.times) - vt * sol_d.B).max())
        sol_b = riccati_numeric([0.0, horizon], kap, th, chi, ratio * d**2 / 2, grid_step=1e-4)
        worst_b = max(worst_b, np.abs(rs.D_leverage(p_sep, sol_b.times) - sol_b.B).max())
    ok_b = worst_b <= 1e-8

    # (c) backward composition over regime paths against the integrator
    worst_c = 0.0
    for trial in range(25):
        while True:
            l = int(rng.integers(2, 4))
            kap = rng.uniform(1.0, 6.0, size=l)
            th = rng.uniform(0.01, 0.09, size=l)
            chi = np.sqrt(2 * kap * th) * rng.uniform(0.3, 0.95, size=l)
            lam = rng.uniform(-1.0, 2.5, size=l)
            rho = float(rng.uniform(-0.9, 0.9))
            delta = float(rng.uniform(-2.0, 0.7))
            if abs(delta) < 0.01:
                continue
            p = rs.HestonRegimeParams(
                variant="mmh", horizon=3.0, delta=delta, rho=rho,
                r=rng.uniform(0, 0.05, size=l), nu=rng.uniform(0.5, 1.5, size=l),
                kappa=kap, theta=th, chi=chi, lam_hat=lam,
            )
            if rs.validate_solution_assumptions(p).ok:
                break
        n_jumps = int(rng.integers(0, 6))
        jumps = np.sort(rng.uniform(0.05, 2.95, size=n_jumps))
        states = [int(rng.integers(1, l + 1))]
        for _ in range(n_jumps):
            nxt = int(rng.integers(1, l))
            states.append(nxt if nxt < states[-1] else nxt + 1)
        path = rs.RegimePath(
            start=0.0, horizon=3.0, jump_times=jumps, states=np.array(states)
        )
        coeffs = rs.compose_piecewise(path, p)
        kt = rs.exponent_params(p).kappa
        tt = p.kappa * p.theta / kt
        beta = p.delta_ratio * p.price_of_risk_slope**2 / (2 * p.vartheta)
        idx = path.states - 1
        sol = riccati_numeric(
            path.boundaries(), kt[idx], tt[idx], p.chi[idx], beta[idx], grid_step=1e-3
        )
        big_a, b = coeffs.ab(sol.times)
        worst_c = max(worst_c, np.abs(b - sol.B).max())
        worst_c = max(worst_c, np.abs(big_a - sol.A).max())
    ok_c = worst_c <= 1e-7

    ok = ok_a and ok_b and ok_c
    assert report(
        "criterion-3",
        ok,
        f"xi routes: {25 - mismatches}/25 within 3se; "
        f"closed vs numeric sup={worst_b:.2e} <= 1e-8; "
        f"composition sup={worst_c:.2e} <= 1e-7",
    )


def test_criterion_4_coefficient_property_suite():
    failures = run_suite(100, seed=1234)
    assert report(
        "criterion-4",
        not failures,
        f"100 randomized draws, {len(failures)} failures" + (f": {failures[:3]}" if failures else ""),
    )


def test_criterion_5_value_process_flatness(chain, set1, set1_run):
    # the optimal run: the library's diagnostic on set1_run's seed, paths and checkpoints
    _, cfg, _ = set1_run
    zs = [z for _, _, _, z in rs.martingale_diagnostic(set1, chain, cfg, CHECKPOINTS)]
    ok_flat = all(abs(z) < 3.0 for z in zs)

    # control run: a constant weight must drift strictly downward
    control_cfg = rs.SimConfig(
        n_paths=N_FULL, steps_per_year=250, seed=20240213, v0=10.0, x0=0.02, state0=1
    )
    rows = rs.martingale_diagnostic(
        set1, chain, control_cfg, CHECKPOINTS, strategy=rs.constant_strategy(1.0)
    )
    means = [r[1] for r in rows]
    errs = [r[2] for r in rows]
    ok_drift = rows[-1][3] < -3.0 and all(
        means[i + 1] <= means[i] + 3 * np.hypot(errs[i], errs[i + 1])
        for i in range(len(rows) - 1)
    )
    ok = ok_flat and ok_drift
    assert report(
        "criterion-5",
        ok,
        f"optimal |z|max={max(abs(z) for z in zs):.2f} < 3; "
        f"const-weight drift z(T)={rows[-1][3]:+.1f} < -3 and nonincreasing",
    )


def test_criterion_6_reduction_tests(set1, xi_set1, chain):
    chain1 = rs.validate_intensity([[0.0]])
    p1 = rs.HestonRegimeParams(
        variant="smmh_rho", horizon=5.0, delta=0.3, rho=-0.8,
        r=0.03, nu=1.0, kappa=4.0, theta=0.02, chi=0.35, d=1.7,
    )
    xi1 = xi_ode_uniform(chain1, rs.upsilon_heston(p1, rs.d_leverage_fn(p1)), 5000)  # 1e-10 needs a finer mesh
    path0 = rs.RegimePath(start=0.0, horizon=5.0, jump_times=np.array([]), states=np.array([1]))
    worst_rel = 0.0
    for t in (0.0, 1.25, 3.6):
        for x in (0.0, 0.02, 0.4):
            q = rs.ValueQuery(t=t, v=10.0, x=x, state=1)
            a = value_timedep_heston(p1, path0, q)
            b = rs.value_smmh_rho(p1, q, xi1)
            worst_rel = max(worst_rel, abs(a - b) / abs(b))
    ok_const = worst_rel <= 1e-10

    p_norho = make_params(variant="smmh", rho=0.0)
    ok_hedge = all(
        rs.optimal_strategy(p_norho, t, e).pi_h == 0.0
        for t in np.linspace(0, 5, 21)
        for e in (1, 2)
    )

    ok_terminal = (
        np.all(xi_set1.values[-1] == 1.0)
        and rs.D_leverage(set1, 5.0) == 0.0
        and rs.D_leverage(p_norho, 5.0) == 0.0
    )
    ok = ok_const and ok_hedge and ok_terminal
    assert report(
        "criterion-6",
        ok,
        f"single-regime rel gap={worst_rel:.2e} <= 1e-10; pi_h == 0 under rho=0; "
        f"xi(T)=1, B(T)=D(T)=0 exact",
    )


def test_criterion_7_hamiltonian_argmax(set1, set2):
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(50):
        p = set1 if rng.random() < 0.5 else set2
        t = float(rng.uniform(0.0, 5.0))
        x = float(rng.uniform(0.002, 0.25))
        state = int(rng.integers(1, 3))
        best = hamiltonian_grid_argmax(p, t, x, state, step=1e-4)
        worst = max(worst, abs(best - rs.optimal_strategy(p, t, state).pi_total))
    ok = worst <= 1e-4 + 1e-12
    assert report("criterion-7", ok, f"50 random points, max |argmax - pi| = {worst:.2e} <= 1e-4")
