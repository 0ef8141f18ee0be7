import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsheston as rs
from conftest import make_params
from hamiltonian import hamiltonian_grid_argmax
from oracles import scalar_integrand, timedep_strategy, value_timedep_heston

UTIL_10_03 = 10.0**0.3 / 0.3  # terminal utility at v = 10, delta = 0.3


def two_jump_path() -> rs.RegimePath:
    return rs.RegimePath(
        start=0.0, horizon=5.0, jump_times=np.array([1.1, 2.8]), states=np.array([1, 2, 1])
    )


class TestOptimalStrategy:
    def test_no_hedging_without_correlation(self):
        p = make_params(variant="smmh", rho=0.0)
        for t in (0.0, 2.5, 5.0):
            for state in (1, 2):
                assert rs.optimal_strategy(p, t, state).pi_h == 0.0

    def test_set1_mean_variance_weights(self, set1):
        sp1 = rs.optimal_strategy(set1, 0.0, 1)
        sp2 = rs.optimal_strategy(set1, 0.0, 2)
        assert sp1.pi_mv == pytest.approx(1.7 / 0.7, rel=1e-12)
        assert sp2.pi_mv == pytest.approx(1.7 / (0.7 * 1.3), rel=1e-12)

    def test_terminal_hedging_vanishes(self, set1):
        sp = rs.optimal_strategy(set1, 5.0, 1)
        assert sp.pi_h == 0.0
        assert sp.pi_total == sp.pi_mv

    def test_total_is_sum_of_parts(self, set1):
        sp = rs.optimal_strategy(set1, 1.0, 2)
        assert sp.pi_total == sp.pi_mv + sp.pi_h

    def test_grid_search_recovers_weight(self, set1, set2):
        rng = np.random.default_rng(17)
        for p in (set1, set2):
            for _ in range(5):
                t = float(rng.uniform(0, 5))
                x = float(rng.uniform(0.002, 0.2))
                state = int(rng.integers(1, 3))
                best = hamiltonian_grid_argmax(p, t, x, state)
                assert abs(best - rs.optimal_strategy(p, t, state).pi_total) <= 1e-4

    def test_mmh_weight_and_leverage_rejection(self):
        p = make_params(variant="mmh", d=None, rho=0.0, lam_hat=[1.7, 2.0])
        sp = rs.optimal_strategy(p, 1.0, 2)
        assert sp.pi_mv == pytest.approx(2.0 / (0.7 * 1.3**2), rel=1e-12)
        p_bad = make_params(variant="mmh", d=None, rho=-0.5, lam_hat=[1.7, 2.0])
        with pytest.raises(rs.DomainViolation):
            rs.optimal_strategy(p_bad, 1.0, 1)

    def test_mean_variance_ratio_across_states(self, set1):
        # pi_mv quotients follow lam_hat/nu^2 = d/nu quotients
        sp1 = rs.optimal_strategy(set1, 0.7, 1)
        sp2 = rs.optimal_strategy(set1, 0.7, 2)
        assert sp1.pi_mv / sp2.pi_mv == pytest.approx(1.3, rel=1e-12)

    def test_hedging_to_mean_variance_quotient_is_state_free(self, set1):
        t = 1.9
        d_t = rs.D_leverage(set1, t)
        for state in (1, 2):
            sp = rs.optimal_strategy(set1, t, state)
            assert sp.pi_h / sp.pi_mv == pytest.approx(-0.8 * 0.35 * d_t / 1.7, rel=1e-12)

    def test_hedging_sign_is_delta_times_rho(self, set1, set2):
        assert rs.optimal_strategy(set1, 1.0, 1).pi_h < 0  # delta > 0, rho < 0
        assert rs.optimal_strategy(set2, 1.0, 1).pi_h > 0  # delta < 0, rho < 0


class TestValueTimedepHeston:
    def test_terminal_condition(self, set1):
        q = rs.ValueQuery(t=5.0, v=10.0, x=0.37, state=1)
        assert value_timedep_heston(set1, two_jump_path(), q) == pytest.approx(
            UTIL_10_03, rel=1e-12
        )
        assert UTIL_10_03 == pytest.approx(6.6509, abs=5e-5)

    def test_zero_excess_return_is_pure_bond_growth(self):
        p = make_params(variant="mmh", d=None, rho=0.0, lam_hat=[0.0, 0.0])
        path = rs.RegimePath(start=0.0, horizon=5.0, jump_times=np.array([]), states=np.array([1]))
        q = rs.ValueQuery(t=1.0, v=10.0, x=0.08, state=1)
        expected = UTIL_10_03 * np.exp(0.3 * 0.03 * 4.0)
        assert value_timedep_heston(p, path, q) == pytest.approx(expected, rel=1e-12)

    def test_wealth_simulation_oracle_on_frozen_path(self, set1):
        # simulate the frozen-regime market under the candidate weight and
        # compare expected terminal utility against the closed form
        path = two_jump_path()
        q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
        target = value_timedep_heston(set1, path, q)
        coeffs = rs.compose_piecewise(path, set1)
        strategy = timedep_strategy(set1, coeffs)
        chain = rs.validate_intensity([[-1.0909, 1.0909], [3.4413, -3.4413]])
        cfg = rs.SimConfig(
            n_paths=20_000, steps_per_year=250, seed=31, v0=10.0, x0=0.02, state0=1
        )
        bundle = rs.simulate_paths(set1, chain, strategy, cfg, frozen_path=path)
        mean, err = rs.expected_utility_mc(bundle, set1.delta)
        assert abs(mean - target) < 3 * err


class TestValueMmhGeneral:
    def test_single_state_chain_is_deterministic(self, chain1):
        p = rs.HestonRegimeParams(
            variant="mmh", horizon=5.0, delta=0.3, rho=0.0,
            r=0.03, nu=1.0, kappa=4.0, theta=0.02, chi=0.35, lam_hat=1.7,
        )
        path0 = rs.RegimePath(start=0.0, horizon=5.0, jump_times=np.array([]), states=np.array([1]))
        q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
        est, err = rs.value_mmh_general(p, chain1, q, 40, seed=2)
        assert est == value_timedep_heston(p, path0, q)
        assert err == 0.0

    def test_identical_regimes_match_single_state(self, chain2):
        p = make_params(
            variant="mmh", d=None, rho=0.0,
            lam_hat=[1.7, 1.7], r=[0.03, 0.03], nu=[1.0, 1.0], theta=[0.02, 0.02],
        )
        q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
        est, err = rs.value_mmh_general(p, chain2, q, 200, seed=3)
        path0 = rs.RegimePath(start=0.0, horizon=5.0, jump_times=np.array([]), states=np.array([1]))
        p1 = rs.HestonRegimeParams(
            variant="mmh", horizon=5.0, delta=0.3, rho=0.0,
            r=0.03, nu=1.0, kappa=4.0, theta=0.02, chi=0.35, lam_hat=1.7,
        )
        assert est == pytest.approx(value_timedep_heston(p1, path0, q), abs=1e-12)
        assert err < 1e-12

    def test_full_wealth_simulation_oracle(self, chain2):
        p = make_params(variant="mmh", d=None, rho=0.0, lam_hat=[1.7, 2.21])
        q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
        est, err = rs.value_mmh_general(p, chain2, q, 2000, seed=4)
        cfg = rs.SimConfig(n_paths=20_000, steps_per_year=250, seed=32, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain2, rs.optimal_weight_fn(p), cfg)
        sim_mean, sim_err = rs.expected_utility_mc(bundle, p.delta)
        assert abs(est - sim_mean) < 3 * np.hypot(err, sim_err)

    def test_rejects_leverage(self, chain2, set1):
        q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
        with pytest.raises(rs.DomainViolation):
            rs.value_mmh_general(set1, chain2, q, 10, seed=1)


class TestValueSmmh:
    def test_terminal_condition(self, chain2):
        p = make_params(variant="smmh", rho=0.0)
        xi = rs.xi_ode(chain2, rs.upsilon_heston(p, rs.d_leverage_fn(p)))
        q = rs.ValueQuery(t=5.0, v=10.0, x=0.3, state=2)
        assert rs.value_smmh_rho(p, q, xi) == pytest.approx(UTIL_10_03, rel=1e-12)

    def test_zero_slope_leaves_regime_bond_value(self, chain2):
        p = make_params(variant="smmh", rho=0.0, d=0.0)
        xi = rs.xi_ode(chain2, rs.upsilon_heston(p, rs.d_leverage_fn(p)))
        q = rs.ValueQuery(t=0.0, v=10.0, x=0.9, state=1)
        # B = 0: the value is utility times the rate-only regime expectation
        rate_only = rs.xi_ode(
            chain2, scalar_integrand(lambda t, e: 0.3 * (0.03 if e == 1 else 0.01), 5.0, 2)
        )
        assert rs.value_smmh_rho(p, q, xi) == pytest.approx(UTIL_10_03 * rate_only.at(0.0, 1), rel=1e-9)

    def test_cross_method_against_partial_mc(self, chain2):
        p_sep = make_params(variant="smmh", rho=0.0)
        xi = rs.xi_ode(chain2, rs.upsilon_heston(p_sep, rs.d_leverage_fn(p_sep)))
        q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
        target = rs.value_smmh_rho(p_sep, q, xi)
        p_gen = make_params(variant="mmh", d=None, rho=0.0, lam_hat=[1.7 * 1.0, 1.7 * 1.3])
        est, err = rs.value_mmh_general(p_gen, chain2, q, 2000, seed=5)
        assert abs(est - target) < 3 * err


class TestValueSmmhRho:
    def test_set1_reference_value(self, chain2, set1):
        xi = rs.xi_ode(chain2, rs.upsilon_heston(set1, rs.d_leverage_fn(set1)))
        q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
        assert rs.value_smmh_rho(set1, q, xi) == pytest.approx(7.4261, abs=0.005)

    def test_set2_reference_value(self, chain2, set2):
        xi = rs.xi_ode(chain2, rs.upsilon_heston(set2, rs.d_leverage_fn(set2)))
        q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
        assert rs.value_smmh_rho(set2, q, xi) == pytest.approx(-0.0802, abs=5e-4)

    def test_terminal_condition(self, chain2, set1):
        xi = rs.xi_ode(chain2, rs.upsilon_heston(set1, rs.d_leverage_fn(set1)))
        q = rs.ValueQuery(t=5.0, v=10.0, x=0.02, state=2)
        assert rs.value_smmh_rho(set1, q, xi) == pytest.approx(UTIL_10_03, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(0.1, 10.0), v=st.floats(0.5, 50.0))
    def test_wealth_scaling_homogeneity(self, c, v):
        chain = rs.validate_intensity([[-1.0909, 1.0909], [3.4413, -3.4413]])
        p = make_params()
        xi = rs.xi_ode(chain, rs.upsilon_heston(p, rs.d_leverage_fn(p)), times=[1.0])
        base = rs.value_smmh_rho(p, rs.ValueQuery(t=1.0, v=v, x=0.05, state=1), xi)
        scaled = rs.value_smmh_rho(p, rs.ValueQuery(t=1.0, v=c * v, x=0.05, state=1), xi)
        assert scaled == pytest.approx(c**0.3 * base, rel=1e-9)

    def test_value_sign_tracks_delta(self, chain2, set1, set2):
        q = rs.ValueQuery(t=0.7, v=3.0, x=0.11, state=2)
        xi1 = rs.xi_ode(chain2, rs.upsilon_heston(set1, rs.d_leverage_fn(set1)), times=[q.t])
        xi2 = rs.xi_ode(chain2, rs.upsilon_heston(set2, rs.d_leverage_fn(set2)), times=[q.t])
        assert rs.value_smmh_rho(set1, q, xi1) > 0
        assert rs.value_smmh_rho(set2, q, xi2) < 0

    def test_rejects_wrong_variant(self, chain2, set1):
        p = make_params(variant="mmh", d=None, rho=0.0, lam_hat=[1.7, 2.21])
        xi = rs.xi_ode(chain2, rs.upsilon_heston(set1, rs.d_leverage_fn(set1)))
        with pytest.raises(rs.DomainViolation):
            rs.value_smmh_rho(p, rs.ValueQuery(t=0.0, v=1.0, x=0.0, state=1), xi)



@pytest.mark.parametrize(
    "field, value, message",
    [
        ("v", float("nan"), "wealth"),
        ("v", float("inf"), "wealth"),
        ("x", float("nan"), "factor level"),
        ("x", float("inf"), "factor level"),
    ],
)
def test_value_routes_reject_non_finite_wealth_and_factor(field, value, message, chain2):
    point = dict(v=10.0, x=0.02)
    point[field] = value
    with pytest.raises(ValueError, match=f"{message} must be finite"):
        rs.ValueQuery(t=0.0, state=1, **point)
    mmh = make_params(variant="mmh", d=None, rho=0.0, lam_hat=[1.7, 2.21])
    with pytest.raises(ValueError, match=f"{message} must be finite"):
        rs.value_mmh_table(mmh, chain2, [0.0, 5.0], n_paths=20, seed=1, **point)
