import io

import numpy as np
import pytest

import rsheston as rs
from conftest import Q_TWO_STATE, make_params, random_intensity
from rsheston.markov_chain import PathTable


def flat_integrand(value: float, horizon: float, n_states: int) -> rs.RegimeIntegrand:
    return rs.RegimeIntegrand.from_scalar(lambda t, e: value, horizon, n_states)


class TestUpsilonHeston:
    def test_terminal_values_reduce_to_rate_term(self, set1):
        d_fn = rs.d_leverage_fn(set1)
        integrand = rs.upsilon_heston(set1, d_fn)
        assert integrand.fn_all(5.0)[0] == pytest.approx(0.009, abs=1e-15)
        assert integrand.fn_all(5.0)[1] == pytest.approx(0.003, abs=1e-15)

    def test_zero_inputs_give_zero(self):
        p = make_params(r=[0.0, 0.0], d=0.0)  # d = 0: D is identically zero
        integrand = rs.upsilon_heston(p, lambda t: 0.0)
        assert integrand.fn_all(1.7)[0] == 0.0
        np.testing.assert_array_equal(integrand.fn_all(0.3), 0.0)

    def test_rejects_coefficient_that_is_not_D(self, set1):
        # fn_all and path_integral would integrate different integrands
        with pytest.raises(ValueError, match="D_leverage"):
            rs.upsilon_heston(set1, lambda t: 0.0)
        with pytest.raises(ValueError, match="D_leverage"):
            rs.upsilon_heston(set1, lambda t: rs.D_leverage(set1, t) * 1.001)

    def test_composes_rate_and_coefficient_terms(self, set1):
        d0 = rs.D_leverage(set1, 0.0)
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        assert integrand.fn_all(0.0)[0] == pytest.approx(0.3 * 0.03 + d0 * 4.0 * 0.02, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.3, -1.0])
    def test_segment_edges_evaluated_once_match_every_edge_evaluated(self, delta):
        # the one-evaluation-per-edge form against D_leverage_integral at both edges of every segment
        p = make_params(delta=delta)
        assert rs.D_leverage_integral(p, p.horizon) == 0.0
        integrand = rs.upsilon_heston(p, rs.d_leverage_fn(p))
        delta_r, kap_th = p.delta * p.r, p.kappa * p.theta

        def two_evaluations(lo, hi, states):
            big_d = rs.D_leverage_integral(p, np.concatenate((lo, hi)))
            e = states - 1
            return delta_r[e] * (hi - lo) + kap_th[e] * (big_d[: len(lo)] - big_d[len(lo):])

        chain = rs.validate_intensity(Q_TWO_STATE)
        table = PathTable.sample(chain, p.horizon, [1, 2], 300, seed=8)
        cells = table.truncate([0.0, 1.7, 4.2], p.horizon)
        rng = np.random.default_rng(0)
        pick = rng.permutation(len(cells.lo))[: len(cells.lo) // 3]  # shuffled, mostly non-adjacent
        lo = np.append(cells.lo[pick], [0.5, 0.5, 2.0])
        hi = np.append(cells.hi[pick], [2.0, p.horizon, 2.0])  # an edge shared out of order, and empty
        states = np.append(cells.states[pick], [1, 2, 2])
        for args in ((cells.lo, cells.hi, cells.states), (lo, hi, states)):
            got, ref = integrand.segment_integral(*args), two_evaluations(*args)
            assert got.tobytes() == ref.tobytes()


class TestXiMc:
    def test_single_state_constant_is_exact(self, chain1):
        integrand = flat_integrand(0.04, 5.0, 1)
        est, err = rs.xi_mc(chain1, integrand, 1.0, 1, 200, seed=3)
        assert est == pytest.approx(np.exp(0.04 * 4.0), rel=1e-12)
        assert err == pytest.approx(0.0, abs=1e-13)

    def test_zero_integrand_gives_one(self, chain2):
        integrand = flat_integrand(0.0, 5.0, 2)
        est, err = rs.xi_mc(chain2, integrand, 0.0, 1, 300, seed=4)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-13)

    def test_agrees_with_ode_route(self, chain2, set1):
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        table = rs.xi_ode(chain2, integrand)
        est, err = rs.xi_mc(chain2, integrand, 0.0, 1, 4000, seed=5)
        assert abs(est - table.at(0.0, 1)) < 3 * err

    def test_deterministic_for_fixed_seed(self, chain2, set1):
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        a = rs.xi_mc(chain2, integrand, 0.0, 1, 500, seed=42)
        b = rs.xi_mc(chain2, integrand, 0.0, 1, 500, seed=42)
        assert a == b

    def test_stderr_shrinks_like_root_two(self, chain2, set1):
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        _, err_n = rs.xi_mc(chain2, integrand, 0.0, 1, 2000, seed=6)
        _, err_2n = rs.xi_mc(chain2, integrand, 0.0, 1, 4000, seed=6)
        ratio = err_n / err_2n
        assert np.sqrt(2) * 0.9 < ratio < np.sqrt(2) * 1.1


class TestXiOde:
    def test_decoupled_states_without_switching(self):
        spec = rs.validate_intensity(np.zeros((2, 2)))
        integrand = rs.RegimeIntegrand.from_scalar(lambda t, e: 0.02 * e, 3.0, 2)
        table = rs.xi_ode(spec, integrand, grid_step=1e-3)
        # no switching: xi is the plain exponential of each state's own integral
        assert table.at(0.0, 1) == pytest.approx(np.exp(0.02 * 3.0), rel=1e-10)
        assert table.at(0.0, 2) == pytest.approx(np.exp(0.04 * 3.0), rel=1e-10)

    def test_zero_integrand_stays_one_for_any_generator(self, chain2):
        table = rs.xi_ode(chain2, flat_integrand(0.0, 5.0, 2))
        np.testing.assert_allclose(table.values, 1.0, atol=1e-13)

    def test_constant_rates_match_eigen_solution(self, chain2):
        # constant coefficients: xi(t) = expm((T-t)(diag(u) + Q)) 1
        u = np.array([0.05, -0.03])
        integrand = rs.RegimeIntegrand.from_scalar(lambda t, e: u[e - 1], 2.0, 2)
        table = rs.xi_ode(chain2, integrand, grid_step=1e-3)
        m = np.diag(u) + chain2.intensity
        vals, vecs = np.linalg.eig(m)
        for t in (0.0, 0.77, 1.5):
            expected = (vecs @ np.diag(np.exp(vals * (2.0 - t))) @ np.linalg.inv(vecs)) @ np.ones(2)
            got = table.row(t)
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_terminal_row_is_exactly_one(self, chain2, set1):
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        table = rs.xi_ode(chain2, integrand)
        np.testing.assert_array_equal(table.values[-1], 1.0)
        assert table.times[-1] == 5.0

    def test_positive_everywhere(self, chain2, set2):
        integrand = rs.upsilon_heston(set2, rs.d_leverage_fn(set2))
        table = rs.xi_ode(chain2, integrand)
        assert table.values.min() > 0.0

    def test_grid_lipschitz_continuity(self, chain2, set1):
        # |d xi/dt| <= (max|u| + max total rate) * max xi bounds grid increments
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        table = rs.xi_ode(chain2, integrand)
        h = float(np.diff(table.times).max())
        u_max = max(abs(integrand.fn_all(t)).max() for t in table.times[:: len(table.times) // 50])
        rate_max = float(np.abs(chain2.intensity).sum(axis=1).max())
        bound = (u_max + rate_max) * table.values.max() * h
        assert np.abs(np.diff(table.values, axis=0)).max() <= bound * 1.01

    def test_grid_refinement_is_converged(self, chain2, set1):
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        coarse = rs.xi_ode(chain2, integrand, grid_step=5.0 / 5000)
        fine = rs.xi_ode(chain2, integrand, grid_step=5.0 / 10000)
        assert abs(coarse.at(0.0, 1) - fine.at(0.0, 1)) < 1e-8

    def test_step_failure_on_divergent_integrand(self, chain2):
        integrand = flat_integrand(-1e8, 5.0, 2)  # xi ~ exp(1e8 (T-t)) overflows
        with pytest.raises(rs.StepFailure):
            rs.xi_ode(chain2, integrand, grid_step=1e-3)

    @pytest.mark.parametrize("grid_step", [np.nan, np.inf, 10.0, 0.0, -1e-3])
    def test_rejects_step_outside_the_horizon(self, chain2, grid_step):
        # a step longer than T once became one RK4 step over the whole horizon
        with pytest.raises(ValueError, match="grid_step"):
            rs.xi_ode(chain2, flat_integrand(0.01, 5.0, 2), grid_step=grid_step)

    def test_step_equal_to_the_horizon_is_one_step(self, chain2):
        table = rs.xi_ode(chain2, flat_integrand(0.01, 5.0, 2), grid_step=5.0)
        np.testing.assert_array_equal(table.times, [0.0, 5.0])

    def test_agreement_across_random_models(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            l = int(rng.integers(2, 5))
            spec = rs.validate_intensity(random_intensity(rng, l, max_rate=1.5))
            coefs = rng.uniform(-0.2, 0.2, size=(l, 2))
            horizon = float(rng.uniform(1.0, 3.0))

            def u(t, e):
                return coefs[e - 1, 0] + coefs[e - 1, 1] * np.sin(t)

            integrand = rs.RegimeIntegrand.from_scalar(u, horizon, l)
            table = rs.xi_ode(spec, integrand, grid_step=horizon / 4000)
            est, err = rs.xi_mc(spec, integrand, 0.0, 1, 1500, seed=100 + trial)
            assert abs(est - table.at(0.0, 1)) < 3 * max(err, 1e-12)


class TestXiTable:
    @pytest.mark.parametrize("bad", [-1.0, -1e-9, 2.0 + 1e-9, float("nan")])
    def test_mc_rejects_times_outside_the_horizon(self, chain2, bad):
        integrand = flat_integrand(0.01, 2.0, 2)
        with pytest.raises(rs.DomainViolation, match=f"t = {bad}"):
            rs.xi_mc_table(chain2, integrand, [bad, 0.0, 1.0], 20, seed=1)
        with pytest.raises(rs.DomainViolation, match=f"t = {bad}"):
            rs.xi_mc(chain2, integrand, bad, 1, 20, seed=1)

    def test_mc_accepts_the_horizon_within_slack(self, chain2):
        integrand = flat_integrand(0.01, 2.0, 2)
        table = rs.xi_mc_table(chain2, integrand, [0.0, 2.0, 2.0 + 1e-13], 20, seed=1)
        np.testing.assert_array_equal(table.values[1:], 1.0)

    def test_mc_table_tracks_stderr_and_terminal_row(self, chain2, set1):
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        table = rs.xi_mc_table(chain2, integrand, [0.0, 2.5, 5.0], 400, seed=9)
        assert table.method == "MC"
        assert table.values[-1, 0] == 1.0
        assert table.std_err[0, 0] > 0.0
        assert table.std_err[-1, 0] == 0.0

    def test_csv_round_trip_columns(self, chain2, set1):
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        table = rs.xi_ode(chain2, integrand, grid_step=1.0)
        buf = io.StringIO()
        table.write_csv(buf, comment="seed=1")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == "t,state,xi,std_err,method"
        assert len(lines) == 2 + len(table.times) * 2

    def test_interpolation_onto_grid_nodes_is_exact(self, chain2, set1):
        integrand = rs.upsilon_heston(set1, rs.d_leverage_fn(set1))
        table = rs.xi_ode(chain2, integrand, grid_step=0.5)
        k = 3
        assert table.at(float(table.times[k]), 2) == table.values[k, 1]

    @pytest.mark.parametrize("state", [0, 3, -1, 1.5])
    def test_at_rejects_a_state_outside_the_table(self, chain2, state):
        table = rs.xi_ode(chain2, flat_integrand(0.01, 2.0, 2), grid_step=0.5)
        with pytest.raises(ValueError, match="state"):
            table.at(0.0, state)

    @pytest.mark.parametrize("t", [-3.0, -1e-9, 2.0 + 1e-9, 99.0, float("nan")])
    def test_at_rejects_a_time_outside_the_table_like_row(self, chain2, t):
        table = rs.xi_ode(chain2, flat_integrand(0.01, 2.0, 2), grid_step=0.5)
        with pytest.raises(ValueError, match="outside the tabulated range"):
            table.row(t)
        with pytest.raises(ValueError, match="outside the tabulated range"):
            table.at(t, 1)

    def test_at_accepts_the_ends_within_slack(self, chain2):
        table = rs.xi_ode(chain2, flat_integrand(0.01, 2.0, 2), grid_step=0.5)
        assert table.at(-1e-13, 1) == table.values[0, 0]
        assert table.at(2.0 + 1e-13, 2) == 1.0
        assert table.at(np.float64(1.0), np.int64(2)) == table.row(1.0)[1]
