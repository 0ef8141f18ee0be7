import numpy as np
import pytest

import rsheston as rs
from conftest import make_params
from oracles import BlowUp, riccati_numeric
from riccati_properties import run_suite

KAPPA, THETA, CHI = 4.0, 0.02, 0.35
ONE_SEGMENT = rs.RegimePath(start=0.0, horizon=5.0, jump_times=np.array([]), states=np.array([1]))


def tilted_segment_tables(path: rs.RegimePath, p: rs.HestonRegimeParams):
    """Per-segment (kappa, theta, chi, beta) for the drift-adjusted ODE pair."""
    kt = rs.exponent_params(p).kappa
    tt = p.kappa * p.theta / kt
    beta = p.delta_ratio * p.price_of_risk_slope**2 / (2.0 * p.vartheta)
    idx = path.states - 1
    return path.boundaries(), kt[idx], tt[idx], p.chi[idx], beta[idx]


class TestCharFnCoeffs:
    def test_zero_exponents_give_zero(self):
        big_a, b = rs.char_fn_coeffs(KAPPA, THETA, CHI, 0.0, 0.0, 3.7)
        assert big_a == 0.0
        assert b == 0.0

    def test_tau_zero_returns_alpha(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            kappa = float(rng.uniform(0.5, 5))
            chi = float(rng.uniform(0.1, 1))
            beta = float(rng.uniform(-2, 0.9)) * kappa**2 / (2 * chi**2)
            a = np.sqrt(kappa**2 - 2 * beta * chi**2)
            alpha = float(rng.uniform(-2, 0.9)) * (kappa + a) / chi**2
            big_a, b = rs.char_fn_coeffs(kappa, 0.05, chi, alpha, beta, 0.0)
            assert b == pytest.approx(alpha, abs=1e-12)
            assert big_a == pytest.approx(0.0, abs=1e-12)

    def test_matches_backward_rk4(self):
        sol = riccati_numeric([0.0, 1.0], KAPPA, THETA, CHI, 0.5, terminal_alpha=0.0, grid_step=1e-4)
        big_a, b = rs.char_fn_coeffs(KAPPA, THETA, CHI, 0.0, 0.5, 1.0)
        assert b == pytest.approx(sol.B[0], abs=1e-8)
        assert big_a == pytest.approx(sol.A[0], abs=1e-8)

    def test_boundary_alpha_branch(self):
        beta = 0.5
        a = np.sqrt(KAPPA**2 - 2 * beta * CHI**2)
        alpha = (KAPPA + a) / CHI**2
        big_a, b = rs.char_fn_coeffs(KAPPA, THETA, CHI, alpha, beta, 2.0)
        assert b == pytest.approx(alpha)
        assert big_a == pytest.approx(KAPPA * THETA * alpha * 2.0)

    def test_beta_above_bound_rejected(self):
        with pytest.raises(rs.DomainViolation):
            rs.char_fn_coeffs(KAPPA, THETA, CHI, 0.0, KAPPA**2 / (2 * CHI**2) + 0.01, 1.0)

    def test_alpha_above_bound_rejected(self):
        with pytest.raises(rs.DomainViolation):
            rs.char_fn_coeffs(KAPPA, THETA, CHI, 1e9, 0.0, 1.0)

    def test_degenerate_discriminant_needs_matching_alpha(self):
        beta = KAPPA**2 / (2 * CHI**2)  # makes a = 0 exactly
        with pytest.raises(rs.DomainViolation):
            rs.char_fn_coeffs(KAPPA, THETA, CHI, 0.0, beta, 1.0)
        _, b = rs.char_fn_coeffs(KAPPA, THETA, CHI, KAPPA / CHI**2, beta, 1.0)
        assert b == pytest.approx(KAPPA / CHI**2)

    def test_property_suite_spot_check(self):
        assert run_suite(20, seed=2024) == []

    def test_nan_or_negative_tau_is_rejected(self):
        for tau in (np.nan, -1e-9, np.array([1.0, np.nan])):
            with pytest.raises(rs.DomainViolation):
                rs.char_fn_coeffs(KAPPA, THETA, CHI, 0.0, 0.5, tau)

    def test_elementwise_over_arrays(self):
        # per-element parameters, one element at the alpha bound (B frozen there)
        beta = np.array([0.5, -1.0, 0.5])
        a = np.sqrt(KAPPA**2 - 2 * beta * CHI**2)
        alpha = np.array([0.0, 0.3, (KAPPA + a[2]) / CHI**2])
        tau = np.array([1.0, 2.0, 0.7])
        big_a, b = rs.char_fn_coeffs(KAPPA, THETA, CHI, alpha, beta, tau)
        for k in range(3):
            ref_a, ref_b = rs.char_fn_coeffs(KAPPA, THETA, CHI, alpha[k], beta[k], tau[k])
            assert (big_a[k], b[k]) == (ref_a, ref_b)
        assert b[2] == alpha[2]


class TestRiccatiNumeric:
    def test_zero_data_stays_zero(self):
        sol = riccati_numeric([0.0, 0.7, 2.0], [1.0, 2.0], [0.1, 0.2], [0.3, 0.4], [0.0, 0.0])
        np.testing.assert_array_equal(sol.B, 0.0)
        np.testing.assert_array_equal(sol.A, 0.0)

    def test_blow_up_detected_above_solvable_region(self):
        with pytest.raises(BlowUp):
            riccati_numeric([0.0, 5.0], 1.0, 0.05, 1.0, 5.0, grid_step=1e-3)

    def test_grid_hits_segment_edges(self):
        sol = riccati_numeric([0.0, 0.33, 1.0], [1.0, 1.0], [0.1, 0.1], [0.3, 0.3], [0.1, 0.1])
        assert 0.33 in sol.times
        assert sol.times[0] == 0.0 and sol.times[-1] == 1.0


class TestComposePiecewise:
    def test_no_jump_reduces_to_single_closed_form(self, set1):
        path = rs.RegimePath(start=0.0, horizon=5.0, jump_times=np.array([]), states=np.array([1]))
        coeffs = rs.compose_piecewise(path, set1)
        kt = rs.exponent_params(set1).kappa[0]
        tt = set1.kappa[0] * set1.theta[0] / kt
        beta = set1.delta_ratio * set1.price_of_risk_slope[0] ** 2 / (2 * set1.vartheta)
        for t in (0.0, 1.3, 4.9, 5.0):
            ref_a, ref_b = rs.char_fn_coeffs(kt, tt, set1.chi[0], 0.0, beta, 5.0 - t)
            big_a, b = coeffs.ab(t)
            assert b == pytest.approx(ref_b, abs=1e-14)
            assert big_a == pytest.approx(ref_a, abs=1e-14)

    def test_identical_regimes_make_jumps_invisible(self):
        p = make_params(r=[0.03, 0.03], nu=[1.0, 1.0], theta=[0.02, 0.02])
        flat = rs.RegimePath(start=0.0, horizon=5.0, jump_times=np.array([]), states=np.array([1]))
        jumpy = rs.RegimePath(
            start=0.0, horizon=5.0, jump_times=np.array([0.7, 2.9, 4.1]), states=np.array([1, 2, 1, 2])
        )
        ts = np.linspace(0.0, 5.0, 101)
        np.testing.assert_allclose(
            rs.compose_piecewise(flat, p).ab(ts)[1], rs.compose_piecewise(jumpy, p).ab(ts)[1], atol=1e-12
        )

    def test_two_jump_path_matches_numeric_ode(self, set1):
        path = rs.RegimePath(
            start=0.0, horizon=5.0, jump_times=np.array([1.2, 3.4]), states=np.array([1, 2, 1])
        )
        coeffs = rs.compose_piecewise(path, set1)
        sol = riccati_numeric(*tilted_segment_tables(path, set1), terminal_alpha=0.0, grid_step=1e-3)
        big_a, b = coeffs.ab(sol.times)
        assert np.abs(b - sol.B).max() < 1e-7
        assert np.abs(big_a - sol.A).max() < 1e-7

    def test_continuity_at_segment_edges(self, set1):
        path = rs.RegimePath(
            start=0.0, horizon=5.0, jump_times=np.array([0.9, 2.0, 3.3]), states=np.array([1, 2, 1, 2])
        )
        coeffs = rs.compose_piecewise(path, set1)
        for tj in path.jump_times:
            left_a, left = coeffs.ab(tj - 1e-13)
            right_a, right = coeffs.ab(tj)
            assert abs(left - right) < 1e-12
            assert abs(left_a - right_a) < 1e-12

    def test_terminal_values_are_exact_zero(self, set1):
        path = rs.RegimePath(
            start=0.0, horizon=5.0, jump_times=np.array([2.5]), states=np.array([1, 2])
        )
        coeffs = rs.compose_piecewise(path, set1)
        assert coeffs.ab(5.0) == (0.0, 0.0)


class TestSeparableSolutions:
    def test_b_terminal_zero(self):
        p = make_params(variant="smmh", rho=0.0)
        assert rs.D_leverage(p, 5.0) == 0.0

    def test_zero_slope_kills_b(self):
        p = make_params(variant="smmh", rho=0.0, d=0.0)
        ts = np.linspace(0, 5, 11)
        np.testing.assert_array_equal(rs.D_leverage(p, ts), 0.0)

    def test_b_matches_numeric(self):
        p = make_params(variant="smmh", rho=0.0)
        beta = p.delta_ratio * p.d**2 / 2.0
        sol = riccati_numeric([0.0, 5.0], KAPPA, THETA, CHI, beta, grid_step=1e-4)
        b_closed = rs.D_leverage(p, sol.times)
        assert np.abs(b_closed - sol.B).max() < 1e-8

    def test_d_terminal_zero(self, set1):
        assert rs.D_leverage(set1, 5.0) == 0.0

    def test_d_reduces_to_b_without_leverage(self):
        p_rho = make_params(rho=0.0)
        p_sep = make_params(variant="smmh", rho=0.0)
        ts = np.linspace(0, 5, 21)
        np.testing.assert_allclose(rs.D_leverage(p_rho, ts), rs.D_leverage(p_sep, ts), atol=1e-14)

    def test_d_matches_numeric_after_rescale(self, set1):
        vt = set1.vartheta
        kb = rs.exponent_params(set1).kappa[0]
        beta = set1.delta_ratio * set1.d**2 / (2 * vt)
        sol = riccati_numeric([0.0, 5.0], kb, THETA, CHI, beta, grid_step=1e-4)
        d_closed = rs.D_leverage(set1, sol.times)
        assert np.abs(d_closed - vt * sol.B).max() < 1e-8

    def test_d_sign_tracks_delta(self, set1, set2):
        ts = np.linspace(0.0, 4.99, 50)
        assert np.all(rs.D_leverage(set1, ts) > 0)
        assert np.all(rs.D_leverage(set2, ts) < 0)

    def test_fast_scalar_paths_agree(self, set1):
        d_fn = rs.d_leverage_fn(set1)
        for t in np.linspace(0, 5, 17):
            assert d_fn(float(t)) == pytest.approx(rs.D_leverage(set1, float(t)), rel=1e-15)

    def test_condition_violations_raise(self):
        with pytest.raises(rs.DomainViolation):
            rs.D_leverage(make_params(variant="smmh", rho=0.0, delta=0.99, kappa=0.5), 0.0)
        with pytest.raises(rs.DomainViolation):
            # positive rho drives the adjusted reversion speed negative here
            rs.D_leverage(make_params(delta=0.99, kappa=0.5, rho=0.8), 0.0)
        with pytest.raises(rs.DomainViolation):
            rs.D_leverage(make_params(), 6.0)  # outside [0, T]

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda p: rs.D_leverage(p, np.nan), id="D_leverage"),
            pytest.param(lambda p: rs.D_leverage(p, np.array([0.0, np.nan, 5.0])), id="D_leverage_array"),
            pytest.param(lambda p: rs.D_leverage_integral(p, np.nan), id="D_leverage_integral"),
            pytest.param(lambda p: rs.optimal_weights(p, [np.nan]), id="optimal_weights"),
            pytest.param(lambda p: rs.d_leverage_fn(p)(np.nan), id="d_leverage_fn"),
            pytest.param(lambda p: rs.compose_piecewise(ONE_SEGMENT, p).ab(np.nan), id="PiecewiseAB.ab"),
        ],
    )
    def test_nan_time_is_rejected(self, set1, call):
        # a range test written as (t < lo) | (t > hi) is false for nan
        with pytest.raises(rs.DomainViolation):
            call(set1)
