import numpy as np
import pytest

import rsheston as rs
from conftest import make_params


class TestParameterCatalog:
    def test_log_utility_rejected(self):
        with pytest.raises(ValueError):
            make_params(delta=0.0)

    def test_risk_neutral_and_beyond_rejected(self):
        with pytest.raises(ValueError):
            make_params(delta=1.0)

    def test_smmh_requires_zero_correlation(self):
        with pytest.raises(ValueError):
            make_params(variant="smmh", rho=-0.5)

    def test_separable_variants_need_constant_kappa_chi(self):
        with pytest.raises(ValueError):
            make_params(kappa=[4.0, 3.0])

    def test_mmh_takes_lam_hat_not_d(self):
        with pytest.raises(ValueError):
            make_params(variant="mmh")
        p = make_params(variant="mmh", d=None, lam_hat=[1.7, 1.7 * 1.3], rho=0.0)
        assert p.n_states == 2

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("horizon", dict(horizon=np.inf)),
            ("delta", dict(delta=-np.inf)),
            ("d", dict(d=np.nan)),
            ("r", dict(r=[np.nan, 0.01])),
            ("nu", dict(nu=[1.0, np.inf])),
            ("kappa", dict(kappa=np.inf)),
            ("theta", dict(theta=[0.02, np.nan])),
            ("chi", dict(chi=np.inf)),
            ("lam_hat", dict(variant="mmh", d=None, lam_hat=[1.7, -np.inf], rho=0.0)),
        ],
    )
    def test_non_finite_parameter_rejected_by_name(self, field, overrides):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make_params(**overrides)

    def test_vartheta_is_exactly_one_without_correlation(self):
        p = make_params(variant="smmh", rho=0.0)
        assert p.vartheta == 1.0

    def test_vartheta_set1(self, set1):
        assert set1.vartheta == pytest.approx(0.7 / (0.7 + 0.3 * 0.64), rel=1e-15)


class TestAffineMapping:
    """exponent_params: Heston parameters onto the CIR closed form of the exponents."""

    def test_set1_state1_drift_terms(self, set1):
        ep = rs.exponent_params(set1)
        assert ep.kappa[0] * ep.theta[0] == pytest.approx(0.08, abs=1e-15)
        assert ep.kappa[0] == pytest.approx(4.0 + 0.3 / 0.7 * 0.8 * 0.35 * 1.7, rel=1e-15)

    def test_zero_excess_return_state(self):
        p = make_params(variant="mmh", d=None, rho=-0.5, lam_hat=[0.0, 2.0])
        ep = rs.exponent_params(p)
        assert ep.beta[0] == 0.0
        assert ep.kappa[0] == p.kappa[0]  # no price of risk, no tilt

    def test_leverage_slope_squared(self, set1):
        # lam_hat = d * nu, so the slope seen by kappa and beta is d regardless of nu
        ep = rs.exponent_params(set1)
        np.testing.assert_allclose(ep.beta, 0.3 / 0.7 * 1.7**2 / (2 * set1.vartheta), rtol=1e-14)
        np.testing.assert_allclose(ep.kappa, ep.kappa[0], rtol=1e-15)

    def test_mapping_total_on_random_valid_params(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            l = int(rng.integers(1, 5))
            theta = rng.uniform(0.01, 0.1, size=l)
            kappa = rng.uniform(0.5, 6.0, size=l)
            # keep chi inside the Feller region so the draw is a valid market
            chi = np.sqrt(2 * kappa * theta) * rng.uniform(0.2, 0.99, size=l)
            p = rs.HestonRegimeParams(
                variant="mmh",
                horizon=float(rng.uniform(0.5, 10)),
                delta=float(rng.uniform(-3, 0.9)) or 0.5,
                rho=float(rng.uniform(-1, 1)),
                r=rng.uniform(0.0, 0.08, size=l),
                nu=rng.uniform(0.5, 2.0, size=l),
                kappa=kappa,
                theta=theta,
                chi=chi,
                lam_hat=rng.uniform(-1.0, 3.0, size=l),
            )
            ep = rs.exponent_params(p)  # must not raise
            assert ep.kappa.shape == ep.theta.shape == ep.beta.shape == (l,)
            np.testing.assert_allclose(ep.kappa * ep.theta, p.kappa * p.theta, rtol=1e-12)


class TestFeller:
    def test_set1_passes(self, set1):
        report = rs.validate_feller(set1)
        assert report.ok
        assert report.checks[0].lhs == pytest.approx(0.16)
        assert report.checks[0].rhs == pytest.approx(0.1225)

    def test_deterministic_factor_always_passes(self):
        report = rs.validate_feller(make_params(chi=0.0))
        assert report.ok

    def test_small_theta_fails(self):
        report = rs.validate_feller(make_params(theta=[0.001, 0.001]))
        assert not report.ok
        assert {c.state for c in report.failures} == {1, 2}
        with pytest.raises(rs.FellerViolated):
            report.raise_if_failed(rs.FellerViolated)


class TestSolutionAssumptions:
    def test_set1_passes_with_positive_adjusted_rate(self, set1):
        report = rs.validate_solution_assumptions(set1)
        assert report.ok
        rate_check = next(c for c in report.checks if c.name == "tilted_rate_positive")
        assert rate_check.rhs == pytest.approx(4.0 + 0.3 / 0.7 * 0.8 * 0.35 * 1.7, rel=1e-12)

    def test_negative_delta_passes_trivially(self, set2):
        # delta/(1-delta) < 0 makes the left side negative, right side positive
        report = rs.validate_solution_assumptions(set2)
        assert report.ok

    def test_aggressive_delta_fails(self):
        p = make_params(variant="smmh", rho=0.0, delta=0.99, kappa=0.5)
        report = rs.validate_solution_assumptions(p)
        assert not report.ok
        (failure,) = report.failures
        assert failure.name == "excess_slope_bound"
        assert failure.lhs == pytest.approx(0.99 / 0.01 * 1.7**2, rel=1e-12)
        assert failure.rhs == pytest.approx(0.25 / 0.1225, rel=1e-12)
        with pytest.raises(rs.AssumptionViolated):
            report.raise_if_failed()

    def test_mmh_variant_checks_every_state(self):
        p = make_params(variant="mmh", d=None, rho=0.0, lam_hat=[1.7, 2.21])
        report = rs.validate_solution_assumptions(p)
        assert report.ok
        per_state = [c for c in report.checks if c.name == "riccati_constant_bound"]
        assert [c.state for c in per_state] == [1, 2]

    @pytest.mark.parametrize(
        "overrides, bound_states",
        [
            (dict(chi=0.0), []),
            (dict(variant="mmh", d=None, rho=0.0, lam_hat=[1.7, 2.21], chi=[0.35, 0.0]), [1]),
        ],
        ids=["separable", "mmh"],
    )
    def test_zero_factor_noise_fails(self, overrides, bound_states):
        report = rs.validate_solution_assumptions(make_params(**overrides))
        assert not report.ok
        noise = [c for c in report.checks if c.name == "factor_noise_positive"]
        assert [c.state for c in noise] == [1, 2]
        assert report.failures == tuple(c for c in noise if c.rhs == 0.0)
        # the chi**2 bounds are skipped where chi = 0, and the MMH strip check with them
        bounds = [c for c in report.checks if c.name in ("excess_slope_bound", "riccati_constant_bound")]
        assert [c.state for c in bounds] == bound_states
        assert not any(c.name == "state_bound_compatible" for c in report.checks)

    def test_reports_are_order_stable(self, set1):
        a = rs.validate_solution_assumptions(set1)
        b = rs.validate_solution_assumptions(set1)
        assert a.checks == b.checks
