"""xi_ode's batch of RK4 step propagators against the step-by-step loop.

The reference below is the loop xi_ode ran before it formed one l x l
propagator per step: four right-hand-side evaluations per step, each
step's result checked and, on a loss of positivity or finiteness,
bisected locally down to a minimum step.  Forming the propagators and
applying them by a prefix-product scan reorders the floating-point
operations and nothing else, so the two agree to 1e-13 relative, also
where steps are redone by halving.
"""

import numpy as np
import pytest

import rsheston as rs
import rsheston.regime_expectation as regime_expectation
from conftest import Q_TWO_STATE, make_params, random_intensity
from test_sign_coverage import _chain_cases

TOL = 1e-13


def _rk4_step(y, t, h, rhs):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(y, t, h, rhs, halvings):
    with np.errstate(over="ignore", invalid="ignore"):
        y_new = _rk4_step(y, t, h, rhs)
    if np.all(np.isfinite(y_new)) and np.all(y_new > 0.0):
        return y_new
    if abs(h) * 0.5 < 1e-10:
        raise rs.StepFailure("positivity or finiteness lost at the minimum step size")
    halvings.append(t)
    y_mid = _advance(y, t, 0.5 * h, rhs, halvings)
    return _advance(y_mid, t + 0.5 * h, 0.5 * h, rhs, halvings)


def _reference_xi_ode(spec, integrand, grid_step, halvings):
    """Times and values of the scalar loop, oldest-first like XiTable."""
    q = spec.intensity

    def rhs(t, y):
        return -integrand.fn_all(t) * y - q @ y

    horizon = integrand.horizon
    n = max(1, int(np.ceil(horizon / grid_step - 1e-12)))
    h = horizon / n
    times = horizon - h * np.arange(n + 1)
    times[-1] = 0.0
    values = np.empty((n + 1, spec.n_states))
    values[0] = 1.0
    for k in range(n):
        values[k + 1] = _advance(values[k], times[k], -h, rhs, halvings)
    return times[::-1], values[::-1]


def _assert_matches_reference(spec, integrand, grid_step):
    halvings = []
    times, values = _reference_xi_ode(spec, integrand, grid_step, halvings)
    table = rs.xi_ode(spec, integrand, grid_step)
    np.testing.assert_array_equal(table.times, times)
    assert np.abs(table.values / values - 1.0).max() <= TOL
    return halvings


@pytest.fixture(params=["one_chunk", "chunks_of_7_steps"])
def chunked(request, monkeypatch):
    """Runs a test as is, and again with propagators built a few steps at a time."""
    if request.param != "one_chunk":
        monkeypatch.setattr(regime_expectation, "_CHUNK_ENTRIES", 7 * 4)


def _heston(p):
    return rs.upsilon_heston(p, rs.d_leverage_fn(p))


@pytest.mark.parametrize("overrides", [{}, dict(delta=-1.0)], ids=["set1", "set2"])
def test_paper_sets_match_scalar_loop(overrides):
    p = make_params(**overrides)
    _assert_matches_reference(rs.validate_intensity(Q_TWO_STATE), _heston(p), p.horizon / 5000)


def test_negative_slope_draw_matches_scalar_loop():
    p, chain = _chain_cases()[0]
    assert p.d < 0 and p.n_states >= 2
    _assert_matches_reference(chain, _heston(p), p.horizon / 5000)


def test_three_state_scalar_integrand_matches_scalar_loop(chunked):
    rng = np.random.default_rng(20261018)
    spec = rs.validate_intensity(random_intensity(rng, 3, max_rate=2.0))
    coefs = rng.uniform(-0.3, 0.3, size=(3, 2))

    def u(t, e):
        return coefs[e - 1, 0] + coefs[e - 1, 1] * np.cos(2.0 * t)

    integrand = rs.RegimeIntegrand.from_scalar(u, 2.5, 3)
    _assert_matches_reference(spec, integrand, 2.5 / 2000)


def test_fn_all_shapes():
    integrand = rs.RegimeIntegrand.from_scalar(lambda t, e: t * e, 1.0, 3)
    np.testing.assert_array_equal(integrand.fn_all(0.5), [0.5, 1.0, 1.5])
    np.testing.assert_array_equal(integrand.fn_all(np.array([0.0, 1.0])), [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    p = make_params()
    heston = _heston(p)
    times = np.linspace(0.0, p.horizon, 7)
    batch = heston.fn_all(times)
    assert batch.shape == (7, 2)
    np.testing.assert_allclose(batch, [heston.fn_all(float(t)) for t in times], rtol=1e-15, atol=0.0)


def test_steps_redone_by_halving_match_scalar_loop(chunked):
    # u(t, 1) = -100 (1 - t/2)^2 is mild near T = 2, so full steps of 0.1
    # lose positivity only partway back and are then redone by halving
    integrand = rs.RegimeIntegrand.from_scalar(lambda t, e: -100.0 * (1.0 - t / 2.0) ** 2 if e == 1 else 0.0, 2.0, 2)
    spec = rs.validate_intensity([[-1.0, 1.0], [1.0, -1.0]])
    halvings = _assert_matches_reference(spec, integrand, 0.1)
    assert halvings and max(halvings) < 1.0


@pytest.mark.parametrize("steps_per_chunk", [10, 5])
def test_step_redone_on_the_first_step_of_a_chunk(steps_per_chunk, monkeypatch):
    # a narrow dip of u(t, 1) at t = 1 makes only the step from 1.0 to 0.9
    # (step 10 back from T = 2) lose positivity; the steps after it are
    # scanned from its redone value
    spec = rs.validate_intensity([[-1.0, 1.0], [1.0, -1.0]])
    integrand = rs.RegimeIntegrand.from_scalar(
        lambda t, e: -100.0 * np.exp(-(((t - 1.0) / 0.1) ** 2)) if e == 1 else 0.0, 2.0, 2
    )
    monkeypatch.setattr(regime_expectation, "_CHUNK_ENTRIES", steps_per_chunk * 4)
    halvings = _assert_matches_reference(spec, integrand, 0.1)
    assert halvings and all(0.9 < t <= 1.0 for t in halvings)


@pytest.mark.parametrize("steps_per_chunk", [None, 7, 1], ids=["default_chunks", "chunks_of_7_steps", "one_step"])
@pytest.mark.parametrize("n_states", [1, 4, 6])
def test_random_chains_match_scalar_loop(n_states, steps_per_chunk, monkeypatch):
    # chunk lengths in steps for any state count: 7 gives scans whose length
    # is not a power of two, 1 a scan of one propagator
    if steps_per_chunk is not None:
        monkeypatch.setattr(regime_expectation, "_CHUNK_ENTRIES", steps_per_chunk * n_states**2)
    rng = np.random.default_rng(20261019 + n_states)
    spec = rs.validate_intensity(random_intensity(rng, n_states, max_rate=2.0))
    level = rng.uniform(0.05, 0.2, n_states) * np.where(np.arange(n_states) % 2, -1.0, 1.0)
    swing = rng.uniform(0.25, 0.4, n_states)  # larger than the level: u takes both signs in every state

    def u(t, e):
        return level[e - 1] + swing[e - 1] * np.cos(2.0 * t)

    integrand = rs.RegimeIntegrand.from_scalar(u, 2.5, n_states)
    _assert_matches_reference(spec, integrand, 2.5 / 1000)


def test_step_failure_partway_through_the_horizon():
    # exp(int u) overflows once t falls below about 1.3: no step size keeps xi finite
    integrand = rs.RegimeIntegrand.from_scalar(lambda t, e: 1e3 * max(0.0, 2.5 - t), 5.0, 2)
    with pytest.raises(rs.StepFailure):
        rs.xi_ode(rs.validate_intensity(Q_TWO_STATE), integrand, grid_step=1e-3)
