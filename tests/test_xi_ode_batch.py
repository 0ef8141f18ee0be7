"""xi_ode's batch of RK4 step propagators against the step-by-step loop.

The reference below is the loop xi_ode ran before it formed one l x l
propagator per step: four right-hand-side evaluations per step, on the
nodes of xi_ode's own table.  Forming the propagators and applying them
by an up-sweep/down-sweep scan reorders the floating-point operations
and nothing else, so the two agree to 1e-13 relative.  The scan itself
is checked against sequential matrix-vector products.
"""

import numpy as np
import pytest

import rsheston as rs
import rsheston.regime_expectation as regime_expectation
from conftest import Q_TWO_STATE, make_params, random_intensity
from oracles import scalar_integrand
from test_sign_coverage import _chain_cases

TOL = 1e-13


def _rk4_step(y, t, h, rhs):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_on_nodes(spec, integrand, times):
    """Values of the scalar loop, one backward RK4 step between neighbouring times (oldest first)."""
    q = spec.intensity

    def rhs(t, y):
        return -integrand.fn_all(t) * y - q @ y

    values = np.empty((len(times), spec.n_states))
    values[-1] = 1.0
    for k in range(len(times) - 1, 0, -1):
        values[k - 1] = _rk4_step(values[k], times[k], times[k - 1] - times[k], rhs)
    return values


def _assert_matches_reference(spec, integrand, times=()):
    table = rs.xi_ode(spec, integrand, times=times)
    values = _reference_on_nodes(spec, integrand, table.times)
    assert np.abs(table.values / values - 1.0).max() <= TOL


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
    _assert_matches_reference(rs.validate_intensity(Q_TWO_STATE), _heston(p))


def test_requested_times_that_split_the_horizon_unevenly_match_scalar_loop():
    # gaps 1.004 and 3.996 take steps of different lengths
    _assert_matches_reference(rs.validate_intensity(Q_TWO_STATE), _heston(make_params()), times=[1.004])


def test_negative_slope_draw_matches_scalar_loop():
    p, chain = _chain_cases()[0]
    assert p.d < 0 and p.n_states >= 2
    _assert_matches_reference(chain, _heston(p))


def test_three_state_scalar_integrand_matches_scalar_loop(chunked):
    rng = np.random.default_rng(20261018)
    spec = rs.validate_intensity(random_intensity(rng, 3, max_rate=2.0))
    coefs = rng.uniform(-0.3, 0.3, size=(3, 2))

    def u(t, e):
        return coefs[e - 1, 0] + coefs[e - 1, 1] * np.cos(2.0 * t)

    integrand = scalar_integrand(u, 2.5, 3)
    _assert_matches_reference(spec, integrand)


def test_fn_all_shapes():
    integrand = scalar_integrand(lambda t, e: t * e, 1.0, 3)
    np.testing.assert_array_equal(integrand.fn_all(0.5), [0.5, 1.0, 1.5])
    np.testing.assert_array_equal(integrand.fn_all(np.array([0.0, 1.0])), [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    p = make_params()
    heston = _heston(p)
    times = np.linspace(0.0, p.horizon, 7)
    batch = heston.fn_all(times)
    assert batch.shape == (7, 2)
    np.testing.assert_allclose(batch, [heston.fn_all(float(t)) for t in times], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("steps_per_chunk", [None, 7, 1], ids=["default_chunks", "chunks_of_7_steps", "one_step"])
@pytest.mark.parametrize("n_states", [1, 4, 6])
def test_random_chains_match_scalar_loop(n_states, steps_per_chunk, monkeypatch):
    # chunk lengths in steps for any state count: 7 gives sweeps with levels
    # of odd length, 1 a sweep over one propagator
    if steps_per_chunk is not None:
        monkeypatch.setattr(regime_expectation, "_CHUNK_ENTRIES", steps_per_chunk * n_states**2)
    rng = np.random.default_rng(20261019 + n_states)
    spec = rs.validate_intensity(random_intensity(rng, n_states, max_rate=2.0))
    level = rng.uniform(0.05, 0.2, n_states) * np.where(np.arange(n_states) % 2, -1.0, 1.0)
    swing = rng.uniform(0.25, 0.4, n_states)  # larger than the level: u takes both signs in every state

    def u(t, e):
        return level[e - 1] + swing[e - 1] * np.cos(2.0 * t)

    integrand = scalar_integrand(u, 2.5, n_states)
    _assert_matches_reference(spec, integrand)


def test_step_failure_partway_through_the_horizon():
    # exp(int u) overflows once t falls below about 1.3: no step size keeps xi finite
    integrand = scalar_integrand(lambda t, e: 1e3 * max(0.0, 2.5 - t), 5.0, 2)
    with pytest.raises(rs.StepFailure):
        rs.xi_ode(rs.validate_intensity(Q_TWO_STATE), integrand)


def _sequential(props, y0):
    out = np.empty((len(props) + 1, len(y0)))
    out[0] = y0
    for k, prop in enumerate(props):
        out[k + 1] = prop @ out[k]
    return out


def _propagators(rng, m, l):
    # nonnegative and near the identity, like RK4 propagators at small steps: nothing cancels
    return np.eye(l) * rng.uniform(0.99, 1.0, (m, 1, 1)) + rng.uniform(0.0, 0.01 / l, (m, l, l))


@pytest.mark.parametrize("l", [1, 2, 3, 6])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 9, 1023, 1025])
def test_sweep_matches_sequential_products(m, l):
    rng = np.random.default_rng(20261019 + 10 * m + l)
    props = _propagators(rng, m, l)
    out = np.empty((m + 1, l))
    out[0] = rng.uniform(0.5, 1.0, l)
    regime_expectation._sweep(props, out)
    assert np.abs(out / _sequential(props, out[0]) - 1.0).max() <= TOL


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("j", [0, 1, 4, 7, 8, 12])
def test_sweep_values_up_to_a_non_finite_propagator_are_kept(j, bad):
    # a propagator that is not finite spoils the values after it and no others
    rng = np.random.default_rng(20261020 + j)
    props = _propagators(rng, 13, 2)
    props[j] = bad
    out = np.empty((14, 2))
    out[0] = rng.uniform(0.5, 1.0, 2)
    with np.errstate(invalid="ignore"):
        regime_expectation._sweep(props, out)
    assert np.isfinite(out[: j + 1]).all()
    assert np.abs(out[: j + 1] / _sequential(props[:j], out[0]) - 1.0).max() <= TOL
    assert not np.isfinite(out[j + 1 :]).any(axis=1).any()
