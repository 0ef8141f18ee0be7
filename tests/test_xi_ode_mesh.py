"""xi_ode's mesh through the requested times, and its default tolerance.

xi_ode bisects every step until the step-doubling estimate of its
relative error is at most ``_RTOL``.  Its table is checked at its nodes
against a uniform solve 64 times finer on the paper's two sets and on
every sign-coverage draw of tests/test_sign_coverage.py, the near-bound
ones included (which need the most steps).  The requested times are
table nodes bitwise.
"""

import numpy as np
import pytest

import rsheston as rs
import rsheston.regime_expectation as regime_expectation
import rsheston.simulate as simulate
from conftest import Q_TWO_STATE, make_params, random_intensity
from oracles import scalar_integrand, xi_ode_uniform
from test_sign_coverage import NEAR_BOUND, PATH_CASES


def _tolerance_cases():
    rng = np.random.default_rng(20261021)  # one random chain per draw on 2-3 states
    cases = [
        pytest.param(make_params(), Q_TWO_STATE, id="set1"),
        pytest.param(make_params(delta=-1.0), Q_TWO_STATE, id="set2"),
    ]
    cases += [
        pytest.param(p, random_intensity(rng, p.n_states, max_rate=1.5), id=f"path{i}")
        for i, p in enumerate(PATH_CASES)
    ]
    cases += [pytest.param(p, [[0.0]], id=f"near_bound{i}") for i, p in enumerate(NEAR_BOUND)]
    return cases


def _heston(p):
    return rs.upsilon_heston(p, rs.d_leverage_fn(p))


@pytest.mark.parametrize("p, q", _tolerance_cases())
def test_default_meets_its_tolerance(p, q):
    chain = rs.validate_intensity(q)
    table = rs.xi_ode(chain, _heston(p))
    n = len(table.times) - 1
    fine = xi_ode_uniform(chain, _heston(p), 64 * n)
    np.testing.assert_array_equal(fine.times[::64], table.times)
    err = np.abs(table.values / fine.values[::64] - 1.0).max()
    assert err <= 10 * regime_expectation._RTOL
    assert err / 10 <= table.error_estimate <= 10 * err, (n, err, table.error_estimate)


T_GRIDS = {f"t_grid{k}": np.linspace(0.0, 5.0, k) for k in (51, 7, 2)}
T_GRIDS["checkpoints"] = [0.0, 1.004, 2.5, 5.0]


@pytest.mark.parametrize("times", T_GRIDS.values(), ids=T_GRIDS.keys())
def test_requested_times_are_nodes(times, chain2, set1):
    table = rs.xi_ode(chain2, _heston(set1), times=times)
    assert np.isin(times, table.times).all()
    assert np.all(np.diff(table.times) > 0.0)
    assert table.error_estimate <= regime_expectation._RTOL


def test_each_gap_is_split_into_equal_steps(chain2, set1):
    # gaps 1.004 and 3.996 start at steps of at most T/50 = 0.1: 11 and 40, then bisected alike
    table = rs.xi_ode(chain2, _heston(set1), times=[1.004])
    factor = (len(table.times) - 1) // 51  # 2**k after k bisections
    assert factor * 51 == len(table.times) - 1
    expected = [1.004 / (11 * factor)] * (11 * factor) + [3.996 / (40 * factor)] * (40 * factor)
    # node rounding (about 1e-15 near t = 5) is a few parts in 1e13 of a step
    np.testing.assert_allclose(np.diff(table.times), expected, rtol=1e-12)


def test_diagnostic_reads_xi_at_its_checkpoints(chain2, set1, monkeypatch):
    tables = []

    def recording_xi_ode(*args, **kwargs):
        tables.append(rs.xi_ode(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(simulate, "xi_ode", recording_xi_ode)
    cfg = rs.SimConfig(n_paths=4, steps_per_year=250, seed=1, v0=10.0, x0=0.02, state0=1)
    rs.martingale_diagnostic(set1, chain2, cfg, T_GRIDS["checkpoints"])
    assert np.isin(T_GRIDS["checkpoints"], tables[0].times).all()


@pytest.mark.parametrize("bad", [-1e-9, 5.0 + 1e-9, np.nan])
def test_time_outside_the_horizon_is_rejected(bad, chain2, set1):
    with pytest.raises(rs.DomainViolation, match="outside"):
        rs.xi_ode(chain2, _heston(set1), times=[0.0, bad])


def test_step_cap_raises_step_failure(chain2, set1, monkeypatch):
    # set1 needs 400 steps: a cap of 400 is met, one of 399 is hit
    monkeypatch.setattr(regime_expectation, "_MAX_STEPS", 400)
    assert len(rs.xi_ode(chain2, _heston(set1)).times) == 401
    monkeypatch.setattr(regime_expectation, "_MAX_STEPS", 399)
    with pytest.raises(rs.StepFailure, match="error estimate of"):
        rs.xi_ode(chain2, _heston(set1))


def test_zero_error_stops_at_the_first_doubling(chain2):
    # xi = 1: coarse and fine agree to rounding
    table = rs.xi_ode(chain2, scalar_integrand(lambda t, e: 0.0, 5.0, 2))
    assert table.error_estimate < 1e-15 and len(table.times) == 101
