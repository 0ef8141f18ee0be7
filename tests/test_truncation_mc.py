"""The truncation pass of the chain Monte Carlo routes against per-path references.

``value_mmh_general``, ``value_mmh_table`` and ``xi_mc`` draw each start
state's paths once on [0, T], one RNG stream per block of 256 paths,
and compose or integrate all of them at once.  The references below
redo every cell path by path: block j is drawn on [0, T] by
``conftest.scalar_block_chain`` from stream (seed, j), each path is cut
at T - t and shifted by t as a ``RegimePath``, composed with
``compose_piecewise`` or integrated segment by segment, and averaged
one cell at a time.  Both routes consume the same uniforms, so they
agree to rounding.
"""

import numpy as np
import pytest

import rsheston as rs
from conftest import Q_TWO_STATE, make_params, scalar_block_chain
from oracles import path_segments, scalar_integrand
from rsheston.markov_chain import _STREAM_BLOCK

REL = 1e-12

ABSORBING = [[-1.5, 1.0, 0.5], [0.7, -1.2, 0.5], [0.0, 0.0, 0.0]]


def _chain_mc_reference(spec, t, horizon, state, n_paths, seed, log_weight):
    if t >= horizon:
        return 1.0, 0.0
    vals = []
    for j0 in range(0, n_paths, _STREAM_BLOCK):
        rng = rs.path_stream(seed, j0 // _STREAM_BLOCK)
        for times, labels in scalar_block_chain(spec, horizon, state, min(_STREAM_BLOCK, n_paths - j0), rng):
            kept = sum(s <= horizon - t for s in times)  # a jump on the cut is kept
            path = rs.RegimePath(
                start=t, horizon=horizon,
                jump_times=np.array([s + t for s in times[:kept]]),
                states=np.array([state, *labels[:kept]]),
            )
            vals.append(np.exp(log_weight(path)))
    vals = np.array(vals)
    err = float("nan") if n_paths == 1 else float(vals.std(ddof=1) / np.sqrt(n_paths))
    return float(vals.mean()), err


def _log_path_value(p, path, t, x):
    coeffs = rs.compose_piecewise(path, p)
    lo, hi, state = path_segments(path, t)
    a, b = coeffs.ab(t)
    return (p.delta * p.r)[state - 1] @ (hi - lo) + coeffs.vartheta * a + coeffs.vartheta * b * x


def _upsilon_path_integral(p, path, t):
    lo, hi, state = path_segments(path, t)
    big_d = rs.D_leverage_integral(p, np.append(lo, hi[-1:]))
    delta_r, kap_th = p.delta * p.r, p.kappa * p.theta
    return float(delta_r[state - 1] @ (hi - lo) + kap_th[state - 1] @ (big_d[:-1] - big_d[1:]))


def _mmh(**overrides):
    kwargs = dict(
        variant="mmh", horizon=5.0, delta=0.3, rho=0.0, r=[0.03, 0.01], nu=[1.0, 1.3],
        kappa=4.0, theta=[0.02, 0.04], chi=0.35, lam_hat=[1.7, 2.21],
    )
    kwargs.update(overrides)
    return rs.HestonRegimeParams(**kwargs)


MMH_CASES = {
    "set1": (_mmh(), Q_TWO_STATE, 0.02, 200),
    "absorbing": (
        _mmh(
            r=[0.03, 0.01, 0.02], nu=[1.0, 1.3, 0.8], kappa=[4.0, 2.5, 3.0],
            theta=[0.02, 0.04, 0.03], chi=[0.35, 0.3, 0.25], lam_hat=[1.7, 2.21, -0.9],
        ),
        ABSORBING, 0.05, 150,
    ),
    "negative_delta": (_mmh(delta=-1.0), Q_TWO_STATE, 0.3, 150),
    "one_path": (_mmh(), Q_TWO_STATE, 0.02, 1),
    "partial_stream_block": (_mmh(), Q_TWO_STATE, 0.02, _STREAM_BLOCK + 5),
}


def _close(got, ref):
    return abs(got - ref) <= REL * abs(ref)


@pytest.mark.parametrize("name", list(MMH_CASES))
def test_mmh_routes_match_per_path_reference(name):
    p, q_matrix, x, n = MMH_CASES[name]
    chain = rs.validate_intensity(q_matrix)
    assert rs.validate_solution_assumptions(p).ok
    times = np.array([0.0, 1.3, 4.9, p.horizon])  # the last row is the horizon itself
    phi, err = rs.value_mmh_table(p, chain, times, 10.0, x, n, seed=11)
    util = 10.0**p.delta / p.delta
    assert phi.shape == err.shape == (len(times), p.n_states)
    for k, t in enumerate(times):
        for e in range(1, p.n_states + 1):
            ref, ref_err = _chain_mc_reference(
                chain, t, p.horizon, e, n, 11, lambda path: _log_path_value(p, path, t, x)
            )
            est, est_err = rs.value_mmh_general(p, chain, rs.ValueQuery(t=t, v=10.0, x=x, state=e), n, 11)
            assert _close(est, util * ref), (name, t, e, est, util * ref)
            # both NaN (absent) with one path
            np.testing.assert_allclose(est_err, abs(util) * ref_err, rtol=0.0, atol=REL * abs(est), err_msg=name)
            # the table cell reads the same paths as the single-cell call
            assert phi[k, e - 1] == est, (name, t, e)
            np.testing.assert_equal(err[k, e - 1], est_err)
    np.testing.assert_array_equal(phi[-1], util)
    np.testing.assert_array_equal(err[-1], 0.0)
    if n == 1:
        assert np.isnan(err[:-1]).all()


def _xi_cases():
    set1 = rs.HestonRegimeParams(
        variant="smmh_rho", horizon=5.0, delta=0.3, rho=-0.8, r=[0.03, 0.01], nu=[1.0, 1.3],
        kappa=4.0, theta=[0.02, 0.04], chi=0.35, d=1.7,
    )
    set2 = rs.HestonRegimeParams(
        variant="smmh_rho", horizon=5.0, delta=-1.0, rho=-0.8, r=[0.03, 0.01], nu=[1.0, 1.3],
        kappa=4.0, theta=[0.02, 0.04], chi=0.35, d=1.7,
    )
    cases = {}
    for name, p in (("set1", set1), ("set2", set2)):
        cases[f"upsilon_{name}"] = (
            rs.upsilon_heston(p, rs.d_leverage_fn(p)), Q_TWO_STATE, 200,
            lambda path, t, p=p: _upsilon_path_integral(p, path, t),
        )

    def u(t, e):
        return (0.03, -0.02, 0.01)[e - 1] + 0.05 * np.sin(2.0 * t + e)

    cases["scalar_absorbing"] = (
        scalar_integrand(u, 2.0, 3), ABSORBING, 30,
        lambda path, t: rs.occupation_integral(path, u, t, 2.0),
    )
    cases["one_path"] = (cases["upsilon_set1"][0], Q_TWO_STATE, 1, cases["upsilon_set1"][3])
    cases["partial_stream_block"] = (cases["upsilon_set1"][0], Q_TWO_STATE, _STREAM_BLOCK + 5, cases["upsilon_set1"][3])
    return cases


XI_CASES = _xi_cases()


@pytest.mark.parametrize("name", list(XI_CASES))
def test_xi_mc_matches_per_path_reference(name):
    integrand, q_matrix, n, path_integral = XI_CASES[name]
    chain = rs.validate_intensity(q_matrix)
    horizon = integrand.horizon
    times = [0.0, 0.37 * horizon, 0.98 * horizon, horizon]
    table = rs.xi_mc_table(chain, integrand, times, n, seed=5)
    for k, t in enumerate(times):
        for e in range(1, chain.n_states + 1):
            ref, ref_err = _chain_mc_reference(
                chain, t, horizon, e, n, 5, lambda path: path_integral(path, t)
            )
            est, err = rs.xi_mc(chain, integrand, t, e, n, seed=5)
            assert _close(est, ref), (name, t, e, est, ref)
            np.testing.assert_allclose(err, ref_err, rtol=0.0, atol=REL * est, err_msg=name)
            # every cell of the table reads the paths of the matching xi_mc call
            assert table.values[k, e - 1] == est, (name, t, e)
            np.testing.assert_equal(table.std_err[k, e - 1], err)
    np.testing.assert_array_equal(table.values[-1], 1.0)
    np.testing.assert_array_equal(table.std_err[-1], 0.0)
    if n == 1:
        assert np.isnan(table.std_err[:-1]).all()


def test_composition_at_the_alpha_bound_matches_compose_piecewise():
    # After 300 years in state 2, B is exactly (k2 - a2)/chi^2 = (5 - 3)/1 = 2
    # (the decay underflows), which is exactly state 1's bound (k1 + a1)/chi^2
    # = (1.25 + 0.75)/1.  The first cell enters state 1 at the bound (B frozen),
    # the second below it.
    p = rs.HestonRegimeParams(
        variant="mmh", horizon=301.0, delta=0.5, rho=0.0, r=0.0, nu=[1.0, 1.0],
        kappa=[1.25, 5.0], theta=0.02, chi=1.0, lam_hat=[1.0, 4.0],
    )
    paths = [
        rs.RegimePath(start=0.0, horizon=301.0, jump_times=np.array([1.0]), states=np.array([1, 2])),
        rs.RegimePath(start=0.0, horizon=301.0, jump_times=np.array([299.0]), states=np.array([1, 2])),
    ]
    segs = rs.Segments(
        first=np.array([0, 2, 4]),
        lo=np.array([0.0, 1.0, 0.0, 299.0]),
        hi=np.array([1.0, 301.0, 299.0, 301.0]),
        states=np.array([1, 2, 1, 2]),
    )
    big_a, b = rs.compose_segments(p, segs)
    for c, path in enumerate(paths):
        ref_a, ref_b = rs.compose_piecewise(path, p).ab(0.0)
        assert _close(big_a[c], ref_a) and _close(b[c], ref_b), (c, big_a[c], ref_a, b[c], ref_b)
    assert b[0] == 2.0 and b[1] < 2.0


def _domain_cases():
    # B carried in from state 2 (absorbing, stationary B near 0.49) exceeds
    # state 1's bound (kappa + a)/chi^2 <= 8/25
    carried = rs.HestonRegimeParams(
        variant="mmh", horizon=5.0, delta=0.3, rho=0.0, r=0.02, nu=[1.0, 1.0],
        kappa=4.0, theta=0.02, chi=[5.0, 0.35], lam_hat=[0.1, 3.0],
    )
    carried_path = rs.RegimePath(start=0.0, horizon=5.0, jump_times=np.array([0.5]), states=np.array([1, 2]))
    # beta = kappa^2/(2 chi^2) exactly (a = 0), admissible only at alpha = kappa/chi^2
    flat = rs.HestonRegimeParams(
        variant="mmh", horizon=2.0, delta=0.5, rho=0.0, r=0.02, nu=1.0,
        kappa=2.0, theta=0.02, chi=1.0, lam_hat=2.0,
    )
    flat_path = rs.RegimePath(start=0.0, horizon=2.0, jump_times=np.array([]), states=np.array([1]))
    return {
        "carried_b_exceeds_bound": (carried, [[-2.0, 2.0], [0.0, 0.0]], carried_path),
        "zero_discriminant": (flat, [[0.0]], flat_path),
    }


@pytest.mark.parametrize("name", list(_domain_cases()))
def test_mmh_routes_raise_where_composition_does(name):
    p, q_matrix, path = _domain_cases()[name]
    chain = rs.validate_intensity(q_matrix)
    with pytest.raises(rs.DomainViolation):
        rs.compose_piecewise(path, p)
    with pytest.raises(rs.DomainViolation):
        rs.value_mmh_general(p, chain, rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1), 20, seed=3)
    with pytest.raises(rs.DomainViolation):
        rs.value_mmh_table(p, chain, [0.0, 0.5 * p.horizon, p.horizon], 10.0, 0.02, 20, seed=3)


@pytest.mark.parametrize("label", [0, 3])
def test_compose_segments_rejects_labels_outside_the_states(label):
    # label 0 would index the last state's parameters
    segs = rs.Segments(first=np.array([0, 1]), lo=np.array([0.0]), hi=np.array([1.0]), states=np.array([label]))
    with pytest.raises(ValueError, match="path states"):
        rs.compose_segments(make_params(horizon=1.0), segs)


@pytest.mark.parametrize("seed", [2.5, -1])
def test_chain_mc_routes_reject_a_seed_that_is_not_a_nonnegative_integer(seed):
    chain = rs.validate_intensity(Q_TWO_STATE)
    sep = make_params()
    mmh = make_params(variant="mmh", d=None, lam_hat=[1.7, 2.21], rho=0.0)
    integrand = rs.upsilon_heston(sep, rs.d_leverage_fn(sep))
    q = rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1)
    calls = [
        lambda: rs.xi_mc(chain, integrand, 0.0, 1, 20, seed),
        lambda: rs.xi_mc_table(chain, integrand, [0.0], 20, seed),
        lambda: rs.value_mmh_general(mmh, chain, q, 20, seed),
        lambda: rs.value_mmh_table(mmh, chain, [0.0], 10.0, 0.02, 20, seed),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            call()

