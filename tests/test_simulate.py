import bisect
import dataclasses
import math

import numpy as np
import pytest

import rsheston as rs
import rsheston.simulate as simulate
from conftest import make_params, scalar_block_chain
from rsheston.simulate import _STREAM_BLOCK


def one_state_params(**overrides):
    kwargs = dict(
        variant="smmh_rho", horizon=5.0, delta=0.3, rho=-0.8,
        r=0.03, nu=1.0, kappa=4.0, theta=0.02, chi=0.35, d=1.7,
    )
    kwargs.update(overrides)
    return rs.HestonRegimeParams(**kwargs)


class TestSimConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(rs.ConfigError):
            rs.SimConfig(n_paths=0, steps_per_year=10, seed=1, v0=1.0, x0=0.0, state0=1)
        with pytest.raises(rs.ConfigError):
            rs.SimConfig(n_paths=1, steps_per_year=10, seed=1, v0=0.0, x0=0.0, state0=1)
        with pytest.raises(rs.ConfigError):
            rs.SimConfig(
                n_paths=1, steps_per_year=10, seed=1, v0=1.0, x0=0.0, state0=1,
                driver_steps_per_year=15,
            )

    @pytest.mark.parametrize(
        "field, value", [("v0", math.nan), ("v0", math.inf), ("x0", math.inf), ("x0", math.nan)]
    )
    def test_rejects_non_finite_initial_values(self, field, value):
        kwargs = dict(n_paths=1, steps_per_year=10, seed=1, v0=1.0, x0=0.0, state0=1)
        kwargs[field] = value
        with pytest.raises(rs.ConfigError, match=field):
            rs.SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_paths", 2.5),
            ("steps_per_year", 4.5),
            ("seed", 2.5),
            ("seed", -1),
            ("state0", 1.0),
            ("driver_steps_per_year", 20.0),
            ("driver_steps_per_year", 0),
            ("driver_steps_per_year", -10),
        ],
    )
    def test_rejects_fractional_counts_and_bad_seeds_by_name(self, field, value):
        kwargs = dict(n_paths=1, steps_per_year=10, seed=1, v0=1.0, x0=0.0, state0=1)
        kwargs[field] = value
        with pytest.raises(rs.ConfigError, match=f"^{field} must"):
            rs.SimConfig(**kwargs)

    def test_numpy_integers_run_as_python_integers(self, chain2, set1):
        ints = dict(n_paths=3, steps_per_year=10, seed=5, state0=2, driver_steps_per_year=20)
        runs = [
            rs.simulate_paths(
                set1, chain2, rs.constant_strategy(0.3), rs.SimConfig(v0=10.0, x0=0.02, **kw), record="all"
            )
            for kw in (ints, {k: np.int64(v) for k, v in ints.items()})
        ]
        assert runs[0].V.tobytes() == runs[1].V.tobytes()
        assert runs[0].states.tobytes() == runs[1].states.tobytes()


class TestScheme:
    def test_bond_only_is_exact(self, chain1):
        p = one_state_params()
        cfg = rs.SimConfig(n_paths=32, steps_per_year=40, seed=5, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.0), cfg)
        np.testing.assert_allclose(bundle.terminal_wealth, 10 * np.exp(0.15), rtol=1e-12)
        mean, err = rs.expected_utility_mc(bundle, 0.3)
        assert mean == pytest.approx((10 * np.exp(0.15)) ** 0.3 / 0.3, rel=1e-12)
        assert err < 1e-15

    def test_deterministic_factor_gives_lognormal_wealth(self, chain1):
        # chi = 0 with x0 = theta freezes X, so wealth is exactly lognormal
        p = one_state_params(chi=0.0)
        pi = 0.8
        cfg = rs.SimConfig(n_paths=20_000, steps_per_year=50, seed=6, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(pi), cfg, record="terminal")
        np.testing.assert_allclose(bundle.X[:, -1], 0.02, atol=1e-15)
        w = bundle.terminal_wealth
        expected_mean = 10 * np.exp((0.03 + pi * 1.7 * 0.02) * 5.0)
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean() - expected_mean) < 3 * se

    def test_wealth_positive_and_factor_truncated(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=2000, steps_per_year=50, seed=7, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg)
        assert bundle.min_x_effective >= 0.0
        assert bundle.X.min() >= 0.0
        assert bundle.V.min() > 0.0

    def test_determinism_is_block_size_free(self, chain2, set1, monkeypatch):
        cfg = rs.SimConfig(n_paths=400, steps_per_year=30, seed=8, v0=10.0, x0=0.02, state0=1)
        a = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record="terminal")
        monkeypatch.setattr(simulate, "_BLOCK", _STREAM_BLOCK)
        b = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record="terminal")
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.states, b.states)

    def test_wealth_does_not_depend_on_nu(self, chain2, set1):
        # the optimal weight absorbs nu, leaving identical wealth paths
        cfg = rs.SimConfig(n_paths=500, steps_per_year=40, seed=9, v0=10.0, x0=0.02, state0=1)
        scaled = make_params(nu=[2.0, 0.65])
        a = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record="terminal")
        b = rs.simulate_paths(scaled, chain2, rs.optimal_weight_fn(scaled), cfg, record="terminal")
        np.testing.assert_array_equal(a.V, b.V)

    def test_record_times_must_lie_on_grid(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=2, steps_per_year=10, seed=1, v0=1.0, x0=0.02, state0=1)
        with pytest.raises(rs.ConfigError):
            rs.simulate_paths(set1, chain2, rs.constant_strategy(0.0), cfg, record=[0.35])

    @pytest.mark.parametrize("t", [-0.1, 5.1, math.nan])
    def test_record_times_outside_the_horizon_are_rejected(self, t, chain2, set1):
        cfg = rs.SimConfig(n_paths=2, steps_per_year=10, seed=1, v0=1.0, x0=0.02, state0=1)
        with pytest.raises(rs.ConfigError, match=r"outside \[0, T\]"):
            rs.simulate_paths(set1, chain2, rs.constant_strategy(0.0), cfg, record=[t])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_while_stepping_raises_without_numpy_warnings(self, chain1):
        # the weight table is finite, but (pi nu)^2 / 2 * X overflows on the first step
        p = one_state_params()
        cfg = rs.SimConfig(n_paths=4, steps_per_year=10, seed=1, v0=1.0, x0=1e10, state0=1)
        with pytest.raises(FloatingPointError, match="wealth overflowed"):
            rs.simulate_paths(p, chain1, rs.constant_strategy(1e150), cfg)

    def test_discretization_convergence_with_shared_driver(self, chain2, set1):
        # the two runs share Brownian paths through the common driver grid,
        # isolating the step-size effect from Monte Carlo noise
        coarse_cfg = rs.SimConfig(
            n_paths=100_000, steps_per_year=250, seed=10, v0=10.0, x0=0.02, state0=1,
            driver_steps_per_year=500,
        )
        fine_cfg = rs.SimConfig(
            n_paths=100_000, steps_per_year=500, seed=10, v0=10.0, x0=0.02, state0=1,
            driver_steps_per_year=500,
        )
        strat = rs.optimal_weight_fn(set1)
        coarse = rs.expected_utility_mc(
            rs.simulate_paths(set1, chain2, strat, coarse_cfg, record="terminal"), set1.delta
        )
        fine = rs.expected_utility_mc(
            rs.simulate_paths(set1, chain2, strat, fine_cfg, record="terminal"), set1.delta
        )
        assert abs(coarse[0] - fine[0]) < coarse[1]


def _scalar_reference(p, chain, weight, cfg, record, frozen_path=None):
    """The module docstring's scheme, one path and one step at a time on Python floats.

    Redraws what ``simulate_paths`` draws from each stream block's two
    streams: from the first, the chain of every path in the block and
    then all of its dW_X normals in one call; from the second, one normal
    per path at each record time.  It keeps the library's operation
    order; ``weight(t, state)`` is the strategy as a scalar function and
    ``record`` lists the recorded grid indices.  Returns X, ln V, the
    conditional mean and variance of ln V, the rho part C of ln V and
    its quadratic variation <C> = rho^2 dt S and the states at the
    record times, plus the running minimum of the truncated factor.
    """
    horizon = p.horizon
    n_steps = max(1, int(round(horizon * cfg.steps_per_year)))
    dt = horizon / n_steps
    grid = (np.arange(n_steps + 1) * dt).tolist()
    grid[-1] = horizon
    refine = (cfg.driver_steps_per_year or cfg.steps_per_year) // cfg.steps_per_year
    sq_dtd = math.sqrt(dt / refine)
    rho, orth = p.rho, max(0.0, 1.0 - p.rho**2) * dt
    r, lam, nu = p.r.tolist(), p.excess_slope.tolist(), p.nu.tolist()
    kappa, theta, chi = p.kappa.tolist(), p.theta.tolist(), p.chi.tolist()
    shape = (cfg.n_paths, len(record))
    xs, lnvs, means, variances, cs, cqvs = (np.empty(shape) for _ in range(6))
    states = np.empty(shape, dtype=np.int64)
    min_xp = math.inf
    for j0 in range(0, cfg.n_paths, _STREAM_BLOCK):
        nb = min(_STREAM_BLOCK, cfg.n_paths - j0)
        rng = rs.path_stream(cfg.seed, j0 // _STREAM_BLOCK)
        rec_rng = rng.spawn(1)[0]
        if frozen_path is None:
            paths = scalar_block_chain(chain, horizon, cfg.state0, nb, rng)
        else:
            paths = [(frozen_path.jump_times.tolist(), frozen_path.states[1:].tolist())] * nb
        z = rng.standard_normal((n_steps * refine, nb)).tolist()
        z_rec = [rec_rng.standard_normal(nb).tolist() for _ in record]
        for c, (jumps, after) in enumerate(paths):
            i = j0 + c
            labels = [cfg.state0 if frozen_path is None else int(frozen_path.states[0]), *after]
            x, m, big_s, s_rec, w, big_c = cfg.x0, math.log(cfg.v0), 0.0, 0.0, 0.0, 0.0
            slot = 0
            for k in range(n_steps + 1):
                e = labels[bisect.bisect_right(jumps, grid[k])] - 1
                if k == record[slot]:
                    w += math.sqrt((big_s - s_rec) * orth) * z_rec[slot][c]
                    s_rec = big_s
                    xs[i, slot], lnvs[i, slot] = max(x, 0.0), m + w
                    means[i, slot], variances[i, slot], states[i, slot] = m, big_s * orth, e + 1
                    cs[i, slot], cqvs[i, slot] = big_c, big_s * (rho**2 * dt)
                    slot += 1
                if k == n_steps:
                    break
                zsum = sum(row[c] for row in z[k * refine:(k + 1) * refine])
                pi = weight(grid[k], e + 1)
                pn = pi * nu[e]
                pn2 = pn * pn
                xp = max(x, 0.0)
                sq = math.sqrt(xp) * zsum
                rho_step = (rho * sq_dtd) * pn * sq
                m += (r[e] * dt + (pi * lam[e] - 0.5 * pn2) * dt * xp) + rho_step
                big_c += rho_step
                big_s += pn2 * xp
                x += kappa[e] * theta[e] * dt - kappa[e] * dt * xp
                x += chi[e] * sq_dtd * sq
                min_xp = min(min_xp, xp)
    return xs, lnvs, means, variances, cs, cqvs, states, min_xp


def _three_state_market():
    """A 3-state market and a time-dependent weight, as a strategy and as a scalar function."""
    p = rs.HestonRegimeParams(
        variant="smmh_rho", horizon=2.0, delta=-0.5, rho=0.4, r=[0.03, 0.01, 0.02],
        nu=[1.0, 1.3, 0.8], kappa=3.0, theta=[0.02, 0.04, 0.03], chi=0.3, d=-0.7,
    )
    chain = rs.validate_intensity([[-1.5, 1.5, 0.0], [0.2, -2.7, 2.5], [4.0, 0.3, -4.3]])

    def strategy(times):
        return 0.4 * np.arange(1, 4) - 0.15 * np.asarray(times)[:, None]

    return p, chain, strategy, lambda t, state: 0.4 * state - 0.15 * t


def _frozen_path(horizon=5.0):
    return rs.RegimePath(
        start=0.0, horizon=horizon, jump_times=np.array([0.9, 2.05, 3.3]), states=np.array([2, 1, 2, 1])
    )


@pytest.mark.parametrize(
    "three_states, frozen, driver_steps_per_year, block, n_paths, record",
    [
        pytest.param(False, False, None, None, 23, "all", id="refine1"),
        pytest.param(False, False, 60, None, 23, "all", id="refine3"),
        pytest.param(False, False, 60, _STREAM_BLOCK, 23, "all", id="refine3_block7"),
        pytest.param(False, True, None, _STREAM_BLOCK, 23, "all", id="frozen_block7"),
        pytest.param(True, False, 60, _STREAM_BLOCK, 23, "all", id="three_states"),
        pytest.param(False, False, None, _STREAM_BLOCK, 2 * _STREAM_BLOCK + 23, "all", id="partial_stream_block"),
        pytest.param(False, False, 60, _STREAM_BLOCK, _STREAM_BLOCK + 23, [1.0, 2.5], id="record_times_refine3"),
        pytest.param(False, True, None, None, 23, [2.5, 1.0], id="record_times_frozen"),
        pytest.param(True, False, None, _STREAM_BLOCK, _STREAM_BLOCK + 23, "terminal", id="terminal_three_states"),
    ],
)
def test_simulate_paths_matches_scalar_reference(
    three_states, frozen, driver_steps_per_year, block, n_paths, record, chain2, set1, monkeypatch
):
    p, chain, strategy = set1, chain2, rs.optimal_weight_fn(set1)
    weight = lambda t, state: rs.optimal_strategy(set1, t, state).pi_total  # noqa: E731
    if three_states:
        p, chain, strategy, weight = _three_state_market()
    path = _frozen_path() if frozen else None
    cfg = rs.SimConfig(
        n_paths=n_paths, steps_per_year=20, seed=17, v0=10.0, x0=0.01, state0=2,
        driver_steps_per_year=driver_steps_per_year,
    )
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    bundle = rs.simulate_paths(p, chain, strategy, cfg, record=record, frozen_path=path)
    n_steps = round(p.horizon * 20)
    if record == "all":
        record_idx = list(range(n_steps + 1))
    else:
        record_idx = sorted({round(t * 20) for t in ([] if record == "terminal" else record)} | {n_steps})
    xs, lnvs, means, variances, cs, cqvs, states, min_xp = _scalar_reference(
        p, chain, weight, cfg, record_idx, path
    )
    assert bundle.X.tobytes() == xs.tobytes()
    assert bundle.V.tobytes() == np.exp(lnvs).tobytes()
    assert bundle.log_v_mean.tobytes() == means.tobytes()
    assert bundle.log_v_var.tobytes() == variances.tobytes()
    assert bundle.rho_part.tobytes() == cs.tobytes()
    assert bundle.rho_part_qv.tobytes() == cqvs.tobytes()
    np.testing.assert_array_equal(bundle.states, states)
    assert bundle.min_x_effective == min_xp


@pytest.mark.parametrize(
    "frozen, driver_steps_per_year",
    [
        pytest.param(False, None, id="sampled"),
        pytest.param(True, None, id="frozen"),
        pytest.param(False, 60, id="refine3"),
    ],
)
def test_results_do_not_depend_on_block_size(frozen, driver_steps_per_year, chain2, set1, monkeypatch):
    cfg = rs.SimConfig(
        n_paths=2 * _STREAM_BLOCK + 37, steps_per_year=20, seed=23, v0=10.0, x0=0.01, state0=1,
        driver_steps_per_year=driver_steps_per_year,
    )
    path = _frozen_path() if frozen else None
    runs = []
    for size in (simulate._BLOCK, _STREAM_BLOCK, 2 * _STREAM_BLOCK):  # all paths, one and two stream blocks at once
        monkeypatch.setattr(simulate, "_BLOCK", size)
        runs.append(
            rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record=[1.0, 2.5], frozen_path=path)
        )
    for other in runs[1:]:
        for field in ("X", "V", "log_v_mean", "log_v_var", "rho_part", "rho_part_qv", "states"):
            assert getattr(other, field).tobytes() == getattr(runs[0], field).tobytes()
        assert other.min_x_effective == runs[0].min_x_effective


def test_factor_and_states_do_not_depend_on_record(chain2, set1):
    # X, the states, the conditional moments of ln V and C come from the first stream only
    cfg = rs.SimConfig(n_paths=_STREAM_BLOCK + 37, steps_per_year=20, seed=29, v0=10.0, x0=0.01, state0=1)
    runs = [
        rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record=record)
        for record in ("all", [1.0, 2.5], "terminal")
    ]
    for bundle in runs[1:]:
        cols = [runs[0].column(t) for t in bundle.record_times]
        for field in ("X", "log_v_mean", "log_v_var", "rho_part", "rho_part_qv", "states"):
            assert getattr(bundle, field).tobytes() == np.ascontiguousarray(getattr(runs[0], field)[:, cols]).tobytes()


def test_record_normals_do_not_depend_on_the_step_size(chain2, set1):
    # the record normals come from each block's second stream, one per path and record time
    n_paths, record = _STREAM_BLOCK + 37, [1.0, 2.5]
    expected = []
    for j0 in range(0, n_paths, _STREAM_BLOCK):
        rec = rs.path_stream(31, j0 // _STREAM_BLOCK).spawn(1)[0]
        nb = min(_STREAM_BLOCK, n_paths - j0)
        expected.append(np.stack([rec.standard_normal(nb) for _ in range(len(record) + 1)], axis=1))
    expected = np.concatenate(expected)
    for steps_per_year in (250, 500):
        cfg = rs.SimConfig(
            n_paths=n_paths, steps_per_year=steps_per_year, seed=31, v0=10.0, x0=0.02, state0=1,
            driver_steps_per_year=500,
        )
        bundle = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record=record)
        # each record interval adds sqrt(its conditional variance) Z to ln V - m
        dw = np.diff(np.log(bundle.V) - bundle.log_v_mean, axis=1, prepend=0.0)
        z = dw / np.sqrt(np.diff(bundle.log_v_var, axis=1, prepend=0.0))
        np.testing.assert_allclose(z, expected, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("case", ["set1", "set2", "set1_smmh_rho0"])
def test_conditional_estimator_is_no_noisier_and_matches_the_closed_form(case, chain2):
    p = {
        "set1": make_params(),
        "set2": make_params(delta=-1.0),
        "set1_smmh_rho0": make_params(variant="smmh", rho=0.0),
    }[case]
    cfg = rs.SimConfig(n_paths=20_000, steps_per_year=250, seed=20261020, v0=10.0, x0=0.02, state0=1)
    bundle = rs.simulate_paths(p, chain2, rs.optimal_weight_fn(p), cfg, record="terminal")
    conditional, conditional_err = rs.expected_utility_mc(bundle, p.delta)
    u = bundle.terminal_wealth**p.delta / p.delta
    plain, plain_err = u.mean(), u.std(ddof=1) / math.sqrt(len(u))
    xi = rs.xi_ode(chain2, rs.upsilon_heston(p, rs.d_leverage_fn(p)))
    target = rs.value_smmh_rho(p, rs.ValueQuery(t=0.0, v=10.0, x=0.02, state=1), xi)
    assert conditional_err <= plain_err
    assert abs(conditional - target) <= 3 * conditional_err, (conditional, conditional_err, target)
    assert abs(plain - target) <= 3 * plain_err, (plain, plain_err, target)
    controlled, controlled_err = rs.expected_utility_controlled(bundle, p.delta)
    assert controlled_err <= conditional_err
    assert abs(controlled - target) <= 3 * controlled_err, (controlled, controlled_err, target)
    if p.rho == 0.0:
        # G is identically 0, so nothing is regressed out
        assert (controlled, controlled_err) == (conditional, conditional_err)


class TestControlledEstimator:
    def test_zero_weight_gives_the_conditional_estimate(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=300, steps_per_year=20, seed=3, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(set1, chain2, rs.constant_strategy(0.0), cfg, record="terminal")
        assert not bundle.rho_part.any() and not bundle.rho_part_qv.any()
        controlled = rs.expected_utility_controlled(bundle, set1.delta)
        assert controlled == rs.expected_utility_mc(bundle, set1.delta)

    def test_single_path_gives_the_conditional_estimate(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=1, steps_per_year=20, seed=3, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record="terminal")
        mean, err = rs.expected_utility_controlled(bundle, set1.delta)
        assert mean == rs.expected_utility_mc(bundle, set1.delta)[0]
        assert math.isnan(err)

    def test_perfect_correlation_keeps_the_quadratic_variation(self, chain1):
        # at rho = -1 the conditional variance of ln V is 0, but <C> is not
        p = one_state_params(rho=-1.0)
        cfg = rs.SimConfig(n_paths=50, steps_per_year=20, seed=4, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.8), cfg)
        dt = bundle.grid[1]
        steps = np.cumsum(p.rho**2 * (0.8 * p.nu[0]) ** 2 * bundle.X[:, :-1] * dt, axis=1)
        assert not bundle.log_v_var.any()
        assert np.isfinite(bundle.rho_part_qv).all() and (bundle.rho_part_qv[:, 1:] > 0).all()
        assert bundle.rho_part_qv[:, 0].tolist() == [0.0] * 50
        np.testing.assert_allclose(bundle.rho_part_qv[:, 1:], steps, rtol=1e-12, atol=0.0)
        # with no orthogonal noise, ln V is its conditional mean
        np.testing.assert_allclose(np.log(bundle.V), bundle.log_v_mean, rtol=0.0, atol=1e-13)
        mean, err = rs.expected_utility_controlled(bundle, p.delta)
        assert math.isfinite(mean) and 0.0 < err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_control_raises_without_numpy_warnings(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=8, steps_per_year=20, seed=5, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record="terminal")
        huge = dataclasses.replace(bundle, rho_part=bundle.rho_part + 1e4)
        with pytest.raises(FloatingPointError, match="wealth overflowed"):
            rs.expected_utility_controlled(huge, set1.delta)


def test_weight_table_matches_scalar_route(set1, set2):
    grid = np.arange(1251) * (5.0 / 1250)
    for p in (set1, set2):
        table = rs.optimal_weight_fn(p)(grid)
        scalar = [[rs.optimal_strategy(p, float(t), e).pi_total for e in (1, 2)] for t in grid]
        assert table.tobytes() == np.array(scalar).tobytes()


class TestHistogram:
    def test_matches_the_per_bin_definition(self):
        edges = np.array([0.0, 1.0, 2.5, 4.0])
        on_edges = [0.0, 1.0, 2.5, 4.0, -0.0, np.nextafter(1.0, 0.0), np.nextafter(4.0, 0.0)]
        w = np.concatenate([on_edges, [-1.0, -1e-300, 7.0, np.inf], np.random.default_rng(3).uniform(-1.0, 8.0, 500)])
        one = np.ones((len(w), 1))
        bundle = rs.PathBundle(
            grid=np.array([0.0, 1.0]), record_times=np.array([1.0]), states=one.astype(np.int16), X=one,
            V=w[:, None], log_v_mean=one, log_v_var=one, rho_part=one, rho_part_qv=one, seed=0, min_x_effective=1.0,
        )
        hist = rs.terminal_wealth_histogram(bundle, edges)
        counts = [np.count_nonzero((w >= lo) & (w < hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        assert hist.counts.tolist() == counts
        assert hist.overflow == np.count_nonzero(w >= edges[-1])
        assert sum(counts) + hist.overflow == len(w) - np.count_nonzero(w < edges[0])

    def test_single_path_single_count(self, chain1):
        p = one_state_params()
        cfg = rs.SimConfig(n_paths=1, steps_per_year=10, seed=3, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.0), cfg, record="terminal")
        hist = rs.terminal_wealth_histogram(bundle, np.linspace(0, 150, 31))
        assert hist.counts.sum() + hist.overflow == 1
        mean, err = rs.expected_utility_mc(bundle, 0.3)
        assert np.isnan(err)

    def test_bond_only_masses_single_bin(self, chain1):
        p = one_state_params()
        cfg = rs.SimConfig(n_paths=250, steps_per_year=10, seed=4, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.0), cfg, record="terminal")
        edges = np.linspace(0, 150, 31)
        hist = rs.terminal_wealth_histogram(bundle, edges)
        target_bin = int(np.searchsorted(edges, 10 * np.exp(0.15), side="right")) - 1
        assert hist.counts[target_bin] == 250
        assert hist.overflow == 0

    def test_risk_seeking_widens_the_tails(self, chain2, set1, set2):
        cfgs = rs.SimConfig(n_paths=20_000, steps_per_year=100, seed=5, v0=10.0, x0=0.02, state0=1)
        spread = {}
        for name, p in (("set1", set1), ("set2", set2)):
            bundle = rs.simulate_paths(p, chain2, rs.optimal_weight_fn(p), cfgs, record="terminal")
            hist = rs.terminal_wealth_histogram(bundle, np.linspace(0, 150, 31))
            spread[name] = hist.q95 - hist.q05
        assert spread["set1"] > spread["set2"]


class TestMartingaleDiagnostic:
    def test_first_checkpoint_is_exact(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=500, steps_per_year=20, seed=6, v0=10.0, x0=0.02, state0=1)
        rows = rs.martingale_diagnostic(set1, chain2, cfg, [0.0, 2.5, 5.0])
        t0row = rows[0]
        assert t0row[2] == 0.0  # no randomness yet
        assert t0row[3] == 0.0  # z defined as 0 at the anchor

    def test_terminal_checkpoint_matches_expected_utility(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=800, steps_per_year=20, seed=7, v0=10.0, x0=0.02, state0=1)
        rows = rs.martingale_diagnostic(set1, chain2, cfg, [0.0, 5.0])
        bundle = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record="terminal")
        mean, _ = rs.expected_utility_mc(bundle, set1.delta)
        assert rows[-1][1] == pytest.approx(mean, rel=1e-12)

    def test_single_path_has_no_stderr_or_z(self, chain2, set1):
        # as expected_utility_mc: one path measures no spread, at the anchor or after it
        cfg = rs.SimConfig(n_paths=1, steps_per_year=20, seed=6, v0=10.0, x0=0.02, state0=1)
        rows = rs.martingale_diagnostic(set1, chain2, cfg, [0.0, 2.5, 5.0])
        assert all(math.isfinite(mean) and math.isnan(err) and math.isnan(z) for _, mean, err, z in rows), rows

    def test_requires_leverage_variant(self, chain2):
        cfg = rs.SimConfig(n_paths=10, steps_per_year=10, seed=1, v0=1.0, x0=0.02, state0=1)
        p_mmh = make_params(variant="mmh", d=None, rho=0.0, lam_hat=[1.7, 2.21])
        with pytest.raises(rs.ConfigError):
            rs.martingale_diagnostic(p_mmh, chain2, cfg, [0.0])
        rows = rs.martingale_diagnostic(make_params(variant="smmh", rho=0.0), chain2, cfg, [0.0])
        assert rows[0][3] == 0.0

    def test_requires_a_checkpoint(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=10, steps_per_year=10, seed=1, v0=1.0, x0=0.02, state0=1)
        with pytest.raises(rs.ConfigError, match="at least one checkpoint"):
            rs.martingale_diagnostic(set1, chain2, cfg, [])

    def test_tiny_means_keep_their_noise(self, chain2, set1):
        # a weight of 200 drives Phi far below 1 while the paths still differ
        cfg = rs.SimConfig(n_paths=200, steps_per_year=250, seed=20240211, v0=10.0, x0=0.02, state0=1)
        rows = rs.martingale_diagnostic(set1, chain2, cfg, [0.0, 2.5, 5.0], strategy=rs.constant_strategy(200.0))
        assert rows[0][2:] == (0.0, 0.0)
        for t, mean, err, z in rows[1:]:
            assert 0.0 < mean < 1e-30 and err > 0.0 and math.isfinite(z), (t, mean, err, z)


def _variance(bundle, p):
    """The instantaneous log-return variance nu(state)^2 X per path and recorded time."""
    return p.nu[bundle.states - 1] ** 2 * bundle.X


class TestVarianceObservable:
    def test_jump_ratio_is_squared_nu(self, chain2):
        # freeze the factor (chi = 0, equal theta) so only nu moves the series
        p = make_params(chi=0.0, theta=[0.02, 0.02])
        path = rs.RegimePath(
            start=0.0, horizon=5.0, jump_times=np.array([2.0]), states=np.array([1, 2])
        )
        cfg = rs.SimConfig(n_paths=2, steps_per_year=10, seed=9, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain2, rs.constant_strategy(0.3), cfg, frozen_path=path)
        var = _variance(bundle, p)
        k = bundle.column(2.0)
        assert var[0, k] / var[0, k - 1] == pytest.approx(1.3**2, rel=1e-12)

    def test_long_run_mean_is_nu_squared_theta(self, chain1):
        p = one_state_params(nu=1.2, horizon=400.0)
        cfg = rs.SimConfig(n_paths=1, steps_per_year=250, seed=10, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.0), cfg)
        series = _variance(bundle, p)[0]
        batches = series[1:].reshape(20, -1).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(len(batches))
        assert abs(series.mean() - 1.2**2 * 0.02) < 3 * se


@pytest.mark.parametrize("label", [3, 4])
def test_frozen_path_labels_above_the_state_count_are_rejected(chain2, set1, label):
    cfg = rs.SimConfig(n_paths=2, steps_per_year=10, seed=1, v0=10.0, x0=0.02, state0=1)
    path = rs.RegimePath(start=0.0, horizon=set1.horizon, jump_times=np.array([1.0]), states=np.array([1, label]))
    with pytest.raises(rs.ConfigError, match="n_states = 2"):
        rs.simulate_paths(set1, chain2, rs.constant_strategy(0.3), cfg, frozen_path=path)
