import bisect
import dataclasses
import math
import tracemalloc

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


def _every_step(p, steps_per_year):
    """Every time of the step grid of p at steps_per_year, as a record list."""
    return np.linspace(0.0, p.horizon, int(round(p.horizon * steps_per_year)) + 1)


class TestSimConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(rs.ConfigError):
            rs.SimConfig(n_paths=0, steps_per_year=10, seed=1, v0=1.0, x0=0.0, state0=1)
        with pytest.raises(rs.ConfigError):
            rs.SimConfig(n_paths=1, steps_per_year=10, seed=1, v0=0.0, x0=0.0, state0=1)

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
        ],
    )
    def test_rejects_fractional_counts_and_bad_seeds_by_name(self, field, value):
        kwargs = dict(n_paths=1, steps_per_year=10, seed=1, v0=1.0, x0=0.0, state0=1)
        kwargs[field] = value
        with pytest.raises(rs.ConfigError, match=f"^{field} must"):
            rs.SimConfig(**kwargs)

    def test_numpy_integers_run_as_python_integers(self, chain2, set1):
        ints = dict(n_paths=3, steps_per_year=10, seed=5, state0=2)
        runs = [
            rs.simulate_paths(
                set1, chain2, rs.constant_strategy(0.3), rs.SimConfig(v0=10.0, x0=0.02, **kw), record=_every_step(set1, 10)
            )
            for kw in (ints, {k: np.int64(v) for k, v in ints.items()})
        ]
        assert runs[0].terminal_wealth.tobytes() == runs[1].terminal_wealth.tobytes()
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
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(pi), cfg)
        np.testing.assert_allclose(bundle.X[:, -1], 0.02, atol=1e-15)
        w = bundle.terminal_wealth
        expected_mean = 10 * np.exp((0.03 + pi * 1.7 * 0.02) * 5.0)
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean() - expected_mean) < 3 * se

    def test_wealth_positive_and_factor_truncated(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=2000, steps_per_year=50, seed=7, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record=_every_step(set1, 50))
        assert bundle.min_x_effective >= 0.0
        assert bundle.X.min() >= 0.0
        assert bundle.terminal_wealth.min() > 0.0

    def test_determinism_is_block_size_free(self, chain2, set1, monkeypatch):
        cfg = rs.SimConfig(n_paths=400, steps_per_year=30, seed=8, v0=10.0, x0=0.02, state0=1)
        a = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg)
        monkeypatch.setattr(simulate, "_BLOCK", _STREAM_BLOCK)
        b = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg)
        np.testing.assert_array_equal(a.terminal_wealth, b.terminal_wealth)
        np.testing.assert_array_equal(a.states, b.states)

    def test_wealth_does_not_depend_on_nu(self, chain2, set1):
        # the optimal weight absorbs nu, leaving identical wealth paths
        cfg = rs.SimConfig(n_paths=500, steps_per_year=40, seed=9, v0=10.0, x0=0.02, state0=1)
        scaled = make_params(nu=[2.0, 0.65])
        a = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg)
        b = rs.simulate_paths(scaled, chain2, rs.optimal_weight_fn(scaled), cfg)
        np.testing.assert_array_equal(a.terminal_wealth, b.terminal_wealth)

    def test_record_times_must_lie_on_grid(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=2, steps_per_year=10, seed=1, v0=1.0, x0=0.02, state0=1)
        with pytest.raises(rs.ConfigError):
            rs.simulate_paths(set1, chain2, rs.constant_strategy(0.0), cfg, record=[0.35])

    @pytest.mark.parametrize("t", [-0.1, 5.1, math.nan])
    def test_record_times_outside_the_horizon_are_rejected(self, t, chain2, set1):
        cfg = rs.SimConfig(n_paths=2, steps_per_year=10, seed=1, v0=1.0, x0=0.02, state0=1)
        with pytest.raises(rs.ConfigError, match=r"outside \[0, T\]"):
            rs.simulate_paths(set1, chain2, rs.constant_strategy(0.0), cfg, record=[t])

    def test_default_records_the_horizon_only(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=3, steps_per_year=10, seed=1, v0=1.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(set1, chain2, rs.constant_strategy(0.3), cfg)
        assert bundle.record_times.tolist() == [set1.horizon]
        assert bundle.X.shape == bundle.states.shape == bundle.log_v_mean.shape == (3, 1)

    @pytest.mark.parametrize("record", ["all", "terminal", "5"])
    def test_a_string_record_is_rejected(self, record, chain2, set1):
        # a string would otherwise be read one character at a time
        cfg = rs.SimConfig(n_paths=2, steps_per_year=10, seed=1, v0=1.0, x0=0.02, state0=1)
        with pytest.raises(rs.ConfigError, match="record takes a sequence of times, not a string"):
            rs.simulate_paths(set1, chain2, rs.constant_strategy(0.0), cfg, record=record)

    @pytest.mark.parametrize("horizon, steps_per_year", [(1e6, 20), (1e300, 250), (1.7e308, 250)])
    def test_step_count_is_bounded_before_any_allocation(self, chain2, horizon, steps_per_year):
        p = make_params(horizon=horizon)
        cfg = rs.SimConfig(n_paths=300, steps_per_year=steps_per_year, seed=1, v0=10.0, x0=0.02, state0=1)
        runs = (
            lambda: rs.simulate_paths(p, chain2, rs.constant_strategy(0.3), cfg),
            lambda: rs.martingale_diagnostic(p, chain2, cfg, [0.0]),
        )
        for run in runs:
            tracemalloc.start()
            try:
                with pytest.raises(rs.ConfigError, match=r"T = .* steps_per_year = .* 4194304 steps x states"):
                    run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, peak

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_while_stepping_raises_without_numpy_warnings(self, chain1):
        # the weight table is finite, but (pi nu)^2 / 2 * X overflows on the first step
        p = one_state_params()
        cfg = rs.SimConfig(n_paths=4, steps_per_year=10, seed=1, v0=1.0, x0=1e10, state0=1)
        with pytest.raises(FloatingPointError, match="wealth overflowed"):
            rs.simulate_paths(p, chain1, rs.constant_strategy(1e150), cfg)


def _scalar_reference(p, chain, weight, cfg, record, frozen_path=None):
    """The module docstring's scheme, one path and one step at a time on Python floats.

    Redraws what ``simulate_paths`` draws from each stream block's one
    stream: the chain of every path in the block, then all of its dW_X
    normals in one call, then one normal Z per path for ln V(T).  It
    keeps the library's operation order; ``weight(t, state)`` is the
    strategy as a scalar function and ``record`` lists the recorded grid
    indices.  Returns X, the conditional mean and variance of ln V, the
    Euler product K of the value process's dW_X part and the states at
    the record times, ln V(T), and the running minimum of the truncated
    factor.  K reads D at the step times from ``D_leverage``.
    """
    horizon = p.horizon
    n_steps = max(1, int(round(horizon * cfg.steps_per_year)))
    dt = horizon / n_steps
    grid = (np.arange(n_steps + 1) * dt).tolist()
    grid[-1] = horizon
    sq_dt = math.sqrt(dt)
    rho, orth = p.rho, max(0.0, 1.0 - p.rho**2) * dt
    r, lam, nu = p.r.tolist(), p.excess_slope.tolist(), p.nu.tolist()
    kappa, theta, chi = p.kappa.tolist(), p.theta.tolist(), p.chi.tolist()
    d_steps = rs.D_leverage(p, np.array(grid[:-1])).tolist()
    shape = (cfg.n_paths, len(record))
    xs, means, variances, ks = (np.empty(shape) for _ in range(4))
    log_wealth = np.empty(cfg.n_paths)
    states = np.empty(shape, dtype=np.int64)
    min_xp = math.inf
    for j0 in range(0, cfg.n_paths, _STREAM_BLOCK):
        nb = min(_STREAM_BLOCK, cfg.n_paths - j0)
        rng = rs.path_stream(cfg.seed, j0 // _STREAM_BLOCK)
        if frozen_path is None:
            paths = scalar_block_chain(chain, horizon, cfg.state0, nb, rng)
        else:
            paths = [(frozen_path.jump_times.tolist(), frozen_path.states[1:].tolist())] * nb
        z = rng.standard_normal((n_steps, nb)).tolist()
        z_end = rng.standard_normal(nb).tolist()
        for c, (jumps, after) in enumerate(paths):
            i = j0 + c
            labels = [cfg.state0 if frozen_path is None else int(frozen_path.states[0]), *after]
            x, m, big_s, big_k = cfg.x0, math.log(cfg.v0), 0.0, 1.0
            slot = 0
            for k in range(n_steps + 1):
                e = labels[bisect.bisect_right(jumps, grid[k])] - 1
                if k == record[slot]:
                    xs[i, slot] = max(x, 0.0)
                    means[i, slot], variances[i, slot], states[i, slot] = m, big_s * orth, e + 1
                    ks[i, slot] = big_k
                    slot += 1
                if k == n_steps:
                    break
                pi = weight(grid[k], e + 1)
                pn = pi * nu[e]
                pn2 = pn * pn
                xp = max(x, 0.0)
                sq = math.sqrt(xp) * z[k][c]
                rho_h = (rho * sq_dt) * pn
                m += (r[e] * dt + (pi * lam[e] - 0.5 * pn2) * dt * xp) + rho_h * sq
                big_k *= 1.0 + (p.delta * rho_h + d_steps[k] * (chi[e] * sq_dt)) * sq
                big_s += pn2 * xp
                x += kappa[e] * theta[e] * dt - kappa[e] * dt * xp
                x += chi[e] * sq_dt * sq
                min_xp = min(min_xp, xp)
            log_wealth[i] = m + math.sqrt(big_s * orth) * z_end[c]
    return xs, means, variances, ks, states, log_wealth, min_xp


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
    "three_states, frozen, block, n_paths, record",
    [
        pytest.param(False, False, None, 23, "every_step", id="refine1"),
        pytest.param(False, False, _STREAM_BLOCK, 23, "every_step", id="sampled_block7"),
        pytest.param(False, True, _STREAM_BLOCK, 23, "every_step", id="frozen_block7"),
        pytest.param(True, False, _STREAM_BLOCK, 23, "every_step", id="three_states"),
        pytest.param(False, False, _STREAM_BLOCK, 2 * _STREAM_BLOCK + 23, "every_step", id="partial_stream_block"),
        pytest.param(False, False, _STREAM_BLOCK, _STREAM_BLOCK + 23, [1.0, 2.5], id="record_times_sampled"),
        pytest.param(False, True, None, 23, [2.5, 1.0], id="record_times_frozen"),
        pytest.param(True, False, _STREAM_BLOCK, _STREAM_BLOCK + 23, (), id="terminal_three_states"),
    ],
)
def test_simulate_paths_matches_scalar_reference(
    three_states, frozen, block, n_paths, record, chain2, set1, monkeypatch
):
    p, chain, strategy = set1, chain2, rs.optimal_weight_fn(set1)
    weight = lambda t, state: rs.optimal_strategy(set1, t, state).pi_total  # noqa: E731
    if three_states:
        p, chain, strategy, weight = _three_state_market()
    path = _frozen_path() if frozen else None
    cfg = rs.SimConfig(n_paths=n_paths, steps_per_year=20, seed=17, v0=10.0, x0=0.01, state0=2)
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    if record == "every_step":
        record = _every_step(p, 20)
    bundle = rs.simulate_paths(p, chain, strategy, cfg, record=record, frozen_path=path)
    n_steps = round(p.horizon * 20)
    record_idx = sorted({round(t * 20) for t in record} | {n_steps})
    xs, means, variances, ks, states, log_wealth, min_xp = _scalar_reference(
        p, chain, weight, cfg, record_idx, path
    )
    assert bundle.X.tobytes() == xs.tobytes()
    assert bundle.terminal_wealth.tobytes() == np.exp(log_wealth).tobytes()
    assert bundle.log_v_mean.tobytes() == means.tobytes()
    assert bundle.log_v_var.tobytes() == variances.tobytes()
    assert bundle.value_noise.tobytes() == ks.tobytes()
    np.testing.assert_array_equal(bundle.states, states)
    assert bundle.min_x_effective == min_xp


@pytest.mark.parametrize("frozen", [pytest.param(False, id="sampled"), pytest.param(True, id="frozen")])
def test_results_do_not_depend_on_block_size(frozen, chain2, set1, monkeypatch):
    # the frozen path starts in state 2
    state0 = 2 if frozen else 1
    cfg = rs.SimConfig(n_paths=2 * _STREAM_BLOCK + 37, steps_per_year=20, seed=23, v0=10.0, x0=0.01, state0=state0)
    path = _frozen_path() if frozen else None
    runs = []
    for size in (simulate._BLOCK, _STREAM_BLOCK, 2 * _STREAM_BLOCK):  # all paths, one and two stream blocks at once
        monkeypatch.setattr(simulate, "_BLOCK", size)
        runs.append(
            rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record=[1.0, 2.5], frozen_path=path)
        )
    for other in runs[1:]:
        for field in ("X", "terminal_wealth", "log_v_mean", "log_v_var", "value_noise", "states"):
            assert getattr(other, field).tobytes() == getattr(runs[0], field).tobytes()
        assert other.min_x_effective == runs[0].min_x_effective


def test_factor_and_states_do_not_depend_on_record(chain2, set1):
    # nothing is drawn at a record time: recording only copies the running values
    cfg = rs.SimConfig(n_paths=_STREAM_BLOCK + 37, steps_per_year=20, seed=29, v0=10.0, x0=0.01, state0=1)
    runs = [
        rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record=record)
        for record in (_every_step(set1, 20), [1.0, 2.5], ())
    ]
    for bundle in runs[1:]:
        cols = [runs[0].column(t) for t in bundle.record_times]
        for field in ("X", "log_v_mean", "log_v_var", "value_noise", "states"):
            assert getattr(bundle, field).tobytes() == np.ascontiguousarray(getattr(runs[0], field)[:, cols]).tobytes()


def test_terminal_wealth_does_not_depend_on_record(chain2, set1):
    # Z follows each block's dW_X normals on its one stream, whatever is recorded
    cfg = rs.SimConfig(n_paths=_STREAM_BLOCK + 37, steps_per_year=250, seed=31, v0=10.0, x0=0.02, state0=1)
    runs = [
        rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record=record)
        for record in ((), [1.0, 2.5])
    ]
    assert runs[1].terminal_wealth.tobytes() == runs[0].terminal_wealth.tobytes()


@pytest.mark.parametrize("case", ["set1", "set2", "set1_smmh_rho0"])
def test_conditional_estimator_is_no_noisier_and_matches_the_closed_form(case, chain2):
    p = {
        "set1": make_params(),
        "set2": make_params(delta=-1.0),
        "set1_smmh_rho0": make_params(variant="smmh", rho=0.0),
    }[case]
    cfg = rs.SimConfig(n_paths=20_000, steps_per_year=250, seed=20261020, v0=10.0, x0=0.02, state0=1)
    bundle = rs.simulate_paths(p, chain2, rs.optimal_weight_fn(p), cfg)
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
        # the D chi part of the control does not vanish with rho
        assert controlled_err < conditional_err


@pytest.mark.parametrize(
    "case, weight", [("set1", None), ("set2", None), ("set1", 0.8)], ids=["set1", "set2", "set1_constant_0.8"]
)
def test_value_noise_has_mean_one(case, weight, chain2):
    # each Euler factor 1 + th sqrt(xp) z has mean 1 given the past, for any weight
    p = make_params() if case == "set1" else make_params(delta=-1.0)
    strategy = rs.optimal_weight_fn(p) if weight is None else rs.constant_strategy(weight)
    cfg = rs.SimConfig(n_paths=20_000, steps_per_year=50, seed=20261022, v0=10.0, x0=0.02, state0=1)
    k = rs.simulate_paths(p, chain2, strategy, cfg).value_noise[:, -1]
    assert k.std() > 0.0
    assert abs(k.mean() - 1.0) <= 3 * k.std(ddof=1) / math.sqrt(len(k)), (k.mean(), k.std(ddof=1))


class TestControlledEstimator:
    def test_zero_weight_gives_the_conditional_estimate(self, chain2):
        # the control is constant, so nothing is regressed out: mmh has no D term, and D chi is 0 at chi = 0
        cfg = rs.SimConfig(n_paths=300, steps_per_year=20, seed=3, v0=10.0, x0=0.02, state0=1)
        for p in (
            make_params(variant="mmh", d=None, rho=0.0, lam_hat=[1.7, 2.21]),
            make_params(variant="smmh", rho=0.0, chi=0.0),
        ):
            bundle = rs.simulate_paths(p, chain2, rs.constant_strategy(0.0), cfg)
            assert (bundle.value_noise == 1.0).all()
            controlled = rs.expected_utility_controlled(bundle, p.delta)
            assert controlled == rs.expected_utility_mc(bundle, p.delta)

    def test_models_past_the_solvability_bounds_keep_the_rho_control(self, chain2):
        # no closed-form D here, so th is delta rho h pi nu alone: the run neither raises nor loses the control
        p = make_params(delta=0.9, rho=0.8, d=5.0)
        assert not rs.validate_solution_assumptions(p).ok
        cfg = rs.SimConfig(n_paths=300, steps_per_year=20, seed=3, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain2, rs.constant_strategy(0.3), cfg)
        mean, err = rs.expected_utility_controlled(bundle, p.delta)
        assert math.isfinite(mean) and 0.0 < err < rs.expected_utility_mc(bundle, p.delta)[1]

    def test_single_path_gives_the_conditional_estimate(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=1, steps_per_year=20, seed=3, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg)
        mean, err = rs.expected_utility_controlled(bundle, set1.delta)
        assert mean == rs.expected_utility_mc(bundle, set1.delta)[0]
        assert math.isnan(err)

    def test_perfect_correlation_keeps_the_quadratic_variation(self, chain1):
        # at rho = -1 the conditional variance of ln V is 0, but the control still moves
        p = one_state_params(rho=-1.0)
        cfg = rs.SimConfig(n_paths=50, steps_per_year=20, seed=4, v0=10.0, x0=0.02, state0=1)
        times = _every_step(p, 20)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.8), cfg, record=times)
        dt, h, pn = times[1], math.sqrt(times[1]), 0.8 * p.nu[0]
        # m's steps and the truncated factor at each step start give each step's sqrt(xp) z
        drift = p.r[0] * dt + (0.8 * p.excess_slope[0] - 0.5 * pn**2) * dt * bundle.X[:, :-1]
        sq = (np.diff(bundle.log_v_mean, axis=1) - drift) / (p.rho * h * pn)
        th = p.delta * (p.rho * h * pn) + rs.D_leverage(p, times[:-1]) * (p.chi[0] * h)
        assert not bundle.log_v_var.any()
        assert bundle.value_noise[:, 0].tolist() == [1.0] * 50
        np.testing.assert_allclose(bundle.value_noise[:, 1:], np.cumprod(1.0 + th * sq, axis=1), rtol=1e-12, atol=0.0)
        # with no orthogonal noise, ln V(T) is its conditional mean
        np.testing.assert_allclose(np.log(bundle.terminal_wealth), bundle.log_v_mean[:, -1], rtol=0.0, atol=1e-13)
        mean, err = rs.expected_utility_controlled(bundle, p.delta)
        assert math.isfinite(mean) and 0.0 < err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_control_raises_without_numpy_warnings(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=8, steps_per_year=20, seed=5, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg)
        value_noise = bundle.value_noise.copy()
        value_noise[3, -1] = np.inf
        huge = dataclasses.replace(bundle, value_noise=value_noise)
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
            record_times=np.array([1.0]), states=one.astype(np.int16), X=one,
            terminal_wealth=w, log_v_mean=one, log_v_var=one, value_noise=one, min_x_effective=1.0,
        )
        hist = rs.terminal_wealth_histogram(bundle, edges)
        counts = [np.count_nonzero((w >= lo) & (w < hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        assert hist.counts.tolist() == counts
        assert hist.overflow == np.count_nonzero(w >= edges[-1])
        assert sum(counts) + hist.overflow == len(w) - np.count_nonzero(w < edges[0])

    def test_single_path_single_count(self, chain1):
        p = one_state_params()
        cfg = rs.SimConfig(n_paths=1, steps_per_year=10, seed=3, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.0), cfg)
        hist = rs.terminal_wealth_histogram(bundle, np.linspace(0, 150, 31))
        assert hist.counts.sum() + hist.overflow == 1
        mean, err = rs.expected_utility_mc(bundle, 0.3)
        assert np.isnan(err)

    def test_bond_only_masses_single_bin(self, chain1):
        p = one_state_params()
        cfg = rs.SimConfig(n_paths=250, steps_per_year=10, seed=4, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.0), cfg)
        edges = np.linspace(0, 150, 31)
        hist = rs.terminal_wealth_histogram(bundle, edges)
        target_bin = int(np.searchsorted(edges, 10 * np.exp(0.15), side="right")) - 1
        assert hist.counts[target_bin] == 250
        assert hist.overflow == 0

    def test_risk_seeking_widens_the_tails(self, chain2, set1, set2):
        cfgs = rs.SimConfig(n_paths=20_000, steps_per_year=100, seed=5, v0=10.0, x0=0.02, state0=1)
        spread = {}
        for name, p in (("set1", set1), ("set2", set2)):
            bundle = rs.simulate_paths(p, chain2, rs.optimal_weight_fn(p), cfgs)
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
        bundle = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg)
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

    def test_default_checkpoints_are_six_even_grid_times(self, chain2):
        p = make_params(horizon=3.0)
        cfg = rs.SimConfig(n_paths=10, steps_per_year=20, seed=1, v0=10.0, x0=0.02, state0=1)
        rows = rs.martingale_diagnostic(p, chain2, cfg)
        times = [t for t, *_ in rows]
        np.testing.assert_allclose(times, np.linspace(0.0, 3.0, 6), rtol=0.0, atol=1e-12)
        assert times[0] == 0.0 and times[-1] == 3.0
        assert rows == rs.martingale_diagnostic(p, chain2, cfg, times)

    def test_requires_a_checkpoint(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=10, steps_per_year=10, seed=1, v0=1.0, x0=0.02, state0=1)
        with pytest.raises(rs.ConfigError, match="at least one checkpoint"):
            rs.martingale_diagnostic(set1, chain2, cfg, [])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_spread_raises_without_numpy_warnings(self, chain2, set2):
        # V^delta / delta is about -1e300 here: every Phi is finite, but their spread overflows
        cfg = rs.SimConfig(n_paths=300, steps_per_year=250, seed=1, v0=1e-300, x0=0.02, state0=1)
        with pytest.raises(FloatingPointError, match="wealth overflowed"):
            rs.martingale_diagnostic(set2, chain2, cfg, [0.0, 1.0])

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
        bundle = rs.simulate_paths(p, chain2, rs.constant_strategy(0.3), cfg, record=_every_step(p, 10), frozen_path=path)
        var = _variance(bundle, p)
        k = bundle.column(2.0)
        assert var[0, k] / var[0, k - 1] == pytest.approx(1.3**2, rel=1e-12)

    def test_long_run_mean_is_nu_squared_theta(self, chain1):
        p = one_state_params(nu=1.2, horizon=400.0)
        cfg = rs.SimConfig(n_paths=1, steps_per_year=250, seed=10, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.0), cfg, record=_every_step(p, 250))
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


@pytest.mark.parametrize(
    "start, states, message",
    [
        pytest.param(2.0, [2, 1], "from t = 0", id="late_start"),
        pytest.param(0.0, [2, 1], "start in state0 = 1, not in 2", id="other_state"),
        pytest.param(2.0, [1, 2], "from t = 0", id="late_start_same_state"),
    ],
)
def test_frozen_path_must_start_at_zero_in_state0(chain2, set1, start, states, message):
    # neither cfg.state0 nor the path's own start may be replaced silently
    cfg = rs.SimConfig(n_paths=2, steps_per_year=10, seed=1, v0=10.0, x0=0.02, state0=1)
    path = rs.RegimePath(start=start, horizon=set1.horizon, jump_times=np.array([3.0]), states=np.array(states))
    with pytest.raises(rs.ConfigError, match=message):
        rs.simulate_paths(set1, chain2, rs.constant_strategy(0.3), cfg, frozen_path=path)
