import bisect
import math

import numpy as np
import pytest

import rsheston as rs
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
        assert bundle.min_v > 0.0
        assert bundle.min_x_effective >= 0.0
        assert bundle.X.min() >= 0.0
        assert bundle.V.min() > 0.0

    def test_determinism_is_block_size_free(self, chain2, set1):
        cfg = rs.SimConfig(n_paths=400, steps_per_year=30, seed=8, v0=10.0, x0=0.02, state0=1)
        a = rs.simulate_paths(set1, chain2, rs.optimal_weight_fn(set1), cfg, record="terminal")
        b = rs.simulate_paths(
            set1, chain2, rs.optimal_weight_fn(set1), cfg, record="terminal", block_size=7
        )
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


def _scalar_reference(p, chain, weight, cfg, frozen_path=None):
    """The module docstring's scheme, one path and one step at a time on Python floats.

    Redraws what ``simulate_paths`` draws from each stream block's stream,
    the chain of every path in the block first and then all of its normals
    in one call, and keeps its operation order; ``weight(t, state)`` is the
    strategy as a scalar function.  Returns (X, ln V, states) at every grid
    time plus the running minima of ln V and of the truncated factor.
    """
    horizon = p.horizon
    n_steps = max(1, int(round(horizon * cfg.steps_per_year)))
    dt = horizon / n_steps
    grid = (np.arange(n_steps + 1) * dt).tolist()
    grid[-1] = horizon
    refine = (cfg.driver_steps_per_year or cfg.steps_per_year) // cfg.steps_per_year
    sq_dtd = math.sqrt(dt / refine)
    rho, sq1mr = p.rho, math.sqrt(max(0.0, 1.0 - p.rho**2))
    r, lam, nu = p.r.tolist(), p.excess_slope.tolist(), p.nu.tolist()
    kappa, theta, chi = p.kappa.tolist(), p.theta.tolist(), p.chi.tolist()
    xs = np.empty((cfg.n_paths, n_steps + 1))
    lnvs = np.empty((cfg.n_paths, n_steps + 1))
    states = np.empty((cfg.n_paths, n_steps + 1), dtype=np.int64)
    min_lnv = min_xp = math.inf
    for j0 in range(0, cfg.n_paths, _STREAM_BLOCK):
        nb = min(_STREAM_BLOCK, cfg.n_paths - j0)
        rng = rs.path_stream(cfg.seed, j0 // _STREAM_BLOCK)
        if frozen_path is None:
            paths = scalar_block_chain(chain, horizon, cfg.state0, nb, rng)
        else:
            paths = [(frozen_path.jump_times.tolist(), frozen_path.states[1:].tolist())] * nb
        z = rng.standard_normal((n_steps * refine, 2, nb)).tolist()
        for c, (jumps, after) in enumerate(paths):
            i = j0 + c
            labels = [cfg.state0 if frozen_path is None else int(frozen_path.states[0]), *after]
            states[i] = [labels[bisect.bisect_right(jumps, t)] for t in grid]
            x, lnv = cfg.x0, math.log(cfg.v0)
            xs[i, 0], lnvs[i, 0] = max(x, 0.0), lnv
            for k in range(n_steps):
                zx = sum(row[0][c] for row in z[k * refine:(k + 1) * refine]) * sq_dtd
                zp = sum(row[1][c] for row in z[k * refine:(k + 1) * refine]) * sq_dtd
                dwx, dwp = zx, rho * zx + sq1mr * zp
                e = states[i, k] - 1
                pi = weight(grid[k], e + 1)
                xp = max(x, 0.0)
                sq = math.sqrt(xp)
                pn = pi * nu[e]
                lnv += (r[e] + pi * lam[e] * xp - 0.5 * (pn * pn) * xp) * dt + pn * sq * dwp
                x += kappa[e] * (theta[e] - xp) * dt
                x += chi[e] * sq * dwx
                min_xp, min_lnv = min(min_xp, xp), min(min_lnv, lnv)
                xs[i, k + 1], lnvs[i, k + 1] = max(x, 0.0), lnv
    return xs, lnvs, states, min_lnv, min_xp


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
    "three_states, frozen, driver_steps_per_year, block_size, n_paths",
    [
        pytest.param(False, False, None, None, 23, id="refine1"),
        pytest.param(False, False, 60, None, 23, id="refine3"),
        pytest.param(False, False, 60, 7, 23, id="refine3_block7"),
        pytest.param(False, True, None, 7, 23, id="frozen_block7"),
        pytest.param(True, False, 60, 7, 23, id="three_states"),
        pytest.param(False, False, None, 7, 2 * _STREAM_BLOCK + 23, id="partial_stream_block"),
    ],
)
def test_simulate_paths_matches_scalar_reference(
    three_states, frozen, driver_steps_per_year, block_size, n_paths, chain2, set1
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
    bundle = rs.simulate_paths(p, chain, strategy, cfg, record="all", frozen_path=path, block_size=block_size)
    xs, lnvs, states, min_lnv, min_xp = _scalar_reference(p, chain, weight, cfg, path)
    assert bundle.X.tobytes() == xs.tobytes()
    assert bundle.V.tobytes() == np.exp(lnvs).tobytes()
    np.testing.assert_array_equal(bundle.states, states)
    assert bundle.min_v == math.exp(min_lnv)
    assert bundle.min_x_effective == min_xp


@pytest.mark.parametrize(
    "frozen, driver_steps_per_year",
    [
        pytest.param(False, None, id="sampled"),
        pytest.param(True, None, id="frozen"),
        pytest.param(False, 60, id="refine3"),
    ],
)
def test_results_do_not_depend_on_block_size(frozen, driver_steps_per_year, chain2, set1):
    cfg = rs.SimConfig(
        n_paths=2 * _STREAM_BLOCK + 37, steps_per_year=20, seed=23, v0=10.0, x0=0.01, state0=1,
        driver_steps_per_year=driver_steps_per_year,
    )
    path = _frozen_path() if frozen else None
    runs = [
        rs.simulate_paths(
            set1, chain2, rs.optimal_weight_fn(set1), cfg, record=[1.0, 2.5], frozen_path=path, block_size=size
        )
        for size in (None, 7, _STREAM_BLOCK + 1)
    ]
    for other in runs[1:]:
        for field in ("X", "V", "states"):
            assert getattr(other, field).tobytes() == getattr(runs[0], field).tobytes()
        assert other.min_v == runs[0].min_v
        assert other.min_x_effective == runs[0].min_x_effective


def test_weight_table_matches_scalar_route(set1, set2):
    grid = np.arange(1251) * (5.0 / 1250)
    for p in (set1, set2):
        table = rs.optimal_weight_fn(p)(grid)
        scalar = [[rs.optimal_strategy(p, float(t), e).pi_total for e in (1, 2)] for t in grid]
        assert table.tobytes() == np.array(scalar).tobytes()


class TestHistogram:
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


class TestVarianceObservable:
    def test_single_state_has_no_jumps(self, chain1):
        p = one_state_params()
        cfg = rs.SimConfig(n_paths=3, steps_per_year=50, seed=8, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.5), cfg)
        times, var = rs.variance_observable(bundle, p)
        np.testing.assert_allclose(var, bundle.X)  # nu = 1

    def test_jump_ratio_is_squared_nu(self, chain2):
        # freeze the factor (chi = 0, equal theta) so only nu moves the series
        p = make_params(chi=0.0, theta=[0.02, 0.02])
        path = rs.RegimePath(
            start=0.0, horizon=5.0, jump_times=np.array([2.0]), states=np.array([1, 2])
        )
        cfg = rs.SimConfig(n_paths=2, steps_per_year=10, seed=9, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain2, rs.constant_strategy(0.3), cfg, frozen_path=path)
        _, var = rs.variance_observable(bundle, p)
        k = bundle.column(2.0)
        assert var[0, k] / var[0, k - 1] == pytest.approx(1.3**2, rel=1e-12)

    def test_long_run_mean_is_nu_squared_theta(self, chain1):
        p = one_state_params(nu=1.2, horizon=400.0)
        cfg = rs.SimConfig(n_paths=1, steps_per_year=250, seed=10, v0=10.0, x0=0.02, state0=1)
        bundle = rs.simulate_paths(p, chain1, rs.constant_strategy(0.0), cfg)
        _, var = rs.variance_observable(bundle, p)
        series = var[0]
        batches = series[1:].reshape(20, -1).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(len(batches))
        assert abs(series.mean() - 1.2**2 * 0.02) < 3 * se

