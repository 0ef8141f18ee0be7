import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import expm
from hypothesis import strategies as st

import rsheston as rs
from conftest import Q_TWO_STATE, scalar_block_chain
from oracles import path_segments
from rsheston.markov_chain import _STREAM_BLOCK, PathTable

Q12, Q21 = 1.0909, 3.4413


class TestValidateIntensity:
    def test_two_state_market_matrix_is_valid(self):
        spec = rs.validate_intensity(Q_TWO_STATE)
        assert spec.n_states == 2

    def test_absorbing_single_state(self):
        spec = rs.validate_intensity([[0.0]])
        assert spec.n_states == 1

    def test_row_sum_violation(self):
        with pytest.raises(rs.RowSumNonZero):
            rs.validate_intensity([[-1.0, 0.5], [1.0, -1.0]])

    def test_negative_off_diagonal(self):
        with pytest.raises(rs.NegativeRate):
            rs.validate_intensity([[0.5, -0.5], [0.5, -0.5]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            rs.validate_intensity([[0.0, 0.0]])

    @pytest.mark.parametrize(
        "matrix, entries",
        [
            pytest.param([[-1.0, 1.0], [math.nan, -1.0]], [(2, 1)], id="nan_off_diagonal"),
            pytest.param([[math.nan, 1.0], [1.0, -1.0]], [(1, 1)], id="nan_diagonal"),
            pytest.param([[-math.inf, math.inf], [1.0, -1.0]], [(1, 1), (1, 2)], id="inf_row"),
            pytest.param([[math.nan, math.nan], [1.0, -1.0]], [(1, 1), (1, 2)], id="nan_row"),
        ],
    )
    def test_non_finite_entries_are_named(self, matrix, entries):
        # nan < 0 and abs(nan) > tol are both false, so the sign and row-sum checks pass nan
        with pytest.raises(ValueError, match=re.escape(str(entries))):
            rs.validate_intensity(matrix)


class TestSamplePath:
    def test_absorbing_chain_never_jumps(self, chain1):
        for i in range(50):
            path = rs.sample_path(chain1, 0.0, 5.0, 1, rs.path_stream(3, i))
            assert path.n_jumps == 0
            assert path.state_at(2.5) == 1

    def test_mean_first_holding_calm_state(self, chain2):
        # horizon 8 leaves censoring probability e^{-8.7}, far below noise
        n = 100_000
        first = np.empty(n)
        for i in range(n):
            path = rs.sample_path(chain2, 0.0, 8.0, 1, rs.path_stream(11, i))
            first[i] = path.jump_times[0] if path.n_jumps else 8.0
        expected = 1.0 / Q12
        se = expected / np.sqrt(n)
        assert abs(first.mean() - expected) < 3 * se

    def test_mean_first_holding_turbulent_state(self, chain2):
        n = 50_000
        first = np.empty(n)
        for i in range(n):
            path = rs.sample_path(chain2, 0.0, 4.0, 2, rs.path_stream(12, i))
            first[i] = path.jump_times[0] if path.n_jumps else 4.0
        expected = 1.0 / Q21
        se = expected / np.sqrt(n)
        assert abs(first.mean() - expected) < 3 * se

    def test_reproducible_per_stream(self, chain2):
        a = rs.sample_path(chain2, 0.0, 5.0, 1, rs.path_stream(7, 123))
        b = rs.sample_path(chain2, 0.0, 5.0, 1, rs.path_stream(7, 123))
        np.testing.assert_array_equal(a.jump_times, b.jump_times)
        np.testing.assert_array_equal(a.states, b.states)

    def test_empirical_distribution_matches_transition_row(self, chain2):
        # generator semantics: state frequencies at t follow exp(Qt)
        n, t = 100_000, 1.0
        hits = 0
        for i in range(n):
            path = rs.sample_path(chain2, 0.0, t, 1, rs.path_stream(21, i))
            hits += path.state_at(t) == 1
        p11 = expm(chain2.intensity * t)[0, 0]
        se = np.sqrt(p11 * (1 - p11) / n)
        assert abs(hits / n - p11) < 3 * se


def _per_jump_sample_path(spec, t0, horizon, state0, rng):
    """Reference sampler that rebuilds the targets and cumulative probabilities at every jump."""
    q = spec.intensity
    jump_times, states = [], [state0]
    t, state = t0, state0
    while True:
        rate = -q[state - 1, state - 1]
        if rate <= 0.0:
            break
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        t = t - math.log1p(-u) / rate
        if t > horizon:
            break
        targets = np.flatnonzero(q[state - 1] > 0.0)
        cum = np.cumsum(q[state - 1, targets])
        cum /= cum[-1]
        state = int(targets[np.searchsorted(cum, rng.random(), side="right")]) + 1
        jump_times.append(t)
        states.append(state)
        if t == horizon:
            break
    return np.asarray(jump_times), np.asarray(states, dtype=np.int64)


SAMPLER_CHAINS = {
    "one_state": [[0.0]],
    "set1": Q_TWO_STATE,
    "uneven_with_zero_rate": [[-0.7, 0.0, 0.7], [2.5, -9.0, 6.5], [0.05, 1.2, -1.25]],
    "absorbing_state": [[-1.5, 1.0, 0.5], [0.0, 0.0, 0.0], [2.0, 1.0, -3.0]],
}


@pytest.mark.parametrize("name", SAMPLER_CHAINS)
def test_sample_path_matches_per_jump_reference(name):
    # bitwise: same jumps, same states, and the stream left at the same position
    spec = rs.validate_intensity(SAMPLER_CHAINS[name])
    for i in range(2000):
        state0 = 1 + i % spec.n_states
        t0 = 0.37 * (i // spec.n_states % 2)
        rng_a, rng_b = rs.path_stream(41, i), rs.path_stream(41, i)
        path = rs.sample_path(spec, t0, 5.0, state0, rng_a)
        jump_times, states = _per_jump_sample_path(spec, t0, 5.0, state0, rng_b)
        assert path.jump_times.tobytes() == jump_times.tobytes(), i
        assert path.states.tobytes() == states.tobytes(), i
        assert rng_a.random() == rng_b.random(), i


@pytest.mark.parametrize("name", SAMPLER_CHAINS)
def test_jump_arrays_match_the_intensity(name):
    # bitwise, per state: the outflow rate, the 0-based targets of the positive
    # rates and their cumulative probabilities, padded with inf to the row width
    q = np.array(SAMPLER_CHAINS[name], dtype=float)
    rate, targets, cum = rs.validate_intensity(q)._jump_arrays
    assert rate.shape == (len(q),) and targets.shape == cum.shape == q.shape
    for i, row in enumerate(q):
        tg = np.flatnonzero(row > 0.0)
        assert rate[i] == -row[i]
        assert targets[i, : len(tg)].tolist() == tg.tolist()
        assert cum[i, : len(tg)].tobytes() == (np.cumsum(row[tg]) / row[tg].sum()).tobytes()
        assert np.isposinf(cum[i, len(tg) :]).all()
    if name == "uneven_with_zero_rate":  # the zero rate 1 -> 2 is no target
        assert targets[0, 0] == 2 and cum[0].tolist() == [1.0, math.inf, math.inf]
    if name == "absorbing_state":
        assert rate[1] == 0.0 and np.isposinf(cum[1]).all()


class TestSampleBlock:
    Q = SAMPLER_CHAINS["absorbing_state"]

    @pytest.mark.parametrize("state0", [1, 2, 3])
    def test_state_law_matches_expm(self, state0):
        # the state at s follows row state0 of exp(Q s), at every s up to the horizon
        spec = rs.validate_intensity(self.Q)
        n, horizon = 20_000, 1.2
        table = rs.sample_block(spec, horizon, state0, n, rs.path_stream(51, state0))
        starts = table.first[:-1]
        for s in (0.3, 0.7, horizon):
            labels = table.states[starts + np.add.reduceat(table.lo <= s, starts) - 1]
            row = expm(np.array(self.Q) * s)[state0 - 1]
            for e in range(3):
                freq, prob = np.mean(labels == e + 1), row[e]
                # a certain or impossible state must be hit exactly
                assert abs(freq - prob) <= 4 * math.sqrt(prob * (1 - prob) / n) + 1e-12, (s, e)

    @pytest.mark.parametrize("state0", [1, 2, 3])
    def test_every_path_is_a_valid_regime_path(self, state0):
        spec = rs.validate_intensity(self.Q)
        table = rs.sample_block(spec, 5.0, state0, 3000, rs.path_stream(52, state0))
        assert table.first[0] == 0 and len(table.first) == 3001
        for a, b in zip(table.first[:-1], table.first[1:]):
            assert table.lo[a] == 0.0 and table.states[a] == state0
            rs.RegimePath(start=0.0, horizon=5.0, jump_times=table.lo[a + 1:b], states=table.states[a:b])
        if state0 == 2:  # absorbing
            assert len(table.lo) == 3000

    def test_matches_scalar_rounds_and_is_reproducible(self):
        spec = rs.validate_intensity(SAMPLER_CHAINS["uneven_with_zero_rate"])
        rng_a, rng_b = rs.path_stream(53, 0), rs.path_stream(53, 0)
        table = rs.sample_block(spec, 5.0, 3, 500, rng_a)
        for p, (jumps, labels) in enumerate(scalar_block_chain(spec, 5.0, 3, 500, rng_b)):
            a, b = table.first[p], table.first[p + 1]
            np.testing.assert_allclose(table.lo[a + 1:b], jumps, rtol=1e-14)
            assert table.states[a + 1:b].tolist() == labels
        assert rng_a.random() == rng_b.random()


def test_path_table_layout_is_stream_blocks_per_start_state():
    # path k * n + i is path i % 256 of start state k's block i // 256, on stream (seed, i // 256)
    spec = rs.validate_intensity(SAMPLER_CHAINS["absorbing_state"])
    sb = _STREAM_BLOCK
    n, horizon, starts, seed = 2 * sb + 5, 5.0, [3, 1, 2], 61
    table = PathTable.sample(spec, horizon, starts, n, seed)
    assert len(table.first) == len(starts) * n + 1 and table.length == horizon
    for k, e in enumerate(starts):
        for j0 in range(0, n, sb):
            block = rs.sample_block(spec, horizon, e, min(sb, n - j0), rs.path_stream(seed, j0 // sb))
            for i in range(j0, min(n, j0 + sb)):
                a, b = table.first[k * n + i], table.first[k * n + i + 1]
                c, d = block.first[i - j0], block.first[i - j0 + 1]
                assert table.lo[a:b].tobytes() == block.lo[c:d].tobytes(), (e, i)
                assert table.states[a:b].tolist() == block.states[c:d].tolist(), (e, i)


class TestOccupationIntegral:
    def test_constant_integrand(self, chain2):
        path = rs.sample_path(chain2, 0.0, 5.0, 1, rs.path_stream(1, 0))
        val = rs.occupation_integral(path, lambda s, e: 0.7, 1.0, 4.0)
        assert val == pytest.approx(0.7 * 3.0, abs=1e-12)

    def test_single_state_rate_times_delta(self, chain1):
        path = rs.sample_path(chain1, 0.0, 5.0, 1, rs.path_stream(1, 1))
        val = rs.occupation_integral(path, lambda s, e: 0.03 * 0.3, 0.0, 5.0)
        assert val == pytest.approx(0.045, abs=1e-14)

    def test_piecewise_linear_vs_riemann_sum(self):
        path = rs.RegimePath(
            start=0.0, horizon=2.0, jump_times=np.array([0.6, 1.3]), states=np.array([1, 2, 1])
        )

        def g(s, e):
            return (1.5 if e == 1 else -0.5) * s + 0.25 * e

        val = rs.occupation_integral(path, g, 0.0, 2.0)
        grid = (np.arange(1_000_000) + 0.5) * (2.0 / 1_000_000)
        states = path.state_at(grid)
        riemann = np.sum([g(s, e) for s, e in zip(grid, states)]) * (2.0 / 1_000_000)
        assert val == pytest.approx(riemann, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(split=st.floats(0.2, 4.8))
    def test_additive_over_subintervals(self, split):
        chain = rs.validate_intensity(Q_TWO_STATE)
        path = rs.sample_path(chain, 0.0, 5.0, 1, rs.path_stream(9, 4))

        def g(s, e):
            return np.sin(s) + e

        whole = rs.occupation_integral(path, g, 0.0, 5.0)
        parts = rs.occupation_integral(path, g, 0.0, split) + rs.occupation_integral(
            path, g, split, 5.0
        )
        assert whole == pytest.approx(parts, abs=1e-10)


class TestSegments:
    PATH = rs.RegimePath(start=0.5, horizon=2.0, jump_times=np.array([0.6, 1.3, 2.0]), states=np.array([1, 2, 3, 1]))

    def test_clips_to_query_time_and_drops_empty_segments(self):
        # t off a jump time, and the zero-length segment after the jump at the horizon
        lo, hi, state = path_segments(self.PATH, 0.9)
        np.testing.assert_array_equal(lo, [0.9, 1.3])
        np.testing.assert_array_equal(hi, [1.3, 2.0])
        np.testing.assert_array_equal(state, [2, 3])

    def test_query_on_a_jump_time_starts_in_the_new_state(self):
        lo, hi, state = path_segments(self.PATH, 1.3)
        np.testing.assert_array_equal(np.c_[lo, hi, state], [[1.3, 2.0, 3]])
        assert all(len(a) == 0 for a in path_segments(self.PATH, 2.0))

    def test_lengths_sum_to_the_remaining_time(self):
        lo, hi, _ = path_segments(self.PATH, 0.5)
        assert (hi - lo).sum() == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("t", [0.4, 2.1])
    def test_rejects_time_outside_the_path(self, t):
        with pytest.raises(ValueError):
            path_segments(self.PATH, t)


class TestRegimePathInvariants:
    def test_rejects_equal_consecutive_states(self):
        with pytest.raises(ValueError):
            rs.RegimePath(start=0.0, horizon=1.0, jump_times=np.array([0.5]), states=np.array([1, 1]))

    def test_rejects_nonincreasing_jumps(self):
        with pytest.raises(ValueError):
            rs.RegimePath(
                start=0.0, horizon=1.0, jump_times=np.array([0.5, 0.4]), states=np.array([1, 2, 1])
            )

    @pytest.mark.parametrize("states", [[0], [1, 0], [-1, 2]])
    def test_rejects_labels_below_one(self, states):
        jump_times = np.array([0.5] * (len(states) - 1))
        with pytest.raises(ValueError, match="1-based"):
            rs.RegimePath(start=0.0, horizon=1.0, jump_times=jump_times, states=np.array(states))

    def test_jump_at_horizon_is_kept(self):
        path = rs.RegimePath(
            start=0.0, horizon=1.0, jump_times=np.array([1.0]), states=np.array([1, 2])
        )
        assert path.state_at(1.0) == 2


class TestPathStream:
    @pytest.mark.parametrize("seed", [2.5, np.float64(2.0), -1, np.int64(-3), "7", None])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            rs.path_stream(seed, 0)

    def test_numpy_and_python_integer_seeds_give_one_stream(self):
        assert rs.path_stream(np.int64(7), 3).random() == rs.path_stream(7, 3).random()
