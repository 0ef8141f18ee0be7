import bisect
import itertools
import math

import numpy as np
import pytest

import rsheston as rs

Q_TWO_STATE = [[-1.0909, 1.0909], [3.4413, -3.4413]]

SET1 = dict(
    variant="smmh_rho",
    horizon=5.0,
    delta=0.3,
    rho=-0.8,
    r=[0.03, 0.01],
    nu=[1.0, 1.3],
    kappa=4.0,
    theta=[0.02, 0.04],
    chi=0.35,
    d=1.7,
)


def make_params(**overrides) -> rs.HestonRegimeParams:
    kwargs = dict(SET1)
    kwargs.update(overrides)
    return rs.HestonRegimeParams(**kwargs)


@pytest.fixture(scope="session")
def chain2() -> rs.MarkovChainSpec:
    return rs.validate_intensity(Q_TWO_STATE)


@pytest.fixture(scope="session")
def chain1() -> rs.MarkovChainSpec:
    return rs.validate_intensity([[0.0]])


@pytest.fixture(scope="session")
def set1() -> rs.HestonRegimeParams:
    return make_params()


@pytest.fixture(scope="session")
def set2() -> rs.HestonRegimeParams:
    return make_params(delta=-1.0)


def random_intensity(rng: np.random.Generator, l: int, max_rate: float = 2.0) -> np.ndarray:
    q = rng.uniform(0.0, max_rate, size=(l, l))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def scalar_block_chain(chain, horizon, state0, n, rng):
    """``sample_block``'s rounds, one draw at a time on Python floats.

    Returns each path's jumps as (jump times, labels after each jump).
    Its jump table is built here from the intensity, so the reference
    shares no table code with the library.
    """
    table = []
    for i, row in enumerate(chain.intensity.tolist()):
        targets = [j + 1 for j, q in enumerate(row) if q > 0.0]
        cum = list(itertools.accumulate(row[j - 1] for j in targets))
        table.append((-row[i], targets, [c / cum[-1] for c in cum]))
    t, state = [0.0] * n, [state0] * n
    jumps = [([], []) for _ in range(n)]
    running = [i for i in range(n) if table[state0 - 1][0] > 0.0]
    while running:
        u = [rng.random() for _ in running]
        zero = [j for j, x in enumerate(u) if x == 0.0]
        while zero:
            for j in zero:
                u[j] = rng.random()
            zero = [j for j in zero if u[j] == 0.0]
        landed = []
        for j, i in enumerate(running):
            t[i] = t[i] - math.log1p(-u[j]) / table[state[i] - 1][0]
            if t[i] <= horizon:
                landed.append(i)
        for i in landed:
            _, targets, cum = table[state[i] - 1]
            state[i] = targets[bisect.bisect_right(cum, rng.random())]
            jumps[i][0].append(t[i])
            jumps[i][1].append(state[i])
        running = [i for i in landed if t[i] < horizon and table[state[i] - 1][0] > 0.0]
    return jumps
