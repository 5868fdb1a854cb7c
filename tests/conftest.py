import numpy as np
import pytest

from mlds import DEFAULT_PARAMS, ParamSet, get_ring

from ring_oracle import poly


@pytest.fixture(scope="session")
def params() -> ParamSet:
    return DEFAULT_PARAMS


@pytest.fixture(scope="session")
def ring(params):
    return get_ring(params)


@pytest.fixture(scope="session")
def ring_r4():
    return get_ring(ParamSet(redundancy=4))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250808)


def random_poly(ring, rng):
    return poly(ring, rng.integers(0, ring.q, ring.n, dtype=np.int64))
