import os
from pathlib import Path

import numpy as np
import pytest

import mlds
from mlds import COEFF, DEFAULT_PARAMS, ParamSet, RqArray, Signature, crh, get_ring
from mlds.codec import decode_payload, encode_bits
from mlds.scheme import mu_payload_bits

from ring_oracle import poly


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """The CLI tests run ``python -m mlds.cli`` in a child process: point it at the
    package this session imports, the one an explicit ``PYTHONPATH`` (``src`` in the
    test command) or an installed ``mlds`` provides."""
    src = str(Path(mlds.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        yield


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


def forge_key_only(pk, message: bytes, ring, rng) -> Signature:
    """A signature on ``message`` made from the public key alone.

    Verification checks (1) decode(z2 + z3 - <P, z1>) = mu payload and (2)
    h = crh(mu || crh(decode(z2))). Both are public and linear in (z1, z2, z3):
    for any in-range z1 and z2, z3 = encode(mu) + intt(<P_hat, ntt(z1)>) - z2
    makes w = encode(mu) exactly, and h is computed from z2 as the verifier does.
    """
    mu = crh(message)
    z1 = RqArray(rng.integers(0, ring.q, (ring.k, ring.n)).astype(np.int32), COEFF)
    z2 = RqArray(rng.integers(0, ring.q, (1, ring.n)).astype(np.int32), COEFF)
    p_z1 = ring.intt(ring.inner_product(ring.vec_ntt(pk.p_vec), ring.vec_ntt(z1)))
    z3 = ring.sub(ring.add(encode_bits(mu_payload_bits(mu, ring.params), ring), p_z1), z2)
    h = crh(mu + crh(decode_payload(z2, ring).tobytes()))
    z = RqArray(np.concatenate((z1.data, z2.data, z3.data)), COEFF)
    return Signature(z=z, h=h, params=ring.params)
