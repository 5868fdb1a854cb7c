"""Every parameter set that builds signs, verifies, has a wire and gives its public key's
LWE instance.

The strategy draws from the admissible space independently of ``validate_params``:
n a power of two from 8 to 1024, k from 1 to 3, q a prime (by trial division, not the
package's test) with 2n | q - 1 that meets both exactness bounds, eta 8, 16 or the
largest multiple of 8 with 2*eta < floor(q/4), and each redundancy whose payload
fits the 256-bit digest. Building the ``ParamSet`` is then the only check the
package makes. The eta between are left out because the noise streams, and so the
run time, grow with eta, and no wire depends on it.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlds import (
    COEFF, DEFAULT_PARAMS, HeaderError, ParamSet, RqArray, get_ring, keygen, measure_agreement,
    parse_pk, parse_sig, parse_sk, serialize_pk, serialize_sig, serialize_sk, sign, verify,
)
from mlds.codec import poly_bytes
from mlds.estimator import MIN_BLOCK, EstimatorError, LweInstance, primal_cost

from ring_oracle import mul, schoolbook_mul

def is_prime(x: int) -> bool:
    return x > 1 and all(x % d for d in range(2, int(x**0.5) + 1))


@lru_cache(maxsize=None)
def admitted_primes(n: int, k: int) -> tuple[int, ...]:
    """Primes q = 1 mod 2n with n(q-1)^3 < 2^53, k(q-1)^2 < 2^31 and room for eta = 8."""
    return tuple(q for q in range(2 * n + 1, 46342, 2 * n)
                 if q >= 68 and is_prime(q) and n * (q - 1) ** 3 < 2**53 and k * (q - 1) ** 2 < 2**31)


@st.composite
def admissible_sets(draw) -> ParamSet:
    n = draw(st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024]))
    k = draw(st.integers(1, 3))
    q = draw(st.sampled_from(admitted_primes(n, k)))
    max_eta = (q // 4 - 1) // 2 // 8 * 8
    eta = draw(st.sampled_from(sorted({8, min(16, max_eta), max_eta})))
    redundancy = draw(st.sampled_from([r for r in (1, 4) if n % (4 * r) == 0 and n // r <= 256]))
    return ParamSet(n=n, q=q, k=k, eta=eta, redundancy=redundancy)


def big_int_pack(rows: np.ndarray, b: int) -> bytes:
    """The oracle: each row as one little-endian integer of n fields of b bits."""
    n = rows.shape[-1]
    return b"".join(sum(int(c) << (b * i) for i, c in enumerate(row)).to_bytes(n * b // 8, "little")
                    for row in rows.reshape(-1, n))


def test_the_strategy_reaches_the_roadmap_primes():
    assert 7681 in admitted_primes(256, 2) and max(admitted_primes(256, 2)) == 32257
    assert admitted_primes(1024, 1) == (12289, 18433)


@settings(max_examples=20, deadline=None)
@given(params=admissible_sets())
def test_every_admissible_set_signs_verifies_and_round_trips(params):
    ring, b = get_ring(params), params.bits_per_coeff
    assert poly_bytes(params) == params.n * b // 8
    zetas = [bytes([t]) * 32 for t in range(3)]
    msgs, coins = [b"a", b"b", b"c"], [bytes([t + 7]) * 32 for t in range(3)]
    pks, sks = keygen(zetas, params)
    sigs = sign(sks, pks, msgs, coins, params)
    verdicts = verify(pks, msgs, sigs, params)
    for t in range(3):
        pk, sk = keygen(zetas[t], params)
        sig = sign(sk, pk, msgs[t], coins[t], params)
        assert np.array_equal(pks.p_vec.data[t], pk.p_vec.data) and np.array_equal(sks.s.data[t], sk.s.data)
        assert np.array_equal(sigs.z.data[t], sig.z.data) and sigs.h[t] == sig.h
        assert verdicts[t] == verify(pk, msgs[t], sig, params)
        assert verdicts[t].ok and verdicts[t].noise <= 2 * params.eta

        wires = serialize_pk(pk, ring), serialize_sk(sk, ring), serialize_sig(sig, ring)
        # the id byte is 0x01 for the shipped fields only, 0x00 for every other set
        shipped = (params.n, params.q, params.k, params.eta, params.redundancy) == (256, 12289, 2, 16, 1)
        assert [wire[5] for wire in wires] == [0x01 if shipped else 0x00] * 3
        assert wires[0][6:] == pk.rho + big_int_pack(pk.p_vec.data, b)
        assert wires[1][6:] == big_int_pack(sk.s.data, b)
        assert wires[2][6:] == big_int_pack(sig.z.data, b) + sig.h
        pk_back, sk_back, sig_back = (parse(wire, ring)
                                      for parse, wire in zip((parse_pk, parse_sk, parse_sig), wires))
        assert pk_back.rho == pk.rho and pk_back.p_vec == pk.p_vec and sk_back.s == sk.s
        assert sig_back.z == sig.z and sig_back.h == sig.h
        assert verify(pk_back, msgs[t], sig_back, params) == verdicts[t]
        if params != DEFAULT_PARAMS:
            for wire, parse in zip(wires, (parse_pk, parse_sk, parse_sig)):
                with pytest.raises(HeaderError):
                    parse(wire, get_ring(DEFAULT_PARAMS))

    if params.n <= 64:  # one row of the last key and signature
        a, c = RqArray(pk.p_vec.data[:1], COEFF), RqArray(sig.z.data[:1], COEFF)
        assert mul(ring, a, c) == schoolbook_mul(ring, a, c)

    report = measure_agreement(8, params, "z2", bytes(32))
    assert (report.mu_failures, report.h_failures) == (0, 0)
    assert report.max_noise <= 2 * params.eta


@settings(max_examples=100, deadline=None)
@given(params=admissible_sets())
def test_every_admissible_set_gives_the_public_key_instance(params):
    kn = params.k * params.n
    inst = LweInstance.from_params(params)
    assert inst.n_lwe == inst.max_samples == kn and inst.q == params.q
    assert inst.sigma == np.sqrt(params.eta / 2)
    if 2 * kn + 1 < MIN_BLOCK:  # the largest primal lattice, at m = max_samples
        with pytest.raises(EstimatorError, match=f"MIN_BLOCK = {MIN_BLOCK}"):
            primal_cost(inst)
        return
    try:
        est = primal_cost(inst)
    except EstimatorError as exc:  # only at the largest eta: k*n samples admit no embedding with b <= d
        assert params.eta > 16 and str(exc) == "no (m, b) satisfies the primal embedding condition in bounds"
    else:
        assert MIN_BLOCK <= est.b <= 2 * kn + 1 and 1 <= est.m <= kn
