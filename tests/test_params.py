import numpy as np
import pytest

from mlds import ParamSet, ParamError, derive_ntt_constants, validate_params
from mlds.params import _smallest_generator


def brute_force_order(x: int, q: int) -> int:
    order, y = 1, x
    while y != 1:
        y = y * x % q
        order += 1
    return order


def egcd_inverse(a: int, m: int) -> int:
    # extended Euclid, independent of pow(a, -1, m)
    old_r, r = a, m
    old_s, s = 1, 0
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
    assert old_r == 1
    return old_s % m


def test_default_constants(params):
    c = derive_ntt_constants(params)
    assert c.gamma == pow(_smallest_generator(params.q), (params.q - 1) // 512, params.q)
    assert pow(c.gamma, 512, params.q) == 1
    assert pow(c.gamma, 256, params.q) == params.q - 1
    assert brute_force_order(c.gamma, params.q) == 512
    assert brute_force_order(c.omega, params.q) == 256
    assert c.omega == c.gamma * c.gamma % params.q


def test_n_inv_matches_extended_euclid(params):
    c = derive_ntt_constants(params)
    assert c.n_inv == 12241
    assert c.n_inv == egcd_inverse(params.n, params.q)
    assert params.n * c.n_inv % params.q == 1
    assert c.gamma * c.gamma_inv % params.q == 1
    assert c.omega * c.omega_inv % params.q == 1


def test_derivation_rejects_bad_modulus():
    with pytest.raises(ParamError):
        derive_ntt_constants(ParamSet(q=12))  # not prime
    with pytest.raises(ParamError):
        derive_ntt_constants(ParamSet(q=3329))  # prime but 512 does not divide 3328


def test_derivation_deterministic_and_idempotent(params):
    a = derive_ntt_constants(params)
    b = derive_ntt_constants(params)
    assert a.gamma == b.gamma and a.omega == b.omega
    assert a.split == b.split == (16, 16)
    assert np.array_equal(a.forward, b.forward)
    assert np.array_equal(a.inverse, b.inverse)
    for table in (a.forward, a.inverse):
        first, second = a.stages(table)
        assert first.shape == (16, 16) and second.shape == (16, 16, 16)
        assert table.size == 16 * 16 + 16**3 and not table.flags.writeable


def test_validate_default_is_clean(params):
    assert validate_params(params) == []


def test_validate_reports_each_violation():
    assert any("power of two" in e for e in validate_params(ParamSet(n=100)))
    assert any("not prime" in e for e in validate_params(ParamSet(q=12)))
    assert any("mod 2n" in e for e in validate_params(ParamSet(n=4096)))  # 8192 does not divide 12288
    assert any("redundancy" in e for e in validate_params(ParamSet(redundancy=3)))
    assert any("k=" in e for e in validate_params(ParamSet(k=0)))
    assert any("eta" in e for e in validate_params(ParamSet(eta=0)))
    assert any("multiple of 8" in e for e in validate_params(ParamSet(eta=3)))
    # prime and 2n | q-1, but 256 * 8380416^3 > 2^53 would round the float64 NTT
    assert any("2^53" in e for e in validate_params(ParamSet(q=8380417)))
    # prime and 512 | 40960, but 256 * 40960^3 ~ 1.8e16 > 2^53 would round the
    # two-stage NTT (its one-stage bound, 256 * 40960^2 ~ 4.3e11, would pass)
    assert validate_params(ParamSet(q=40961)) == [
        f"n*(q-1)^3 = {256 * 40960**3} is not below 2^53: "
        "the two-stage float64 NTT would round its partial sums"
    ]


def test_ntt_congruence_holds_for_n_512():
    # 12288 = 12 * 1024, so the stricter 2n | q-1 condition still holds at n=512
    assert validate_params(ParamSet(n=512)) == []


def test_codec_thresholds_exact(params):
    assert params.half_q == 6144
    assert params.quarter_q == 3072
    assert params.bits_per_coeff == 14
    assert params.mu_bits == 256


def test_redundancy_four_payload():
    p = ParamSet(redundancy=4)
    assert p.mu_bits == 64
    assert p.mu_bits * p.redundancy == p.n
    assert validate_params(p) == []
