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


def test_derivation_rejects_bad_modulus():
    with pytest.raises(ParamError):
        derive_ntt_constants(ParamSet(q=12))  # not prime
    with pytest.raises(ParamError):
        derive_ntt_constants(ParamSet(q=3329))  # prime but 512 does not divide 3328


def test_derivation_raises_every_validation_error():
    # a modulus the NTT could use, but eta breaks the sampler's invariant
    with pytest.raises(ParamError, match="multiple of 8"):
        derive_ntt_constants(ParamSet(eta=3))
    bad = ParamSet(n=100, eta=3)
    with pytest.raises(ParamError) as exc:
        derive_ntt_constants(bad)
    assert str(exc.value) == "; ".join(validate_params(bad))


def test_name_follows_n_and_k():
    assert ParamSet().name == "ML-SD-256x2"
    assert ParamSet(k=1, param_id=2).name == "ML-SD-256x1"
    assert ParamSet(n=512, k=3).name == "ML-SD-512x3"


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
    # psi_eta samples lie in [-eta, eta], which is small mod q only when eta < q
    assert validate_params(ParamSet(n=128, q=257, eta=264)) == [
        "eta=264 is not below q=257, so psi_eta noise would not be small mod q"
    ]
    assert validate_params(ParamSet(n=128, q=257, eta=256)) == []
    # prime and 2n | q-1, but 256 * 8380416^3 > 2^53 would round the float64 NTT
    assert any("2^53" in e for e in validate_params(ParamSet(q=8380417)))
    # prime and 512 | 40960, but 256 * 40960^3 ~ 1.8e16 > 2^53 would round the
    # two-stage NTT (its one-stage bound, 256 * 40960^2 ~ 4.3e11, would pass),
    # and 2 * 40960^2 ~ 3.4e9 > 2^31 would overflow an int32 module product
    assert validate_params(ParamSet(q=40961)) == [
        f"n*(q-1)^3 = {256 * 40960**3} is not below 2^53: "
        "the two-stage float64 NTT would round its partial sums",
        f"k*(q-1)^2 = {2 * 40960**2} is not below 2^31: "
        "a module product's sum of k products would overflow int32",
    ]
    # the int32 bound alone: 14 * 12288^2 ~ 2.11e9 < 2^31 <= 15 * 12288^2 ~ 2.26e9
    assert validate_params(ParamSet(k=14)) == []
    assert validate_params(ParamSet(k=15)) == [
        f"k*(q-1)^2 = {15 * 12288**2} is not below 2^31: "
        "a module product's sum of k products would overflow int32"
    ]


def test_ntt_congruence_holds_for_n_512():
    # 12288 = 12 * 1024, so the stricter 2n | q-1 condition still holds at n=512;
    # redundancy 4 keeps its n/4 = 128 payload bits within the 256-bit digest
    assert validate_params(ParamSet(n=512, redundancy=4)) == []


def test_payload_must_fit_the_message_digest():
    # one payload bit per coefficient at n = 512 asks for 512 bits of a 256-bit mu
    assert validate_params(ParamSet(n=512, k=1)) == [
        "mu_bits = n/redundancy = 512 is more than the 256 bits of the message digest"
    ]
    assert validate_params(ParamSet(n=1024, redundancy=4)) == []
    with pytest.raises(ParamError, match="message digest"):
        derive_ntt_constants(ParamSet(n=512))


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
