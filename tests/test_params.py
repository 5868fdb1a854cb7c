import dataclasses

import numpy as np
import pytest

from mlds import (DEFAULT_PARAMS, ParamSet, ParamError, derive_ntt_constants, get_ring, keygen,
                  measure_agreement, parse_pk, parse_sig, parse_sk, serialize_pk, serialize_sig,
                  serialize_sk, sign, verify)
from mlds.codec import poly_bytes
from mlds.ring import _smallest_generator


def violations(**fields) -> list[str]:
    """The invariants ParamSet(**fields) violates, from the ParamError it raises; [] if it builds."""
    try:
        ParamSet(**fields)
    except ParamError as exc:
        return str(exc).split("; ")
    return []


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
    # no set exists that the derivation could not serve: building it raises
    with pytest.raises(ParamError, match="not prime"):
        ParamSet(q=12)
    with pytest.raises(ParamError, match="not congruent to 1 mod 2n=512"):
        ParamSet(q=3329)  # prime but 512 does not divide 3328


def test_building_raises_every_validation_error():
    # a modulus the NTT could use, but eta breaks the sampler's invariant
    with pytest.raises(ParamError, match="multiple of 8"):
        ParamSet(eta=3)
    with pytest.raises(ParamError) as exc:
        ParamSet(n=100, eta=3)
    assert str(exc.value) == ("n=100 is not a power of two >= 2; q=12289 is not congruent to 1 "
                              "mod 2n=200; eta=3 is not a multiple of 8, as the byte-aligned "
                              "binomial sampler needs")
    # dataclasses.replace builds through the same check
    with pytest.raises(ParamError, match="k=0 must be >= 1"):
        dataclasses.replace(ParamSet(), k=0)


def test_name_follows_n_and_k():
    assert ParamSet().name == "ML-SD-256x2"
    assert ParamSet(k=1).name == "ML-SD-256x1"
    assert ParamSet(n=512, k=3, redundancy=4).name == "ML-SD-512x3"


def test_only_the_shipped_fields_default_to_id_1():
    # the id follows from the five fields: every other set is "unregistered", 0x00, and
    # all such sets share it
    assert ParamSet().param_id == ParamSet(n=256, q=12289, k=2, eta=16, redundancy=1).param_id == 0x01
    assert ParamSet(eta=8).param_id == ParamSet(k=1).param_id == ParamSet(redundancy=4).param_id == 0x00
    assert dataclasses.replace(ParamSet(), eta=8).param_id == 0x00
    assert dataclasses.replace(ParamSet(eta=8), eta=16).param_id == 0x01


def test_a_set_is_its_five_fields():
    assert [f.name for f in dataclasses.fields(ParamSet)] == ["n", "q", "k", "eta", "redundancy"]
    with pytest.raises(TypeError):
        ParamSet(k=1, param_id=2)
    with pytest.raises(AttributeError):
        DEFAULT_PARAMS.param_id = 2
    # built or replaced, equal fields are one equal set with one cached Ring
    replaced = dataclasses.replace(DEFAULT_PARAMS, eta=8)
    assert replaced == ParamSet(eta=8) and hash(replaced) == hash(ParamSet(eta=8))
    assert get_ring(replaced) is get_ring(ParamSet(eta=8))
    assert dataclasses.replace(ParamSet(eta=8), eta=16) == DEFAULT_PARAMS


def test_a_replaced_set_signs_under_its_equal_built_set():
    replaced, built = dataclasses.replace(DEFAULT_PARAMS, eta=8), ParamSet(eta=8)
    for made, used in ((replaced, built), (built, replaced)):
        pk, sk = keygen(bytes(32), made)
        sig = sign(sk, pk, b"equal sets", bytes(32), used)
        assert sig.params == used and verify(pk, b"equal sets", sig, used).ok


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


def test_validate_reports_each_violation():
    assert any("power of two" in e for e in violations(n=100))
    assert any("not prime" in e for e in violations(q=12))
    assert any("mod 2n" in e for e in violations(n=4096))  # 8192 does not divide 12288
    assert any("redundancy" in e for e in violations(redundancy=3))
    # redundancy r spreads a bit over coefficients i + c*n/4, so n must be a multiple of 4r
    assert violations(n=2, q=137, k=1, eta=8) == ["n=2 is not a multiple of 4*redundancy = 4"]
    assert violations(n=8, q=97, k=1, eta=8, redundancy=4) == [
        "n=8 is not a multiple of 4*redundancy = 16"
    ]
    assert any("k=" in e for e in violations(k=0))
    assert any("eta" in e for e in violations(eta=0))
    assert any("multiple of 8" in e for e in violations(eta=3))
    # the decode noise ||e3 + e4||_inf <= 2*eta must stay below floor(q/4) = 64 at q = 257
    assert violations(n=128, q=257, eta=256) == [
        "2*eta = 512 is not below floor(q/4) = 64, so the decode "
        "noise ||e3 + e4||_inf <= 2*eta of an honest signature could flip a bit"
    ]
    assert violations(n=128, q=257, eta=32) == [
        "2*eta = 64 is not below floor(q/4) = 64, so the decode "
        "noise ||e3 + e4||_inf <= 2*eta of an honest signature could flip a bit"
    ]
    assert violations(n=128, q=257, eta=24) == []
    # prime and 2n | q-1, but 256 * 8380416^3 > 2^53 would round the float64 NTT
    assert any("2^53" in e for e in violations(q=8380417))
    # prime and 512 | 40960, but 256 * 40960^3 ~ 1.8e16 > 2^53 would round the
    # two-stage NTT (its one-stage bound, 256 * 40960^2 ~ 4.3e11, would pass),
    # and 2 * 40960^2 ~ 3.4e9 > 2^31 would overflow an int32 module product
    assert violations(q=40961) == [
        f"n*(q-1)^3 = {256 * 40960**3} is not below 2^53: "
        "the two-stage float64 NTT would round its partial sums",
        f"k*(q-1)^2 = {2 * 40960**2} is not below 2^31: "
        "a module product's sum of k products would overflow int32",
    ]
    # the int32 bound alone: 14 * 12288^2 ~ 2.11e9 < 2^31 <= 15 * 12288^2 ~ 2.26e9
    assert violations(k=14) == []
    assert violations(k=15) == [
        f"k*(q-1)^2 = {15 * 12288**2} is not below 2^31: "
        "a module product's sum of k products would overflow int32"
    ]


def test_q_is_prime_exactly_when_trial_division_says_so():
    # ParamSet decides primality by the NTT's own factoriser, _prime_factors(q) == [q];
    # an independent oracle agrees on every q up to the largest the int32 bound lets through
    def oracle(x):
        return x > 1 and all(x % d for d in range(2, int(x**0.5) + 1))
    reported = {q for q in range(-2, 46342) if any("not prime" in e for e in violations(q=q))}
    assert reported == {q for q in range(-2, 46342) if not oracle(q)}


@pytest.mark.parametrize("q", [2**31 - 1, 2**61 - 1, 2**127 - 1, 10**40])
def test_a_q_past_int32_is_refused_without_a_prime_test(q):
    # int32 ring values cannot hold [0, q) for q > 2^31, so the O(sqrt(q)) trial division
    # runs only below 2^31 (2^31 - 1 is a Mersenne prime, the last q it divides); the
    # congruence and the exactness and int32 bounds refuse every larger q on their own
    errors = violations(q=q)
    assert errors and not any("not prime" in e for e in errors)
    assert any("2^31" in e for e in errors)


@pytest.mark.parametrize("fields, errors", [
    ({"k": True}, ["k=True is not an int"]),  # would equal ParamSet(k=1), named ML-SD-256xTrue
    ({"redundancy": 4.0}, ["redundancy=4.0 is not an int"]),
    ({"eta": 16.0}, ["eta=16.0 is not an int"]),
    ({"n": 256.0, "q": "12289"}, ["n=256.0 is not an int", "q='12289' is not an int"]),
    ({"eta": np.array([16, 16])}, ["eta=array([16, 16]) is not an int"]),  # no truth value
])
def test_every_field_is_an_int_and_param_id_one_byte(fields, errors):
    assert violations(**fields) == errors


@pytest.mark.parametrize("redundancy", [1, 4])
def test_largest_admitted_eta_decodes_every_honest_signature(redundancy):
    # eta = 24 is the largest multiple of 8 with 2*eta < floor(257/4) = 64
    params = ParamSet(n=128, q=257, eta=24, redundancy=redundancy)
    report = measure_agreement(256, params, "z2", bytes(32))
    assert report.mu_failures == 0 and report.h_failures == 0
    assert report.max_noise <= 2 * params.eta < params.quarter_q


def test_a_q_above_2_to_the_14_is_admitted_and_signs():
    # 18433 = 36 * 512 + 1 is prime and meets both exactness bounds at n = 256, k = 2,
    # whose largest admitted q is below 2^15; keygen, sign and verify take it, and its
    # wires pack 15 bits per coefficient, 480 bytes per polynomial
    params = ParamSet(q=18433)
    assert params.bits_per_coeff == 15
    assert poly_bytes(params) == 480
    report = measure_agreement(8, params, "z2", bytes(32))
    assert (report.mu_failures, report.h_failures) == (0, 0)
    assert report.max_noise <= 2 * params.eta
    ring = get_ring(params)
    pk, sk = keygen(bytes(32), params)
    sig = sign(sk, pk, b"15 bits", bytes(32), params)
    wires = serialize_pk(pk, ring), serialize_sk(sk, ring), serialize_sig(sig, ring)
    assert [len(w) for w in wires] == [6 + 32 + 2 * 480, 6 + 2 * 480, 6 + 4 * 480 + 32]
    assert parse_pk(wires[0], ring).p_vec == pk.p_vec and parse_sk(wires[1], ring).s == sk.s
    back = parse_sig(wires[2], ring)
    assert back.z == sig.z and back.h == sig.h and verify(pk, b"15 bits", back, params).ok


def test_every_admitted_q_fits_16_bits():
    # k(q-1)^2 < 2^31 caps q at 46341; 46337 = 5792 * 8 + 1 is the largest prime below it
    # that a ring (n >= 4, 2n | q - 1) admits, and it needs all 16 bits
    params = ParamSet(n=4, q=46337, k=1, eta=8)
    assert params.bits_per_coeff == 16 and poly_bytes(params) == 8
    # 46441 is prime and 1 mod 8, and only the int32 bound refuses it
    assert violations(n=4, q=46441, k=1, eta=8) == [
        f"k*(q-1)^2 = {46440**2} is not below 2^31: "
        "a module product's sum of k products would overflow int32"
    ]


def test_a_polynomial_must_pack_into_whole_bytes():
    # q = 73 is prime, 1 mod 8 and 7 bits wide: 4 coefficients would take 28 bits
    assert violations(n=4, q=73, k=1, eta=8) == [
        "n*bits_per_coeff = 28 bits is not a whole number of bytes"
    ]
    with pytest.raises(ParamError, match="whole number of bytes"):
        ParamSet(n=4, q=73, k=1, eta=8)
    # the same width at n = 8 packs into 7 bytes
    assert poly_bytes(ParamSet(n=8, q=97, k=1, eta=8)) == 7


def test_ntt_congruence_holds_for_n_512():
    # 12288 = 12 * 1024, so the stricter 2n | q-1 condition still holds at n=512;
    # redundancy 4 keeps its n/4 = 128 payload bits within the 256-bit digest
    assert violations(n=512, redundancy=4) == []


def test_payload_must_fit_the_message_digest():
    # one payload bit per coefficient at n = 512 asks for 512 bits of a 256-bit mu
    assert violations(n=512, k=1) == [
        "mu_bits = n/redundancy = 512 is more than the 256 bits of the message digest"
    ]
    assert violations(n=1024, redundancy=4) == []
    with pytest.raises(ParamError, match="message digest"):
        ParamSet(n=512)


def test_codec_thresholds_exact(params):
    assert params.half_q == 6144
    assert params.quarter_q == 3072
    assert params.bits_per_coeff == 14
    assert params.mu_bits == 256


def test_redundancy_four_payload():
    p = ParamSet(redundancy=4)
    assert p.mu_bits == 64
    assert p.mu_bits * p.redundancy == p.n
