import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlds import (
    DEFAULT_PARAMS, ParamSet, Poly, get_ring, keygen, sign, verify, Z2_DERIVED,
    encode_bits, decode_bits, pack_poly, unpack_poly,
    serialize_pk, parse_pk, serialize_sk, parse_sk, serialize_sig, parse_sig,
    HeaderError, LengthError, CoefficientRangeError, CodecError,
)
from mlds.codec import (
    HEADER_BYTES, PACK_BITS, SEED_BYTES,
    bytes_to_bits, decode_payload, pk_bytes, poly_bytes, sk_bytes, sig_bytes,
)
from mlds.sampling import crh
from mlds.scheme import SecretKey, _keygen_steps, _sign_steps

from conftest import random_poly
from ring_oracle import poly, zero, monomial


@pytest.fixture(scope="module")
def keypair_sig(ring):
    pk, sk = keygen(bytes(range(32)))
    sig = sign(sk, pk, b"codec test message", bytes(32), policy=Z2_DERIVED)
    return pk, sk, sig


# -- bit helpers -------------------------------------------------------------------

def test_bit_helpers_little_endian(ring):
    assert bytes_to_bits(b"\x01")[:8].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bytes_to_bits(b"\x80")[:8].tolist() == [0, 0, 0, 0, 0, 0, 0, 1]
    bits = np.zeros(ring.params.mu_bits, dtype=np.uint8)
    bits[[0, 2]] = 1
    payload = decode_payload(encode_bits(bits, ring), ring)
    assert payload.tobytes() == b"\x05" + bytes(ring.params.mu_bits // 8 - 1)


# -- encode / decode ------------------------------------------------------------------

def test_encode_zero_bits(ring):
    bits = np.zeros(ring.params.mu_bits, dtype=np.uint8)
    assert encode_bits(bits, ring) == zero(ring)


def test_encode_single_bit_redundancy_1(ring):
    bits = np.zeros(256, dtype=np.uint8)
    bits[0] = 1
    v = encode_bits(bits, ring)
    assert v.coeffs[0] == 6144
    assert not v.coeffs[1:].any()


def test_encode_single_bit_redundancy_4(ring_r4):
    bits = np.zeros(64, dtype=np.uint8)
    bits[0] = 1
    v = encode_bits(bits, ring_r4)
    hot = np.nonzero(v.coeffs)[0]
    assert hot.tolist() == [0, 64, 128, 192]
    assert (v.coeffs[hot] == 6144).all()


@pytest.mark.parametrize("mode", ["r1", "r4"])
def test_roundtrip_random(mode, ring, ring_r4, rng):
    r = ring if mode == "r1" else ring_r4
    for _ in range(200):
        bits = rng.integers(0, 2, r.params.mu_bits).astype(np.uint8)
        assert np.array_equal(decode_bits(encode_bits(bits, r), r), bits)


def test_roundtrip_exhaustive_byte_prefix(ring, rng):
    # all 2^8 patterns in the first byte, random tail
    for prefix in range(256):
        bits = rng.integers(0, 2, 256).astype(np.uint8)
        bits[:8] = bytes_to_bits(bytes([prefix]))
        assert np.array_equal(decode_bits(encode_bits(bits, ring), ring), bits)


@pytest.mark.parametrize("mode", ["r1", "r4"])
def test_decode_survives_small_noise(mode, ring, ring_r4, rng):
    r = ring if mode == "r1" else ring_r4
    q = r.q
    for _ in range(100):
        bits = rng.integers(0, 2, r.params.mu_bits).astype(np.uint8)
        noise = rng.integers(-32, 33, r.n)
        noisy = poly(r, (encode_bits(bits, r).coeffs + noise) % q)
        assert np.array_equal(decode_bits(noisy, r), bits)


def test_decode_noise_boundary(ring, rng):
    q = ring.q
    bits = rng.integers(0, 2, 256).astype(np.uint8)
    enc = encode_bits(bits, ring).coeffs
    # centered magnitude 3071 always decodes; 3072 flips every bit=1 position
    for sign_ in (+1, -1):
        ok = poly(ring, (enc + sign_ * 3071) % q)
        assert np.array_equal(decode_bits(ok, ring), bits)
        bad = poly(ring, (enc + sign_ * 3072) % q)
        flipped = decode_bits(bad, ring)
        assert not flipped[bits == 1].any()


def test_decode_tie_rule(ring):
    v = monomial(ring, 0, 3072 + 6144)  # distance exactly floor(q/4)
    assert decode_bits(v, ring)[0] == 0


def test_encode_validates_payload(ring):
    with pytest.raises(CodecError):
        encode_bits(np.zeros(255, dtype=np.uint8), ring)
    with pytest.raises(CodecError):
        encode_bits(np.full(256, 2, dtype=np.uint8), ring)
    # checked before the int32 cast, which would wrap 2^32 + 1 to 1
    with pytest.raises(CodecError):
        encode_bits(np.full(256, 2**32 + 1, dtype=np.int64), ring)


# -- packing ----------------------------------------------------------------------

def test_pack_zero(ring):
    assert pack_poly(zero(ring), ring) == bytes(448)


def test_pack_roundtrip_random(ring, rng):
    for _ in range(200):
        p = random_poly(ring, rng)
        out = unpack_poly(pack_poly(p, ring), ring).coeffs
        assert out.dtype == np.int32 and out.shape == (1, ring.n)
        assert np.array_equal(out, p.coeffs[None])


def test_pack_known_value(ring):
    p = poly(ring, np.array([1, 2, 3, 4] + [0] * 252, dtype=np.int64))
    packed = pack_poly(p, ring)
    # 1 | 2<<14 | 3<<28 | 4<<42 little-endian over 7 bytes
    expected = (1 | 2 << 14 | 3 << 28 | 4 << 42).to_bytes(7, "little")
    assert packed[:7] == expected


def test_unpack_rejects_out_of_range(ring):
    crafted = int(12289).to_bytes(7, "little") + bytes(441)
    with pytest.raises(CoefficientRangeError):
        unpack_poly(crafted, ring)


def test_unpack_rejects_bad_length(ring):
    for size in (0, 447, 449, 2 * 448 + 1):
        with pytest.raises(LengthError):
            unpack_poly(bytes(size), ring)


@given(m=st.integers(1, DEFAULT_PARAMS.k + 2), seed=st.integers(0, 2**32 - 1),
       at=st.integers(min_value=0), edge=st.sampled_from([0, DEFAULT_PARAMS.q - 1]))
def test_pack_unpack_stack_roundtrip(m, seed, at, edge):
    n = DEFAULT_PARAMS.n
    x = np.random.default_rng(seed).integers(0, DEFAULT_PARAMS.q, (m, n), dtype=np.int32)
    x.flat[at % x.size] = edge
    wire = pack_poly(Poly(x), FUZZ_RING)
    assert len(wire) == m * poly_bytes(DEFAULT_PARAMS)
    out = unpack_poly(wire, FUZZ_RING).coeffs
    assert out.dtype == np.int32 and out.shape == (m, n)
    assert np.array_equal(out, x)


@given(m=st.integers(1, DEFAULT_PARAMS.k + 2), seed=st.integers(0, 2**32 - 1),
       at=st.integers(min_value=0),
       bad=st.one_of(st.integers(DEFAULT_PARAMS.q, 2**31 - 1), st.integers(-2**31, -1)))
def test_pack_rejects_out_of_range_stack(m, seed, at, bad):
    # a value >= 2^14 would otherwise spill into the neighbouring 14-bit field
    x = np.random.default_rng(seed).integers(0, DEFAULT_PARAMS.q, (m, DEFAULT_PARAMS.n), dtype=np.int32)
    x.flat[at % x.size] = bad
    with pytest.raises(CodecError):
        pack_poly(Poly(x), FUZZ_RING)


@pytest.mark.parametrize("coeffs", [
    np.ones((2, 256), dtype=np.int64),
    np.ones(256, dtype=np.float64),
    np.ones((2, 252), dtype=np.int32),
    np.ones((256, 1), dtype=np.int32),
    np.ones((0, 256), dtype=np.int32),
    np.int32(1),
], ids=["int64", "float64", "axis-252", "axis-1", "empty", "scalar"])
def test_pack_rejects_bad_dtype_or_axis(coeffs, ring):
    with pytest.raises(CodecError):
        pack_poly(Poly(coeffs), ring)


# -- file formats -------------------------------------------------------------------

def test_serialized_lengths(params, ring, keypair_sig):
    pk, sk, sig = keypair_sig
    assert pk_bytes(params) == 6 + 32 + 2 * 448 == 934
    assert sk_bytes(params) == 6 + 2 * 448 == 902
    assert sig_bytes(params) == 6 + 4 * 448 + 32 == 1830
    assert len(serialize_pk(pk, ring)) == 934
    assert len(serialize_sk(sk, ring)) == 902
    assert len(serialize_sig(sig, ring)) == 1830


def test_header_layout(ring, keypair_sig):
    pk, _, _ = keypair_sig
    blob = serialize_pk(pk, ring)
    assert blob[:4] == b"MLDS"
    assert blob[4] == 0x01  # version
    assert blob[5] == 0x01  # param id


def test_roundtrip_pk_sk_sig(ring, keypair_sig):
    pk, sk, sig = keypair_sig
    pk2 = parse_pk(serialize_pk(pk, ring), ring)
    assert pk2.rho == pk.rho and pk2.p_vec == pk.p_vec
    sk2 = parse_sk(serialize_sk(sk, ring), ring)
    assert sk2.s == sk.s
    sig2 = parse_sig(serialize_sig(sig, ring), ring)
    assert sig2.z1 == sig.z1 and sig2.z2 == sig.z2
    assert sig2.z3 == sig.z3 and sig2.h == sig.h


def test_parse_rejects_corrupt_magic(ring, keypair_sig):
    pk, _, _ = keypair_sig
    blob = bytearray(serialize_pk(pk, ring))
    blob[0] ^= 0xFF
    with pytest.raises(HeaderError):
        parse_pk(bytes(blob), ring)


def test_parse_rejects_bad_version_and_param_id(ring, keypair_sig):
    pk, _, _ = keypair_sig
    blob = bytearray(serialize_pk(pk, ring))
    blob[4] = 0x02
    with pytest.raises(HeaderError):
        parse_pk(bytes(blob), ring)
    blob = bytearray(serialize_pk(pk, ring))
    blob[5] = 0x7F
    with pytest.raises(HeaderError):
        parse_pk(bytes(blob), ring)


def test_parse_rejects_truncation(ring, keypair_sig):
    pk, sk, sig = keypair_sig
    with pytest.raises(LengthError):
        parse_pk(serialize_pk(pk, ring)[:-1], ring)
    with pytest.raises(LengthError):
        parse_sk(serialize_sk(sk, ring)[:100], ring)
    with pytest.raises(LengthError):
        parse_sig(serialize_sig(sig, ring) + b"\x00", ring)
    with pytest.raises(LengthError):
        parse_sig(b"MLDS", ring)


def test_parse_rejects_range_violation(ring, keypair_sig):
    _, _, sig = keypair_sig
    blob = bytearray(serialize_sig(sig, ring))
    # overwrite the first packed group of z1 with four maxed 14-bit values
    blob[6:13] = b"\xff" * 7
    with pytest.raises(CoefficientRangeError):
        parse_sig(bytes(blob), ring)


def test_parse_rejects_range_violation_in_last_coefficient(params, ring, keypair_sig):
    # the one range check over all k + 2 rows reaches the last coefficient of z3
    _, _, sig = keypair_sig
    blob = bytearray(serialize_sig(sig, ring))
    end = HEADER_BYTES + (params.k + 2) * poly_bytes(params)
    # 16383 in the fourth 14-bit field of the last 7-byte group
    group = int.from_bytes(blob[end - 7 : end], "little") | ((1 << PACK_BITS) - 1) << (3 * PACK_BITS)
    blob[end - 7 : end] = group.to_bytes(7, "little")
    assert parse_sig(serialize_sig(sig, ring), ring).z3.coeffs[-1] < params.q
    with pytest.raises(CodecError):
        parse_sig(bytes(blob), ring)


@pytest.fixture(scope="module")
def unserializable(ring, keypair_sig):
    pk, sk = _keygen_steps([bytes(32), bytes(range(32))], ring)
    sig = _sign_steps(sk, pk, [crh(b"a"), crh(b"b")], [bytes(32), bytes([7] * 32)], ring, Z2_DERIVED)
    ntt_sk = SecretKey(s=ring.vec_ntt(keypair_sig[1].s))
    one_pk, _, one_sig = keypair_sig
    return {"pk": (serialize_pk, pk), "sk": (serialize_sk, sk), "sig": (serialize_sig, sig),
            "ntt-sk": (serialize_sk, ntt_sk),
            "rho-31": (serialize_pk, dataclasses.replace(one_pk, rho=bytes(31))),
            "rho-33": (serialize_pk, dataclasses.replace(one_pk, rho=bytes(33))),
            "h-31": (serialize_sig, dataclasses.replace(one_sig, h=bytes(31))),
            "h-33": (serialize_sig, dataclasses.replace(one_sig, h=bytes(33)))}


@pytest.mark.parametrize("kind", ["pk", "sk", "sig", "ntt-sk", "rho-31", "rho-33", "h-31", "h-33"])
def test_serializers_refuse_batches_and_ntt_values(kind, ring, unserializable):
    # a batch of two keys or signatures, a key in the NTT domain, and a rho or
    # h of the wrong length, whose wire parse_pk/parse_sig would refuse
    serialize, value = unserializable[kind]
    with pytest.raises(CodecError):
        serialize(value, ring)


def test_rank_1_roundtrip():
    # k = 1 keys unpack as one (n,) row and still parse to a (1, n) module vector
    params = ParamSet(k=1, param_id=2)
    ring1 = get_ring(params)
    pk, sk = keygen(bytes(32), params)
    pk2 = parse_pk(serialize_pk(pk, ring1), ring1)
    assert pk2.p_vec.data.shape == (1, params.n) and pk2.p_vec == pk.p_vec
    assert parse_sk(serialize_sk(sk, ring1), ring1).s == sk.s
    sig = parse_sig(serialize_sig(sign(sk, pk, b"k1", bytes(32), params), ring1), ring1)
    assert verify(pk2, b"k1", sig, params).ok


# -- parser fuzzing -------------------------------------------------------------------
#
# Whatever bytes arrive, the parsers either return or raise a CodecError
# subclass; nothing else escapes.

FUZZ_RING = get_ring(DEFAULT_PARAMS)
_FUZZ_PK, _FUZZ_SK = keygen(bytes(range(32)))
FUZZ_WIRES = {
    "pk": (serialize_pk(_FUZZ_PK, FUZZ_RING), parse_pk),
    "sk": (serialize_sk(_FUZZ_SK, FUZZ_RING), parse_sk),
    "sig": (serialize_sig(sign(_FUZZ_SK, _FUZZ_PK, b"fuzz", bytes(32)), FUZZ_RING), parse_sig),
    "poly": (pack_poly(_FUZZ_SK.s[0], FUZZ_RING), unpack_poly),
}
FUZZ_KINDS = st.sampled_from(sorted(FUZZ_WIRES))


def _parse_or_codec_error(kind: str, data: bytes) -> None:
    try:
        FUZZ_WIRES[kind][1](data, FUZZ_RING)
    except CodecError:
        pass


@given(kind=FUZZ_KINDS, data=st.binary(max_size=2 * 1830))
def test_fuzz_random_bytes(kind, data):
    _parse_or_codec_error(kind, data)


@given(kind=FUZZ_KINDS, cut=st.integers(min_value=1), tail=st.binary(min_size=1, max_size=64))
def test_fuzz_truncated_and_over_long(kind, cut, tail):
    wire = FUZZ_WIRES[kind][0]
    with pytest.raises(CodecError):
        FUZZ_WIRES[kind][1](wire[: len(wire) - 1 - cut % len(wire)], FUZZ_RING)
    with pytest.raises(CodecError):
        FUZZ_WIRES[kind][1](wire + tail, FUZZ_RING)


@given(kind=FUZZ_KINDS, edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                                       min_size=1, max_size=8))
def test_fuzz_mutated_bytes(kind, edits):
    wire = bytearray(FUZZ_WIRES[kind][0])
    for index, value in edits:
        wire[index % len(wire)] = value
    _parse_or_codec_error(kind, bytes(wire))


@given(kind=FUZZ_KINDS, slot=st.integers(min_value=0),
       value=st.integers(DEFAULT_PARAMS.q, (1 << PACK_BITS) - 1))
def test_fuzz_coefficient_out_of_range(kind, slot, value):
    # overwrite one packed coefficient of the first polynomial with a value >= q
    wire, parse = FUZZ_WIRES[kind]
    start = {"pk": HEADER_BYTES + SEED_BYTES, "sk": HEADER_BYTES, "sig": HEADER_BYTES, "poly": 0}[kind]
    step = poly_bytes(DEFAULT_PARAMS)
    packed = int.from_bytes(wire[start : start + step], "little")
    shift = PACK_BITS * (slot % DEFAULT_PARAMS.n)
    packed ^= (((packed >> shift) & ((1 << PACK_BITS) - 1)) ^ value) << shift
    bad = wire[:start] + packed.to_bytes(step, "little") + wire[start + step :]
    with pytest.raises(CoefficientRangeError):
        parse(bad, FUZZ_RING)
