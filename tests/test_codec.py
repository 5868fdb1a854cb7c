import numpy as np
import pytest
from hypothesis import given, strategies as st

from mlds import (
    DEFAULT_PARAMS, get_ring, keygen, sign, Z2_DERIVED,
    encode_bits, decode_bits, pack_poly, unpack_poly,
    serialize_pk, parse_pk, serialize_sk, parse_sk, serialize_sig, parse_sig,
    HeaderError, LengthError, CoefficientRangeError, CodecError,
)
from mlds.codec import (
    HEADER_BYTES, PACK_BITS, SEED_BYTES,
    bytes_to_bits, decode_payload, pk_bytes, poly_bytes, sk_bytes, sig_bytes,
)

from conftest import random_poly
from ring_oracle import zero, monomial


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
        noisy = r.poly((encode_bits(bits, r).coeffs + noise) % q)
        assert np.array_equal(decode_bits(noisy, r), bits)


def test_decode_noise_boundary(ring, rng):
    q = ring.q
    bits = rng.integers(0, 2, 256).astype(np.uint8)
    enc = encode_bits(bits, ring).coeffs
    # centered magnitude 3071 always decodes; 3072 flips every bit=1 position
    for sign_ in (+1, -1):
        ok = ring.poly((enc + sign_ * 3071) % q)
        assert np.array_equal(decode_bits(ok, ring), bits)
        bad = ring.poly((enc + sign_ * 3072) % q)
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
        assert unpack_poly(pack_poly(p, ring), ring) == p


def test_pack_known_value(ring):
    p = ring.poly(np.array([1, 2, 3, 4] + [0] * 252, dtype=np.int64))
    packed = pack_poly(p, ring)
    # 1 | 2<<14 | 3<<28 | 4<<42 little-endian over 7 bytes
    expected = (1 | 2 << 14 | 3 << 28 | 4 << 42).to_bytes(7, "little")
    assert packed[:7] == expected


def test_unpack_rejects_out_of_range(ring):
    crafted = int(12289).to_bytes(7, "little") + bytes(441)
    with pytest.raises(CoefficientRangeError):
        unpack_poly(crafted, ring)


def test_unpack_rejects_bad_length(ring):
    with pytest.raises(LengthError):
        unpack_poly(bytes(447), ring)
    with pytest.raises(LengthError):
        unpack_poly(bytes(449), ring)


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
