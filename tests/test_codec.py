import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlds import (
    COEFF, DEFAULT_PARAMS, NTT, DomainError, ParamSet, RqArray, get_ring, keygen, sign, verify,
    Z2_DERIVED,
    encode_bits, decode_bits, pack_poly, unpack_poly,
    serialize_pk, parse_pk, serialize_sk, parse_sk, serialize_sig, parse_sig,
    HeaderError, LengthError, CoefficientRangeError, CodecError, ParamError, validate_params,
    key_sizes,
)
from mlds.codec import (
    HEADER_BYTES, SEED_BYTES, PublicKey, SecretKey, Signature,
    bytes_to_bits, decode_payload, pk_bytes, poly_bytes, sk_bytes, sig_bytes,
)

from conftest import random_poly
from ring_oracle import poly, zero, monomial, row


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
    assert v.data.shape == (1, ring.n)
    assert v.data[0, 0] == 6144
    assert not v.data[0, 1:].any()


def test_encode_single_bit_redundancy_4(ring_r4):
    bits = np.zeros(64, dtype=np.uint8)
    bits[0] = 1
    v = encode_bits(bits, ring_r4)
    hot = np.nonzero(v.data[0])[0]
    assert hot.tolist() == [0, 64, 128, 192]
    assert (v.data[0, hot] == 6144).all()


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
        noisy = poly(r, (encode_bits(bits, r).data[0] + noise) % q)
        assert np.array_equal(decode_bits(noisy, r), bits)


def test_decode_noise_boundary(ring, rng):
    q = ring.q
    bits = rng.integers(0, 2, 256).astype(np.uint8)
    enc = encode_bits(bits, ring).data[0]
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


def test_decode_reads_one_coefficient_row(ring):
    # a module vector or an NTT-domain row is refused, not decoded from its first row
    v = encode_bits(np.ones(ring.params.mu_bits, dtype=np.uint8), ring)
    assert decode_bits(v, ring).all()
    for bad in (RqArray(np.concatenate([v.data] * ring.k), COEFF), RqArray(v.data, NTT)):
        for decode in (decode_bits, decode_payload):
            with pytest.raises(DomainError):
                decode(bad, ring)


SIXES = np.full((1, DEFAULT_PARAMS.n), 6000, np.int32)  # |6000 - 6144| < 3072: all ones


@pytest.mark.parametrize("bad", [
    RqArray(SIXES.astype(np.uint32), COEFF),
    RqArray(SIXES.astype(np.int64), COEFF),
    RqArray(SIXES.astype(np.float64), COEFF),
    RqArray(SIXES.tolist(), COEFF),
    SIXES,
], ids=["uint32", "int64", "float64", "list", "bare-ndarray"])
def test_decoder_takes_only_int32_ring_values(ring, bad):
    # Ring._operand refuses the row before any arithmetic; a uint32 row would wrap
    # |v - floor(q/2)| and decode to all zeros
    assert decode_bits(RqArray(SIXES, COEFF), ring).all()
    for decode in (decode_bits, decode_payload):
        with pytest.raises(DomainError, match="decode_bits takes coeff values"):
            decode(bad, ring)


def test_encode_validates_payload(ring):
    with pytest.raises(CodecError):
        encode_bits(np.zeros(255, dtype=np.uint8), ring)
    with pytest.raises(CodecError):
        encode_bits(np.full(256, 2, dtype=np.uint8), ring)
    # checked before the int32 cast, which would wrap 2^32 + 1 to 1
    with pytest.raises(CodecError):
        encode_bits(np.full(256, 2**32 + 1, dtype=np.int64), ring)
    # in range, but a fractional payload would encode every bit as 0
    with pytest.raises(CodecError):
        encode_bits(np.full(256, 0.5), ring)
    # an empty batch has no minimum to check
    with pytest.raises(CodecError):
        encode_bits(np.zeros((0, 256), dtype=np.uint8), ring)


# -- packing ----------------------------------------------------------------------

def test_pack_zero(ring):
    assert pack_poly(zero(ring), ring) == bytes(448)


def test_pack_roundtrip_random(ring, rng):
    for _ in range(200):
        p = random_poly(ring, rng)
        out = unpack_poly(pack_poly(p, ring), ring)
        assert out.domain == COEFF and out.data.dtype == np.int32 and out.data.shape == (1, ring.n)
        assert out == p


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


def test_unpack_counts_the_length_in_bytes_not_items(ring, rng):
    # a memoryview of a wider format holds 448 bytes in 224 items
    p = random_poly(ring, rng)
    wide = memoryview(np.frombuffer(pack_poly(p, ring), np.uint16))
    assert len(wide) == 224 and unpack_poly(wide, ring) == p
    assert unpack_poly(memoryview(np.zeros(224, np.uint16)), ring) == zero(ring)
    with pytest.raises(LengthError, match="got 446$"):
        unpack_poly(memoryview(np.zeros(223, np.uint16)), ring)


@given(m=st.integers(1, DEFAULT_PARAMS.k + 2), seed=st.integers(0, 2**32 - 1),
       at=st.integers(min_value=0), edge=st.sampled_from([0, DEFAULT_PARAMS.q - 1]))
def test_pack_unpack_stack_roundtrip(m, seed, at, edge):
    n = DEFAULT_PARAMS.n
    x = np.random.default_rng(seed).integers(0, DEFAULT_PARAMS.q, (m, n), dtype=np.int32)
    x.flat[at % x.size] = edge
    wire = pack_poly(RqArray(x, COEFF), FUZZ_RING)
    assert len(wire) == m * poly_bytes(DEFAULT_PARAMS)
    out = unpack_poly(wire, FUZZ_RING).data
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
        pack_poly(RqArray(x, COEFF), FUZZ_RING)


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
        pack_poly(RqArray(coeffs, COEFF), ring)


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
    assert sig2.z == sig.z and sig2.z.data.shape == (ring.k + 2, ring.n)
    assert sig2.z1 == sig.z1 and sig2.z2 == sig.z2
    assert sig2.z3 == sig.z3 and sig2.h == sig.h


@pytest.mark.parametrize("batch", [False, True], ids=["one", "batch-of-3"])
def test_signature_parts_are_views_of_one_wire_ordered_array(ring, keypair_sig, batch):
    # z1, z2 and z3 are the rows of z in wire order, sharing its memory
    if batch:
        pk, sk = keygen([bytes([t]) * 32 for t in range(3)])
        sig = sign(sk, pk, [bytes([t]) for t in range(3)], [bytes([7 + t]) * 32 for t in range(3)])
    else:
        sig = keypair_sig[2]
    trials = (3,) if batch else ()
    assert sig.z.domain == COEFF and sig.z.data.shape == trials + (ring.k + 2, ring.n)
    parts = (sig.z1, sig.z2, sig.z3)
    assert [part.data.shape for part in parts] == [trials + (rows, ring.n) for rows in (ring.k, 1, 1)]
    for part in parts:
        assert part.domain == COEFF and np.shares_memory(part.data, sig.z.data)
    assert np.array_equal(np.concatenate([part.data for part in parts], axis=-2), sig.z.data)


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


def test_a_wire_of_another_set_is_refused_by_its_header(ring):
    # eta leaves every size alone, so only the id byte tells the sets apart; a set
    # replaced from the shipped one is unregistered too
    for other in (ParamSet(eta=8), dataclasses.replace(DEFAULT_PARAMS, eta=8)):
        other_ring = get_ring(other)
        pk, sk = keygen(bytes(32), other)
        sig = sign(sk, pk, b"another set", bytes(32), other)
        for wire, parse in ((serialize_pk(pk, other_ring), parse_pk),
                            (serialize_sk(sk, other_ring), parse_sk),
                            (serialize_sig(sig, other_ring), parse_sig)):
            assert wire[5] == 0x00
            with pytest.raises(HeaderError, match="parameter id 0x00 does not match 0x01"):
                parse(wire, ring)


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
    step, b = poly_bytes(params), params.bits_per_coeff
    end = HEADER_BYTES + (params.k + 2) * step
    # 2^b - 1 (16383) in the last field of z3
    z3 = int.from_bytes(blob[end - step : end], "little") | ((1 << b) - 1) << (b * (params.n - 1))
    blob[end - step : end] = z3.to_bytes(step, "little")
    assert parse_sig(serialize_sig(sig, ring), ring).z.data[-1, -1] < params.q
    with pytest.raises(CodecError):
        parse_sig(bytes(blob), ring)


@pytest.mark.parametrize("kind", ["pk", "sk", "sig"])
def test_a_batch_serializes_to_one_wire_per_trial(kind, ring):
    # each trial's wire is the wire of that trial made alone, and parses back to it
    zetas, msgs, coins = [bytes(32), bytes(range(32))], [b"a", b"b"], [bytes(32), bytes([7] * 32)]
    serialize, parse, fields = {"pk": (serialize_pk, parse_pk, ("rho", "p_vec")),
                                "sk": (serialize_sk, parse_sk, ("s",)),
                                "sig": (serialize_sig, parse_sig, ("z", "h"))}[kind]

    def made(zeta, msg, coin):
        pk, sk = keygen(zeta)
        return {"pk": pk, "sk": sk, "sig": sign(sk, pk, msg, coin)}[kind]

    singles = [made(*case) for case in zip(zetas, msgs, coins)]
    wires = serialize(made(zetas, msgs, coins), ring)
    assert type(wires) is tuple and wires == tuple(serialize(one, ring) for one in singles)
    for wire, one in zip(wires, singles):
        back = parse(wire, ring)
        assert [getattr(back, f) for f in fields] == [getattr(one, f) for f in fields]


@pytest.fixture(scope="module")
def unserializable(ring, keypair_sig):
    one_pk, one_sk, one_sig = keypair_sig
    # a malformed key or signature is refused when it is built, so those cases build inside the check
    return {"ntt-sk": (serialize_sk, lambda: SecretKey(ring.vec_ntt(one_sk.s), ring.params)),
            "rho-31": (serialize_pk, lambda: dataclasses.replace(one_pk, rho=bytes(31))),
            "rho-33": (serialize_pk, lambda: dataclasses.replace(one_pk, rho=bytes(33))),
            "h-31": (serialize_sig, lambda: dataclasses.replace(one_sig, h=bytes(31))),
            "h-33": (serialize_sig, lambda: dataclasses.replace(one_sig, h=bytes(33))),
            "rho-str": (serialize_pk, lambda: dataclasses.replace(one_pk, rho="r" * 32)),
            "rho-bytearray": (serialize_pk, lambda: dataclasses.replace(one_pk, rho=bytearray(32))),
            "p-poly": (serialize_pk, lambda: dataclasses.replace(one_pk, p_vec=row(one_pk.p_vec, 0))),
            "p-int64": (serialize_pk, lambda: dataclasses.replace(
                one_pk, p_vec=RqArray(one_pk.p_vec.data.astype(np.int64), COEFF))),
            "s-ndarray": (serialize_sk, lambda: SecretKey(one_sk.s.data, ring.params)),
            "sk-as-pk": (serialize_pk, lambda: one_sk),
            "pk-as-sk": (serialize_sk, lambda: one_pk)}


@pytest.mark.parametrize("kind", ["ntt-sk", "rho-31", "rho-33", "h-31", "h-33", "rho-str",
                                  "rho-bytearray", "p-poly", "p-int64", "s-ndarray",
                                  "sk-as-pk", "pk-as-sk"])
def test_serializers_refuse_batches_and_ntt_values(kind, ring, unserializable):
    # a key in the NTT domain, a rho or h of the wrong length, whose wire
    # parse_pk/parse_sig would refuse, and values of the wrong type; a batch
    # is no longer refused (test_a_batch_serializes_to_one_wire_per_trial)
    serialize, build = unserializable[kind]
    with pytest.raises(CodecError):
        serialize(build(), ring)


@pytest.mark.parametrize("kind", ["p-ntt", "p-plus-20000", "p-int64", "p-negative", "p-batch-of-one",
                                  "rho-tuple-for-one", "rho-tuple-short", "rho-empty-tuple",
                                  "a-none", "a-3x3", "a-int64", "a-q", "p-list", "a-list"])
def test_malformed_public_key_is_refused_when_built(kind, ring, keypair_sig):
    # the first three once reached verify: an NTT-domain P raised DomainError there,
    # P + 20000 was rejected as "mu-mismatch" and an int64 P verified a signature;
    # an A_hat of None made sign raise AttributeError
    pk = keypair_sig[0]
    p, a = pk.p_vec.data, pk.a_hat.data
    a_q = a.copy()
    a_q[1, 0, 5] = ring.q
    batch, _ = keygen([bytes(32), bytes(range(32))])
    fields = {
        "p-ntt": {"p_vec": RqArray(p, NTT)},
        "p-plus-20000": {"p_vec": RqArray(p + 20000, COEFF)},
        "p-int64": {"p_vec": RqArray(p.astype(np.int64), COEFF)},
        "p-negative": {"p_vec": RqArray(p - ring.q, COEFF)},
        "p-batch-of-one": {"p_vec": RqArray(p[None], COEFF)},
        "rho-tuple-for-one": {"rho": (pk.rho,)},
        "rho-tuple-short": {"rho": batch.rho[:1], "p_vec": batch.p_vec},
        "rho-empty-tuple": {"rho": (), "p_vec": RqArray(np.zeros((0, ring.k, ring.n), np.int32), COEFF)},
        "a-none": {"a_hat": None},
        "a-3x3": {"a_hat": RqArray(np.zeros((3, 3, ring.n), np.int32), NTT)},
        "a-int64": {"a_hat": RqArray(a.astype(np.int64), NTT)},
        "a-q": {"a_hat": RqArray(a_q, NTT)},
        "p-list": {"p_vec": RqArray(p.tolist(), COEFF)},
        "a-list": {"a_hat": RqArray(a.tolist(), NTT)},
    }[kind]
    assert p.dtype == np.int32 and (p + 20000).dtype == np.int32
    with pytest.raises(CodecError, match="public key"):
        dataclasses.replace(pk, **fields)


def test_batched_and_parsed_public_keys_build(ring, keypair_sig):
    pk = keypair_sig[0]
    batch, _ = keygen([bytes(32), bytes(range(32))])
    assert type(batch.rho) is tuple and batch.p_vec.data.shape == (2, ring.k, ring.n)
    assert dataclasses.replace(batch).p_vec is batch.p_vec
    assert parse_pk(serialize_pk(pk, ring), ring).p_vec == pk.p_vec
    other = ParamSet(n=512, redundancy=4)
    with pytest.raises(CodecError, match="parameter set"):
        serialize_pk(pk, get_ring(other))


def _malformed(sig, kind, ring):
    # z holds z1's k rows, z2 and z3; one array has one domain, so a z2 in
    # the NTT domain is the whole z transformed
    z = sig.z.data
    out_of_range = z.copy()
    out_of_range[ring.k, 7] = ring.q
    fields = {
        "z1-poly": {"z": RqArray(np.concatenate((z[:1], z[-2:])), COEFF)},
        "z1-ndarray": {"z": z},
        "z1-ntt": {"z": RqArray(z, NTT)},
        "z1-int64": {"z": RqArray(z.astype(np.int64), COEFF)},
        "z2-ntt": {"z": ring.vec_ntt(sig.z)},
        "z2-out-of-range": {"z": RqArray(out_of_range, COEFF)},
        "z3-short": {"z": RqArray(z[:, :-1], COEFF)},
        "h-str": {"h": "h" * SEED_BYTES},
        "h-bytearray": {"h": bytearray(sig.h)},
        "h-short": {"h": sig.h[:-1]},
        "z-list": {"z": RqArray(z.tolist(), COEFF)},
    }[kind]
    return dataclasses.replace(sig, **fields)


MALFORMED = ["z1-poly", "z1-ndarray", "z1-ntt", "z1-int64", "z2-ntt", "z2-out-of-range",
             "z3-short", "h-str", "h-bytearray", "h-short", "z-list"]


@pytest.mark.parametrize("kind", MALFORMED)
def test_malformed_signature_is_refused_by_serialize_and_verify(kind, ring, keypair_sig):
    # one rule decides both: building refuses the value, so neither
    # serialize_sig nor verify can meet it
    pk, _, sig = keypair_sig
    assert verify(pk, b"codec test message", sig).ok
    with pytest.raises(CodecError, match="signature"):
        _malformed(sig, kind, ring)


@pytest.mark.parametrize("kind", ["z2-out-of-range", "h-bytearray", "h-short"])
def test_batch_with_one_malformed_trial_cannot_be_built(kind, ring):
    # range and h are checked for every trial when the batch is built
    pk, sk = keygen([bytes(32), bytes(range(32))])
    sig = sign(sk, pk, [b"a", b"b"], [bytes(32), bytes([7] * 32)])
    z, h = sig.z.data.copy(), list(sig.h)
    if kind == "z2-out-of-range":
        z[1, ring.k, 7] = ring.q
    else:
        h[1] = bytearray(h[1]) if kind == "h-bytearray" else h[1][:-1]
    assert [v.reason for v in verify(pk, [b"a", b"b"], sig)] == [None, None]
    with pytest.raises(CodecError, match="signature"):
        dataclasses.replace(sig, z=RqArray(z, COEFF), h=tuple(h))


@pytest.mark.parametrize("kind", ["s-ntt", "s-int64", "s-q", "s-negative", "s-short-axis",
                                  "s-empty-batch", "s-two-batch-axes", "params-none", "s-list"])
def test_malformed_secret_key_is_refused_when_built(kind, ring, keypair_sig):
    sk = keypair_sig[1]
    s = sk.s.data
    fields = {
        "s-ntt": {"s": RqArray(s, NTT)},
        "s-int64": {"s": RqArray(s.astype(np.int64), COEFF)},
        "s-q": {"s": RqArray(np.full_like(s, ring.q), COEFF)},
        "s-negative": {"s": RqArray(s - ring.q, COEFF)},
        "s-short-axis": {"s": RqArray(s[:, :-1], COEFF)},
        "s-empty-batch": {"s": RqArray(s[None][:0], COEFF)},
        "s-two-batch-axes": {"s": RqArray(s[None, None], COEFF)},
        "params-none": {"params": None},
        "s-list": {"s": RqArray(s.tolist(), COEFF)},
    }[kind]
    with pytest.raises(CodecError, match="secret key"):
        dataclasses.replace(sk, **fields)


def test_values_of_another_set_are_not_serialized(ring, keypair_sig):
    pk, sk, sig = keypair_sig
    other = get_ring(ParamSet(redundancy=4))  # same sizes and shapes, another set
    for serialize, value in ((serialize_pk, pk), (serialize_sk, sk), (serialize_sig, sig)):
        with pytest.raises(CodecError, match="of this parameter set"):
            serialize(value, other)


@pytest.mark.parametrize("wire_type", [bytes, bytearray, memoryview])
def test_parsers_take_any_bytes_like_wire(wire_type, ring, keypair_sig):
    pk, sk, sig = keypair_sig
    wires = [serialize_pk(pk, ring), serialize_sk(sk, ring), serialize_sig(sig, ring)]
    pk2, sk2, sig2 = (parse(wire_type(wire), ring)
                      for parse, wire in zip((parse_pk, parse_sk, parse_sig), wires))
    assert pk2.rho == pk.rho and pk2.p_vec == pk.p_vec and np.array_equal(pk2.a_hat.data, pk.a_hat.data)
    assert sk2.s == sk.s
    assert (sig2.z, sig2.h) == (sig.z, sig.h)
    assert [type(pk2.rho), type(sig2.h)] == [bytes, bytes]
    assert verify(pk2, b"codec test message", sig2).ok
    assert sign(sk2, pk2, b"codec test message", bytes(32)).h == sig.h


@pytest.mark.parametrize("wire", ["MLDS", 7, None, [1, 2]], ids=["str", "int", "none", "list"])
def test_parsers_refuse_a_wire_that_is_not_bytes_like(wire, ring):
    # unpack_poly too: a str, an int, None or a list is a CodecError, not a TypeError
    for parse in (parse_pk, parse_sk, parse_sig, unpack_poly):
        with pytest.raises(CodecError, match="bytes-like"):
            parse(wire, ring)


def test_rank_1_roundtrip():
    # k = 1 keys unpack as one (n,) row and still parse to a (1, n) module vector
    params = ParamSet(k=1)
    ring1 = get_ring(params)
    pk, sk = keygen(bytes(32), params)
    pk2 = parse_pk(serialize_pk(pk, ring1), ring1)
    assert pk2.p_vec.data.shape == (1, params.n) and pk2.p_vec == pk.p_vec
    assert parse_sk(serialize_sk(sk, ring1), ring1).s == sk.s
    sig = parse_sig(serialize_sig(sign(sk, pk, b"k1", bytes(32), params), ring1), ring1)
    assert verify(pk2, b"k1", sig, params).ok


# -- sizes -------------------------------------------------------------------------

def test_key_sizes_reference_row():
    sizes = key_sizes(DEFAULT_PARAMS)
    assert abs(sizes.pk_it - 901.5) <= 0.5
    assert abs(sizes.sk_it - 869.5) <= 0.5
    assert abs(sizes.sig_it - 1771) <= 0.5
    assert (sizes.pk_wire, sizes.sk_wire, sizes.sig_wire) == (934, 902, 1830)


def test_key_sizes_formula():
    sizes = key_sizes(DEFAULT_PARAMS)
    element = 256 * math.log2(12289) / 8
    assert sizes.pk_it == pytest.approx(32 + 2 * element)
    assert sizes.sk_it == pytest.approx(2 * element)
    assert sizes.sig_it == pytest.approx(4 * element + 32)


def test_key_sizes_degenerate():
    # a degenerate set cannot be built, so key_sizes never meets one
    with pytest.raises(ParamError, match="k=0 must be >= 1"):
        key_sizes(ParamSet(k=0))


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
    "poly": (pack_poly(row(_FUZZ_SK.s, 0), FUZZ_RING), unpack_poly),
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
       value=st.integers(DEFAULT_PARAMS.q, (1 << DEFAULT_PARAMS.bits_per_coeff) - 1))
def test_fuzz_coefficient_out_of_range(kind, slot, value):
    # overwrite one packed coefficient of the first polynomial with a value >= q
    wire, parse = FUZZ_WIRES[kind]
    start = {"pk": HEADER_BYTES + SEED_BYTES, "sk": HEADER_BYTES, "sig": HEADER_BYTES, "poly": 0}[kind]
    step, b = poly_bytes(DEFAULT_PARAMS), DEFAULT_PARAMS.bits_per_coeff
    packed = int.from_bytes(wire[start : start + step], "little")
    shift = b * (slot % DEFAULT_PARAMS.n)
    packed ^= (((packed >> shift) & ((1 << b) - 1)) ^ value) << shift
    bad = wire[:start] + packed.to_bytes(step, "little") + wire[start + step :]
    with pytest.raises(CoefficientRangeError):
        parse(bad, FUZZ_RING)


# -- one rule: a value is checked once, when it is built ------------------------------
#
# A valid ParamSet, PublicKey, SecretKey or Signature with one field changed
# either builds and round-trips through serialize and parse to equal values,
# or raises ParamError or CodecError. Nothing else escapes.

_ONE_SIG = sign(_FUZZ_SK, _FUZZ_PK, b"one rule", bytes(32))
_TWO_PK, _TWO_SK = keygen([bytes(32), bytes(range(32))])
_TWO_SIG = sign(_TWO_SK, _TWO_PK, [b"a", b"b"], [bytes(32), bytes([7] * 32)])
RING_FIELDS = {PublicKey: ("p_vec",), SecretKey: ("s",), Signature: ("z",)}
SEED_FIELD = {PublicKey: "rho", Signature: "h"}
CODEC = {PublicKey: (serialize_pk, parse_pk), SecretKey: (serialize_sk, parse_sk),
         Signature: (serialize_sig, parse_sig)}
PARAM_VALUES = {"n": [128, 200, 512, 1024], "q": [257, 7681, 12288, 13313, 40961],
                "k": [0, 1, 3, 15], "eta": [0, 3, 8, 24, 1536], "redundancy": [2, 4]}


def _array_mutant(x: np.ndarray, how: str, axis: int, at: int, q: int) -> np.ndarray:
    if how in ("int64", "int16"):
        return x.astype(how)
    if how == "longer":
        return np.concatenate((x, np.take(x, [0], axis=axis)), axis=axis)
    if how == "shorter":
        return np.delete(x, -1, axis=axis)
    x = x.copy()
    x.flat[at % x.size] = q if how == "q" else -1
    return x


def _mutate(value, field: str, how: str, axis: int, at: int):
    """``value`` with ``field`` changed by ``how``; raises what building the mutant raises."""
    old = getattr(value, field)
    if field in ("rho", "h"):
        one = old[0] if type(old) is tuple else old
        new = {"31": one[:31], "33": one + b"\0", "bytearray": bytearray(one), "str": one.hex()[:32],
               "1-tuple": (one,), "count": (old + (one,)) if type(old) is tuple else (one, one)}[how]
        if type(old) is tuple and how in ("31", "33", "bytearray", "str"):
            new = (new,) + old[1:]
    elif field == "params":
        new = {"redundancy-4": ParamSet(redundancy=4), "rank-1": ParamSet(k=1)}[how]
    elif how == "ntt":
        new = RqArray(old.data, NTT)
    else:
        new = RqArray(_array_mutant(old.data, how, axis % old.data.ndim, at, value.params.q), COEFF)
    return dataclasses.replace(value, **{field: new})


@st.composite
def _mutants(draw):
    value = draw(st.sampled_from([_FUZZ_PK, _FUZZ_SK, _ONE_SIG, _TWO_PK, _TWO_SK, _TWO_SIG]))
    cls = type(value)
    fields = list(RING_FIELDS[cls]) + ["params"] + ([SEED_FIELD[cls]] if cls in SEED_FIELD else [])
    field = draw(st.sampled_from(fields))
    if field in ("rho", "h"):
        how = draw(st.sampled_from(["31", "33", "bytearray", "str", "1-tuple", "count"]))
    elif field == "params":
        how = draw(st.sampled_from(["redundancy-4", "rank-1"]))
    else:
        how = draw(st.sampled_from(["int64", "int16", "longer", "shorter", "ntt", "q", "-1"]))
    return value, field, how, draw(st.integers(0, 2)), draw(st.integers(0, 2**20))


def _round_trip(value) -> None:
    """A value, or each trial of a batch, parses back from its own wire."""
    ring = get_ring(value.params)
    serialize, parse = CODEC[type(value)]
    wires = serialize(value, ring)
    batch = type(wires) is tuple
    seed = (SEED_FIELD[type(value)],) if type(value) in SEED_FIELD else ()
    for t, wire in enumerate(wires if batch else (wires,)):
        back = parse(wire, ring)
        assert back.params == value.params
        for field in RING_FIELDS[type(value)] + seed:
            want = getattr(value, field)
            if batch:
                want = want[t] if field in seed else RqArray(want.data[t], want.domain)
            assert getattr(back, field) == want


@settings(max_examples=150, deadline=None)
@given(mutant=_mutants())
def test_a_mutated_key_or_signature_round_trips_or_raises_codec_error(mutant):
    value, field, how, axis, at = mutant
    try:
        built = _mutate(value, field, how, axis, at)
    except CodecError:
        return
    _round_trip(built)


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(sorted(PARAM_VALUES)), data=st.data())
def test_a_mutated_param_set_round_trips_or_raises_param_error(field, data):
    value = data.draw(st.sampled_from(PARAM_VALUES[field]))
    try:
        params = dataclasses.replace(DEFAULT_PARAMS, **{field: value})
    except ParamError:
        return
    assert validate_params(params) == []
    pk, sk = keygen(bytes(32), params)
    # every set that builds has a wire, at bits_per_coeff bits per coefficient
    for value in (pk, sk, sign(sk, pk, b"one rule", bytes(32), params)):
        _round_trip(value)
