import dataclasses

import numpy as np
import pytest

import mlds.sampling
import mlds.scheme
from mlds import (
    DEFAULT_PARAMS, keygen, sign, verify, measure_agreement,
    POLICIES, SECRET_DERIVED, Z2_DERIVED,
    serialize_sig, parse_sig, serialize_pk, parse_pk, serialize_sk, parse_sk,
    gen_a, crh, CodecError, VerifyResult,
)
from mlds import COEFF, ParamSet, RqArray, get_ring
from mlds.scheme import (
    AGREEMENT_CHUNK, SecretKey, Signature, mu_payload_bits, derive_case_seeds, run_cases,
    wilson_interval,
)
from mlds.sampling import expand_key_noise, expand_signing_noise, hash_h
from mlds.codec import encode_bits

from conftest import forge_key_only
from ring_oracle import infinity_norm, row, zero, schoolbook_mul


ZETA = bytes(range(32))
COIN = bytes.fromhex("aa" * 32)
MSG = b"sign me, please"


@pytest.fixture(scope="module")
def keypair():
    return keygen(ZETA)


@pytest.fixture(scope="module")
def z2_sig(keypair):
    pk, sk = keypair
    return sign(sk, pk, MSG, COIN, policy=Z2_DERIVED)


# -- keygen ------------------------------------------------------------------------

def test_keygen_deterministic(ring, keypair):
    pk, sk = keypair
    pk2, sk2 = keygen(ZETA)
    assert serialize_pk(pk, ring) == serialize_pk(pk2, ring)
    assert serialize_sk(sk, ring) == serialize_sk(sk2, ring)


@pytest.mark.parametrize("zeta", [b"", bytes(31), bytes(33), "00" * 32, 5, None])
def test_keygen_rejects_a_seed_not_32_bytes(zeta, keypair):
    # a seed that is not bytes-like, not iterable either, is a ValueError too
    with pytest.raises(ValueError, match="zeta must be exactly 32 bytes"):
        keygen(zeta)
    with pytest.raises(ValueError, match="zeta must be exactly 32 bytes"):
        keygen([ZETA, zeta])
    # a bad coin is reported under its own name, for one message or a batch
    pk, sk = keypair
    with pytest.raises(ValueError, match="^r must be exactly 32 bytes"):
        sign(sk, pk, MSG, zeta)
    with pytest.raises(ValueError, match="^r must be exactly 32 bytes"):
        sign(sk, pk, [MSG, MSG], [COIN, zeta])


def test_keygen_noise_recomputable(ring, keypair):
    pk, sk = keypair
    _, xi = hash_h(ZETA)
    s, e = expand_key_noise(xi, ring)
    assert sk.s == s
    # P - intt(A^T o ntt(s)) equals e, a psi_16 sample
    a_hat = gen_a(pk.rho, ring)
    recomputed = ring.sub(
        pk.p_vec, ring.vec_intt(ring.matvec(a_hat, ring.vec_ntt(s)))
    )
    assert recomputed == e
    assert infinity_norm(ring, recomputed) <= DEFAULT_PARAMS.eta


def test_secret_norm_bound(ring, keypair):
    _, sk = keypair
    assert infinity_norm(ring, sk.s) <= DEFAULT_PARAMS.eta


# -- signing ------------------------------------------------------------------------

def test_sign_deterministic(ring, keypair):
    pk, sk = keypair
    a = sign(sk, pk, MSG, COIN, policy=SECRET_DERIVED)
    b = sign(sk, pk, MSG, COIN, policy=SECRET_DERIVED)
    assert serialize_sig(a, ring) == serialize_sig(b, ring)


def test_policies_differ_only_in_h(ring, keypair, z2_sig):
    pk, sk = keypair
    lit = sign(sk, pk, MSG, COIN, policy=SECRET_DERIVED)
    assert lit.z1 == z2_sig.z1 and lit.z2 == z2_sig.z2 and lit.z3 == z2_sig.z3
    assert lit.h != z2_sig.h  # equality would need the two decodes to agree


def test_correctness_identity_exact(ring, keypair, rng):
    pk, sk = keypair
    for i in range(20):
        msg = rng.bytes(40)
        coin = rng.bytes(32)
        sig = sign(sk, pk, msg, coin, policy=Z2_DERIVED)
        _, _, e3, e4 = expand_signing_noise(coin, ring)
        w = ring.sub(
            ring.add(sig.z2, sig.z3),
            ring.intt(ring.inner_product(ring.vec_ntt(pk.p_vec), ring.vec_ntt(sig.z1))),
        )
        payload = encode_bits(mu_payload_bits(crh(msg), DEFAULT_PARAMS), ring)
        assert ring.sub(w, payload) == ring.add(e3, e4)
        assert infinity_norm(ring, ring.add(e3, e4)) <= 2 * DEFAULT_PARAMS.eta


def _decode_noise(pk, msg, sig, params):
    """||w - encode(mu payload)||_inf through the ring's own sub and norm, one trial."""
    ring = get_ring(params)
    w = ring.sub(ring.add(sig.z2, sig.z3),
                 ring.intt(ring.inner_product(ring.vec_ntt(pk.p_vec), ring.vec_ntt(sig.z1))))
    return infinity_norm(ring, ring.sub(w, encode_bits(mu_payload_bits(crh(msg), params), ring)))


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, ParamSet(redundancy=4)], ids=["r1", "r4"])
def test_verify_reports_the_decode_noise(params, rng):
    # an honest signature's noise is ||e3 + e4||_inf <= 2*eta under either policy; a
    # rejected one's is the ring's norm of w - encode(mu), here far above 2*eta
    ring = get_ring(params)
    pk, sk = keygen(ZETA, params)
    coins, msgs = [rng.bytes(32) for _ in range(6)], [rng.bytes(40) for _ in range(6)]
    sigs = [sign(sk, pk, msg, coin, params, POLICIES[t % 2])
            for t, (msg, coin) in enumerate(zip(msgs, coins))]
    for msg, coin, sig in zip(msgs, coins, sigs):
        _, _, e3, e4 = expand_signing_noise(coin, ring)
        verdict = verify(pk, msg, sig, params)
        assert verdict.noise == infinity_norm(ring, ring.add(e3, e4)) <= 2 * params.eta
        assert verdict.noise == _decode_noise(pk, msg, sig, params)
        other = verify(pk, msg + b"!", sig, params)
        assert other.reason == "mu-mismatch"
        assert other.noise == _decode_noise(pk, msg + b"!", sig, params) > 2 * params.eta
    batch = verify(pk, msgs, sign(sk, pk, msgs, coins, params), params)
    assert [v.noise for v in batch] == [verify(pk, m, s, params).noise for m, s in zip(msgs, sigs)]


def test_a_parse_verdict_has_no_noise(keypair, z2_sig):
    pk, sk = keypair
    assert verify(sk, MSG, z2_sig) == VerifyResult("parse", None)
    assert verify(pk, [MSG, MSG], z2_sig) == (VerifyResult("parse", None),) * 2


def test_a_verdict_is_ok_exactly_when_it_has_no_reason():
    # ok is read from the reason, not stored beside it, so the two cannot disagree
    assert [f.name for f in dataclasses.fields(VerifyResult)] == ["reason", "noise"]
    assert VerifyResult(None, 3).ok and bool(VerifyResult(None))
    for reason in ("parse", "mu-mismatch", "h-mismatch"):
        assert not VerifyResult(reason, 3).ok and not VerifyResult(reason)
    with pytest.raises(AttributeError):
        VerifyResult("parse").ok = True


@pytest.mark.parametrize("policy", POLICIES)
def test_measure_agreement_max_noise_at_256_cycles(policy):
    assert measure_agreement(256, DEFAULT_PARAMS, policy, bytes(32)).max_noise == 18


def test_z2_decomposition_exact(ring, keypair, rng):
    # z2 - intt(<A^T o ntt(s), ntt(e2)>) = <e, e2> + e4, with <,> expanded
    # coefficient-side through the schoolbook oracle
    pk, sk = keypair
    a_hat = gen_a(pk.rho, ring)
    _, e = expand_key_noise(hash_h(ZETA)[1], ring)
    for _ in range(5):
        coin = rng.bytes(32)
        sig = sign(sk, pk, MSG, coin, policy=Z2_DERIVED)
        _, e2, _, e4 = expand_signing_noise(coin, ring)
        signer_value = ring.intt(ring.inner_product(
            ring.matvec(a_hat, ring.vec_ntt(sk.s)), ring.vec_ntt(e2)
        ))
        lhs = ring.sub(sig.z2, signer_value)
        rhs = e4
        for i in range(ring.k):
            rhs = ring.add(rhs, schoolbook_mul(ring, row(e, i), row(e2, i)))
        assert lhs == rhs


def test_signature_wire_size(ring, z2_sig):
    assert len(serialize_sig(z2_sig, ring)) == 1830


# -- verification --------------------------------------------------------------------

def test_honest_verify_accepts(keypair, z2_sig):
    pk, _ = keypair
    result = verify(pk, MSG, z2_sig)
    assert result.ok and result.reason is None
    assert bool(result)


def test_n_512_redundancy_4_signs_and_verifies():
    # 512 coefficients carry the 128-bit payload four times over
    params = ParamSet(n=512, redundancy=4)
    pk, sk = keygen(ZETA, params)
    for policy in POLICIES:
        sig = sign(sk, pk, MSG, COIN, params, policy)
        assert sig.z2.data.shape == (1, 512)
        assert verify(pk, MSG, sig, params).reason in (None, "h-mismatch")
        assert verify(pk, MSG + b"!", sig, params).reason == "mu-mismatch"
    assert verify(pk, MSG, sign(sk, pk, MSG, COIN, params), params).ok


# -- values of one parameter set only ---------------------------------------------------
#
# Keys and signatures carry their ParamSet: sign refuses keys of another set
# than the one it signs under, and verify rejects as "parse" a signature or
# key of another set.

RANK_1 = ParamSet(k=1)
REDUNDANCY_4 = ParamSet(redundancy=4)


def test_sign_refuses_rank_1_keys_under_the_default_set():
    pk, sk = keygen(ZETA, RANK_1)
    with pytest.raises(ValueError, match="parameter set"):
        sign(sk, pk, MSG, COIN)
    assert verify(pk, MSG, sign(sk, pk, MSG, COIN, RANK_1), RANK_1).ok


def test_sign_refuses_redundancy_4_keys_when_params_is_omitted():
    # the sets differ only in redundancy, so every array has the default shapes
    pk, sk = keygen(ZETA, REDUNDANCY_4)
    with pytest.raises(ValueError, match="parameter set"):
        sign(sk, pk, MSG, COIN)
    sig = sign(sk, pk, MSG, COIN, REDUNDANCY_4)
    assert sig.params == REDUNDANCY_4 and verify(pk, MSG, sig, REDUNDANCY_4).ok
    assert verify(pk, MSG, sig).reason == "parse"


def test_sign_refuses_a_key_pair_of_two_sets(keypair):
    pk, sk = keypair
    pk_r4, sk_r4 = keygen(ZETA, REDUNDANCY_4)
    for pair in ((sk, pk_r4), (sk_r4, pk)):
        for params in (DEFAULT_PARAMS, REDUNDANCY_4):
            with pytest.raises(ValueError, match="parameter set"):
                sign(*pair, MSG, COIN, params)


def test_sign_refuses_keys_of_the_wrong_type(keypair):
    # z2 signing never reads sk.s, so only the type check stops a public key used as sk
    pk, sk = keypair
    for pair in ((pk, pk), (sk, sk), (pk, sk), (None, pk), (sk, b"x")):
        with pytest.raises(ValueError, match="a SecretKey and pk a PublicKey"):
            sign(*pair, MSG, COIN)


def test_verify_rejects_a_key_that_is_not_a_public_key_as_parse(keypair, z2_sig):
    _, sk = keypair
    for key in (sk, None, b"x"):
        result = verify(key, MSG, z2_sig)
        assert not result.ok and result.reason == "parse"


def test_verify_rejects_a_signature_of_another_rank_as_parse(keypair, z2_sig):
    pk, _ = keypair
    pk_1, sk_1 = keygen(ZETA, RANK_1)
    sig_1 = sign(sk_1, pk_1, MSG, COIN, RANK_1)
    for args in ((pk_1, MSG, z2_sig), (pk_1, MSG, z2_sig, RANK_1), (pk, MSG, sig_1),
                 (pk, MSG, sig_1, RANK_1), (pk_1, MSG, sig_1)):
        assert verify(*args).reason == "parse"
    assert verify(pk, MSG, z2_sig).ok and verify(pk_1, MSG, sig_1, RANK_1).ok


def test_verify_after_serialization_roundtrip(ring, keypair, z2_sig):
    pk, sk = keypair
    pk2 = parse_pk(serialize_pk(pk, ring), ring)
    sig2 = parse_sig(serialize_sig(z2_sig, ring), ring)
    assert verify(pk2, MSG, sig2).ok
    sk2 = parse_sk(serialize_sk(sk, ring), ring)
    sig3 = sign(sk2, pk2, MSG, COIN, policy=Z2_DERIVED)
    assert serialize_sig(sig3, ring) == serialize_sig(z2_sig, ring)


def test_message_flip_rejects_mu(keypair, z2_sig):
    pk, _ = keypair
    tampered = bytearray(MSG)
    tampered[0] ^= 0x01
    result = verify(pk, bytes(tampered), z2_sig)
    assert not result.ok and result.reason == "mu-mismatch"


def test_zeroed_z3_rejects(ring, keypair, z2_sig):
    pk, _ = keypair
    z = z2_sig.z.data.copy()
    z[-1] = zero(ring).data
    broken = Signature(z=RqArray(z, COEFF), h=z2_sig.h, params=ring.params)
    assert not verify(pk, MSG, broken).ok


def test_h_flip_rejects_h(ring, keypair, z2_sig):
    pk, _ = keypair
    h = bytearray(z2_sig.h)
    h[5] ^= 0x10
    broken = Signature(z=z2_sig.z, h=bytes(h), params=ring.params)
    result = verify(pk, MSG, broken)
    # verify decides mu before h, so an h-mismatch shows the mu branch passed
    assert not result.ok and result.reason == "h-mismatch"


def test_structurally_invalid_signature_rejects_as_parse(ring, keypair, z2_sig):
    # a short h cannot be built; a well-formed batch, or one value that is not
    # a Signature, reaches verify and is rejected as "parse"
    pk, _ = keypair
    with pytest.raises(CodecError, match="signature"):
        Signature(z=z2_sig.z, h=b"short", params=ring.params)
    batch = Signature(RqArray(z2_sig.z.data[None], COEFF), (z2_sig.h,), ring.params)
    for sig in (batch, serialize_sig(z2_sig, ring), None):
        result = verify(pk, MSG, sig)
        assert not result.ok and result.reason == "parse"


@pytest.mark.parametrize("part", ["z1", "z2", "z3"])
@pytest.mark.parametrize("bad_value", [-1, DEFAULT_PARAMS.q])
def test_in_memory_out_of_range_coefficient_rejects_as_parse(ring, z2_sig, part, bad_value):
    # built in memory, so no parser has range-checked it: building refuses it,
    # so verify never meets it
    z = z2_sig.z.data.copy()
    z[{"z1": slice(-2), "z2": slice(-2, -1), "z3": slice(-1, None)}[part], 7] = bad_value
    assert z.dtype == np.int32  # -1 is a negative int32 entry
    with pytest.raises(CodecError, match="signature"):
        Signature(z=RqArray(z, COEFF), h=z2_sig.h, params=ring.params)


@pytest.mark.parametrize("z1", ["poly", "ndarray"])
def test_in_memory_z1_not_a_vector_rejects_as_parse(ring, z2_sig, z1):
    # z1 one row, or z a bare array, is malformed, refused when built
    z = z2_sig.z.data
    bad = RqArray(np.concatenate((z[:1], z[-2:])), COEFF) if z1 == "poly" else z
    with pytest.raises(CodecError, match="signature"):
        Signature(z=bad, h=z2_sig.h, params=ring.params)


def test_in_memory_int64_signature_rejects_as_parse(ring, z2_sig):
    # the same in-range values, but not in the int32 the ring computes in
    with pytest.raises(CodecError, match="signature"):
        Signature(z=RqArray(z2_sig.z.data.astype(np.int64), COEFF), h=z2_sig.h, params=ring.params)


def test_every_ring_value_is_int32(ring, keypair, z2_sig):
    pk, sk = keypair
    parsed_pk = parse_pk(serialize_pk(pk, ring), ring)
    parsed_sig = parse_sig(serialize_sig(z2_sig, ring), ring)
    payload = encode_bits(mu_payload_bits(crh(MSG), DEFAULT_PARAMS), ring)
    arrays = [pk.p_vec.data, pk.a_hat.data, sk.s.data, parsed_pk.p_vec.data, parsed_pk.a_hat.data,
              payload.data]
    for sig in (z2_sig, parsed_sig):
        arrays += [sig.z.data, sig.z1.data, sig.z2.data, sig.z3.data]
    assert [a.dtype for a in arrays] == [np.int32] * len(arrays)


def test_literal_policy_signature_against_z2_check(keypair):
    # the literal-policy h binds the secret-side decode, which essentially
    # never matches the z2-side decode (for this signature it does not, see
    # test_policies_differ_only_in_h); the mu branch still holds, and verify
    # decides mu before h
    pk, sk = keypair
    lit = sign(sk, pk, MSG, COIN, policy=SECRET_DERIVED)
    result = verify(pk, MSG, lit)
    assert not result.ok and result.reason == "h-mismatch"


@pytest.mark.parametrize("signer", [Z2_DERIVED, SECRET_DERIVED], ids=["z2", "literal"])
def test_verdict_does_not_depend_on_the_policy(keypair, signer):
    # verification is one rule: a policy only picks the signer's h preimage
    pk, sk = keypair
    flipped = bytes([MSG[0] ^ 0x01]) + MSG[1:]
    verdicts = set()
    for coin in (COIN, bytes(32), b"\x5a" * 32, b"\xc3" * 32):
        sig = sign(sk, pk, MSG, coin, policy=signer)
        for msg in (MSG, flipped):
            results = [verify(pk, msg, sig, policy=p) for p in (Z2_DERIVED, SECRET_DERIVED)]
            results.append(verify(pk, msg, sig))
            assert len({(r.ok, r.reason) for r in results}) == 1
            verdicts.add((msg == MSG, results[0].reason))
    if signer is Z2_DERIVED:
        assert verdicts == {(True, None), (False, "mu-mismatch")}
    else:
        assert (True, "h-mismatch") in verdicts and (False, "mu-mismatch") in verdicts


def test_policies_are_the_two_names():
    assert POLICIES == (Z2_DERIVED, SECRET_DERIVED) == ("z2", "literal")


def test_unknown_policy_rejected(keypair):
    pk, sk = keypair
    for policy in ("both", "secret", "Z2", None):
        with pytest.raises(ValueError, match="unknown h policy"):
            sign(sk, pk, MSG, COIN, policy=policy)
        with pytest.raises(ValueError, match="unknown h policy"):
            measure_agreement(1, policy=policy)


def test_one_noise_draw_per_keygen_and_per_sign(monkeypatch):
    # keygen draws s, e and sign e1..e4 with one gen_se call over a nonce range;
    # gen_se_vec is never called, from mlds.scheme or through mlds.sampling
    calls = []
    draw = mlds.sampling.gen_se

    def counted(seed, nonce, ring):
        calls.append((1 if isinstance(seed, (bytes, bytearray)) else len(seed), nonce))
        return draw(seed, nonce, ring)

    def refused(*args):
        raise AssertionError("gen_se_vec called")

    monkeypatch.setattr(mlds.sampling, "gen_se", counted)
    monkeypatch.setattr(mlds.scheme, "gen_se_vec", refused, raising=False)
    monkeypatch.setattr(mlds.sampling, "gen_se_vec", refused)
    k = DEFAULT_PARAMS.k
    pk, sk = keygen(ZETA)
    assert calls == [(1, range(2 * k))]
    sign(sk, pk, MSG, COIN)
    sign(sk, pk, MSG, COIN, policy=SECRET_DERIVED)
    assert calls[1:] == [(1, range(2 * k + 2))] * 2
    calls.clear()
    measure_agreement(AGREEMENT_CHUNK, master_seed=bytes(32))  # one batched keygen and sign
    assert calls == [(AGREEMENT_CHUNK, range(2 * k)), (AGREEMENT_CHUNK, range(2 * k + 2))]


# -- measurement harness ----------------------------------------------------------------

def test_measure_agreement_validates_trials():
    for trials in (0, -1, True, 2.0, "2"):
        with pytest.raises(ValueError, match="trials"):
            measure_agreement(trials, DEFAULT_PARAMS, Z2_DERIVED, bytes(32))
    # 1 byte, 33 bytes, a seed in a list, an int, a hex string
    for seed in (b"x", bytes(33), [bytes(32)], 5, "00" * 32):
        with pytest.raises(ValueError, match="master_seed"):
            measure_agreement(1, DEFAULT_PARAMS, Z2_DERIVED, seed)
        with pytest.raises(ValueError, match="master_seed"):  # before any case runs
            next(run_cases(seed, 1))


@pytest.mark.parametrize("count", [-3, 0, True, 2.5])
def test_run_cases_validates_count(count):
    with pytest.raises(ValueError, match="count"):  # before any case runs
        next(run_cases(bytes(32), count))


def test_run_cases_takes_a_bytes_like_master_seed():
    seed = bytes(range(32))
    first = [cases for cases, *_ in run_cases(seed, 2)]
    assert [cases for cases, *_ in run_cases(memoryview(bytearray(seed)), 2)] == first


def test_measure_agreement_z2_policy_all_accept():
    report = measure_agreement(50, policy=Z2_DERIVED, master_seed=bytes(32))
    assert report.trials == 50
    assert report.mu_failures == 0
    assert report.h_failures == 0
    lo, hi = report.h_interval
    assert lo == 0.0 and hi < 0.1


def test_measure_agreement_literal_policy_reports():
    report = measure_agreement(50, policy=SECRET_DERIVED, master_seed=bytes(32))
    assert report.mu_failures == 0  # condition (1) never fails
    assert 0 <= report.h_failures <= 50
    lo, hi = report.h_interval
    assert 0.0 <= lo <= report.h_rate <= hi <= 1.0


def test_measure_agreement_deterministic_given_seed():
    a = measure_agreement(20, policy=SECRET_DERIVED, master_seed=b"\x07" * 32)
    b = measure_agreement(20, policy=SECRET_DERIVED, master_seed=b"\x07" * 32)
    assert (a.mu_failures, a.h_failures) == (b.mu_failures, b.h_failures)


def reference_measure_agreement(trials, params, policy, master_seed):
    """One keygen/sign/verify cycle at a time: (reasons per trial, max ||e3 + e4||_inf)."""
    ring = get_ring(params)
    reasons = []
    max_noise = 0
    for t in range(trials):
        zeta, r, msg = derive_case_seeds(master_seed, t)
        pk, sk = keygen(zeta, params)
        sig = sign(sk, pk, msg, r, params, policy)
        reasons.append(verify(pk, msg, sig, params).reason)
        _, _, e3, e4 = expand_signing_noise(r, ring)
        max_noise = max(max_noise, infinity_norm(ring, ring.add(e3, e4)))
    return reasons, max_noise


@pytest.mark.parametrize("master_seed", [b"\x03" * 32, b"\x04" * 32, b"\x5a" * 32])
@pytest.mark.parametrize("policy", [Z2_DERIVED, SECRET_DERIVED], ids=["z2", "literal"])
def test_measure_agreement_matches_per_cycle_loop(policy, master_seed):
    c = AGREEMENT_CHUNK
    longest = 3 * c + 5
    reasons, noise = reference_measure_agreement(longest, DEFAULT_PARAMS, policy, master_seed)
    # cycle t depends only on (master_seed, t), so a shorter run is a prefix
    for trials in (1, c - 1, c, c + 1, longest):
        report = measure_agreement(trials, DEFAULT_PARAMS, policy, master_seed)
        prefix = reasons[:trials]
        assert (report.trials, report.mu_failures, report.h_failures) == (
            trials, prefix.count("mu-mismatch"), prefix.count("h-mismatch"))
    # the verifier's public ||w - encode(mu)||_inf is the signer's ||e3 + e4||_inf
    assert report.max_noise == noise


@pytest.mark.parametrize("policy", [Z2_DERIVED, SECRET_DERIVED], ids=["z2", "literal"])
def test_batched_core_matches_single_calls(policy):
    cases = [derive_case_seeds(b"\x06" * 32, t) for t in range(AGREEMENT_CHUNK + 3)]
    zetas, coins, msgs = zip(*cases)
    pks, sks = keygen(zetas)
    sigs = sign(sks, pks, msgs, coins, policy=policy)
    verdicts = verify(pks, msgs, sigs)
    for t, (zeta, coin, msg) in enumerate(cases):
        pk, sk = keygen(zeta)
        assert pks.rho[t] == pk.rho
        assert np.array_equal(pks.p_vec.data[t], pk.p_vec.data)
        assert np.array_equal(pks.a_hat.data[t], pk.a_hat.data)
        assert np.array_equal(sks.s.data[t], sk.s.data)
        sig = sign(sk, pk, msg, coin, policy=policy)
        assert np.array_equal(sigs.z.data[t], sig.z.data)
        assert sigs.h[t] == sig.h
        assert verdicts[t] == verify(pk, msg, sig)


def _stack(sigs):
    """One batch Signature of single-trial signatures, in order."""
    return Signature(RqArray(np.stack([sig.z.data for sig in sigs]), COEFF),
                     tuple(sig.h for sig in sigs), DEFAULT_PARAMS)


def _tampered(sig, where):
    """sig with bits of one h byte flipped, or one z3 coefficient shifted by floor(q/2)."""
    z, h = sig.z.data.copy(), bytearray(sig.h)
    if where == "h":
        h[5] ^= 0x10
    else:
        z[-1, 7] = (z[-1, 7] + DEFAULT_PARAMS.half_q) % DEFAULT_PARAMS.q
    return Signature(RqArray(z, COEFF), bytes(h), DEFAULT_PARAMS)


@pytest.mark.parametrize("keys", ["one-pk", "batch-of-keys"])
def test_batch_verify_matches_single_calls(ring, keys):
    # honest, wrong message, flipped h byte, shifted z3 coefficient, zero-key
    # signature and key-only forgery, under one key or under one key per trial
    zetas, coins, msgs = map(list, zip(*(derive_case_seeds(b"\x07" * 32, t) for t in range(6))))
    if keys == "one-pk":
        zetas = [zetas[0]] * len(zetas)
    pairs = [keygen(zeta) for zeta in zetas]
    sigs = [sign(sk, pk, msg, coin) for (pk, sk), msg, coin in zip(pairs, msgs, coins)]
    msgs[1] = bytes([msgs[1][0] ^ 0x01]) + msgs[1][1:]
    sigs[2], sigs[3] = _tampered(sigs[2], "h"), _tampered(sigs[3], "z3")
    zero_sk = SecretKey(RqArray(np.zeros_like(pairs[4][1].s.data), COEFF), DEFAULT_PARAMS)
    sigs[4] = sign(zero_sk, pairs[4][0], msgs[4], coins[4])
    sigs[5] = forge_key_only(pairs[5][0], msgs[5], ring, np.random.default_rng(5))
    singles = tuple(verify(pk, msg, sig) for (pk, _), msg, sig in zip(pairs, msgs, sigs))
    assert [v.reason for v in singles] == [None, "mu-mismatch", "h-mismatch", "mu-mismatch", None, None]
    batch_pk, _ = keygen(zetas[0] if keys == "one-pk" else zetas)
    assert verify(batch_pk, msgs, _stack(sigs)) == singles


def test_batch_arguments_of_other_lengths_are_refused(keypair):
    pk, sk = keypair
    pks, sks = keygen([ZETA, COIN, bytes(32)])
    for args, name in (((sk, pk, [MSG, MSG], [COIN]), "r"), ((sk, pk, [MSG], COIN), "r"),
                       ((sk, pk, MSG, [COIN]), "r"), ((sks, pk, [MSG, MSG], [COIN, COIN]), "sk"),
                       ((sk, pks, [MSG, MSG], [COIN, COIN]), "pk"), ((sks, pks, MSG, COIN), "sk")):
        with pytest.raises(ValueError, match=f"^{name} must be one"):
            sign(*args)
    sigs = sign(sks, pks, [MSG, b"b", b"c"], [COIN, COIN, COIN])
    assert [v.ok for v in verify(pks, [MSG, b"b", b"c"], sigs)] == [True] * 3
    parse = VerifyResult("parse")
    assert verify(pks, [MSG, b"b"], sigs) == (parse, parse)
    assert verify(pk, [MSG, b"b"], sigs) == (parse, parse)
    assert verify(pks, MSG, sigs) == parse
    assert verify(pk, [MSG], sign(sk, pk, MSG, COIN)) == (parse,)
    two = sign(sk, pk, [MSG, b"b"], [COIN, COIN])
    assert verify(pks, [MSG, b"b"], two) == (parse, parse)  # three keys, two trials


def test_a_memoryview_message_signs_and_verifies(ring, keypair, z2_sig):
    pk, sk = keypair
    view = memoryview(bytearray(MSG))
    assert serialize_sig(sign(sk, pk, view, COIN), ring) == serialize_sig(z2_sig, ring)
    # a bytes-like coin signs like its bytes, as a bytes-like message does
    assert serialize_sig(sign(sk, pk, MSG, memoryview(COIN)), ring) == serialize_sig(z2_sig, ring)
    assert serialize_sig(sign(sk, pk, [MSG], [bytearray(COIN)]), ring) == (serialize_sig(z2_sig, ring),)
    assert verify(pk, view, z2_sig).ok
    batch = sign(sk, pk, [view, bytearray(MSG)], [COIN, bytes(32)])
    assert batch.h[0] == z2_sig.h
    assert [v.ok for v in verify(pk, (view, MSG), batch)] == [True, True]


def test_derive_case_seeds_stable():
    z1, r1, m1 = derive_case_seeds(bytes(32), 0)
    z2_, r2, m2 = derive_case_seeds(bytes(32), 1)
    assert len(z1) == len(r1) == len(m1) == 32
    assert (z1, r1, m1) != (z2_, r2, m2)
    assert derive_case_seeds(bytes(32), 0) == (z1, r1, m1)


def test_wilson_interval_sane():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi > 0.999
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
