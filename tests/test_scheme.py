import pytest

from mlds import (
    DEFAULT_PARAMS, keygen, sign, verify, measure_agreement,
    SECRET_DERIVED, Z2_DERIVED, VerifyPolicy,
    serialize_sig, parse_sig, serialize_pk, parse_pk, serialize_sk, parse_sk,
    gen_a, crh,
)
from mlds.scheme import (
    Signature, expand_key_noise, expand_signing_noise, mu_payload_bits,
    derive_case_seeds, wilson_interval,
)
from mlds.sampling import hash_h
from mlds.codec import encode_bits


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


def test_keygen_noise_recomputable(ring, keypair):
    pk, sk = keypair
    _, xi = hash_h(ZETA)
    s, e = expand_key_noise(xi, ring)
    assert sk.s == s
    # P - intt(A^T o ntt(s)) equals e, a psi_16 sample
    a_hat = gen_a(pk.rho, ring)
    recomputed = ring.sub(
        pk.p_vec, ring.vec_intt(ring.matvec(a_hat, ring.vec_ntt(s), transpose=True))
    )
    assert recomputed == e
    assert ring.infinity_norm(recomputed) <= DEFAULT_PARAMS.eta


def test_secret_norm_bound(ring, keypair):
    _, sk = keypair
    assert ring.infinity_norm(sk.s) <= DEFAULT_PARAMS.eta


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
        assert ring.infinity_norm(ring.add(e3, e4)) <= 2 * DEFAULT_PARAMS.eta


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
            ring.matvec(a_hat, ring.vec_ntt(sk.s), transpose=True), ring.vec_ntt(e2)
        ))
        lhs = ring.sub(sig.z2, signer_value)
        rhs = e4
        for ei, e2i in zip(e, e2):
            rhs = ring.add(rhs, ring.schoolbook_mul(ei, e2i))
        assert lhs == rhs


def test_signature_wire_size(ring, z2_sig):
    assert len(serialize_sig(z2_sig, ring)) == 1830


# -- verification --------------------------------------------------------------------

def test_honest_verify_accepts(keypair, z2_sig):
    pk, _ = keypair
    result = verify(pk, MSG, z2_sig, policy=Z2_DERIVED)
    assert result.ok and result.reason is None
    assert bool(result)


def test_verify_after_serialization_roundtrip(ring, keypair, z2_sig):
    pk, sk = keypair
    pk2 = parse_pk(serialize_pk(pk, ring), ring)
    sig2 = parse_sig(serialize_sig(z2_sig, ring), ring)
    assert verify(pk2, MSG, sig2, policy=Z2_DERIVED).ok
    sk2 = parse_sk(serialize_sk(sk, ring), ring)
    sig3 = sign(sk2, pk2, MSG, COIN, policy=Z2_DERIVED)
    assert serialize_sig(sig3, ring) == serialize_sig(z2_sig, ring)


def test_message_flip_rejects_mu(keypair, z2_sig):
    pk, _ = keypair
    tampered = bytearray(MSG)
    tampered[0] ^= 0x01
    result = verify(pk, bytes(tampered), z2_sig, policy=Z2_DERIVED)
    assert not result.ok and result.reason == "mu-mismatch"


def test_zeroed_z3_rejects(ring, keypair, z2_sig):
    pk, _ = keypair
    broken = Signature(z1=z2_sig.z1, z2=z2_sig.z2, z3=ring.zero(), h=z2_sig.h)
    assert not verify(pk, MSG, broken, policy=Z2_DERIVED).ok


def test_h_flip_rejects_h(keypair, z2_sig):
    pk, _ = keypair
    h = bytearray(z2_sig.h)
    h[5] ^= 0x10
    broken = Signature(z1=z2_sig.z1, z2=z2_sig.z2, z3=z2_sig.z3, h=bytes(h))
    result = verify(pk, MSG, broken, policy=Z2_DERIVED)
    assert not result.ok and result.reason == "h-mismatch"
    # with the h check disabled the mu branch alone accepts
    relaxed = VerifyPolicy(h_source="z2", check_h=False)
    assert verify(pk, MSG, broken, policy=relaxed).ok


def test_structurally_invalid_signature_rejects_as_parse(ring, keypair, z2_sig):
    pk, _ = keypair
    broken = Signature(z1=z2_sig.z1, z2=z2_sig.z2, z3=z2_sig.z3, h=b"short")
    result = verify(pk, MSG, broken, policy=Z2_DERIVED)
    assert not result.ok and result.reason == "parse"


def test_literal_policy_signature_against_z2_check(keypair):
    # the literal-policy h binds the secret-side decode, which essentially
    # never matches the z2-side decode; the mu branch still holds
    pk, sk = keypair
    lit = sign(sk, pk, MSG, COIN, policy=SECRET_DERIVED)
    result = verify(pk, MSG, lit, policy=SECRET_DERIVED)
    if not result.ok:
        assert result.reason == "h-mismatch"
    relaxed = VerifyPolicy(h_source="secret", check_h=False)
    assert verify(pk, MSG, lit, policy=relaxed).ok


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        VerifyPolicy(h_source="both")


# -- measurement harness ----------------------------------------------------------------

def test_measure_agreement_validates_trials():
    with pytest.raises(ValueError):
        measure_agreement(0)


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
