"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings. Criterion 5 is marked as a strict expected failure: the
decoder deliberately tolerates any coefficient perturbation below floor(q/4),
and the h binding covers only the decoded image of z2, so low-order bit flips
in z2/z3 verify by construction (see the companion test for the guarantees
that do hold). Next to it, rejection of a key-only forgery is a strict
expected failure too: both verification conditions are public and linear in
the signature, so the public key alone yields signatures that verify. So is
"z2 signing reads the secret key": the default signer never reads s, and a
zero-s key signs byte for byte like the real one.
"""

import hashlib
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mlds import (
    DEFAULT_PARAMS,
    LweInstance, primal_cost, dual_cost, key_sizes,
    keygen, sign, verify, measure_agreement, Z2_DERIVED, SECRET_DERIVED,
    serialize_sig, parse_sig,
    gen_a, gen_se, crh, CodecError, COEFF, RqArray,
)
from mlds.cli import main as cli_main
from mlds.codec import SecretKey, encode_bits, pk_bytes, sig_bytes, sk_bytes
from mlds.sampling import expand_signing_noise
from mlds.scheme import mu_payload_bits

from conftest import forge_key_only, random_poly
from ring_oracle import centered, mul, schoolbook_mul


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion} [{name}]: {status}{suffix}")
    assert ok, f"criterion {criterion}: {name}{suffix}"


@pytest.fixture(scope="module")
def z2_agreement_10k():
    return measure_agreement(10_000, policy=Z2_DERIVED, master_seed=b"\x03" * 32)


def test_criterion_1_ntt_oracle_equivalence(ring, rng):
    start = time.perf_counter()
    for _ in range(1000):
        a, b = random_poly(ring, rng), random_poly(ring, rng)
        if mul(ring, a, b) != schoolbook_mul(ring, a, b):
            report(1, "ntt oracle equivalence", False, "product mismatch")
        if ring.intt(ring.ntt(a)) != a:
            report(1, "ntt oracle equivalence", False, "roundtrip mismatch")
    elapsed = time.perf_counter() - start
    report(1, "ntt oracle equivalence", elapsed < 10.0,
           f"1000 products + roundtrips exact in {elapsed:.2f}s")


def test_criterion_2_correctness_identity(ring, rng):
    pk, sk = keygen(b"\x11" * 32)
    p_hat = ring.vec_ntt(pk.p_vec)
    bound = 2 * DEFAULT_PARAMS.eta
    for i in range(1000):
        msg = rng.bytes(48)
        coin = rng.bytes(32)
        sig = sign(sk, pk, msg, coin, policy=Z2_DERIVED)
        _, _, e3, e4 = expand_signing_noise(coin, ring)
        e34 = ring.add(e3, e4)
        w = ring.sub(
            ring.add(sig.z2, sig.z3),
            ring.intt(ring.inner_product(p_hat, ring.vec_ntt(sig.z1))),
        )
        payload = encode_bits(mu_payload_bits(crh(msg), DEFAULT_PARAMS), ring)
        if ring.sub(w, payload) != e34:
            report(2, "correctness identity", False, f"identity broke at signature {i}")
        if ring.infinity_norm(e34) > bound:
            report(2, "correctness identity", False, f"noise norm exceeded {bound}")
    report(2, "correctness identity", True,
           "1000 signatures: exact ring identity, ||e3+e4|| <= 32")


def test_criterion_3_mu_branch_completeness(z2_agreement_10k):
    rep = z2_agreement_10k
    report(3, "mu-branch completeness", rep.mu_failures == 0,
           f"{rep.trials} cycles, {rep.mu_failures} condition-(1) failures")


def test_agreement_max_noise_within_analytic_bound(z2_agreement_10k):
    # ||w - encode(mu)||_inf = ||e3 + e4||_inf <= 2 * eta, seen from public values
    rep = z2_agreement_10k
    assert 0 < rep.max_noise <= 2 * DEFAULT_PARAMS.eta


def test_criterion_4_end_to_end_acceptance(z2_agreement_10k):
    rep = z2_agreement_10k
    all_accept = rep.mu_failures == 0 and rep.h_failures == 0
    literal = measure_agreement(10_000, policy=SECRET_DERIVED, master_seed=b"\x04" * 32)
    lo, hi = literal.h_interval
    agree_lo, agree_hi = 1 - hi, 1 - lo
    detail = (
        f"z2 policy {rep.trials}/{rep.trials} accept; literal-policy h-agreement "
        f"{1 - literal.h_rate:.4f} [95% CI {agree_lo:.4f}, {agree_hi:.4f}] over "
        f"{literal.trials} trials -- measured; no failure-rate bound asserted"
    )
    report(4, "end-to-end acceptance", all_accept and literal.mu_failures == 0, detail)


def _tamper_outcomes(ring, trials_per_target: int):
    """Flip one random bit per trial in each target; count rejections."""
    rng = np.random.default_rng(0x5EED)
    pk, sk = keygen(b"\x22" * 32)
    msg = b"tamper target message"
    sig = sign(sk, pk, msg, b"\x33" * 32, policy=Z2_DERIVED)
    blob = serialize_sig(sig, ring)
    step = 448
    spans = {
        "z1": (6, 6 + 2 * step),
        "z2": (6 + 2 * step, 6 + 3 * step),
        "z3": (6 + 3 * step, 6 + 4 * step),
        "h": (len(blob) - 32, len(blob)),
    }
    rejects = {t: 0 for t in ["M", *spans]}
    for _ in range(trials_per_target):
        flipped = bytearray(msg)
        flipped[rng.integers(0, len(msg))] ^= 1 << rng.integers(0, 8)
        if not verify(pk, bytes(flipped), sig).ok:
            rejects["M"] += 1
        for target, (lo, hi) in spans.items():
            corrupt = bytearray(blob)
            corrupt[rng.integers(lo, hi)] ^= 1 << rng.integers(0, 8)
            try:
                bad = parse_sig(bytes(corrupt), ring)
            except CodecError:
                rejects[target] += 1  # range violations reject at parse
                continue
            if not verify(pk, msg, bad).ok:
                rejects[target] += 1
    return rejects


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="unattainable as stated: the decoder tolerates any perturbation below "
    "floor(q/4) (completeness depends on it) and the h check binds decode(z2) "
    "only, so low-order bit flips in z2/z3 verify by construction",
)
def test_criterion_5_tamper_rejection(ring):
    trials = 200
    rejects = _tamper_outcomes(ring, trials)
    detail = ", ".join(f"{t}: {r}/{trials} rejected" for t, r in rejects.items())
    report(5, "tamper rejection", all(r == trials for r in rejects.values()), detail)


def test_criterion_5_companion_actual_guarantees(ring):
    # what the scheme does guarantee: M, z1, h flips always reject; a z2/z3
    # flip is accepted only when both decoded images are untouched
    rng = np.random.default_rng(0xFEED)
    pk, sk = keygen(b"\x22" * 32)
    msg = b"tamper target message"
    sig = sign(sk, pk, msg, b"\x33" * 32, policy=Z2_DERIVED)
    blob = serialize_sig(sig, ring)
    mu_bits = mu_payload_bits(crh(msg), DEFAULT_PARAMS)
    from mlds.codec import decode_bits
    z2_image = decode_bits(sig.z2, ring)
    step = 448
    for _ in range(200):
        flipped = bytearray(msg)
        flipped[rng.integers(0, len(msg))] ^= 1 << rng.integers(0, 8)
        assert not verify(pk, bytes(flipped), sig).ok
        for lo, hi in ((6, 6 + 2 * step), (len(blob) - 32, len(blob))):  # z1, h
            corrupt = bytearray(blob)
            corrupt[rng.integers(lo, hi)] ^= 1 << rng.integers(0, 8)
            try:
                bad = parse_sig(bytes(corrupt), ring)
            except CodecError:
                continue
            assert not verify(pk, msg, bad).ok
        for lo, hi in ((6 + 2 * step, 6 + 3 * step), (6 + 3 * step, 6 + 4 * step)):  # z2, z3
            corrupt = bytearray(blob)
            corrupt[rng.integers(lo, hi)] ^= 1 << rng.integers(0, 8)
            try:
                bad = parse_sig(bytes(corrupt), ring)
            except CodecError:
                continue
            accepted = verify(pk, msg, bad).ok
            w = ring.sub(
                ring.add(bad.z2, bad.z3),
                ring.intt(ring.inner_product(ring.vec_ntt(pk.p_vec), ring.vec_ntt(bad.z1))),
            )
            harmless = (
                np.array_equal(decode_bits(w, ring), mu_bits)
                and np.array_equal(decode_bits(bad.z2, ring), z2_image)
            )
            assert accepted == harmless


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a key-only forgery verifies: conditions (1) and (2) are public and linear "
    "in (z1, z2, z3), and neither involves a short vector or a value only the signer "
    "can compute (README, 'Forgery, honestly')",
)
def test_verify_rejects_a_key_only_forgery(ring):
    rng = np.random.default_rng(0xF0F0)
    accepted = 0
    for t in range(20):
        pk, _ = keygen(bytes([t]) * 32)
        msg = rng.bytes(24)
        wire = serialize_sig(forge_key_only(pk, msg, ring, rng), ring)
        accepted += verify(pk, msg, parse_sig(wire, ring)).ok
    report(5, "key-only forgery rejection", accepted == 0, f"{accepted}/20 forgeries accepted")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the default z2 signer never reads sk.s: a z2 signature is a public function "
    "of (pk, message, r), so a zero-s key signs byte for byte like the real one "
    "(README, 'Forgery, honestly')",
)
def test_z2_signing_reads_the_secret_key(ring):
    rng = np.random.default_rng(0x5EC)
    identical = 0
    for t in range(20):
        pk, sk = keygen(bytes([0x40 + t]) * 32)
        zero_sk = SecretKey(RqArray(np.zeros_like(sk.s.data), COEFF), sk.params)
        msg, r = rng.bytes(24), rng.bytes(32)
        real = serialize_sig(sign(sk, pk, msg, r), ring)
        identical += serialize_sig(sign(zero_sk, pk, msg, r), ring) == real
    report(5, "z2 signing reads the secret key", identical == 0,
           f"{identical}/20 zero-key signatures equal the real key's")


def test_criterion_6_reference_sizes():
    sizes = key_sizes(DEFAULT_PARAMS)
    ok = (
        abs(sizes.pk_it - 901.5) <= 0.5
        and abs(sizes.sk_it - 869.5) <= 0.5
        and abs(sizes.sig_it - 1771) <= 0.5
    )
    report(6, "reference table sizes", ok,
           f"pk {sizes.pk_it:.2f} B, sk {sizes.sk_it:.2f} B, sig {sizes.sig_it:.2f} B")


def test_readme_sizes_match_the_code():
    # the README's wire-format table and its information-theoretic sizes line
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    wire = dict(re.findall(r"^\| (public key|secret key|signature) \|.*\| (\d+) B \|$", readme, re.M))
    p = DEFAULT_PARAMS
    assert wire == {"public key": str(pk_bytes(p)), "secret key": str(sk_bytes(p)),
                    "signature": str(sig_bytes(p))} == {"public key": "934", "secret key": "902",
                                                         "signature": "1830"}
    line = re.search(r"Information-theoretic sizes [^:]*: pk (\S+) B, sk (\S+) B, sig (\S+) B\.",
                     readme.replace("\n", " "))
    sizes = key_sizes(p)
    assert line and line.groups() == tuple(f"{x:.1f}" for x in (sizes.pk_it, sizes.sk_it, sizes.sig_it))


def test_criterion_7_reference_attack_costs():
    start = time.perf_counter()
    inst = LweInstance.from_binomial(n_lwe=1024, q=12289, eta=16, max_samples=2048)
    primal = primal_cost(inst)
    dual = dual_cost(inst)
    elapsed = time.perf_counter() - start
    ok = (
        abs(primal.b - 967) <= 2
        and abs(primal.classical_bits - 282) <= 1
        and abs(primal.quantum_bits - 256) <= 1
        and abs(dual.b - 962) <= 2
        and abs(dual.classical_bits - 281) <= 1
        and abs(dual.quantum_bits - 255) <= 1
        and elapsed < 60.0
    )
    report(7, "reference attack costs", ok,
           f"primal b={primal.b} {primal.classical_bits}/{primal.quantum_bits}, "
           f"dual b={dual.b} {dual.classical_bits}/{dual.quantum_bits}, "
           f"grid in {elapsed:.1f}s")


def test_criterion_8_sampler_statistics(ring):
    eta = DEFAULT_PARAMS.eta
    samples = []
    for block in range(16):
        seed = bytes([0x80 + block]) + bytes(31)
        for nonce in range(245):
            samples.append(centered(ring, gen_se(seed, range(nonce, nonce + 1), ring)))
    samples = np.concatenate(samples)  # ~1e6 draws
    var_ok = abs(samples.var() - eta / 2) <= 0.05 * (eta / 2)

    a = gen_a(bytes(32), ring)
    flat = np.concatenate([a.data[..., i, j, :] for i in range(ring.k) for j in range(ring.k)])
    buckets = np.bincount(flat * 16 // ring.q, minlength=16)
    width = np.array([np.count_nonzero(np.arange(ring.q) * 16 // ring.q == t) for t in range(16)])
    _, p_value = stats.chisquare(buckets, len(flat) * width / ring.q)

    se_det = gen_se(bytes(32), range(0, 1), ring) == gen_se(bytes(32), range(0, 1), ring)
    a2 = gen_a(bytes(32), ring)
    a_det = all(np.array_equal(a.data[..., i, j, :], a2.data[..., i, j, :])
                for i in range(ring.k) for j in range(ring.k))

    ok = var_ok and p_value > 0.001 and se_det and a_det
    report(8, "sampler statistics", ok,
           f"psi16 var {samples.var():.4f} (target 8 +- 5%), chi2 p {p_value:.4f}, "
           f"deterministic {se_det and a_det}")


def test_criterion_9_kat_stability():
    cmd = [sys.executable, "-m", "mlds.cli", "kat", "--count", "16",
           "--seed", "1f" * 32]
    first = subprocess.run(cmd, capture_output=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, check=True).stdout
    ok = first == second and len(first.splitlines()) == 16
    report(9, "kat stability", ok, "two independent runs byte-identical, 16 cases")


#: SHA-256 of the stdout of  mlds kat --count 16 --seed 1f...1f --policy <policy>.
KAT_SHA256 = {
    "literal": "a2e0b57b729155def0c3c68ddc12b4b9199e0290fe71755c871852404c8d58e5",
    "z2": "eb1bcb25c317abf89eca81d99d453311edec78d0247b6954e47e26021a28e929",
}


@pytest.mark.parametrize("policy", sorted(KAT_SHA256))
def test_criterion_9_kat_digest_pinned(policy):
    cmd = [sys.executable, "-m", "mlds.cli", "kat", "--count", "16",
           "--seed", "1f" * 32, "--policy", policy]
    digest = hashlib.sha256(subprocess.run(cmd, capture_output=True, check=True).stdout).hexdigest()
    report(9, f"kat digest, {policy} policy", digest == KAT_SHA256[policy], digest[:16])


#: SHA-256 of the wire bytes of record 0 of  mlds kat --count 1 --seed 1f...1f,
#: one digest per field, so that a failure names the field that changed. The
#: keys do not depend on the policy; the signature does.
KAT_RECORD0_KEY_SHA256 = {
    "pk": "e28dbd6cc5c3221f0abab690032d21a8e54777c7c707fc26e5e4e644b8629d42",
    "sk": "e509d7a48675d97229c570b970259c8219134ff1e7066c6169912ed3564b066f",
}
KAT_RECORD0_SIG_SHA256 = {
    "z2": "33be75c6de9a3359c194ade30cd18c908d0207b074bb9bf9d62c73582889ca56",
    "literal": "58d638ea4c977349ff5f3b32c9d7f17c235efcbe4fa268cc5042677a7d8b12c9",
}


@pytest.mark.parametrize("policy", sorted(KAT_RECORD0_SIG_SHA256))
def test_criterion_9_kat_record0_fields_pinned(policy, capsys):
    assert cli_main(["kat", "--count", "1", "--seed", "1f" * 32, "--policy", policy]) == 0
    fields = dict(token.split("=", 1) for token in capsys.readouterr().out.split()[2:])
    expected = {**KAT_RECORD0_KEY_SHA256, "sig": KAT_RECORD0_SIG_SHA256[policy]}
    for field, digest in expected.items():
        got = hashlib.sha256(bytes.fromhex(fields[field])).hexdigest()
        assert got == digest, f"record 0 {field} changed under the {policy} policy: {got}"
    assert fields["verdict"] == ("accept" if policy == "z2" else "reject")
