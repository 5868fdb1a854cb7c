"""Key generation, signing, verification, and the h-agreement harness.

All three operations are deterministic functions of their seed arguments.
Key generation:

    (rho, xi) = hash_h(zeta);  A_hat = gen_a(rho)
    s, e sampled with nonces 0..k-1 and k..2k-1
    P = intt(A_hat^T o ntt(s)) + e

The public key carries A_hat, expanded once from rho by ``keygen`` or by
``public_key`` (for ``codec.parse_pk``); signing reuses it.

Signing draws e1 (nonces 0..k-1), e2 (k..2k-1), e3 (2k), e4 (2k+1) from the
per-signature coin r and outputs

    z1 = intt(A_hat^T o ntt(e1)) + e2
    z2 = intt(<P_hat, ntt(e2)>) + e4
    z3 = intt(<A_hat o P_hat, ntt(e1)>) + e3 + encode(mu payload)
    h  = crh(mu || crh(decode-payload of X))

where X is either the signer-side value intt(<A_hat^T o ntt(s), ntt(e2)>)
("literal" h policy) or z2 itself ("z2" policy); the signer alone chooses. The
verifier recomputes mu = crh(M) and always checks decode(z2 + z3 - <P, z1>)
against the mu payload and h against crh(mu || crh(decode-payload of z2)).

z3 is computed as intt(<P_hat, A_hat^T o ntt(e1)>), reusing z1's product; in
the commutative ring sum_i (sum_j A_ij P_j) e1_i = sum_j P_j (sum_i A_ij e1_i).

A policy is one of the strings in ``POLICIES``. Under "z2" both checks pass
deterministically for honest signatures, so ``Z2_DERIVED`` is the default;
the paper-literal "literal" policy (``SECRET_DERIVED``) is asked for by name.
Under "literal" the signer's h preimage and the verifier's are
decodes of two noisy copies of a near-uniform ring element, so check (2)
passes at an empirical rate; ``measure_agreement`` reports it with a
confidence interval instead of asserting a bound.

The coin r must never repeat for the same key; callers own that contract.

One array core computes all three operations, for one trial or for a batch
of trials stacked along a leading axis (see "the array core" below).
``measure_agreement`` runs its cycles through it in chunks of
``AGREEMENT_CHUNK`` = 64 trials: the 19 transform calls of a z2 cycle then
each cover a whole chunk, and a 64-cycle call is one batched keygen, sign
and verify, which is what makes the agreement harness fast. The time and
peak memory of chunks of 16, 32 and 64 are recorded at ``AGREEMENT_CHUNK``.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .codec import bytes_to_bits, encode_bits, decode_bits, decode_payload
from .params import ParamSet, DEFAULT_PARAMS
from .ring import Ring, Poly, PolyVec, NttMatrix, get_ring
from .sampling import SEED_BYTES, _seed_batch, hash_h, crh, gen_a, gen_se, gen_se_vec


@dataclass(frozen=True, eq=False)
class PublicKey:
    """(rho, P) and A_hat = gen_a(rho); made by ``keygen`` or ``public_key``."""

    rho: bytes  # a tuple of seeds for a batch
    p_vec: PolyVec  # coefficient domain
    a_hat: NttMatrix = field(repr=False)


@dataclass(frozen=True, eq=False)
class SecretKey:
    s: PolyVec


@dataclass(frozen=True, eq=False)
class Signature:
    z1: PolyVec
    z2: Poly
    z3: Poly
    h: bytes  # a tuple of digests for a batch


#: The signer's h preimage: z2 itself, or the secret-side decode (the paper's).
Z2_DERIVED = "z2"
SECRET_DERIVED = "literal"
POLICIES = (Z2_DERIVED, SECRET_DERIVED)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None  # "parse" | "mu-mismatch" | "h-mismatch"

    def __bool__(self) -> bool:
        return self.ok


ACCEPT = VerifyResult(True)


def mu_payload_bits(mu, params: ParamSet) -> np.ndarray:
    """The digest bits carried by z3: all of mu, or its first n/4 bits.

    One digest gives (mu_bits,) bits; a sequence of digests (mu_bits,) per
    trial along a leading axis.
    """
    if isinstance(mu, (bytes, bytearray)):
        return bytes_to_bits(mu)[: params.mu_bits]
    digests = np.frombuffer(b"".join(mu), dtype=np.uint8).reshape(len(mu), -1)
    return np.unpackbits(digests, axis=-1, bitorder="little")[:, : params.mu_bits]


def expand_key_noise(xi, ring: Ring) -> tuple[PolyVec, PolyVec]:
    """(s, e) from the keygen seed(s); nonces 0..k-1 and k..2k-1."""
    return gen_se_vec(xi, 0, ring), gen_se_vec(xi, ring.k, ring)


def expand_signing_noise(r, ring: Ring) -> tuple[PolyVec, PolyVec, Poly, Poly]:
    """(e1, e2, e3, e4) from the signing coin(s); nonces 0..k-1, k..2k-1, 2k, 2k+1."""
    k = ring.k
    e1 = gen_se_vec(r, 0, ring)
    e2 = gen_se_vec(r, k, ring)
    e3 = gen_se(r, 2 * k, ring)
    e4 = gen_se(r, 2 * k + 1, ring)
    return e1, e2, e3, e4


# -- the array core ----------------------------------------------------------------
#
# ``_keygen_steps``, ``_sign_steps`` and ``_verify_steps`` are the whole of
# keygen, sign and verify. Their per-trial arguments (zeta; mu and r) are one
# byte string, or a sequence of them for a batch of trials; ring values (int32
# arrays, see ``mlds.ring``) then carry a leading trial axis (B, ...) and rho
# and h become tuples. Keys without a trial axis broadcast against a batch.
# The per-trial hashing is the only per-trial loop, and each step transforms
# the same polynomial slots as one trial does: one ntt/intt call per slot,
# over a (B, n) stack.
# ``keygen``, ``sign`` and ``verify`` run the steps on one trial without a
# trial axis (with a trial axis of length one, a sign measured ~6% slower on
# a 2-vCPU Xeon, from broadcasting and unwrapping); ``measure_agreement``
# runs them on chunks.


def _each(fn, items, *rows):
    """fn on one trial's values, or a tuple of fn over the trials of a batch."""
    if isinstance(items, (bytes, bytearray)):
        return fn(items, *rows)
    return tuple(map(fn, items, *rows))


def _keygen_steps(zeta, ring: Ring) -> tuple[PublicKey, SecretKey]:
    zetas, single = _seed_batch(zeta, "zeta")
    rho, xi = hash_h(zeta) if single else zip(*map(hash_h, zetas))
    a_hat = gen_a(rho, ring)
    s, e = expand_key_noise(xi, ring)
    p_vec = ring.add(ring.vec_intt(ring.matvec(a_hat, ring.vec_ntt(s))), e)
    return PublicKey(rho, p_vec, a_hat), SecretKey(s=s)


def _sign_steps(sk: SecretKey, pk: PublicKey, mu, r, ring: Ring, policy: str) -> Signature:
    if policy not in POLICIES:
        raise ValueError(f"unknown h policy {policy!r}, expected one of {POLICIES}")
    # On a chunk of trials every array is (B, ...), so each is dropped after
    # its last use: that keeps the literal policy's transforms from stacking
    # on all of them (cold-keys peak RSS 41.1 -> 40.5 MB at 64 trials).
    e1, e2, e3, e4 = expand_signing_noise(r, ring)
    ate1_hat = ring.matvec(pk.a_hat, ring.vec_ntt(e1))
    del e1
    e2_hat = ring.vec_ntt(e2)
    p_hat = ring.vec_ntt(pk.p_vec)

    z1 = ring.add(ring.vec_intt(ate1_hat), e2)
    z2 = ring.add(ring.intt(ring.inner_product(p_hat, e2_hat)), e4)
    payload = encode_bits(mu_payload_bits(mu, ring.params), ring)
    z3 = ring.add(ring.add(ring.intt(ring.inner_product(p_hat, ate1_hat)), e3), payload)
    del e2, e3, e4, payload, p_hat, ate1_hat

    if policy == Z2_DERIVED:
        h_src = z2
    else:
        # the signer's own A_hat^T o ntt(s), never a value kept from keygen
        ats_hat = ring.matvec(pk.a_hat, ring.vec_ntt(sk.s))
        h_src = ring.intt(ring.inner_product(ats_hat, e2_hat))
    return Signature(z1=z1, z2=z2, z3=z3, h=_each(_h_digest, mu, decode_payload(h_src, ring)))


def _h_digest(mu: bytes, payload: np.ndarray) -> bytes:
    """crh(mu || crh(payload)), payload one trial's decoded bytes."""
    return crh(mu + crh(payload))


def _values_valid(sig: Signature, trials: tuple, ring: Ring) -> np.ndarray:
    """Per trial: z1, z2, z3 are coefficient-domain int32 values in [0, q).

    A parsed signature has passed the range checks already; one built in
    memory has not. A negative int32 read as uint32 is >= q, so one unsigned
    maximum per trial checks both ends of the range for all three.
    """
    q, n, k = ring.q, ring.n, ring.k
    invalid = np.zeros(trials, dtype=bool)
    if (type(sig.z1) is not PolyVec or sig.z1.domain is not Poly
            or type(sig.z2) is not Poly or type(sig.z3) is not Poly):
        return invalid
    z1, z2, z3 = sig.z1.data, sig.z2.coeffs, sig.z3.coeffs
    if (z1.shape != trials + (k, n) or z2.shape != trials + (n,) or z3.shape != trials + (n,)
            or not z1.dtype == z2.dtype == z3.dtype == np.int32):
        return invalid
    values = np.concatenate((z1.reshape(trials + (k * n,)), z2, z3), axis=-1)
    return values.view(np.uint32).max(axis=-1) < q


def _verify_steps(pk: PublicKey, mu, sig: Signature, ring: Ring):
    """(reason, w) for one trial, or (reasons per trial, w) for a batch.

    A reason is None on accept. Each trial is decided in order: structure,
    the mu decode of w = z2 + z3 - intt(<P_hat, z1_hat>), then h recomputed
    from z2. w is None when no trial is structurally valid.
    """
    trials = () if isinstance(mu, (bytes, bytearray)) else (len(mu),)
    valid = _values_valid(sig, trials, ring)
    if not valid.any():
        return _each(lambda _: "parse", mu), None
    p_hat = ring.vec_ntt(pk.p_vec)
    z1_hat = ring.vec_ntt(sig.z1)
    w = ring.sub(ring.add(sig.z2, sig.z3), ring.intt(ring.inner_product(p_hat, z1_hat)))
    mu_ok = (decode_bits(w, ring) == mu_payload_bits(mu, ring.params)).all(axis=-1)

    def decide(mu_t, h_t, valid_t, mu_ok_t, payload_t):
        if not (valid_t and isinstance(h_t, bytes) and len(h_t) == SEED_BYTES):
            return "parse"
        if not mu_ok_t:
            return "mu-mismatch"
        if h_t != _h_digest(mu_t, payload_t):
            return "h-mismatch"
        return None

    return _each(decide, mu, sig.h, valid, mu_ok, decode_payload(sig.z2, ring)), w


def keygen(zeta: bytes, params: ParamSet = DEFAULT_PARAMS) -> tuple[PublicKey, SecretKey]:
    """Deterministic key pair from a 32-byte seed; any other length raises ValueError."""
    return _keygen_steps(zeta, get_ring(params))


def public_key(rho: bytes, p_vec: PolyVec, ring: Ring) -> PublicKey:
    """The public key (rho, P), with A_hat expanded from rho."""
    return PublicKey(rho, p_vec, gen_a(rho, ring))


def sign(
    sk: SecretKey,
    pk: PublicKey,
    message: bytes,
    r: bytes,
    params: ParamSet = DEFAULT_PARAMS,
    policy: str = Z2_DERIVED,
) -> Signature:
    """Sign ``message`` with the per-signature coin ``r`` (never reuse r).

    ``policy`` is one of ``POLICIES``; any other value raises ValueError.
    """
    return _sign_steps(sk, pk, crh(message), r, get_ring(params), policy)


def verify(
    pk: PublicKey,
    message: bytes,
    sig: Signature,
    params: ParamSet = DEFAULT_PARAMS,
    policy: str = Z2_DERIVED,
) -> VerifyResult:
    """Check (1) the mu branch and (2) the h binding; ``policy`` does not change
    the verdict and can go with the benchmark revision (ROADMAP item 1).
    """
    reason, _ = _verify_steps(pk, crh(message), sig, get_ring(params))
    return ACCEPT if reason is None else VerifyResult(False, reason)


# -- agreement measurement -----------------------------------------------------

def derive_case_seeds(master: bytes, index: int) -> tuple[bytes, bytes, bytes]:
    """Per-case (zeta, r, msg) material: SHAKE-256(master || u32le(index))."""
    buf = hashlib.shake_256(master + index.to_bytes(4, "little")).digest(3 * SEED_BYTES)
    return buf[:32], buf[32:64], buf[64:96]


WILSON_Z = 1.96  # two-sided 95% normal quantile


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for the failure rate."""
    z = WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class AgreementReport:
    """Failure counts over ``trials`` cycles, and the largest decode noise seen.

    ``max_noise`` is the maximum over trials of ||w - encode(mu)||_inf, from
    the verifier's public values; by the correctness identity it equals
    ||e3 + e4||_inf, analytically at most 2 * eta.
    """

    trials: int
    mu_failures: int
    h_failures: int
    max_noise: int

    @property
    def mu_rate(self) -> float:
        return self.mu_failures / self.trials

    @property
    def h_rate(self) -> float:
        return self.h_failures / self.trials

    @property
    def mu_interval(self) -> tuple[float, float]:
        return wilson_interval(self.mu_failures, self.trials)

    @property
    def h_interval(self) -> tuple[float, float]:
        return wilson_interval(self.h_failures, self.trials)


#: Trials per batch of ``measure_agreement``, set by measured time and peak
#: memory; at 64 a 64-cycle call is one batched keygen, sign and verify.
#: Cold-keys benchmark runs (10 s, 3 seeds, 2-vCPU Xeon, whole-block
#: ``gen_a`` and one-lookup binomial sampler) read the z2 cycle at 205-215
#: ref_us with peak RSS 39.5-39.6 MB at chunk 16, 188-196 and 40.0-40.1 MB
#: at 32, and 174-187 and 40.9-41.3 MB at 64; dropping ``_sign_steps``'
#: arrays after their last use then brought 64 to 40.5 MB. In-process (min
#: of 12 interleaved ``measure_agreement(64)`` calls, 3 processes) chunk 16
#: took 12-20% longer per cycle than 32 and 64, which tied.
AGREEMENT_CHUNK = 64


def measure_agreement(
    trials: int,
    params: ParamSet = DEFAULT_PARAMS,
    policy: str = Z2_DERIVED,
    master_seed: bytes | None = None,
) -> AgreementReport:
    """Run fresh keygen/sign/verify cycles; count the two failure modes separately.

    Cycle t uses ``derive_case_seeds(master_seed, t)``. The cycles run
    through the array core in chunks of ``AGREEMENT_CHUNK`` trials, each a
    batched keygen, sign and verify; the counts equal those of running the
    cycles one at a time. Sign and verify share each trial's mu = crh(msg).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if master_seed is None:
        master_seed = os.urandom(SEED_BYTES)
    ring = get_ring(params)
    reasons = []
    max_noise = 0
    for start in range(0, trials, AGREEMENT_CHUNK):
        cases = range(start, min(start + AGREEMENT_CHUNK, trials))
        zetas, rs, msgs = zip(*(derive_case_seeds(master_seed, t) for t in cases))
        mus = [crh(msg) for msg in msgs]
        pk, sk = _keygen_steps(zetas, ring)
        sig = _sign_steps(sk, pk, mus, rs, ring, policy)
        chunk_reasons, w = _verify_steps(pk, mus, sig, ring)
        reasons += chunk_reasons
        noise = ring.sub(w, encode_bits(mu_payload_bits(mus, params), ring))
        max_noise = max(max_noise, ring.infinity_norm(noise))
    return AgreementReport(trials=trials, mu_failures=reasons.count("mu-mismatch"),
                           h_failures=reasons.count("h-mismatch"), max_noise=max_noise)
