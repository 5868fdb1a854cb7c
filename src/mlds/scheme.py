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
("secret" h policy) or z2 itself ("z2" policy). The verifier recomputes
mu = crh(M), checks decode(z2 + z3 - <P, z1>) against the mu payload, and,
when enabled, checks h against crh(mu || crh(decode-payload of z2)).

z3 is computed as intt(<P_hat, A_hat^T o ntt(e1)>), reusing z1's product; in
the commutative ring sum_i (sum_j A_ij P_j) e1_i = sum_j P_j (sum_i A_ij e1_i).

Under the "z2" policy both checks pass deterministically for honest
signatures, so ``Z2_DERIVED`` is the default; the paper-literal "secret"
policy (``SECRET_DERIVED``, the CLI's ``literal``) is asked for by name.
Under the "secret" policy the two h preimages are decodes of two noisy
copies of a near-uniform ring element, so their agreement is an empirical
quantity; ``measure_agreement`` reports it with a confidence interval
instead of asserting a bound.

The coin r must never repeat for the same key; callers own that contract.
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
from .sampling import SEED_BYTES, hash_h, crh, gen_a, gen_se, gen_se_vec


@dataclass(frozen=True, eq=False)
class PublicKey:
    """(rho, P) and A_hat = gen_a(rho); made by ``keygen`` or ``public_key``."""

    rho: bytes
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
    h: bytes


@dataclass(frozen=True)
class VerifyPolicy:
    """h_source selects the signer's h preimage; check_h gates condition (2)."""

    h_source: str = "z2"  # "z2" | "secret"
    check_h: bool = True

    def __post_init__(self):
        if self.h_source not in ("secret", "z2"):
            raise ValueError(f"unknown h_source {self.h_source!r}")


SECRET_DERIVED = VerifyPolicy(h_source="secret", check_h=True)
Z2_DERIVED = VerifyPolicy(h_source="z2", check_h=True)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None  # "parse" | "mu-mismatch" | "h-mismatch"

    def __bool__(self) -> bool:
        return self.ok


ACCEPT = VerifyResult(True)


def mu_payload_bits(mu: bytes, params: ParamSet) -> np.ndarray:
    """The digest bits carried by z3: all of mu, or its first n/4 bits."""
    return bytes_to_bits(mu)[: params.mu_bits]


def expand_key_noise(xi: bytes, ring: Ring) -> tuple[PolyVec, PolyVec]:
    """(s, e) from the keygen seed; nonces 0..k-1 and k..2k-1."""
    return gen_se_vec(xi, 0, ring), gen_se_vec(xi, ring.k, ring)


def expand_signing_noise(r: bytes, ring: Ring) -> tuple[PolyVec, PolyVec, Poly, Poly]:
    """(e1, e2, e3, e4) from the signing coin; nonces 0..k-1, k..2k-1, 2k, 2k+1."""
    k = ring.k
    e1 = gen_se_vec(r, 0, ring)
    e2 = gen_se_vec(r, k, ring)
    e3 = gen_se(r, 2 * k, ring)
    e4 = gen_se(r, 2 * k + 1, ring)
    return e1, e2, e3, e4


def keygen(zeta: bytes, params: ParamSet = DEFAULT_PARAMS) -> tuple[PublicKey, SecretKey]:
    """Deterministic key pair from a 32-byte seed."""
    ring = get_ring(params)
    rho, xi = hash_h(zeta)
    a_hat = gen_a(rho, ring)
    s, e = expand_key_noise(xi, ring)
    p_vec = ring.add(ring.vec_intt(ring.matvec(a_hat, ring.vec_ntt(s), transpose=True)), e)
    return PublicKey(rho, p_vec, a_hat), SecretKey(s=s)


def public_key(rho: bytes, p_vec: PolyVec, ring: Ring) -> PublicKey:
    """The public key (rho, P), with A_hat expanded from rho."""
    return PublicKey(rho, p_vec, gen_a(rho, ring))


def _h_digest(mu: bytes, source: Poly, ring: Ring) -> bytes:
    return crh(mu + crh(decode_payload(source, ring)))


def sign(
    sk: SecretKey,
    pk: PublicKey,
    message: bytes,
    r: bytes,
    params: ParamSet = DEFAULT_PARAMS,
    policy: VerifyPolicy = Z2_DERIVED,
) -> Signature:
    """Sign ``message`` with the per-signature coin ``r`` (never reuse r)."""
    ring = get_ring(params)
    mu = crh(message)
    e1, e2, e3, e4 = expand_signing_noise(r, ring)

    e1_hat = ring.vec_ntt(e1)
    e2_hat = ring.vec_ntt(e2)
    p_hat = ring.vec_ntt(pk.p_vec)

    ate1_hat = ring.matvec(pk.a_hat, e1_hat, transpose=True)
    z1 = ring.add(ring.vec_intt(ate1_hat), e2)
    z2 = ring.add(ring.intt(ring.inner_product(p_hat, e2_hat)), e4)
    payload = encode_bits(mu_payload_bits(mu, params), ring)
    z3 = ring.add(ring.add(ring.intt(ring.inner_product(p_hat, ate1_hat)), e3), payload)

    if policy.h_source == "z2":
        h_src = z2
    else:
        ats_hat = ring.matvec(pk.a_hat, ring.vec_ntt(sk.s), transpose=True)
        h_src = ring.intt(ring.inner_product(ats_hat, e2_hat))
    return Signature(z1=z1, z2=z2, z3=z3, h=_h_digest(mu, h_src, ring))


def _structurally_valid(sig: Signature, ring: Ring) -> bool:
    q, n, k = ring.q, ring.n, ring.k
    if sig.z1.domain is not Poly or sig.z1.data.shape != (k, n):
        return False
    if sig.z2.coeffs.shape != (n,) or sig.z3.coeffs.shape != (n,):
        return False
    if any(c.min() < 0 or c.max() >= q for c in (sig.z1.data, sig.z2.coeffs, sig.z3.coeffs)):
        return False
    return isinstance(sig.h, bytes) and len(sig.h) == SEED_BYTES


def verify(
    pk: PublicKey,
    message: bytes,
    sig: Signature,
    params: ParamSet = DEFAULT_PARAMS,
    policy: VerifyPolicy = Z2_DERIVED,
) -> VerifyResult:
    """Check conditions (1) mu branch and, per policy, (2) the h binding."""
    ring = get_ring(params)
    if not _structurally_valid(sig, ring):
        return VerifyResult(False, "parse")
    mu = crh(message)
    p_hat = ring.vec_ntt(pk.p_vec)
    z1_hat = ring.vec_ntt(sig.z1)
    w = ring.sub(ring.add(sig.z2, sig.z3), ring.intt(ring.inner_product(p_hat, z1_hat)))
    if not np.array_equal(decode_bits(w, ring), mu_payload_bits(mu, params)):
        return VerifyResult(False, "mu-mismatch")
    if policy.check_h and sig.h != _h_digest(mu, sig.z2, ring):
        return VerifyResult(False, "h-mismatch")
    return ACCEPT


# -- agreement measurement -----------------------------------------------------

def derive_case_seeds(master: bytes, index: int) -> tuple[bytes, bytes, bytes]:
    """Per-case (zeta, r, msg) material: SHAKE-256(master || u32le(index))."""
    buf = hashlib.shake_256(master + index.to_bytes(4, "little")).digest(3 * SEED_BYTES)
    return buf[:32], buf[32:64], buf[64:96]


def wilson_interval(failures: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for the failure rate."""
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class AgreementReport:
    trials: int
    mu_failures: int
    h_failures: int

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


def measure_agreement(
    trials: int,
    params: ParamSet = DEFAULT_PARAMS,
    policy: VerifyPolicy = Z2_DERIVED,
    master_seed: bytes | None = None,
) -> AgreementReport:
    """Run fresh keygen/sign/verify cycles; count the two failure modes separately."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if master_seed is None:
        master_seed = os.urandom(SEED_BYTES)
    mu_failures = 0
    h_failures = 0
    for t in range(trials):
        zeta, r, msg = derive_case_seeds(master_seed, t)
        pk, sk = keygen(zeta, params)
        sig = sign(sk, pk, msg, r, params, policy)
        result = verify(pk, msg, sig, params, policy)
        if result.reason == "mu-mismatch":
            mu_failures += 1
        elif result.reason == "h-mismatch":
            h_failures += 1
    return AgreementReport(trials=trials, mu_failures=mu_failures, h_failures=h_failures)
