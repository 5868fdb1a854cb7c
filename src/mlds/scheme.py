r"""Key generation, signing, verification, and the h-agreement harness.

The scheme is the one of arXiv 2409.02222, which its abstract describes as an
improved version of the signature scheme of Sharafi and Daghigh
\cite{sharafi2022ring}, based on Module-LWE and Module-SIS. Below, a trailing
* marks a secret input: the keygen seed zeta, xi, s and e, and the signing
coin r and e1..e4. Everything else is public or a function of public values.

All three operations are deterministic functions of their seed arguments.
Key generation:

    (rho, xi*) = hash_h(zeta*);  A_hat = gen_a(rho)
    s*, e* = expand_key_noise(xi*)
    P = intt(A_hat^T o ntt(s*)) + e*

The public key carries A_hat, expanded once from rho by ``keygen`` or by
``codec.parse_pk``; signing reuses it.

Signing draws e1*, e2*, e3*, e4* = expand_signing_noise(r*) from the
per-signature coin r*, and outputs

    z1 = intt(A_hat^T o ntt(e1*)) + e2*
    z2 = intt(<P_hat, ntt(e2*)>) + e4*
    z3 = intt(<A_hat o P_hat, ntt(e1*)>) + e3* + encode(mu payload)
    h  = crh(mu || crh(decode-payload of X))

with mu = crh(M), where X is either the signer-side value
intt(<A_hat^T o ntt(s*), ntt(e2*)>) ("literal" h policy) or z2 itself ("z2"
policy); the signer alone chooses. The z2 preimage reads none of the secret
inputs, only the signature's own public z2, and nothing else in a z2
signature reads s: it is a function of (pk, M, r) alone. The verifier reads
only public values, pk, M and (z1, z2, z3, h): it recomputes mu = crh(M) and
always checks decode(z2 + z3 - <P, z1>) against the mu payload and h against
crh(mu || crh(decode-payload of z2)).

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

Byte layouts live elsewhere: the mu payload bits in ``codec.mu_payload_bits``,
the noise nonces and each agreement cycle's seeds in ``sampling``.

``keygen``, ``sign`` and ``verify`` each compute one trial, or a batch: each
per-trial argument (zeta; message and r) is then a list or tuple
(``sampling._batch``), ring values (int32 arrays, see ``mlds.ring``) carry a
leading trial axis (B, ...) and rho and h become tuples. Keys without a trial
axis broadcast against a batch. The per-trial hashing is the only per-trial
loop, and each step transforms the same polynomial slots as one trial does:
one ntt/intt call per slot, over a (B, 1, n) stack. One trial keeps no trial
axis (with one of length one, a sign measured ~6% slower on a 2-vCPU Xeon,
from broadcasting and unwrapping). ``run_cases`` runs the known-answer cases
of ``measure_agreement`` and ``mlds kat`` in chunks of ``AGREEMENT_CHUNK`` =
64: the 19 transform calls of a z2 cycle then each cover a whole chunk, and a
64-cycle call is one batched keygen, sign and verify. The time and peak memory
of chunks of 16, 32 and 64 are recorded at ``AGREEMENT_CHUNK``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .codec import (PublicKey, SecretKey, Signature, encode_bits, decode_bits, decode_payload,
                    mu_payload_bits)
from .params import ParamSet, DEFAULT_PARAMS
from .ring import COEFF, Ring, RqArray, get_ring
from .sampling import (SEED_BYTES, _batch, _each, _seed_batch, hash_h, crh, derive_case_seeds, gen_a,
                       expand_key_noise, expand_signing_noise)


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


# -- keygen, sign and verify, each for one trial or a batch -----------------------


def keygen(zeta, params: ParamSet = DEFAULT_PARAMS) -> tuple[PublicKey, SecretKey]:
    """Deterministic key pair from a 32-byte seed, or a batch of them from a
    list or tuple of seeds; any other seed raises ValueError."""
    ring = get_ring(params)
    zetas = _seed_batch(zeta, "zeta")
    rho, xi = zip(*map(hash_h, zetas)) if _batch(zeta) else hash_h(*zetas)
    a_hat = gen_a(rho, ring)
    s, e = expand_key_noise(xi, ring)
    p_vec = ring.add(ring.vec_intt(ring.matvec(a_hat, ring.vec_ntt(s))), e)
    return PublicKey(rho, p_vec, a_hat, ring.params), SecretKey(s, ring.params)


def sign(sk: SecretKey, pk: PublicKey, message, r, params: ParamSet = DEFAULT_PARAMS,
         policy: str = Z2_DERIVED) -> Signature:
    """Sign ``message`` (bytes-like) with the bytes-like 32-byte coin ``r`` (never reuse r).

    A batch is equal-length lists or tuples of messages and coins, under one key
    pair or one per message. ``policy`` is one of ``POLICIES``, ``sk`` is a
    ``SecretKey`` and ``pk`` a ``PublicKey``, both of ``params``; anything else
    raises ValueError.
    """
    ring = get_ring(params)
    if policy not in POLICIES:
        raise ValueError(f"unknown h policy {policy!r}, expected one of {POLICIES}")
    if not (isinstance(sk, SecretKey) and isinstance(pk, PublicKey)
            and sk.params == pk.params == ring.params):
        raise ValueError("sk must be a SecretKey and pk a PublicKey, both of the parameter set "
                         f"signed under, {ring.params}")
    trials = _batch(message)
    if _batch(r) != trials:
        raise ValueError("r must be one coin for one message, or a list or tuple of one per message")
    _seed_batch(r, "r")
    for name, keys in (("sk", sk.s), ("pk", pk.p_vec)):
        if keys.data.shape[:-2] not in ((), trials):
            raise ValueError(f"{name} must be one key, or a batch of one per message")
    mu = _each(crh, message)
    # On a chunk of trials every array is (B, ...), so each is dropped after
    # its last use: that keeps the literal policy's transforms from stacking
    # on all of them (cold-keys peak RSS 41.1 -> 40.5 MB at 64 trials). e1..e4
    # are views of one noise draw, which is freed once the last of them goes.
    e1, e2, e3, e4 = expand_signing_noise(r, ring)
    ate1_hat = ring.matvec(pk.a_hat, ring.vec_ntt(e1))
    e2_hat = ring.vec_ntt(e2)
    p_hat = ring.vec_ntt(pk.p_vec)

    z1 = ring.add(ring.vec_intt(ate1_hat), e2)
    z2 = ring.add(ring.intt(ring.inner_product(p_hat, e2_hat)), e4)
    payload = encode_bits(mu_payload_bits(mu, ring.params), ring)
    z3 = ring.add(ring.add(ring.intt(ring.inner_product(p_hat, ate1_hat)), e3), payload)
    z = RqArray(np.concatenate((z1.data, z2.data, z3.data), axis=-2), COEFF)  # wire order
    del e1, e2, e3, e4, payload, p_hat, ate1_hat, z1, z3

    if policy == Z2_DERIVED:
        h_src = z2
    else:
        # the signer's own A_hat^T o ntt(s), never a value kept from keygen
        ats_hat = ring.matvec(pk.a_hat, ring.vec_ntt(sk.s))
        h_src = ring.intt(ring.inner_product(ats_hat, e2_hat))
    return Signature(z, _each(_h_digest, mu, decode_payload(h_src, ring)), ring.params)


def _h_digest(mu: bytes, payload: np.ndarray) -> bytes:
    """crh(mu || crh(payload)), payload one trial's decoded bytes."""
    return crh(mu + crh(payload))


def _verify_steps(pk: PublicKey, mu, sig: Signature, ring: Ring):
    """(verdict, w) for one trial, or (verdicts per trial, w) for a batch.

    Each trial is decided in order: the mu decode of w = z2 + z3 -
    intt(<P_hat, z1_hat>), then h recomputed from z2.
    """
    z2 = sig.z2  # a view of z's row, built once for its two reads
    p_hat = ring.vec_ntt(pk.p_vec)
    z1_hat = ring.vec_ntt(sig.z1)
    w = ring.sub(ring.add(z2, sig.z3), ring.intt(ring.inner_product(p_hat, z1_hat)))
    mu_ok = (decode_bits(w, ring) == mu_payload_bits(mu, ring.params)).all(axis=-1)

    def decide(mu_t, h_t, mu_ok_t, payload_t):
        if not mu_ok_t:
            return VerifyResult(False, "mu-mismatch")
        if h_t != _h_digest(mu_t, payload_t):
            return VerifyResult(False, "h-mismatch")
        return ACCEPT

    return _each(decide, mu, sig.h, mu_ok, decode_payload(z2, ring)), w


def verify(pk: PublicKey, message, sig: Signature, params: ParamSet = DEFAULT_PARAMS,
           policy: str = Z2_DERIVED) -> VerifyResult | tuple[VerifyResult, ...]:
    """Check (1) the mu branch and (2) the h binding; ``policy`` does not change
    the verdict and can go with the benchmark revision (ROADMAP item 1).

    A list or tuple of messages gets a tuple of ``VerifyResult``, one each. The
    reason is "parse" unless ``sig`` is a ``Signature`` of one trial per message
    under one ``PublicKey`` or one per message, ``sig.params == pk.params == params``.
    """
    trials = _batch(message)
    if not (isinstance(sig, Signature) and isinstance(pk, PublicKey)
            and sig.params == pk.params == params and sig.z.data.shape[:-2] == trials
            and pk.p_vec.data.shape[:-2] in ((), trials)):
        return _each(lambda _: VerifyResult(False, "parse"), message)
    return _verify_steps(pk, _each(crh, message), sig, get_ring(params))[0]


# -- agreement measurement -----------------------------------------------------

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
#: at 32, and 174-187 and 40.9-41.3 MB at 64; dropping ``sign``'s
#: arrays after their last use then brought 64 to 40.5 MB. In-process (min
#: of 12 interleaved ``measure_agreement(64)`` calls, 3 processes) chunk 16
#: took 12-20% longer per cycle than 32 and 64, which tied.
AGREEMENT_CHUNK = 64


def run_cases(master_seed: bytes, count: int, params: ParamSet = DEFAULT_PARAMS,
              policy: str = Z2_DERIVED):
    """Per chunk of cases t = 0..count-1, each ``derive_case_seeds(master_seed, t)``, one
    batched keygen, sign and ``_verify_steps``: yields ((zeta, r, msg) per case, pk, sk,
    sig, verdicts, the chunk's largest ||w - encode(mu)||_inf). A master seed that is not
    one 32-byte bytes-like value, or a count that is not an int >= 1, raises ValueError
    before the first chunk."""
    if type(count) is not int or count < 1:  # a bool is refused too
        raise ValueError(f"count must be an int >= 1, got {count!r}")
    try:
        master_seed = bytes(memoryview(master_seed))
    except TypeError:  # not bytes-like
        master_seed = b""
    if len(master_seed) != SEED_BYTES:
        raise ValueError(f"master_seed must be one {SEED_BYTES}-byte bytes-like value")
    ring, every = get_ring(params), range(count)
    for start in range(0, count, AGREEMENT_CHUNK):
        cases = [derive_case_seeds(master_seed, t) for t in every[start:start + AGREEMENT_CHUNK]]
        zetas, rs, msgs = zip(*cases)
        pk, sk = keygen(zetas, params)
        sig = sign(sk, pk, msgs, rs, params, policy)
        mus = [crh(msg) for msg in msgs]
        verdicts, w = _verify_steps(pk, mus, sig, ring)
        noise = ring.sub(w, encode_bits(mu_payload_bits(mus, params), ring))
        yield cases, pk, sk, sig, verdicts, ring.infinity_norm(noise)


def measure_agreement(
    trials: int,
    params: ParamSet = DEFAULT_PARAMS,
    policy: str = Z2_DERIVED,
    master_seed: bytes | None = None,
) -> AgreementReport:
    """Run fresh keygen/sign/verify cycles; count the two failure modes separately.

    Cycle t is known-answer case t of ``master_seed``, run by ``run_cases``;
    the counts equal those of running the cycles one at a time.
    """
    if type(trials) is not int or trials < 1:  # a bool is refused too
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    if master_seed is None:
        master_seed = os.urandom(SEED_BYTES)
    reasons, max_noise = [], 0
    for *_, verdicts, noise in run_cases(master_seed, trials, params, policy):
        reasons += [verdict.reason for verdict in verdicts]
        max_noise = max(max_noise, noise)
    return AgreementReport(trials=trials, mu_failures=reasons.count("mu-mismatch"),
                           h_failures=reasons.count("h-mismatch"), max_noise=max_noise)
