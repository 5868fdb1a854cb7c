"""Deterministic seed expansion: hashing, public-matrix and noise sampling.

All byte layouts here are part of the known-answer-test contract and must not
change:

* ``hash_h``     SHAKE-256(input), 64 bytes; first 32 = rho, last 32 = xi.
* ``crh``        SHAKE-256(message), 32 bytes.
* ``gen_a``      entry (i, j) comes from SHAKE-128(rho || byte(i) || byte(j)):
                 candidates are 2 bytes little-endian masked to 14 bits,
                 accepted when < q, until n coefficients accepted. Output is
                 NTT-domain by definition.
* ``gen_se``     SHAKE-256(seed || byte(nonce)); coefficient t consumes bits
                 [2*eta*t, 2*eta*(t+1)) of the little-endian bitstream, the
                 first eta bits minus the second eta bits, stored mod q.
                 The bits are counted as words of gcd(eta, 64) bits, so
                 ``validate_params`` requires eta % 8 == 0.

Rejection in ``gen_a`` touches public data only; the binomial sampler has no
data-dependent branching.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .ring import Ring, Poly, PolyVec, NttMatrix

SEED_BYTES = 32


def _check_seed(seed: bytes, label: str = "seed") -> None:
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_BYTES:
        raise ValueError(f"{label} must be exactly {SEED_BYTES} bytes")


def hash_h(data: bytes) -> tuple[bytes, bytes]:
    """Expand key material into (rho, xi), two 32-byte seeds."""
    digest = hashlib.shake_256(data).digest(2 * SEED_BYTES)
    return digest[:SEED_BYTES], digest[SEED_BYTES:]


def crh(message: bytes) -> bytes:
    """Collision-resistant 256-bit message digest."""
    return hashlib.shake_256(message).digest(SEED_BYTES)


def gen_a(rho: bytes, ring: Ring) -> NttMatrix:
    """Expand rho into the public k x k matrix, uniform in NTT domain.

    All k^2 streams are squeezed to 4n bytes (2x oversampling for the ~0.75
    accept rate) and tested in one pass; each entry keeps its first n
    accepted candidates. If an entry falls short, all streams are squeezed
    again at twice the length; SHAKE output is prefix-stable, so that only
    extends each candidate stream.
    """
    _check_seed(rho, "rho")
    p = ring.params
    k, n = p.k, p.n
    mask = (1 << p.bits_per_coeff) - 1
    seeds = [rho + bytes([i, j]) for i in range(k) for j in range(k)]
    need = 4 * n
    while True:
        buf = b"".join(hashlib.shake_128(seed).digest(need) for seed in seeds)
        cand = np.frombuffer(buf, dtype="<u2").reshape(k * k, -1).astype(np.int64) & mask
        accepted = cand < p.q
        # k^2 slices of one mask: cheaper here than a cumsum rank over all of it
        rows = [c[a][:n] for c, a in zip(cand, accepted)]
        if min(map(len, rows)) == n:
            return NttMatrix(np.array(rows).reshape(k, k, n))
        need *= 2


def _binomial(seed: bytes, nonces: range, ring: Ring) -> np.ndarray:
    """psi_eta polynomials mod q, one row per nonce, counted in one pass.

    Each eta-bit half is the popcount of its gcd(eta, 64)-bit words.
    """
    _check_seed(seed)
    if not 0 <= nonces[0] <= nonces[-1] < 256:
        raise ValueError(f"nonces must be single bytes, got {nonces[0]}..{nonces[-1]}")
    p = ring.params
    word_bytes = math.gcd(p.eta, 64) // 8
    nbytes = 2 * p.eta * p.n // 8
    buf = b"".join(hashlib.shake_256(seed + bytes([t])).digest(nbytes) for t in nonces)
    words = np.frombuffer(buf, dtype=f"<u{word_bytes}")
    halves = np.bitwise_count(words).reshape(len(nonces), p.n, 2, -1).sum(axis=3, dtype=np.int64)
    return (halves[..., 0] - halves[..., 1]) % p.q


def gen_se(seed: bytes, nonce: int, ring: Ring) -> Poly:
    """One centered-binomial psi_eta polynomial from (seed, nonce).

    Centered values lie in [-eta, eta]; stored canonically mod q.
    """
    return Poly(_binomial(seed, range(nonce, nonce + 1), ring)[0])


def gen_se_vec(seed: bytes, first_nonce: int, ring: Ring) -> PolyVec:
    """k consecutive binomial polynomials starting at ``first_nonce``."""
    return PolyVec(_binomial(seed, range(first_nonce, first_nonce + ring.k), ring), Poly)
