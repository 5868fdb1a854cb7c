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

from .ring import Ring, Poly, NttPoly, PolyVec, NttMatrix

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


def _uniform_poly(stream_seed: bytes, n: int, q: int, mask: int) -> np.ndarray:
    # SHAKE output is prefix-stable, so re-squeezing a longer digest extends
    # the same candidate stream. 2x oversampling covers the ~0.75 accept rate.
    need = 4 * n
    while True:
        buf = hashlib.shake_128(stream_seed).digest(need)
        cand = np.frombuffer(buf, dtype="<u2").astype(np.int64) & mask
        accepted = cand[cand < q]
        if len(accepted) >= n:
            return accepted[:n].copy()
        need *= 2


def gen_a(rho: bytes, ring: Ring) -> NttMatrix:
    """Expand rho into the public k x k matrix, uniform in NTT domain."""
    _check_seed(rho, "rho")
    p = ring.params
    mask = (1 << p.bits_per_coeff) - 1
    rows = []
    for i in range(p.k):
        row = []
        for j in range(p.k):
            coeffs = _uniform_poly(rho + bytes([i, j]), p.n, p.q, mask)
            row.append(NttPoly(coeffs))
        rows.append(tuple(row))
    return NttMatrix(tuple(rows))


def gen_se(seed: bytes, nonce: int, ring: Ring) -> Poly:
    """One centered-binomial psi_eta polynomial from (seed, nonce).

    Centered values lie in [-eta, eta]; stored canonically mod q. Each
    eta-bit half is the popcount of its gcd(eta, 64)-bit words.
    """
    _check_seed(seed)
    if not 0 <= nonce < 256:
        raise ValueError(f"nonce must be a single byte, got {nonce}")
    p = ring.params
    word_bytes = math.gcd(p.eta, 64) // 8
    buf = hashlib.shake_256(seed + bytes([nonce])).digest(2 * p.eta * p.n // 8)
    words = np.frombuffer(buf, dtype=f"<u{word_bytes}")
    halves = np.bitwise_count(words).reshape(p.n, 2, -1).sum(axis=2, dtype=np.int64)
    return Poly((halves[:, 0] - halves[:, 1]) % p.q)


def gen_se_vec(seed: bytes, first_nonce: int, ring: Ring) -> PolyVec:
    """k consecutive binomial polynomials starting at ``first_nonce``."""
    return PolyVec(tuple(gen_se(seed, first_nonce + i, ring) for i in range(ring.k)))
