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

``gen_a``, ``gen_se`` and ``gen_se_vec`` take one seed, or a sequence of
seeds for a batch, whose outputs gain one leading axis. The SHAKE call per
stream is the only per-item loop; rejection and bit counting run once over
the whole batch.
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


def _seed_batch(seeds, label: str) -> tuple[list, bool]:
    """(checked seeds, whether a single seed was given rather than a sequence)."""
    if isinstance(seeds, (bytes, bytearray)):
        _check_seed(seeds, label)
        return [seeds], True
    for seed in seeds:
        _check_seed(seed, label)
    return list(seeds), False


def hash_h(data: bytes) -> tuple[bytes, bytes]:
    """Expand key material into (rho, xi), two 32-byte seeds."""
    digest = hashlib.shake_256(data).digest(2 * SEED_BYTES)
    return digest[:SEED_BYTES], digest[SEED_BYTES:]


def crh(message: bytes) -> bytes:
    """Collision-resistant 256-bit message digest."""
    return hashlib.shake_256(message).digest(SEED_BYTES)


def gen_a(rho, ring: Ring) -> NttMatrix:
    """Expand rho into the public k x k matrix, uniform in NTT domain.

    All k^2 streams of every seed are squeezed to 4n bytes (2x oversampling
    for the ~0.75 accept rate) and tested in one pass; each entry keeps its
    first n accepted candidates. If any entry falls short, all streams are
    squeezed again at twice the length; SHAKE output is prefix-stable, so
    that only extends each candidate stream.
    """
    rhos, single = _seed_batch(rho, "rho")
    p = ring.params
    k, n = p.k, p.n
    mask = (1 << p.bits_per_coeff) - 1
    seeds = [r + bytes([i, j]) for r in rhos for i in range(k) for j in range(k)]
    need = 4 * n
    while True:
        buf = b"".join(hashlib.shake_128(seed).digest(need) for seed in seeds)
        cand = np.frombuffer(buf, dtype="<u2") & mask
        # positions of accepted candidates, in stream order; stream t's run
        # starts at bounds[t] (its first candidate is at t * need // 2)
        pos = np.flatnonzero(cand < p.q)
        bounds = np.searchsorted(pos, np.arange(len(seeds) + 1) * (need // 2))
        first = bounds[:-1]
        if (bounds[1:] - first).min() >= n:
            rows = cand[pos[first[:, None] + np.arange(n)]].astype(np.int32)
            data = rows.reshape(len(rhos), k, k, n)
            return NttMatrix(data[0] if single else data)
        need *= 2


def _binomial(seeds: list, nonces: range, ring: Ring) -> np.ndarray:
    """psi_eta polynomials mod q, shape (seeds, nonces, n), counted in one pass.

    Each eta-bit half is the popcount of its gcd(eta, 64)-bit words: one
    word whenever eta divides 64 (one <u2 word at eta = 16).
    """
    if not 0 <= nonces[0] <= nonces[-1] < 256:
        raise ValueError(f"nonces must be single bytes, got {nonces[0]}..{nonces[-1]}")
    p = ring.params
    word_bytes = math.gcd(p.eta, 64) // 8
    nbytes = 2 * p.eta * p.n // 8
    buf = b"".join(hashlib.shake_256(seed + bytes([t])).digest(nbytes)
                   for seed in seeds for t in nonces)
    words = np.frombuffer(buf, dtype=f"<u{word_bytes}")
    counts = np.bitwise_count(words).reshape(len(seeds), len(nonces), p.n, 2, -1)
    halves = counts[..., 0] if counts.shape[-1] == 1 else counts.sum(axis=-1, dtype=np.int32)
    d = halves[..., 0].astype(np.int32) - halves[..., 1]
    # d in [-eta, eta] with eta < q (validate_params), reduced as Ring.sub
    # reduces: min(d, d + q) over the uint32 view is d + q for d < 0 (where
    # d + q wraps around) and d otherwise
    u = d.view(np.uint32)
    np.minimum(u, u + p.q, out=u)
    return d


def gen_se(seed, nonce: int, ring: Ring) -> Poly:
    """One centered-binomial psi_eta polynomial from (seed, nonce), per seed.

    Centered values lie in [-eta, eta]; stored canonically mod q.
    """
    seeds, single = _seed_batch(seed, "seed")
    c = _binomial(seeds, range(nonce, nonce + 1), ring)
    return Poly(c[0, 0] if single else c[:, 0])


def gen_se_vec(seed, first_nonce: int, ring: Ring) -> PolyVec:
    """k consecutive binomial polynomials starting at ``first_nonce``, per seed."""
    seeds, single = _seed_batch(seed, "seed")
    c = _binomial(seeds, range(first_nonce, first_nonce + ring.k), ring)
    return PolyVec(c[0] if single else c, Poly)
