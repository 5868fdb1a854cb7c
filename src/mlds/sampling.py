"""Deterministic seed expansion: hashing, public-matrix and noise sampling.

All byte layouts here are part of the known-answer-test contract and must not
change:

* ``hash_h``     SHAKE-256(input), 64 bytes; first 32 = rho, last 32 = xi.
* ``crh``        SHAKE-256(message), 32 bytes.
* ``derive_case_seeds``  SHAKE-256(master || u32le(index)), three 32-byte
                 seeds: the known-answer case's zeta, r and message.
* ``gen_a``      entry (i, j) comes from SHAKE-128(rho || byte(i) || byte(j)):
                 candidates are 2 bytes little-endian masked to 14 bits,
                 accepted when < q, until n coefficients accepted. Output is
                 NTT-domain by definition.
* ``gen_se``     SHAKE-256(seed || byte(nonce)); coefficient t consumes bits
                 [2*eta*t, 2*eta*(t+1)) of the little-endian bitstream, the
                 first eta bits minus the second eta bits, stored mod q. It
                 takes a range of nonces, drawn in one pass with one stream
                 and one output row per nonce.
* ``expand_key_noise``, ``expand_signing_noise``  one ``gen_se`` call each:
                 s, e = nonces 0..k-1, k..2k-1 of the keygen seed xi; e1, e2,
                 e3, e4 = nonces 0..k-1, k..2k-1, 2k, 2k+1 of the coin r.

Rejection in ``gen_a`` touches public data only; the binomial sampler has no
data-dependent branching.

``gen_a`` and the noise functions take one seed, or a non-empty sequence of
seeds for a batch, whose outputs gain one leading axis; the SHAKE call per
stream is the only per-item loop. ``gen_se_vec`` is ``gen_se`` over k
consecutive nonces.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from functools import lru_cache

import numpy as np

from .params import SEED_BYTES
from .ring import COEFF, NTT, Ring, RqArray

SHAKE128_RATE = 168  # output bytes per Keccak permutation


def _seed_batch(seeds, label: str) -> tuple[list, bool]:
    """(checked seeds, whether a single seed was given rather than a sequence)."""
    single = isinstance(seeds, (bytes, bytearray))
    batch = [seeds] if single else list(seeds)
    if not (batch and all(isinstance(s, (bytes, bytearray)) and len(s) == SEED_BYTES for s in batch)):
        raise ValueError(f"{label} must be exactly {SEED_BYTES} bytes, or a non-empty sequence of them")
    return batch, single


def hash_h(data: bytes) -> tuple[bytes, bytes]:
    """Expand key material into (rho, xi), two 32-byte seeds."""
    digest = hashlib.shake_256(data).digest(2 * SEED_BYTES)
    return digest[:SEED_BYTES], digest[SEED_BYTES:]


def crh(message: bytes) -> bytes:
    """Collision-resistant 256-bit message digest."""
    return hashlib.shake_256(message).digest(SEED_BYTES)


def derive_case_seeds(master: bytes, index: int) -> tuple[bytes, bytes, bytes]:
    """Per-case (zeta, r, msg) material: SHAKE-256(master || u32le(index))."""
    buf = hashlib.shake_256(master + index.to_bytes(4, "little")).digest(3 * SEED_BYTES)
    return buf[:SEED_BYTES], buf[SEED_BYTES:2 * SEED_BYTES], buf[2 * SEED_BYTES:]


@lru_cache(maxsize=8)
def _gen_a_bytes(n: int, q: int, bits: int) -> int:
    """Fewest whole SHAKE-128 blocks, in bytes, leaving an entry short of n accepted
    candidates with probability <= 2^-32, tried from the first whose mean reaches n.
    For m candidates, r = 2^bits - q: sum_{i<n} C(m, i) q^i r^(m-i) / 2^(bits*m), exactly."""
    reject, per_block = (1 << bits) - q, SHAKE128_RATE // 2
    for m in itertools.count(per_block * -(-(n << bits) // (q * per_block)), per_block):
        term = short = reject**m
        for i in range(n - 1):  # term becomes C(m, i+1) q^(i+1) r^(m-i-1)
            term = term * (m - i) * q // ((i + 1) * reject)
            short += term
        if short << 32 <= 1 << (bits * m):
            return 2 * m


def gen_a(rho, ring: Ring) -> RqArray:
    """Expand rho into the public k x k matrix, uniform in NTT domain: (..., k, k, n).

    All k^2 streams of every seed are squeezed to ``_gen_a_bytes`` (five
    blocks, 840 bytes, at the default set) and tested in one pass; each entry
    keeps the candidates ranked 1..n among its accepted ones. If any entry
    falls short, all streams are squeezed again at twice the length; SHAKE
    output is prefix-stable, so that only extends each stream.
    """
    rhos, single = _seed_batch(rho, "rho")
    p, k, n = ring.params, ring.k, ring.n
    seeds = [r + bytes([i, j]) for r in rhos for i in range(k) for j in range(k)]
    need = _gen_a_bytes(n, p.q, p.bits_per_coeff)
    while True:
        buf = b"".join(hashlib.shake_128(seed).digest(need) for seed in seeds)
        cand = np.frombuffer(buf, dtype="<u2").reshape(len(seeds), -1) & ((1 << p.bits_per_coeff) - 1)
        accept = cand < p.q
        rank = accept.view(np.uint8).cumsum(axis=1, dtype=np.min_scalar_type(need // 2))
        if rank[:, -1].min() >= n:
            accept &= rank <= n
            data = np.compress(accept.ravel(), cand).astype(np.int32).reshape(len(rhos), k, k, n)
            return RqArray(data[0] if single else data, NTT)
        need *= 2


@lru_cache(maxsize=8)
def _binomial_tables(eta: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(ones over a coefficient's second eta bits, as its words; d + eta -> d mod q)."""
    flip = np.frombuffer(bytes(eta // 8) + b"\xff" * (eta // 8), dtype=f"<u{math.gcd(2 * eta, 64) // 8}")
    return flip, (np.arange(-eta, eta + 1) % q).astype(np.int32)


def _binomial(seeds: list, nonces: range, ring: Ring) -> np.ndarray:
    """psi_eta polynomials mod q, shape (seeds, nonces, n), counted in one pass.

    A coefficient's 2*eta bits are its gcd(2*eta, 64)-bit words (eta % 8 == 0).
    With its second eta bits flipped their popcount is d + eta in [0, 2*eta],
    for d = first half's count - second half's; one lookup gives d mod q. A
    nonce outside 0..255 raises ValueError (from ``bytes``).
    """
    p = ring.params
    flip, lookup = _binomial_tables(p.eta, p.q)
    buf = b"".join(hashlib.shake_256(seed + bytes([t])).digest(p.eta * p.n // 4)
                   for seed in seeds for t in nonces)
    counts = np.bitwise_count(np.frombuffer(buf, dtype=flip.dtype).reshape(-1, flip.size) ^ flip)
    del buf  # the bytes and the XOR temporary are freed before the lookup allocates
    total = counts[:, 0] if flip.size == 1 else counts.sum(axis=1)
    return lookup.take(total).reshape(len(seeds), len(nonces), p.n)


def gen_se(seed, nonces: range, ring: Ring) -> RqArray:
    """psi_eta noise (values in [-eta, eta], stored mod q) per seed, one row per nonce."""
    seeds, single = _seed_batch(seed, "seed")
    c = _binomial(seeds, nonces, ring)
    return RqArray(c[0] if single else c, COEFF)


def gen_se_vec(seed, first_nonce: int, ring: Ring) -> RqArray:
    """k consecutive binomial polynomials starting at ``first_nonce``, per seed."""
    return gen_se(seed, range(first_nonce, first_nonce + ring.k), ring)


def expand_key_noise(xi, ring: Ring) -> tuple[RqArray, RqArray]:
    """(s, e) from the keygen seed(s): one draw over nonces 0..2k-1, split in half.

    s is a copy, so that the secret key does not keep e's half of the draw alive.
    """
    se = gen_se(xi, range(2 * ring.k), ring).data
    return RqArray(se[..., :ring.k, :].copy(), COEFF), RqArray(se[..., ring.k:, :], COEFF)


def expand_signing_noise(r, ring: Ring) -> tuple[RqArray, RqArray, RqArray, RqArray]:
    """(e1, e2, e3, e4) from the signing coin(s): row slices of one draw over
    nonces 0..2k+1, split as 0..k-1, k..2k-1, 2k and 2k+1."""
    k = ring.k
    e = gen_se(r, range(2 * k + 2), ring).data
    return (RqArray(e[..., :k, :], COEFF), RqArray(e[..., k:2 * k, :], COEFF),
            RqArray(e[..., 2 * k:2 * k + 1, :], COEFF), RqArray(e[..., 2 * k + 1:, :], COEFF))
