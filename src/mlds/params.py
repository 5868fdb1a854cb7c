"""Parameter sets and derived NTT constants.

Everything downstream (ring arithmetic, samplers, codec, scheme) consumes a
single frozen ``ParamSet``, named "ML-SD-<n>x<k>" and checked once, by
``derive_ntt_constants`` when a ``Ring`` is built. The default set
"ML-SD-256x2" is

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
    param_id: int = 0x01

    @property
    def name(self) -> str:
        """ML-SD-<n>x<k>; "ML-SD-256x2" for the default set."""
        return f"ML-SD-{self.n}x{self.k}"

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

#: Bytes of every seed and digest (rho, xi, r, mu = crh(M), h).
SEED_BYTES = 32


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
    elif p.n * (p.q - 1) ** 3 >= 2**53:  # float64 NTT exactness, see NttConstants
        errors.append(
            f"n*(q-1)^3 = {p.n * (p.q - 1) ** 3} is not below 2^53: "
            "the two-stage float64 NTT would round its partial sums"
        )
    if p.k < 1:
        errors.append(f"k={p.k} must be >= 1")
    elif p.k * (p.q - 1) ** 2 >= 2**31:  # int32 ring values, see mlds.ring
        errors.append(
            f"k*(q-1)^2 = {p.k * (p.q - 1) ** 2} is not below 2^31: "
            "a module product's sum of k products would overflow int32"
        )
    if p.eta < 1:
        errors.append(f"eta={p.eta} must be >= 1")
    elif p.eta % 8 != 0:
        errors.append(f"eta={p.eta} is not a multiple of 8, as the byte-aligned binomial sampler needs")
    elif p.eta >= p.q:
        errors.append(f"eta={p.eta} is not below q={p.q}, so psi_eta noise would not be small mod q")
    if p.redundancy not in (1, 4):
        errors.append(f"redundancy={p.redundancy} not in {{1, 4}}")
    elif p.n % (4 * p.redundancy) != 0:
        errors.append(f"redundancy={p.redundancy} does not divide n={p.n} cleanly")
    elif p.mu_bits > 8 * SEED_BYTES:
        errors.append(f"mu_bits = n/redundancy = {p.mu_bits} is more than the "
                      f"{8 * SEED_BYTES} bits of the message digest")
    return errors


@dataclass(frozen=True, eq=False)
class NttConstants:
    """Roots of unity and transform tables for the negacyclic NTT mod q.

    gamma is a primitive 2n-th root of unity (so gamma^n = -1), omega = gamma^2
    a primitive n-th root. The transforms

        forward:  evals[i] = sum_j gamma^j * omega^(i*j) * coeffs[j]
        inverse:  coeffs[j] = n^-1 * gamma^-j * sum_i omega^(-i*j) * evals[i]

    are computed in two stages over the split n = R1 * R2 (``split``). The
    input index is j = R2*v1 + v2 and the output index i = u1 + R1*u2, so
    omega^(i*j) = omega^(R2*u1*v1) * omega^(u1*v2) * omega^(R1*u2*v2) and

        stage 1 (u1 x v1):       omega^(R2*u1*v1) * gamma^(R2*v1)
        stage 2 (u1, v2 x u2):   omega^(u1*v2) * omega^(R1*u2*v2) * gamma^v2

    for the forward transform; the inverse folds n^-1 * gamma^-u1 into stage 1
    and gamma^(-R1*u2) into stage 2 instead. ``forward`` and ``inverse`` each
    hold the stage-1 table (R1 x R1) followed by the stage-2 table
    (R1 x R2 x R2), flattened into one float64 array of entries in [0, q);
    ``stages`` gives the two as shaped views.

    Exactness: stage 1 sums R1 products of an input below q and a table entry
    below q, so each of its outputs is an integer below R1*(q-1)^2; stage 2
    sums R2 products of those with a table entry below q, below n*(q-1)^3.
    ``validate_params`` keeps n*(q-1)^3 below 2^53, where float64 holds every
    partial sum exactly in any order, so no reduction is needed between the
    stages and the float result equals the integer one before ``Ring``
    reduces it mod q.
    """

    n: int
    q: int
    gamma: int
    omega: int
    n_inv: int
    split: tuple[int, int]
    forward: np.ndarray
    inverse: np.ndarray

    def stages(self, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (R1, R1) stage-1 and (R1, R2, R2) stage-2 views of ``forward`` or ``inverse``."""
        r1, r2 = self.split
        return table[: r1 * r1].reshape(r1, r1), table[r1 * r1 :].reshape(r1, r2, r2)


@lru_cache(maxsize=8)
def _derive_cached(n: int, q: int) -> NttConstants:
    """The tables for (n, q), which ``validate_params`` has passed."""
    # Fixed root-selection rule so every implementation lands on the same
    # tables: exponentiate the smallest generator of Z_q^*.
    g = _smallest_generator(q)
    gamma = pow(g, (q - 1) // (2 * n), q)
    omega = gamma * gamma % q
    if pow(gamma, n, q) != q - 1 or pow(gamma, 2 * n, q) != 1:
        raise ParamError(f"derived gamma={gamma} does not have order exactly {2 * n}")

    n_inv = pow(n, -1, q)
    r1 = 1 << ((n.bit_length() - 1) // 2)  # 16 x 16 at n = 256, 8 x 16 at 128, 16 x 32 at 512
    r2 = n // r1

    # Every table entry is a power of gamma (omega = gamma^2, gamma^-e =
    # gamma^(2n-e)), so each table is one gather from gamma's powers with the
    # exponent reduced mod 2n; the largest temporary is R1 x R2 x R2. The
    # powers double in length per step: the next block is this one * gamma^size.
    gamma_powers = np.ones(1, dtype=np.int64)
    while gamma_powers.size < 2 * n:
        step = pow(gamma, gamma_powers.size, q)
        gamma_powers = np.concatenate([gamma_powers, gamma_powers * step % q])
    u1 = np.arange(r1).reshape(r1, 1)
    v1 = np.arange(r1).reshape(1, r1)
    v2 = np.arange(r2).reshape(1, r2, 1)
    u2 = np.arange(r2).reshape(1, 1, r2)
    twiddle = 2 * (u1[..., None] * v2 + r1 * u2 * v2)  # omega^(u1*v2) * omega^(R1*u2*v2)
    forward = (
        gamma_powers[(2 * r2 * u1 * v1 + r2 * v1) % (2 * n)],
        gamma_powers[(twiddle + v2) % (2 * n)],
    )
    inverse = (
        gamma_powers[(-2 * r2 * u1 * v1 - u1) % (2 * n)] * n_inv % q,
        gamma_powers[(-twiddle - r1 * u2) % (2 * n)],
    )

    def flat(tables) -> np.ndarray:
        out = np.concatenate([t.ravel() for t in tables]).astype(np.float64)
        out.setflags(write=False)
        return out

    return NttConstants(
        n=n, q=q, gamma=gamma, omega=omega, n_inv=n_inv,
        split=(r1, r2), forward=flat(forward), inverse=flat(inverse),
    )


def derive_ntt_constants(p: ParamSet) -> NttConstants:
    """Derive the NTT root/table set for ``p``. Deterministic and idempotent.

    This is the one place a ``ParamSet`` is checked: it raises ``ParamError``
    with every error ``validate_params`` reports, so a ``Ring`` is never
    built over an invalid set.
    """
    errors = validate_params(p)
    if errors:
        raise ParamError("; ".join(errors))
    return _derive_cached(p.n, p.q)
