"""Core-SVP cost estimation for the primal and dual BKZ attacks, plus size accounting.

Cost model (NewHope-USENIX methodology): one SVP-oracle call in block
dimension b costs 2^(0.292 b) classically and 2^(0.265 b) on a quantum
computer; polynomial factors are ignored. The BKZ root-Hermite factor is

    delta(b) = ((pi b)^(1/b) * b / (2 pi e))^(1 / (2 (b - 1)))

Primal attack: unique-SVP embedding in dimension d = n + m + 1 succeeds when

    sigma * sqrt(b) <= delta(b)^(2b - d - 1) * q^(m/d)

and the cost is one SVP call. Dual attack: a short dual vector of length
l = delta(b)^d * q^(n/d) (d = n + m) yields a distinguisher with advantage
log2(eps) = -2 pi^2 tau^2 / ln 2, tau = l sigma / q; the sieve provides
2^(0.2075 b) vectors per call, so R = max(1, 1 / (2^(0.2075 b) eps^2))
repetitions are needed and log2(R) is added to the cost.

Both searches scan b upward from 50 in blocks of BLOCK_COLS columns, each
with every m in [1, max_samples], keeping cells with b <= d; the minimum is
taken in (cost, b, m) order, so ties go to the smaller b, then the smaller m.
The scan stops before a block whose first column has fl(0.292 b) above the
best cost. That is exact: every cell costs at least fl(0.292 b), since a
primal cell costs exactly that, a dual cell fl(0.292 b) + log2(R) with
log2(R) >= 0, and float rounding is monotone; so no later cell can beat or tie
the best. The primal scan thus ends at the first block with a feasible cell,
the dual scan about one block past its optimum. Reported bit counts are
floored to integers. BKW-type and linearization attacks are out of scope.

This is a transparent reproduction of one cost model, not a replacement for
a full lattice estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .params import ParamSet

CLASSICAL_EXP = 0.292
QUANTUM_EXP = 0.265
SIEVE_VECTORS_EXP = 0.2075
MIN_BLOCK = 50
BLOCK_COLS = 64  # b columns per evaluated grid block


class EstimatorError(ValueError):
    """Model misuse: invalid instance or no feasible attack in bounds."""


@dataclass(frozen=True)
class LweInstance:
    n_lwe: int
    q: int
    sigma: float
    max_samples: int

    def __post_init__(self):
        # isfinite also rejects NaN, for which sigma <= 0 is False, and inf
        if (self.n_lwe < 1 or self.q < 2 or not math.isfinite(self.sigma) or self.sigma <= 0
                or self.max_samples < 1):
            raise EstimatorError(f"invalid LWE instance {self}")

    @classmethod
    def from_binomial(cls, n_lwe: int, q: int, eta: int, max_samples: int | None = None):
        """Instance with psi_eta noise, sigma = sqrt(eta/2); default m cap 2n."""
        if eta < 1:
            raise EstimatorError(f"eta must be >= 1, got {eta}")
        if max_samples is None:
            max_samples = 2 * n_lwe
        return cls(n_lwe=n_lwe, q=q, sigma=math.sqrt(eta / 2), max_samples=max_samples)


@dataclass(frozen=True)
class AttackEstimate:
    kind: str  # "primal" | "dual"
    m: int
    b: int
    classical_bits: int
    quantum_bits: int


def bkz_delta(b: int) -> float:
    """Root-Hermite factor of BKZ with block size b; model invalid below 50."""
    if b < MIN_BLOCK:
        raise EstimatorError(f"delta(b) model requires b >= {MIN_BLOCK}, got {b}")
    return ((math.pi * b) ** (1.0 / b) * b / (2 * math.pi * math.e)) ** (1.0 / (2.0 * (b - 1.0)))


def _log_delta(b: np.ndarray) -> np.ndarray:
    return (np.log(np.pi * b) / b + np.log(b / (2 * math.pi * math.e))) / (2.0 * (b - 1.0))


def _pick(cost: np.ndarray, m_vals: np.ndarray, b_vals: np.ndarray,
          best: tuple | None) -> tuple | None:
    """Merge a (m, b) cost block into the running (cost, b, m) lexicographic best."""
    rows = cost.argmin(axis=0)  # first minimum: smallest m for each b
    per_b = cost[rows, np.arange(cost.shape[1])]
    col = per_b.argmin()  # first minimum: smallest b
    cand = (per_b[col], int(b_vals[col]), int(m_vals[rows[col]]))
    return cand if np.isfinite(cand[0]) and (best is None or cand < best) else best


def _search(inst: LweInstance, block_cost) -> tuple | None:
    """(cost, b, m) minimum of ``block_cost(m, b)``, None if no cell is finite; see the module doc."""
    m = np.arange(1, inst.max_samples + 1)
    b_all = np.arange(MIN_BLOCK, inst.n_lwe + inst.max_samples + 2)
    best = None
    for lo in range(0, b_all.size, BLOCK_COLS):
        b = b_all[lo:lo + BLOCK_COLS]
        if best is not None and CLASSICAL_EXP * b[0] > best[0]:
            break
        # built b-major, so that _pick reduces over m along contiguous memory
        best = _pick(block_cost(m[None, :], b[:, None]).T, m, b, best)
    return best


def primal_cost(inst: LweInstance) -> AttackEstimate:
    """Cheapest uSVP embedding: the smallest feasible b, then the smallest m."""
    def block_cost(m, b):
        d = inst.n_lwe + m + 1.0
        rhs = (2 * b - 1.0) - d  # 2b - d - 1, exact in float64
        rhs *= _log_delta(b)
        rhs += (m / d) * math.log(inst.q)
        feasible = rhs >= math.log(inst.sigma) + 0.5 * np.log(b)
        feasible &= b <= d
        cost = np.full(rhs.shape, np.inf)
        np.copyto(cost, CLASSICAL_EXP * b, where=feasible)
        return cost

    best = _search(inst, block_cost)
    if best is None:
        raise EstimatorError("no (m, b) satisfies the primal embedding condition in bounds")
    _, b_opt, m_opt = best
    return AttackEstimate("primal", m_opt, b_opt, math.floor(CLASSICAL_EXP * b_opt),
                          math.floor(QUANTUM_EXP * b_opt))


def _dual_log2_rep(inst: LweInstance, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log2 of the repetition count R, elementwise over the broadcast m and b arrays."""
    d = (inst.n_lwe + m).astype(np.float64)
    log2_ell = d * (_log_delta(b) / math.log(2))
    log2_ell += (inst.n_lwe / d) * math.log2(inst.q)
    log2_ell += math.log2(inst.sigma / inst.q)
    # tau = ell * sigma / q; clamp the exponent to dodge overflow at huge ell
    tau = np.power(2.0, np.minimum(log2_ell, 30.0, out=log2_ell), out=log2_ell)
    log2_rep = -2 * math.pi**2 * tau
    log2_rep *= tau
    log2_rep /= math.log(2)  # log2(eps)
    log2_rep *= -2
    log2_rep -= SIEVE_VECTORS_EXP * b
    return np.maximum(0.0, log2_rep, out=log2_rep)


def dual_cost(inst: LweInstance) -> AttackEstimate:
    """Cheapest dual distinguisher over the (m, b) grid.

    The distinguisher model needs noise that is not already close to uniform
    mod q; an instance with sigma * sqrt(2 pi) >= q is outside it.
    """
    if inst.sigma * math.sqrt(2 * math.pi) >= inst.q:
        raise EstimatorError(
            f"dual model needs sigma*sqrt(2*pi) < q; sigma={inst.sigma:g}, q={inst.q} "
            "gives noise statistically close to uniform mod q"
        )

    def block_cost(m, b):
        cost = _dual_log2_rep(inst, m, b)
        cost += CLASSICAL_EXP * b
        cost[b > inst.n_lwe + m] = np.inf
        return cost

    best = _search(inst, block_cost)
    if best is None:
        raise EstimatorError("no (m, b) yields a finite dual cost in bounds")
    _, b_opt, m_opt = best
    rep = float(_dual_log2_rep(inst, np.array([m_opt]), np.array([b_opt]))[0])
    return AttackEstimate("dual", m_opt, b_opt, math.floor(CLASSICAL_EXP * b_opt + rep),
                          math.floor(QUANTUM_EXP * b_opt + rep))


@dataclass(frozen=True)
class SizeReport:
    """Information-theoretic sizes use log2(q) fractional bits; wire sizes
    are the packed formats including headers."""

    pk_it: float
    sk_it: float
    sig_it: float
    pk_wire: int
    sk_wire: int
    sig_wire: int


def key_sizes(p: ParamSet) -> SizeReport:
    """Byte sizes for keys and signatures under parameter set ``p``."""
    if p.k < 1 or p.n < 1 or p.q < 2:
        raise EstimatorError(f"degenerate parameter set n={p.n}, k={p.k}, q={p.q}")
    log_q = math.log2(p.q)
    element = p.n * log_q / 8
    return SizeReport(
        pk_it=32 + p.k * element,
        sk_it=p.k * element,
        sig_it=(p.k + 2) * element + 32,
        pk_wire=codec.pk_bytes(p),
        sk_wire=codec.sk_bytes(p),
        sig_wire=codec.sig_bytes(p),
    )
