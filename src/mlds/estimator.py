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

Both searches sweep the full (m, b) grid in steps of 1 with m in
[1, max_samples] and b in [50, n + max_samples + 1], restricted to b <= d;
ties are broken by smaller b, then smaller m. Reported bit counts are
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


class EstimatorError(ValueError):
    """Model misuse: invalid instance or no feasible attack in bounds."""


@dataclass(frozen=True)
class LweInstance:
    n_lwe: int
    q: int
    sigma: float
    max_samples: int

    def __post_init__(self):
        if self.n_lwe < 1 or self.q < 2 or self.sigma <= 0 or self.max_samples < 1:
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


def _block_range(inst: LweInstance) -> np.ndarray:
    return np.arange(MIN_BLOCK, inst.n_lwe + inst.max_samples + 2)


def _log_delta(b: np.ndarray) -> np.ndarray:
    return (np.log(np.pi * b) / b + np.log(b / (2 * math.pi * math.e))) / (2.0 * (b - 1.0))


def _pick(cost: np.ndarray, m_vals: np.ndarray, b_vals: np.ndarray,
          best: tuple | None) -> tuple | None:
    """Merge a (m, b) cost block into the running (cost, b, m) lexicographic best."""
    finite = np.isfinite(cost)
    if not finite.any():
        return best
    lo = cost[finite].min()
    if best is not None and lo > best[0]:
        return best
    rows, cols = np.nonzero(cost == lo)
    order = np.lexsort((m_vals[rows], b_vals[cols]))  # smallest b, then smallest m
    cand = (lo, int(b_vals[cols[order[0]]]), int(m_vals[rows[order[0]]]))
    if best is None or cand < best:
        return cand
    return best


def primal_cost(inst: LweInstance) -> AttackEstimate:
    """Cheapest uSVP embedding over the full (m, b) grid."""
    b = _block_range(inst)
    log_delta = _log_delta(b)
    log_q = math.log(inst.q)
    log_sb = math.log(inst.sigma) + 0.5 * np.log(b)
    best = None
    for m_lo in range(1, inst.max_samples + 1, 256):
        m = np.arange(m_lo, min(m_lo + 256, inst.max_samples + 1))
        d = (inst.n_lwe + m + 1)[:, None]
        rhs = (2 * b[None, :] - d - 1) * log_delta[None, :] + (m[:, None] / d) * log_q
        feasible = (log_sb[None, :] <= rhs) & (b[None, :] <= d)
        cost = np.where(feasible, CLASSICAL_EXP * b[None, :], np.inf)
        best = _pick(cost, m, b, best)
    if best is None:
        raise EstimatorError("no (m, b) satisfies the primal embedding condition in bounds")
    _, b_opt, m_opt = best
    return AttackEstimate(
        kind="primal",
        m=m_opt,
        b=b_opt,
        classical_bits=math.floor(CLASSICAL_EXP * b_opt),
        quantum_bits=math.floor(QUANTUM_EXP * b_opt),
    )


def dual_repetitions_log2(inst: LweInstance, m: int, b: int) -> float:
    """log2 of the repetition count R for one (m, b) dual point."""
    d = inst.n_lwe + m
    log2_ell = d * math.log2(bkz_delta(b)) + (inst.n_lwe / d) * math.log2(inst.q)
    tau = 2.0 ** (log2_ell + math.log2(inst.sigma / inst.q))
    log2_eps = -2 * math.pi**2 * tau * tau / math.log(2)
    return max(0.0, -2 * log2_eps - SIEVE_VECTORS_EXP * b)


def dual_cost(inst: LweInstance) -> AttackEstimate:
    """Cheapest dual distinguisher over the full (m, b) grid.

    The distinguisher model needs noise that is not already close to uniform
    mod q; an instance with sigma * sqrt(2 pi) >= q is outside it.
    """
    if inst.sigma * math.sqrt(2 * math.pi) >= inst.q:
        raise EstimatorError(
            f"dual model needs sigma*sqrt(2*pi) < q; sigma={inst.sigma:g}, q={inst.q} "
            "gives noise statistically close to uniform mod q"
        )
    b = _block_range(inst)
    log2_delta = _log_delta(b) / math.log(2)
    log2_q = math.log2(inst.q)
    log2_sigma_over_q = math.log2(inst.sigma / inst.q)
    best = None
    for m_lo in range(1, inst.max_samples + 1, 256):
        m = np.arange(m_lo, min(m_lo + 256, inst.max_samples + 1))
        d = (inst.n_lwe + m)[:, None].astype(np.float64)
        log2_ell = d * log2_delta[None, :] + (inst.n_lwe / d) * log2_q
        # tau = ell * sigma / q; clamp the exponent to dodge overflow at huge ell
        tau = 2.0 ** np.minimum(log2_ell + log2_sigma_over_q, 30.0)
        log2_eps = -2 * math.pi**2 * tau * tau / math.log(2)
        log2_rep = np.maximum(0.0, -2 * log2_eps - SIEVE_VECTORS_EXP * b[None, :])
        cost = np.where(b[None, :] <= d, CLASSICAL_EXP * b[None, :] + log2_rep, np.inf)
        best = _pick(cost, m, b, best)
    if best is None:
        raise EstimatorError("no (m, b) yields a finite dual cost in bounds")
    _, b_opt, m_opt = best
    rep = dual_repetitions_log2(inst, m_opt, b_opt)
    return AttackEstimate(
        kind="dual",
        m=m_opt,
        b=b_opt,
        classical_bits=math.floor(CLASSICAL_EXP * b_opt + rep),
        quantum_bits=math.floor(QUANTUM_EXP * b_opt + rep),
    )


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
