"""Core-SVP cost estimation for the primal and dual BKZ attacks.

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

Both attacks share one exact search over b in [50, n + max_samples + 1]
and m in [1, max_samples], over cells with b <= d; the minimum is taken in
(cost, b, m) order, so ties go to the smaller b, then the smaller m.

For fixed b a cell depends on m only through d = n' + m (n' = n + 1 for the
primal attack, n for the dual), by a term d ln delta(b) weighed against a term
(n'/d) ln q:

* primal: the margin rhs - (ln sigma + 1/2 ln b) equals a constant
  - d ln delta(b) - (n'/d) ln q, concave in d;
* dual: log2 ell = d log2 delta(b) + (n'/d) log2 q + const is convex in d,
  and the cost is non-decreasing in it (tau = 2^log2 ell, its clamp at 2^30,
  tau^2 and the max(0, .) are all monotone).

So over real d a row is best at d* = sqrt(n' ln q / ln delta(b)), clipped to
the row's admissible m, [max(1, b - n'), max_samples] (an empty row clips to
max_samples, where it stays infinite), and its value there bounds every cell
of the row. The search evaluates each b once, at that real m, as one (1, #b)
screen block lowered by SCREEN_SLACK = 1e-6: the primal tests rhs +
SCREEN_SLACK >= lhs, the dual multiplies its cost by 1 - SCREEN_SLACK. Float
error is far below that slack (about 1e-12, absolute on the primal rhs,
relative on the dual cost, at least 0.292 * 50), and an error in d* moves
the value only to second order, so a screen value is at most the float cost
of each cell of its row.

The row with the smallest screen value (the smaller b of a tie) is then
evaluated whole, over every m; if it has no finite cell, as the primal's
slack allows, the search goes on in screen order until one has. That
attained cost rules out every row whose screen value lies above it; the
rest, none to a few, are evaluated whole as one block, and the answer is
the (cost, b, m) minimum over the whole rows: ties go to the smaller b, then
the smaller m, and a flat row, where the dual max(0, .) or the tau clamp
holds the cost over several m, reports its smallest m. Every cost block,
the screen included, goes through ``_pick`` once.

ln delta(b) and the primal's 0.5 ln b depend on b alone, so the screen and
the whole rows read them, and b itself, from one cached, read-only table per
search bound b_max = n + max_samples + 1.

The dual grid clamps log2 tau at TAU_CLAMP_LOG2 = 30 to stay finite. A
clamped cell costs at most its model cost, so an optimum whose tau is below
the clamp is the model's optimum; one whose tau sits at the clamp would be
priced by the clamp, so ``dual_cost`` rejects it with EstimatorError.
Reported bit counts are floored to integers. The dual's are floor(cost) and
floor(0.265 b + cost - 0.292 b) at the optimum cell its search priced, so no
cell is priced twice. BKW-type and linearization attacks are out of scope.

This is a transparent reproduction of one cost model, not a replacement for
a full lattice estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CLASSICAL_EXP = 0.292
QUANTUM_EXP = 0.265
SIEVE_VECTORS_EXP = 0.2075
MIN_BLOCK = 50
SCREEN_SLACK = 1e-6  # see the module doc
TAU_CLAMP_LOG2 = 30.0  # log2 tau is clamped here in the grid; see dual_cost


class EstimatorError(ValueError):
    """Model misuse: invalid instance or no feasible attack in bounds."""


@dataclass(frozen=True)
class LweInstance:
    n_lwe: int
    q: int
    sigma: float
    max_samples: int

    def __post_init__(self):
        # whole numbers only, as in ParamSet: a fractional sample cap admits an m beyond it
        if not all(type(v) is int for v in (self.n_lwe, self.q, self.max_samples)):
            raise EstimatorError(f"n_lwe, q and max_samples must be ints (not bool): {self}")
        # isfinite also rejects NaN, for which sigma <= 0 is False, and inf
        if (self.n_lwe < 1 or self.q < 2 or not math.isfinite(self.sigma) or self.sigma <= 0
                or self.max_samples < 1):
            raise EstimatorError(f"invalid LWE instance {self}")

    @classmethod
    def from_binomial(cls, n_lwe: int, q: int, eta: int, max_samples: int | None = None):
        """Instance with psi_eta noise, sigma = sqrt(eta/2); default m cap 2n."""
        if type(eta) is not int or eta < 1:  # a bool is refused too
            raise EstimatorError(f"eta must be an int >= 1, got {eta!r}")
        if max_samples is None:
            max_samples = 2 * n_lwe
        return cls(n_lwe=n_lwe, q=q, sigma=math.sqrt(eta / 2), max_samples=max_samples)

    @classmethod
    def from_params(cls, p):
        """The instance a public key exposes, P = A^T s + e: k*n secret coefficients and
        k*n samples, sigma = sqrt(eta/2). ``p`` is a ParamSet, read by attribute only."""
        return cls.from_binomial(p.k * p.n, p.q, p.eta, p.k * p.n)


@dataclass(frozen=True)
class AttackEstimate:
    kind: str  # "primal" | "dual"
    m: int
    b: int
    classical_bits: int
    quantum_bits: int


def _log_delta(b: np.ndarray) -> np.ndarray:
    """ln delta(b), elementwise; the model holds for b >= MIN_BLOCK, where every search starts."""
    return (np.log(np.pi * b) / b + np.log(b / (2 * math.pi * math.e))) / (2.0 * (b - 1.0))


@lru_cache(maxsize=8)
def _b_table(b_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b, ln delta(b) and 0.5 ln b over b = MIN_BLOCK, ..., b_max, as read-only float64 arrays."""
    # float64 b: exact, and no int-to-float cast in each expression over it
    b = np.arange(float(MIN_BLOCK), b_max + 1.0)
    table = b, _log_delta(b), 0.5 * np.log(b)
    for column in table:
        column.flags.writeable = False
    return table


def _pick(cost: np.ndarray, m: np.ndarray, b: np.ndarray) -> tuple | None:
    """The (cost, b, m) lexicographic minimum of a cost block, None if no cell is finite.

    ``cost`` holds one column per entry of ``b``; ``m``, 2-D, broadcasts against it,
    one m per cell.
    """
    per_b = cost.min(axis=0)
    col = per_b.argmin()  # first minimum: smallest b
    row = cost[:, col].argmin()  # first minimum: smallest m
    # m is 2-D, so an axis it broadcasts along has length 1 and is read at index 0
    cand = (per_b[col], int(b[col]), int(m[row % m.shape[0], col % m.shape[1]]))
    return cand if math.isfinite(cand[0]) else None


def _search(inst: LweInstance, block_cost, offset: int) -> tuple | None:
    """(cost, b, m) minimum over every cell, None if no cell is finite; see the module doc.

    ``block_cost(m, b, log_delta, half_log_b, slack)`` returns the cost of each cell of the
    broadcast block, lowered by ``slack`` as the module doc says (0: the cost itself);
    ``log_delta`` is ln delta(b) and ``half_log_b`` 0.5 ln b, both shaped like ``b``. A
    cell's lattice dimension is d = n_lwe + offset + m, and b <= d. An instance whose every d
    lies below MIN_BLOCK raises EstimatorError.
    """
    n = inst.n_lwe + offset
    if n + inst.max_samples < MIN_BLOCK:  # b <= d then leaves no cell
        raise EstimatorError(
            f"the largest lattice dimension, {n + inst.max_samples} at m = max_samples, is below "
            f"MIN_BLOCK = {MIN_BLOCK}, the smallest block size the delta(b) model holds for")
    b, log_delta, half_log_b = _b_table(inst.n_lwe + inst.max_samples + 1)
    # each row's optimum over real d, d* = sqrt(n ln q / ln delta(b)), as m = d* - n, clipped
    # to the row's [max(1, b - n), max_samples]; an empty row clips to max_samples
    m = n * math.log(inst.q) / log_delta
    np.sqrt(m, out=m)
    m -= n
    low = b - n
    np.maximum(m, np.maximum(low, 1.0, out=low), out=m)
    m = np.minimum(m, inst.max_samples, out=m)[None, :]
    screen = block_cost(m, b, log_delta, half_log_b, SCREEN_SLACK)
    first = _pick(screen, m, b)
    if first is None:  # each screen value bounds its row's cells from below
        return None
    screen, m = screen[0], np.arange(1.0, inst.max_samples + 1)[:, None]

    def whole(i):  # every m of the rows b[i], i ascending; None if no cell is finite
        # built b-major, so that _pick reduces over m along contiguous memory
        cost = block_cost(m.T, b[i, None], log_delta[i, None], half_log_b[i, None], 0.0)
        return _pick(cost.T, m, b[i])

    i = first[1] - MIN_BLOCK
    while (best := whole([i])) is None:  # the slack can pass a row with no finite cell
        screen[i] = np.inf
        i = screen.argmin()  # the next row in screen order
        if screen[i] == np.inf:
            return None
    screen[i] = np.inf  # evaluated
    # a row whose screen value lies above an attained cost (so any inf) cannot beat or tie it
    rest = np.flatnonzero(screen <= best[0])
    return min(best, whole(rest) or best) if rest.size else best


def primal_cost(inst: LweInstance) -> AttackEstimate:
    """Cheapest uSVP embedding: the smallest feasible b, then the smallest m."""
    def block_cost(m, b, log_delta, half_log_b, slack):
        d = m + (inst.n_lwe + 1.0)  # n_lwe + m + 1, exact in float64
        rhs = (2 * b - 1.0) - d  # 2b - d - 1, exact in float64
        rhs *= log_delta
        q_term = m / d
        rhs += np.multiply(q_term, math.log(inst.q), out=q_term)
        rhs += slack
        ok = rhs >= math.log(inst.sigma) + half_log_b
        return np.where(np.logical_and(ok, b <= d, out=ok), CLASSICAL_EXP * b, np.inf)

    best = _search(inst, block_cost, 1)
    if best is None:
        raise EstimatorError("no (m, b) satisfies the primal embedding condition in bounds")
    _, b_opt, m_opt = best
    return AttackEstimate("primal", m_opt, b_opt, math.floor(CLASSICAL_EXP * b_opt),
                          math.floor(QUANTUM_EXP * b_opt))


def _dual_log2_tau(inst: LweInstance, m, log_delta):
    """log2 tau = log2(ell sigma / q), unclamped: plain arithmetic, on broadcast arrays or floats."""
    d = inst.n_lwe + m
    log2_tau = d * (log_delta / math.log(2))
    log2_tau += (inst.n_lwe / d) * math.log2(inst.q)
    log2_tau += math.log2(inst.sigma / inst.q)
    return log2_tau


def _dual_log2_rep(inst: LweInstance, m: np.ndarray, b: np.ndarray,
                   log_delta: np.ndarray) -> np.ndarray:
    """log2 of the repetition count R, elementwise over the broadcast m, b, ln delta(b) arrays."""
    log2_tau = _dual_log2_tau(inst, m, log_delta)
    # clamp the exponent to dodge overflow at huge ell; dual_cost rejects a clamped optimum
    tau = np.exp2(np.minimum(log2_tau, TAU_CLAMP_LOG2, out=log2_tau), out=log2_tau)
    log2_rep = -2 * math.pi**2 * tau
    log2_rep *= tau
    log2_rep /= math.log(2)  # log2(eps)
    log2_rep *= -2
    log2_rep -= SIEVE_VECTORS_EXP * b
    return np.maximum(0.0, log2_rep, out=log2_rep)


def dual_cost(inst: LweInstance) -> AttackEstimate:
    """Cheapest dual distinguisher over the (m, b) grid.

    The distinguisher model needs noise that is not already close to uniform
    mod q; an instance with sigma * sqrt(2 pi) >= q is outside it. An optimum
    whose tau sits at the 2^30 clamp is priced by the clamp, not the model, so
    it is rejected too; the bit counts are read from the optimum cell the search priced.
    """
    if inst.sigma * math.sqrt(2 * math.pi) >= inst.q:
        raise EstimatorError(
            f"dual model needs sigma*sqrt(2*pi) < q; sigma={inst.sigma:g}, q={inst.q} "
            "gives noise statistically close to uniform mod q"
        )

    def block_cost(m, b, log_delta, _, slack):
        cost = _dual_log2_rep(inst, m, b, log_delta)
        cost += CLASSICAL_EXP * b
        cost[m < b - inst.n_lwe] = np.inf  # b > d, exact in float64
        return np.multiply(cost, 1.0 - slack, out=cost)

    best = _search(inst, block_cost, 0)
    if best is None:
        raise EstimatorError("no (m, b) yields a finite dual cost in bounds")
    cost, b_opt, m_opt = best
    log_delta = float(_b_table(inst.n_lwe + inst.max_samples + 1)[1][b_opt - MIN_BLOCK])
    if _dual_log2_tau(inst, m_opt, log_delta) >= TAU_CLAMP_LOG2:
        raise EstimatorError(
            f"dual optimum (m={m_opt}, b={b_opt}) has log2 tau at the clamp {TAU_CLAMP_LOG2:g}: "
            "its cost is the clamp's, not the model's"
        )
    rep = cost - CLASSICAL_EXP * b_opt  # log2 R within an ulp of cost (Sterbenz); 0 at R = 1
    return AttackEstimate("dual", m_opt, b_opt, math.floor(cost),
                          math.floor(QUANTUM_EXP * b_opt + rep))
