"""Arithmetic in R_q = Z_q[x]/(x^n + 1) and over rank-k modules.

Every value is one type, ``RqArray``: an int32 array of shape (..., rows, n)
tagged with its domain, ``COEFF`` (coefficients) or ``NTT`` (evaluations).
One rule, ``Ring._operand``, checks every operand of every operation: an
``RqArray`` in the operation's domain holding an int32 (..., *rows, n) ndarray,
rows (1,) for ``ntt``/``intt``, (k, k) and (k,) for ``matvec``, any for the
vector transforms, and for add/sub, ``pointwise_mul`` and ``inner_product``
the first operand's; a second operand's leading batch axes must broadcast
against the first's. Anything else raises ``DomainError`` naming the operation.
``codec.decode_bits`` reads its (..., 1, n) coefficient row through the same rule.
Entries are stored canonically in [0, q), for any q that ``ParamSet``
admits (below 2^15 at n = 256, k = 2; see the exactness bounds below); centered
representatives exist only inside the codec's decoder and verify's noise.

Axis -1 holds one ring element's n entries and axis -2 the module rows: a
ring element has one row, a length-k vector k rows, and a k x k matrix is an
NTT-domain (..., k, k, n) array. A single element keeps its row axis, so a
batch axis is never taken for a module axis. Leading axes are batch axes,
one entry per trial of a batch. add/sub, ``matvec`` and ``inner_product``
act on the trailing axes and broadcast over the leading ones, so a key
without batch axes combines with a batch of noise.

Reductions. A sum or difference of two residues lies in (-q, 2q), so one
conditional correction reduces it, written as one ``np.minimum`` over the
uint32 view: min(d, d - q) after an add, min(d, d + q) after a sub; the
wrong candidate wraps around to 2^32 - q or above and loses. Products need a
true ``% q``: ``matvec`` and ``inner_product`` sum k products below (q-1)^2
in int32 and reduce once, exact because ``ParamSet`` keeps
k*(q-1)^2 below 2^31 (3.0e8 at k = 2, q = 12289).

``ntt``/``intt`` transform one row, over its (..., 1, n) stack in every
trial, and ``vec_ntt``/``vec_intt`` make one such call per module row. A
cycle therefore transforms the same polynomial slots however many trials it
carries. ``_transform`` would take all rows at once, but the row loop stays
while the benchmark counts transform calls (19 per z2 cycle,
``perfbench/test_perfbench.py``).

The transforms (defined, with their two-stage layout, in ``NttConstants``)
multiply float64 tables by int32 inputs and reduce mod q once, in float64,
before the int32 cast. They are exact. Tables and inputs lie in [0, q), so
stage 1 gives integers below R1*(q-1)^2 and stage 2 integers y below
n*(q-1)^3, which ``ParamSet`` keeps below 2^53 (about 4.7e14 at
n = 256, q = 12289); below 2^53 float64 holds integers exactly in any
summation order, so neither stage loses anything.

The reduction y - floor(fl(y/q))*q is exact as well. Write y = a*q + r with
0 <= r < q: the fractional part of y/q is a multiple of 1/q, so y/q lies in
[a, a + 1 - 1/q]. A correctly rounded division errs by at most (y/q)*2^-53,
which is below 1/(2q) for y < 2^52 (4.7e14 < 2^49 here) and below 1/q for
any y < 2^53; either way fl(y/q) stays below a + 1, and it is at least
fl(a) = a because rounding is monotone. So floor(fl(y/q)) = a, a*q and
y - a*q are integers below 2^53, and the result r is exact in float64 and in
the int32 cast. The cast must come after the reduction: y itself runs up to
4.7e14, far beyond int32.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import ParamSet, _prime_factors


class DomainError(TypeError):
    """Coefficient-domain and NTT-domain values were mixed, or shapes disagree."""


COEFF = "coeff"
NTT = "ntt"


# Slotted and not frozen. A one-trial sign to wire builds 36 of these and a parse_sig +
# verify 18; a build takes 0.19 us, against 0.43-0.48 us frozen, whose __init__ sets
# each field through object.__setattr__ (timeit, 2-vCPU Xeon). The slots keep the
# build cheap, and tests/test_layers.py::test_no_module_rebinds_a_ring_value keeps
# data and domain from being rebound.
@dataclass(eq=False, slots=True)
class RqArray:
    """Values over R_q: an int32 (..., rows, n) array of entries in [0, q), in ``domain``.

    ``domain`` is ``COEFF`` or ``NTT``; see the module docstring for the axes.
    """

    data: np.ndarray
    domain: str

    def __eq__(self, other) -> bool:
        return (isinstance(other, RqArray) and self.domain == other.domain
                and np.array_equal(self.data, other.data))


@dataclass(frozen=True, eq=False)
class NttConstants:
    """Roots of unity and transform tables for the negacyclic NTT mod q.

    gamma is a primitive 2n-th root of unity (so gamma^n = -1), omega = gamma^2
    a primitive n-th root. The transforms

        forward:  evals[i] = sum_j gamma^j * omega^(i*j) * coeffs[j]
        inverse:  coeffs[j] = n^-1 * gamma^-j * sum_i omega^(-i*j) * evals[i]

    are computed in two stages over the split n = R1 * R2 (``split``; 16 x 16
    at n = 256, 8 x 16 at 128, 16 x 32 at 512). The input index is
    j = R2*v1 + v2 and the output index i = u1 + R1*u2, so
    omega^(i*j) = omega^(R2*u1*v1) * omega^(u1*v2) * omega^(R1*u2*v2) and

        stage 1 (u1 x v1):       omega^(R2*u1*v1) * gamma^(R2*v1)
        stage 2 (u1, v2 x u2):   omega^(u1*v2) * omega^(R1*u2*v2) * gamma^v2

    for the forward transform; the inverse folds n^-1 * gamma^-u1 into stage 1
    and gamma^(-R1*u2) into stage 2 instead. ``forward`` and ``inverse`` each
    hold the stage-1 table (R1 x R1) followed by the stage-2 table
    (R1 x R2 x R2), flattened into one float64 array of entries in [0, q);
    ``stages`` gives the two as shaped views.

    ``Ring`` views a stack of B polynomials as (B, R1, R2), indexed (v1, v2).
    Stage 1 is one matrix product over the R1 axis, giving (B, R1, R2)
    indexed (u1, v2) and read as (R1, B, R2); stage 2 runs each of the R1
    (B, R2) blocks through its (R2, R2) table, giving (R1, B, R2) indexed
    (u1, u2), which is reduced mod q and written as (B, R2, R1), i.e. output
    index u1 + R1*u2.
    """

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


def _smallest_generator(q: int) -> int:
    factors = _prime_factors(q - 1)
    g = 2
    while True:
        if all(pow(g, (q - 1) // p, q) != 1 for p in factors):
            return g
        g += 1


def derive_ntt_constants(p: ParamSet) -> NttConstants:
    """Derive the NTT root/table set for ``p``. Deterministic; ``get_ring`` caches it per set.

    A ``ParamSet`` makes q a prime = 1 mod 2n, so gamma has order exactly 2n.
    """
    n, q = p.n, p.q
    # Fixed root-selection rule so every implementation lands on the same
    # tables: exponentiate the smallest generator of Z_q^*.
    g = _smallest_generator(q)
    gamma = pow(g, (q - 1) // (2 * n), q)
    omega = gamma * gamma % q

    n_inv = pow(n, -1, q)
    r1 = 1 << ((n.bit_length() - 1) // 2)
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
        gamma=gamma, omega=omega, n_inv=n_inv,
        split=(r1, r2), forward=flat(forward), inverse=flat(inverse),
    )


class Ring:
    """Operation set for one parameter set; pure functions, safe to share."""

    def __init__(self, params: ParamSet):
        self.params = params
        self.n = params.n
        self.q = params.q
        self.k = params.k
        self.constants = derive_ntt_constants(params)
        self._forward = self.constants.stages(self.constants.forward)
        self._inverse = self.constants.stages(self.constants.inverse)

    # -- transforms --------------------------------------------------------

    def _transform(self, stages: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
        """Two-stage transform of each (..., n) row of x in [0, q); layout in
        ``NttConstants``, exactness in the module docstring."""
        first, second = stages
        r1, r2 = self.constants.split
        y = np.matmul((first @ x.reshape(-1, r1, r2)).transpose(1, 0, 2), second)
        quot = y / self.q
        np.floor(quot, out=quot)
        quot *= self.q
        y -= quot
        return y.transpose(1, 2, 0).astype(np.int32, order="C").reshape(x.shape)

    def ntt(self, p: RqArray) -> RqArray:
        """Forward transform of one coefficient-domain row, (..., 1, n)."""
        return RqArray(self._transform(self._forward, self._operand("ntt", p, COEFF, (1, self.n))), NTT)

    def intt(self, p: RqArray) -> RqArray:
        """Inverse transform of one NTT-domain row, (..., 1, n)."""
        return RqArray(self._transform(self._inverse, self._operand("intt", p, NTT, (1, self.n))), COEFF)

    def vec_ntt(self, v: RqArray) -> RqArray:
        """One ``ntt`` call per module row, over that row's (..., 1, n) stack."""
        return self._rows("vec_ntt", self.ntt, v, COEFF, NTT)

    def vec_intt(self, v: RqArray) -> RqArray:
        """One ``intt`` call per module row, over that row's (..., 1, n) stack."""
        return self._rows("vec_intt", self.intt, v, NTT, COEFF)

    def _rows(self, verb: str, transform, v: RqArray, source: str, target: str) -> RqArray:
        """``transform`` of each module row of v, written into one (..., rows, n) int32 array."""
        data = self._operand(verb, v, source)
        out = np.empty(data.shape, dtype=np.int32)
        for i in range(data.shape[-2]):
            out[..., i : i + 1, :] = transform(RqArray(data[..., i : i + 1, :], source)).data
        return RqArray(out, target)

    def _operand(self, verb: str, value, domain: str | None, tail: tuple | None = None,
                 batch: tuple | None = None) -> np.ndarray:
        """The data of ``value``: an RqArray in ``domain`` (either, for None) whose data is an int32
        ndarray of shape (..., *tail), tail = (*rows, n); with no tail, (..., rows, n), any rows.
        With ``batch``, the other operand's batch shape, the leading axes must broadcast with it."""
        if (type(value) is RqArray and value.domain in ((domain,) if domain else (COEFF, NTT))
                and type(data := value.data) is np.ndarray and data.dtype == np.int32
                and (data.shape[-len(tail):] == tail if tail
                     else data.ndim >= 2 and data.shape[-1] == self.n)
                # equal shapes first: 0.02 us, against 1.6-2.2 us for np.broadcast_shapes (2-vCPU Xeon)
                and (batch is None or (lead := data.shape[:-len(tail)]) == batch
                     or _broadcasts(lead, batch))):
            return data
        shape = ", ".join(map(str, tail or ("rows", self.n)))
        axes = "" if batch is None else f" whose batch axes broadcast with {batch}"
        raise DomainError(f"{verb} takes {domain or 'same-domain'} values: int32 (..., {shape}) "
                          f"arrays{axes}")

    # -- additive arithmetic (either domain, never mixed) -------------------

    def add(self, a: RqArray, b: RqArray) -> RqArray:
        return self._elementwise(np.add, a, b, "add")

    def sub(self, a: RqArray, b: RqArray) -> RqArray:
        return self._elementwise(np.subtract, a, b, "sub")

    def _elementwise(self, op, a: RqArray, b: RqArray, verb: str) -> RqArray:
        """op(a, b) mod q on two values of one domain and one row count.

        Leading batch axes broadcast, module rows do not. The sum or
        difference of two residues is reduced by one conditional correction
        (see the module docstring).
        """
        x = self._operand(verb, a, None)
        d = op(x, self._operand(verb, b, a.domain, x.shape[-2:], x.shape[:-2]))
        u = d.view(np.uint32)  # int32 operands keep d int32, so each entry is one uint32
        # min(d, d - q) after an add, min(d, d + q) after a sub: the wrong
        # candidate wraps around to 2^32 - q or above
        np.minimum(u, u - self.q if op is np.add else u + self.q, out=u)
        return RqArray(d, a.domain)

    # -- multiplicative arithmetic ------------------------------------------

    def pointwise_mul(self, a: RqArray, b: RqArray) -> RqArray:
        """a o b, entry by entry, on two NTT-domain values of one row count."""
        x = self._operand("pointwise_mul", a, NTT)
        y = self._operand("pointwise_mul", b, NTT, x.shape[-2:], x.shape[:-2])
        return RqArray(x * y % self.q, NTT)

    def matvec(self, mat: RqArray, v: RqArray) -> RqArray:
        """M^T o v: out_j = sum_i M_ij o v_i for a (..., k, k, n) M; batch axes broadcast."""
        m = self._operand("matvec", mat, NTT, (self.k, self.k, self.n))
        x = self._operand("matvec", v, NTT, (self.k, self.n), m.shape[:-3])
        return RqArray((m * x[..., :, None, :]).sum(axis=-3, dtype=np.int32) % self.q, NTT)

    def inner_product(self, a: RqArray, b: RqArray) -> RqArray:
        """sum_i a_i o b_i: one NTT-domain row, (..., 1, n), per trial of a batch."""
        x = self._operand("inner_product", a, NTT)
        y = self._operand("inner_product", b, NTT, x.shape[-2:], x.shape[:-2])
        return RqArray((x * y).sum(axis=-2, dtype=np.int32, keepdims=True) % self.q, NTT)


def _broadcasts(a: tuple, b: tuple) -> bool:
    try:
        np.broadcast_shapes(a, b)
    except ValueError:
        return False
    return True


@lru_cache(maxsize=8)
def get_ring(params: ParamSet) -> Ring:
    """Shared Ring instance per parameter set (immutable, thread-safe)."""
    return Ring(params)
