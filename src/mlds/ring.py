"""Arithmetic in R_q = Z_q[x]/(x^n + 1) and over rank-k modules.

Coefficient-domain and NTT-domain values are distinct types (``Poly`` vs
``NttPoly``); every operation checks the domain so the two can never be mixed
silently. Coefficients are stored canonically in [0, q); centered
representatives exist only inside the norm helper and the codec.

Every value array is int32: residues lie below q < 2^14. Module values are
stacked: a ``PolyVec`` is one (k, n) int32 array tagged with its row domain,
an ``NttMatrix`` one (k, k, n) array in NTT domain. Every value may also
carry leading batch axes: ``Poly``/``NttPoly`` data of shape (..., n),
``PolyVec`` (..., k, n), ``NttMatrix`` (..., k, k, n), one entry per trial of
a batch. The module axis of a vector is axis -2; its length and indexing
refer to that axis. Vector add/sub, ``matvec`` and ``inner_product`` act on
the trailing axes and broadcast over the leading ones, so a key without batch
axes combines with a batch of noise.

Reductions. A sum or difference of two residues lies in (-q, 2q), so one
conditional correction reduces it, written as one ``np.minimum`` over the
uint32 view: min(d, d - q) after an add, min(d, d + q) after a sub; the
wrong candidate wraps around to 2^32 - q or above and loses. Products need a
true ``% q``: ``matvec`` and ``inner_product`` sum k products below (q-1)^2
in int32 and reduce once, exact because ``validate_params`` keeps
k*(q-1)^2 below 2^31 (3.0e8 at k = 2, q = 12289).

Transforms stay one ``ntt``/``intt`` call per module row, each over the
(..., n) stack of that row in every trial. A cycle therefore transforms the
same polynomial slots however many trials it carries; stacking across module
rows is not done.

The forward transform is the definitional negacyclic ("gamma-twisted") NTT

    evals[i] = sum_j gamma^j * coeffs[j] * omega^(i*j)  mod q

with the exact inverse built the same way. Each is computed in two stages
over the split n = R1 * R2 (16 x 16 at n = 256; see ``NttConstants``): a
stack of B polynomials is viewed as (B, R1, R2); stage 1 is one float64
matrix product over the R1 axis, stage 2 one batched product of R1 (B, R2)
blocks with per-row (R2, R2) tables that carry the twiddles, and the result
is reduced mod q once in float64 and cast to int32. It is exact. Tables and
inputs lie in [0, q), so stage 1 gives integers below R1*(q-1)^2 and stage 2
integers y below n*(q-1)^3, which ``validate_params`` keeps below 2^53 (about
4.7e14 at n = 256, q = 12289); below 2^53 float64 holds integers exactly in
any summation order, so neither stage loses anything.

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

from .params import ParamSet, derive_ntt_constants


class DomainError(TypeError):
    """Coefficient-domain and NTT-domain values were mixed, or shapes disagree."""


@dataclass(frozen=True, eq=False)
class Poly:
    """Ring element in coefficient representation; entries in [0, q)."""

    coeffs: np.ndarray

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and np.array_equal(self.coeffs, other.coeffs)


@dataclass(frozen=True, eq=False)
class NttPoly:
    """Ring element in NTT (evaluation) representation; entries in [0, q)."""

    evals: np.ndarray

    def __eq__(self, other) -> bool:
        return isinstance(other, NttPoly) and np.array_equal(self.evals, other.evals)


@dataclass(frozen=True, eq=False)
class PolyVec:
    """Length-k vector over R_q: a (..., k, n) array whose rows are ``domain`` values.

    ``domain`` is ``Poly`` or ``NttPoly``; length and indexing refer to the
    module axis -2, and row i is the (..., n) stack of that row.
    """

    data: np.ndarray
    domain: type

    def __len__(self) -> int:
        return self.data.shape[-2]

    def __iter__(self):
        # indexing rows is several times cheaper than iterating the array
        return map(self.__getitem__, range(self.data.shape[-2]))

    def __getitem__(self, i):
        return self.domain(self.data[..., i, :])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyVec)
            and self.domain is other.domain
            and np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True, eq=False)
class NttMatrix:
    """k x k matrix over R_q in NTT domain: one (..., k, k, n) int32 array."""

    data: np.ndarray

    def __getitem__(self, ij) -> NttPoly:
        i, j = ij
        return NttPoly(self.data[..., i, j, :])


def _values(x) -> np.ndarray:
    """The value array of a Poly or NttPoly."""
    return x.coeffs if type(x) is Poly else x.evals


def _stack_rows(rows) -> np.ndarray:
    """(..., n) arrays stacked along a new module axis -2: (..., k, n).

    ``np.array`` stacks them along axis 0 and the batch comes back as a view
    with the module axis moved; this costs less than ``np.stack`` and keeps
    each module row contiguous, the layout the per-row transforms read.
    """
    stacked = np.array(rows)
    if stacked.ndim == 2:
        return stacked
    return stacked.swapaxes(0, 1) if stacked.ndim == 3 else np.moveaxis(stacked, 0, -2)


class Ring:
    """Operation set for one parameter set; pure functions, safe to share."""

    def __init__(self, params: ParamSet):
        """Raises ``ParamError`` for an invalid set (see ``derive_ntt_constants``)."""
        self.params = params
        self.n = params.n
        self.q = params.q
        self.k = params.k
        self.constants = derive_ntt_constants(params)
        self._forward = self.constants.stages(self.constants.forward)
        self._inverse = self.constants.stages(self.constants.inverse)

    # -- transforms --------------------------------------------------------

    def _transform(self, stages: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
        """Two-stage transform of each (..., n) row of x in [0, q); exact, see the module docstring.

        Stage 1 contracts the R1 axis of x viewed as (B, R1, R2), casting x
        to float64 inside the product; stage 2 runs the R1 blocks of (B, R2)
        through their (R2, R2) tables on a transposed view of stage 1's
        output. Stage 2's (R1, B, R2) result y is reduced in float64 as
        y - floor(y/q)*q, then the int32 cast writes it as (B, R2, R1), i.e.
        output index u1 + R1*u2. For an integer y < 2^53, floor(fl(y/q)) is
        exact: the fractional part of y/q is a multiple of 1/q, and the
        rounding error of y/q is below 1/(2q) at every y this transform
        makes (y < n*(q-1)^3 < 2^49 here; below 1/q for any y < 2^53).
        """
        first, second = stages
        r1, r2 = self.constants.split
        y = np.matmul((first @ x.reshape(-1, r1, r2)).transpose(1, 0, 2), second)
        quot = y / self.q
        np.floor(quot, out=quot)
        quot *= self.q
        y -= quot
        return y.transpose(1, 2, 0).astype(np.int32, order="C").reshape(x.shape)

    def ntt(self, p: Poly) -> NttPoly:
        if not isinstance(p, Poly):
            raise DomainError(f"ntt expects a coefficient-domain Poly, got {type(p).__name__}")
        return NttPoly(self._transform(self._forward, p.coeffs))

    def intt(self, p: NttPoly) -> Poly:
        if not isinstance(p, NttPoly):
            raise DomainError(f"intt expects an NTT-domain NttPoly, got {type(p).__name__}")
        return Poly(self._transform(self._inverse, p.evals))

    def vec_ntt(self, v: PolyVec) -> PolyVec:
        """One ``ntt`` call per module row, over that row's (..., n) stack."""
        return PolyVec(_stack_rows([self.ntt(p).evals for p in v]), NttPoly)

    def vec_intt(self, v: PolyVec) -> PolyVec:
        """One ``intt`` call per module row, over that row's (..., n) stack."""
        return PolyVec(_stack_rows([self.intt(p).coeffs for p in v]), Poly)

    # -- additive arithmetic (either domain, never mixed) -------------------

    def add(self, a, b):
        return self._elementwise(np.add, a, b, "add")

    def sub(self, a, b):
        return self._elementwise(np.subtract, a, b, "subtract")

    def _elementwise(self, op, a, b, verb: str):
        """op(a, b) mod q on two ring elements, or two vectors, of one domain.

        Leading batch axes broadcast. The sum or difference of two residues
        is reduced by one conditional correction (see the module docstring).
        """
        if type(a) is PolyVec and type(b) is PolyVec:
            if a.domain is b.domain and len(a) == len(b):
                return PolyVec(self._reduce_once(op, a.data, b.data), a.domain)
        elif type(a) is type(b) and type(a) in (Poly, NttPoly):
            return type(a)(self._reduce_once(op, _values(a), _values(b)))
        raise DomainError(f"cannot {verb} {type(a).__name__} and {type(b).__name__}: "
                          "domains or lengths differ")

    def _reduce_once(self, op, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """op(x, y) for int32 residues x, y, brought back into [0, q) by one np.minimum."""
        d = op(x, y)
        if d.dtype != np.int32:  # a uint32 view of wider values would split each one
            raise DomainError(f"ring values must be int32 arrays, got {d.dtype}")
        u = d.view(np.uint32)
        # min(d, d - q) after an add, min(d, d + q) after a sub: the wrong
        # candidate wraps around to 2^32 - q or above
        np.minimum(u, u - self.q if op is np.add else u + self.q, out=u)
        return d

    # -- multiplicative arithmetic ------------------------------------------

    def pointwise_mul(self, a: NttPoly, b: NttPoly) -> NttPoly:
        if not (isinstance(a, NttPoly) and isinstance(b, NttPoly)):
            raise DomainError("pointwise_mul is defined on NTT-domain values only")
        return NttPoly(a.evals * b.evals % self.q)

    def matvec(self, mat: NttMatrix, v: PolyVec) -> PolyVec:
        """M^T o v: out_j = sum_i M_ij o v_i; batch axes broadcast."""
        if v.domain is not NttPoly:
            raise DomainError("matvec operates on NTT-domain vectors")
        if mat.data.shape[-3:-1] != (len(v), len(v)):
            raise DomainError("matrix/vector rank mismatch")
        return PolyVec((mat.data * v.data[..., :, None, :]).sum(axis=-3, dtype=np.int32) % self.q, NttPoly)

    def inner_product(self, a: PolyVec, b: PolyVec) -> NttPoly:
        """sum_i a_i o b_i, one ring element in NTT domain (per trial of a batch)."""
        if a.domain is not NttPoly or b.domain is not NttPoly:
            raise DomainError("inner_product operates on NTT-domain vectors")
        if len(a) != len(b):
            raise DomainError("vector length mismatch")
        return NttPoly((a.data * b.data).sum(axis=-2, dtype=np.int32) % self.q)

    # -- norms ---------------------------------------------------------------

    def infinity_norm(self, x) -> int:
        """max_i min(c_i, q - c_i) over all coefficients (and trials) of a Poly or PolyVec."""
        if isinstance(x, Poly):
            c = x.coeffs
        elif isinstance(x, PolyVec) and x.domain is Poly:
            c = x.data
        else:
            raise DomainError("infinity norm is defined on coefficient-domain values")
        return int(np.max(np.minimum(c, self.q - c)))


@lru_cache(maxsize=8)
def get_ring(params: ParamSet) -> Ring:
    """Shared Ring instance per parameter set (immutable, thread-safe)."""
    return Ring(params)
