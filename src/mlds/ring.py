"""Arithmetic in R_q = Z_q[x]/(x^n + 1) and over rank-k modules.

Coefficient-domain and NTT-domain values are distinct types (``Poly`` vs
``NttPoly``); every operation checks the domain so the two can never be mixed
silently. Coefficients are stored canonically in [0, q); centered
representatives exist only inside the norm helper and the codec.

Module values are stacked: a ``PolyVec`` is one (k, n) int64 array tagged
with its row domain, an ``NttMatrix`` one (k, k, n) array in NTT domain.
Every value may also carry leading batch axes: ``Poly``/``NttPoly`` data of
shape (..., n), ``PolyVec`` (..., k, n), ``NttMatrix`` (..., k, k, n), one
entry per trial of a batch. The module axis of a vector is axis -2; its
length and indexing refer to that axis. Vector add/sub, ``matvec`` and
``inner_product`` act on the trailing axes and broadcast over the leading
ones, as one expression and one ``% q`` each (sums of k products below q^2,
exact in int64), so a key without batch axes combines with a batch of noise.

Transforms stay one ``ntt``/``intt`` call per module row, each over the
(..., n) stack of that row in every trial: ``x @ table.T`` is one BLAS
matrix product for a stack and the same matrix-vector product for one
polynomial. A cycle therefore transforms the same polynomial slots however
many trials it carries; stacking across module rows is not done.

The forward transform is the definitional negacyclic ("gamma-twisted") NTT

    evals[i] = sum_j gamma^j * coeffs[j] * omega^(i*j)  mod q

realized as a single precomputed matrix product, with the exact inverse
built the same way. The tables are float64 (see ``NttConstants``): a
transform is one BLAS matrix-vector product, cast to int64 and reduced
mod q. It is exact. Tables and inputs lie in [0, q), so every partial sum is
an integer of at most n*(q-1)^2, which ``validate_params`` keeps below 2^53
(about 3.9e10 at n = 256, q = 12289); below 2^53 float64 holds integers
exactly in any summation order, so the cast loses nothing.
``schoolbook_mul`` is an independent O(n^2) oracle (plain convolution +
x^n = -1 folding) for testing the NTT path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import ParamSet, NttConstants, derive_ntt_constants, validate_params, ParamError


class DomainError(TypeError):
    """Coefficient-domain and NTT-domain values were mixed, or shapes disagree."""


def _as_coeff_array(values, n: int, q: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= q:
        raise ValueError(f"coefficients must lie in [0, {q})")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


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
    """k x k matrix over R_q in NTT domain: one (..., k, k, n) int64 array."""

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

    def __init__(self, params: ParamSet, constants: NttConstants | None = None):
        errors = validate_params(params)
        if errors:
            raise ParamError("; ".join(errors))
        self.params = params
        self.n = params.n
        self.q = params.q
        self.k = params.k
        self.constants = constants if constants is not None else derive_ntt_constants(params)

    # -- construction ------------------------------------------------------

    def poly(self, values) -> Poly:
        return Poly(_as_coeff_array(values, self.n, self.q))

    def ntt_poly(self, values) -> NttPoly:
        return NttPoly(_as_coeff_array(values, self.n, self.q))

    def zero(self) -> Poly:
        return Poly(_as_coeff_array(np.zeros(self.n, dtype=np.int64), self.n, self.q))

    def one(self) -> Poly:
        c = np.zeros(self.n, dtype=np.int64)
        c[0] = 1
        return Poly(_as_coeff_array(c, self.n, self.q))

    def monomial(self, degree: int, coeff: int = 1) -> Poly:
        c = np.zeros(self.n, dtype=np.int64)
        c[degree] = coeff % self.q
        return Poly(_as_coeff_array(c, self.n, self.q))

    def vec(self, elems) -> PolyVec:
        """Stack k ring elements of one domain into a module vector."""
        elems = tuple(elems)
        if len(elems) != self.k:
            raise ValueError(f"expected module rank {self.k}, got {len(elems)}")
        domain = type(elems[0])
        if domain not in (Poly, NttPoly) or any(type(e) is not domain for e in elems):
            raise DomainError("module vector entries must be all-Poly or all-NttPoly")
        return PolyVec(_stack_rows([_values(e) for e in elems]), domain)

    # -- transforms --------------------------------------------------------

    def _apply_table(self, table: np.ndarray, x: np.ndarray) -> np.ndarray:
        """table @ row mod q for each (..., n) row of x, via float64; exact on [0, q)."""
        return (x.astype(np.float64) @ table.T).astype(np.int64) % self.q

    def ntt(self, p: Poly) -> NttPoly:
        if not isinstance(p, Poly):
            raise DomainError(f"ntt expects a coefficient-domain Poly, got {type(p).__name__}")
        return NttPoly(self._apply_table(self.constants.forward, p.coeffs))

    def intt(self, p: NttPoly) -> Poly:
        if not isinstance(p, NttPoly):
            raise DomainError(f"intt expects an NTT-domain NttPoly, got {type(p).__name__}")
        return Poly(self._apply_table(self.constants.inverse, p.evals))

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

        Leading batch axes broadcast.
        """
        if type(a) is PolyVec and type(b) is PolyVec:
            if a.domain is b.domain and len(a) == len(b):
                return PolyVec(op(a.data, b.data) % self.q, a.domain)
        elif type(a) is type(b) and type(a) in (Poly, NttPoly):
            return type(a)(op(_values(a), _values(b)) % self.q)
        raise DomainError(f"cannot {verb} {type(a).__name__} and {type(b).__name__}: "
                          "domains or lengths differ")

    # -- multiplicative arithmetic ------------------------------------------

    def pointwise_mul(self, a: NttPoly, b: NttPoly) -> NttPoly:
        if not (isinstance(a, NttPoly) and isinstance(b, NttPoly)):
            raise DomainError("pointwise_mul is defined on NTT-domain values only")
        return NttPoly(a.evals * b.evals % self.q)

    def mul(self, a: Poly, b: Poly) -> Poly:
        """Negacyclic product via NTT: intt(ntt(a) o ntt(b))."""
        return self.intt(self.pointwise_mul(self.ntt(a), self.ntt(b)))

    def schoolbook_mul(self, a: Poly, b: Poly) -> Poly:
        """O(n^2) negacyclic oracle: c_t = sum_{i+j = t mod n} (-1)^[i+j >= n] a_i b_j."""
        if not (isinstance(a, Poly) and isinstance(b, Poly)):
            raise DomainError("schoolbook_mul is defined on coefficient-domain values only")
        conv = np.convolve(a.coeffs, b.coeffs)  # length 2n-1, max < n*q^2 << 2^63
        low = conv[: self.n]
        high = np.concatenate([conv[self.n :], np.zeros(1, dtype=np.int64)])
        return Poly((low - high) % self.q)

    def matvec(self, mat: NttMatrix, v: PolyVec, transpose: bool = False) -> PolyVec:
        """out_i = sum_j M_ij o v_j with M the matrix or its transpose; batch axes broadcast."""
        if v.domain is not NttPoly:
            raise DomainError("matvec operates on NTT-domain vectors")
        if mat.data.shape[-3:-1] != (len(v), len(v)):
            raise DomainError("matrix/vector rank mismatch")
        m = mat.data.swapaxes(-3, -2) if transpose else mat.data
        return PolyVec((m * v.data[..., None, :, :]).sum(axis=-2) % self.q, NttPoly)

    def inner_product(self, a: PolyVec, b: PolyVec) -> NttPoly:
        """sum_i a_i o b_i, one ring element in NTT domain (per trial of a batch)."""
        if a.domain is not NttPoly or b.domain is not NttPoly:
            raise DomainError("inner_product operates on NTT-domain vectors")
        if len(a) != len(b):
            raise DomainError("vector length mismatch")
        return NttPoly((a.data * b.data).sum(axis=-2) % self.q)

    # -- norms ---------------------------------------------------------------

    def centered(self, p: Poly) -> np.ndarray:
        """Coefficients mapped to the centered range (-q/2, q/2]."""
        if not isinstance(p, Poly):
            raise DomainError("centered representatives exist in coefficient domain only")
        c = p.coeffs
        return np.where(c > self.q // 2, c - self.q, c)

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
