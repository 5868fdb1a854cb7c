"""Arithmetic in R_q = Z_q[x]/(x^n + 1) and over rank-k modules.

Coefficient-domain and NTT-domain values are distinct types (``Poly`` vs
``NttPoly``); every operation checks the domain so the two can never be mixed
silently. Coefficients are stored canonically in [0, q); centered
representatives exist only inside the norm helper and the codec.

The forward transform is the definitional negacyclic ("gamma-twisted") NTT

    evals[i] = sum_j gamma^j * coeffs[j] * omega^(i*j)  mod q

realized as a single precomputed matrix product, with the exact inverse
built the same way. The tables are float64 (see ``NttConstants``): a
transform is one BLAS matrix-vector product, then the float reduction
y - floor(y/q)*q, cast back to int64. It is exact. Tables and inputs lie in
[0, q), so every partial sum is an integer of at most n*(q-1)^2, which
``validate_params`` keeps below 2^53 (about 3.9e10 at n = 256, q = 12289);
below 2^53 float64 holds integers exactly in any summation order, and y/q
rounds to the correct side of every integer, so floor(y/q) is exact too.
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
    """Length-k vector over R_q; all entries share one domain."""

    elems: tuple

    def __post_init__(self):
        if not self.elems:
            raise ValueError("empty module vector")
        kinds = {type(e) for e in self.elems}
        if kinds == {Poly}:
            pass
        elif kinds == {NttPoly}:
            pass
        else:
            raise DomainError("module vector entries must be all-Poly or all-NttPoly")

    @property
    def domain(self) -> type:
        return type(self.elems[0])

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyVec)
            and len(self) == len(other)
            and all(a == b for a, b in zip(self.elems, other.elems))
        )


@dataclass(frozen=True, eq=False)
class NttMatrix:
    """k x k matrix over R_q, entries in NTT domain."""

    rows: tuple

    def __post_init__(self):
        k = len(self.rows)
        if k == 0 or any(len(r) != k for r in self.rows):
            raise ValueError("matrix must be square and non-empty")
        if any(not isinstance(e, NttPoly) for r in self.rows for e in r):
            raise DomainError("matrix entries must be NttPoly")

    @property
    def k(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]


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
        v = PolyVec(tuple(elems))
        if len(v) != self.k:
            raise ValueError(f"expected module rank {self.k}, got {len(v)}")
        return v

    # -- transforms --------------------------------------------------------

    def _apply_table(self, table: np.ndarray, x: np.ndarray) -> np.ndarray:
        """table @ x mod q in float64, exact for inputs in [0, q)."""
        y = table @ x.astype(np.float64)
        y -= np.floor(y / self.q) * self.q
        return y.astype(np.int64)

    def ntt(self, p: Poly) -> NttPoly:
        if not isinstance(p, Poly):
            raise DomainError(f"ntt expects a coefficient-domain Poly, got {type(p).__name__}")
        return NttPoly(self._apply_table(self.constants.forward, p.coeffs))

    def intt(self, p: NttPoly) -> Poly:
        if not isinstance(p, NttPoly):
            raise DomainError(f"intt expects an NTT-domain NttPoly, got {type(p).__name__}")
        return Poly(self._apply_table(self.constants.inverse, p.evals))

    def vec_ntt(self, v: PolyVec) -> PolyVec:
        return PolyVec(tuple(self.ntt(e) for e in v))

    def vec_intt(self, v: PolyVec) -> PolyVec:
        return PolyVec(tuple(self.intt(e) for e in v))

    # -- additive arithmetic (either domain, never mixed) -------------------

    def add(self, a, b):
        if isinstance(a, PolyVec) and isinstance(b, PolyVec):
            if len(a) != len(b):
                raise DomainError("vector length mismatch")
            return PolyVec(tuple(self.add(x, y) for x, y in zip(a, b)))
        if isinstance(a, Poly) and isinstance(b, Poly):
            return Poly((a.coeffs + b.coeffs) % self.q)
        if isinstance(a, NttPoly) and isinstance(b, NttPoly):
            return NttPoly((a.evals + b.evals) % self.q)
        raise DomainError(f"cannot add {type(a).__name__} and {type(b).__name__}")

    def sub(self, a, b):
        if isinstance(a, PolyVec) and isinstance(b, PolyVec):
            if len(a) != len(b):
                raise DomainError("vector length mismatch")
            return PolyVec(tuple(self.sub(x, y) for x, y in zip(a, b)))
        if isinstance(a, Poly) and isinstance(b, Poly):
            return Poly((a.coeffs - b.coeffs) % self.q)
        if isinstance(a, NttPoly) and isinstance(b, NttPoly):
            return NttPoly((a.evals - b.evals) % self.q)
        raise DomainError(f"cannot subtract {type(b).__name__} from {type(a).__name__}")

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
        """out_i = sum_j M_ij o v_j with M the matrix or its transpose."""
        if v.domain is not NttPoly:
            raise DomainError("matvec operates on NTT-domain vectors")
        if mat.k != len(v):
            raise DomainError("matrix/vector rank mismatch")
        k = mat.k
        out = []
        for i in range(k):
            acc = np.zeros(self.n, dtype=np.int64)
            for j in range(k):
                entry = mat[j, i] if transpose else mat[i, j]
                acc += entry.evals * v[j].evals % self.q
            out.append(NttPoly(acc % self.q))
        return PolyVec(tuple(out))

    def inner_product(self, a: PolyVec, b: PolyVec) -> NttPoly:
        """sum_i a_i o b_i, one ring element in NTT domain."""
        if a.domain is not NttPoly or b.domain is not NttPoly:
            raise DomainError("inner_product operates on NTT-domain vectors")
        if len(a) != len(b):
            raise DomainError("vector length mismatch")
        acc = np.zeros(self.n, dtype=np.int64)
        for x, y in zip(a, b):
            acc += x.evals * y.evals % self.q
        return NttPoly(acc % self.q)

    # -- norms ---------------------------------------------------------------

    def centered(self, p: Poly) -> np.ndarray:
        """Coefficients mapped to the centered range (-q/2, q/2]."""
        if not isinstance(p, Poly):
            raise DomainError("centered representatives exist in coefficient domain only")
        c = p.coeffs
        return np.where(c > self.q // 2, c - self.q, c)

    def infinity_norm(self, x) -> int:
        """max_i min(c_i, q - c_i) over all coefficients of a Poly or PolyVec."""
        if isinstance(x, PolyVec):
            return max(self.infinity_norm(e) for e in x)
        if not isinstance(x, Poly):
            raise DomainError("infinity norm is defined on coefficient-domain values")
        c = x.coeffs
        return int(np.max(np.minimum(c, self.q - c)))


@lru_cache(maxsize=8)
def get_ring(params: ParamSet) -> Ring:
    """Shared Ring instance per parameter set (immutable, thread-safe)."""
    return Ring(params)
