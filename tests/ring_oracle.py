"""Ring helpers that only the tests use: range-checked construction,
constants, module vectors built from ring elements, an NTT product and the
O(n^2) schoolbook product it is checked against.

``schoolbook_mul`` shares no arithmetic with the NTT path: a plain integer
convolution folded by x^n = -1. It accumulates in int64, because the
convolution's entries reach n*(q-1)^2 (3.9e10 at n = 256, q = 12289), far
beyond the int32 the ring stores its values in.
"""

import numpy as np

from mlds import DomainError, NttPoly, Poly, PolyVec


def poly(ring, values) -> Poly:
    """A coefficient-domain element from n values in [0, q); ValueError otherwise."""
    arr = np.asarray(values)
    if arr.shape != (ring.n,):
        raise ValueError(f"expected {ring.n} coefficients, got shape {arr.shape}")
    # checked before the int32 cast, which would wrap 2^32 to 0
    if arr.min() < 0 or arr.max() >= ring.q:
        raise ValueError(f"coefficients must lie in [0, {ring.q})")
    arr = arr.astype(np.int32)
    arr.setflags(write=False)
    return Poly(arr)


def zero(ring) -> Poly:
    return poly(ring, np.zeros(ring.n, dtype=np.int32))


def one(ring) -> Poly:
    return monomial(ring, 0)


def monomial(ring, degree: int, coeff: int = 1) -> Poly:
    c = np.zeros(ring.n, dtype=np.int32)
    c[degree] = coeff % ring.q
    return poly(ring, c)


def vec(ring, elems) -> PolyVec:
    """Stack k ring elements of one domain into a module vector."""
    elems = tuple(elems)
    if len(elems) != ring.k:
        raise ValueError(f"expected module rank {ring.k}, got {len(elems)}")
    domain = type(elems[0])
    if domain not in (Poly, NttPoly) or any(type(e) is not domain for e in elems):
        raise DomainError("module vector entries must be all-Poly or all-NttPoly")
    rows = [e.coeffs if domain is Poly else e.evals for e in elems]
    return PolyVec(np.stack(rows, axis=-2), domain)


def ntt_poly(ring, values) -> NttPoly:
    """An NTT-domain element with the given evaluations, range-checked like ``poly``."""
    return NttPoly(poly(ring, values).coeffs)


def centered(ring, p: Poly) -> np.ndarray:
    """Coefficients mapped to the centered range (-q/2, q/2]."""
    if not isinstance(p, Poly):
        raise DomainError("centered representatives exist in coefficient domain only")
    c = p.coeffs
    return np.where(c > ring.q // 2, c - ring.q, c)


def mul(ring, a: Poly, b: Poly) -> Poly:
    """Negacyclic product via NTT: intt(ntt(a) o ntt(b))."""
    return ring.intt(ring.pointwise_mul(ring.ntt(a), ring.ntt(b)))


def schoolbook_mul(ring, a: Poly, b: Poly) -> Poly:
    """O(n^2) negacyclic oracle: c_t = sum_{i+j = t mod n} (-1)^[i+j >= n] a_i b_j."""
    if not (isinstance(a, Poly) and isinstance(b, Poly)):
        raise DomainError("schoolbook_mul is defined on coefficient-domain values only")
    conv = np.convolve(a.coeffs.astype(np.int64), b.coeffs.astype(np.int64))  # length 2n-1
    low = conv[: ring.n]
    high = np.concatenate([conv[ring.n :], np.zeros(1, dtype=np.int64)])
    return poly(ring, (low - high) % ring.q)
