"""Ring helpers that only the tests use: range-checked construction of one
row, constants, module vectors stacked from rows and rows viewed out of them,
an NTT product and the O(n^2) schoolbook product it is checked against.

``schoolbook_mul`` shares no arithmetic with the NTT path: a plain integer
convolution folded by x^n = -1. It accumulates in int64, because the
convolution's entries reach n*(q-1)^2 (3.9e10 at n = 256, q = 12289), far
beyond the int32 the ring stores its values in.
"""

import numpy as np

from mlds import COEFF, NTT, DomainError, RqArray


def poly(ring, values) -> RqArray:
    """A coefficient-domain element, one (1, n) row, from n values in [0, q); ValueError otherwise."""
    arr = np.asarray(values)
    if arr.shape != (ring.n,):
        raise ValueError(f"expected {ring.n} coefficients, got shape {arr.shape}")
    # checked before the int32 cast, which would wrap 2^32 to 0
    if arr.min() < 0 or arr.max() >= ring.q:
        raise ValueError(f"coefficients must lie in [0, {ring.q})")
    arr = arr.astype(np.int32)[None]
    arr.setflags(write=False)
    return RqArray(arr, COEFF)


def zero(ring) -> RqArray:
    return poly(ring, np.zeros(ring.n, dtype=np.int32))


def one(ring) -> RqArray:
    return monomial(ring, 0)


def monomial(ring, degree: int, coeff: int = 1) -> RqArray:
    c = np.zeros(ring.n, dtype=np.int32)
    c[degree] = coeff % ring.q
    return poly(ring, c)


def vec(ring, elems) -> RqArray:
    """Stack k one-row values of one domain into a (..., k, n) module vector."""
    elems = tuple(elems)
    if len(elems) != ring.k:
        raise ValueError(f"expected module rank {ring.k}, got {len(elems)}")
    domain = elems[0].domain
    if any(e.domain != domain or e.data.shape[-2] != 1 for e in elems):
        raise DomainError("module vector entries must be one-row values of one domain")
    return RqArray(np.concatenate([e.data for e in elems], axis=-2), domain)


def row(x: RqArray, i: int) -> RqArray:
    """Module row i of x, as a one-row value (a view)."""
    return RqArray(x.data[..., i : i + 1, :], x.domain)


def ntt_poly(ring, values) -> RqArray:
    """An NTT-domain element with the given evaluations, range-checked like ``poly``."""
    return RqArray(poly(ring, values).data, NTT)


def centered(ring, p: RqArray) -> np.ndarray:
    """Coefficients mapped to the centered range (-q/2, q/2]."""
    if p.domain != COEFF:
        raise DomainError("centered representatives exist in coefficient domain only")
    c = p.data
    return np.where(c > ring.q // 2, c - ring.q, c)


def mul(ring, a: RqArray, b: RqArray) -> RqArray:
    """Negacyclic product via NTT: intt(ntt(a) o ntt(b))."""
    return ring.intt(ring.pointwise_mul(ring.ntt(a), ring.ntt(b)))


def schoolbook_mul(ring, a: RqArray, b: RqArray) -> RqArray:
    """O(n^2) negacyclic oracle: c_t = sum_{i+j = t mod n} (-1)^[i+j >= n] a_i b_j."""
    if not (a.domain == b.domain == COEFF and a.data.shape == b.data.shape == (1, ring.n)):
        raise DomainError("schoolbook_mul is defined on one coefficient-domain row each")
    conv = np.convolve(a.data[0].astype(np.int64), b.data[0].astype(np.int64))  # length 2n-1
    low = conv[: ring.n]
    high = np.concatenate([conv[ring.n :], np.zeros(1, dtype=np.int64)])
    return poly(ring, (low - high) % ring.q)
