"""Message-bit <-> ring-element encoding, coefficient packing, file formats.

Encoding writes each payload bit as floor(q/2) into one coefficient
(``redundancy = 1``) or into four coefficients i, i+n/4, i+2n/4, i+3n/4
(``redundancy = 4``). Decoding thresholds on the circular distance
dist(a, b) = min(|a - b|, q - |a - b|):

* redundancy 1: bit = 1 iff dist(v_i, floor(q/2)) < floor(q/4); the tie
  dist = floor(q/4) decodes to 0.
* redundancy 4: t = sum of the four distances; bit = 0 if t > q else 1.

Every file starts with the 6-byte header  magic "MLDS" || version 0x01 ||
param-id. Coefficients are packed 14 bits little-endian, four per 7 bytes
(448 bytes per polynomial at n = 256). All formats:

    pk  = header || rho(32) || pack(P_0) || ... || pack(P_{k-1})
    sk  = header || pack(s_0) || ... || pack(s_{k-1})
    sig = header || pack(z1_0) || ... || pack(z1_{k-1}) || pack(z2)
                 || pack(z3) || h(32)

Each wire value is packed and unpacked in one pass. ``unpack_poly`` turns
m * 448 bytes into an (m, n) stack, also for m = 1, with one length and one
range check over all rows. A serializer packs one (k, n) or (k + 2, n) stack
and refuses a batch, or a rho or h not 32 B long.
"""

from __future__ import annotations

import numpy as np

from .params import ParamSet
from .ring import Ring, Poly, PolyVec
from .sampling import SEED_BYTES

MAGIC = b"MLDS"
VERSION = 0x01
HEADER_BYTES = 6
PACK_BITS = 14


class CodecError(ValueError):
    """Base class for all serialization failures."""


class HeaderError(CodecError):
    """Bad magic, version, or parameter identifier."""


class LengthError(CodecError):
    """Truncated or over-long input."""


class CoefficientRangeError(CodecError):
    """A packed coefficient is >= q."""


# -- bit helpers -------------------------------------------------------------

def bytes_to_bits(data: bytes) -> np.ndarray:
    """Little-endian bit expansion: bit j of byte i lands at index 8*i + j."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")


# -- message encode / decode --------------------------------------------------

def encode_bits(bits: np.ndarray, ring: Ring) -> Poly:
    """Spread mu_bits payload bits into a ring element at amplitude floor(q/2).

    Leading axes of ``bits`` (..., mu_bits) carry over: one element per row.
    """
    p = ring.params
    bits = np.asarray(bits)
    if bits.shape[-1:] != (p.mu_bits,):
        raise CodecError(f"payload must be exactly {p.mu_bits} bits, got {bits.shape}")
    if bits.min() < 0 or bits.max() > 1:  # checked before the int32 cast, which could wrap
        raise CodecError("payload entries must be 0 or 1")
    # n = redundancy * mu_bits, so copy r of bit i is coefficient r * mu_bits + i
    return Poly(np.concatenate([bits.astype(np.int32) * p.half_q] * p.redundancy, axis=-1))


def decode_bits(v: Poly, ring: Ring) -> np.ndarray:
    """Threshold-decode a ring element (..., n) back to (..., mu_bits) payload bits."""
    p = ring.params
    # For coefficients in [0, q), |v - floor(q/2)| <= floor(q/2) <= q - |v - floor(q/2)|,
    # so the plain distance is already the circular one.
    dist = np.abs(v.coeffs - p.half_q)
    if p.redundancy == 1:
        return (dist < p.quarter_q).view(np.uint8)
    total = dist.reshape(dist.shape[:-1] + (p.redundancy, p.mu_bits)).sum(axis=-2, dtype=np.int32)
    return (total <= p.q).view(np.uint8)


def decode_payload(v: Poly, ring: Ring) -> np.ndarray:
    """Decoded payload packed into bytes (little-endian bits): (..., mu_bits // 8) uint8."""
    return np.packbits(decode_bits(v, ring), axis=-1, bitorder="little")


# -- coefficient packing -------------------------------------------------------

def poly_bytes(p: ParamSet) -> int:
    """Packed size of one polynomial: n coefficients at 14 bits."""
    return p.n * PACK_BITS // 8


def _require_packable(p: ParamSet) -> None:
    if p.bits_per_coeff != PACK_BITS or p.n % 4 != 0:
        raise CodecError(
            f"packing format requires {PACK_BITS}-bit coefficients and 4 | n; "
            f"got bits_per_coeff={p.bits_per_coeff}, n={p.n}"
        )


# Each group of four coefficients is one 56-bit little-endian integer in a zero-padded
# 8-byte "<u8" lane. Its 14-bit fields are disjoint: packing sums them, weighted.
_LANE_SHIFTS = np.arange(4, dtype=np.uint64) * PACK_BITS
_LANE_WEIGHTS = np.uint64(1) << _LANE_SHIFTS
_LANE_MASK = (1 << PACK_BITS) - 1


def pack_poly(v: Poly, ring: Ring) -> bytes:
    """Pack the (n,) rows of a (..., n) int32 stack in order, 14 bits each, 4 per 7 bytes."""
    p = ring.params
    _require_packable(p)
    c = v.coeffs  # a negative int32 read as uint32 is >= q: one maximum checks [0, q)
    if c.dtype != np.int32 or c.shape[-1:] != (p.n,) or not c.size or c.view(np.uint32).max() >= p.q:
        raise CodecError(f"pack_poly takes int32 coefficients in [0, {p.q}) on an axis of {p.n}")
    groups = (c.astype(np.uint64).reshape(-1, 4) @ _LANE_WEIGHTS).astype("<u8", copy=False)
    return groups.view(np.uint8).reshape(-1, 8)[:, :7].tobytes()


def unpack_poly(data: bytes, ring: Ring) -> Poly:
    """Unpack m * poly_bytes bytes into an (m, n) stack, m >= 1."""
    p = ring.params
    _require_packable(p)
    step = poly_bytes(p)
    if not data or len(data) % step:
        raise LengthError(f"packed rows must be a positive multiple of {step} bytes, got {len(data)}")
    lanes = np.zeros((len(data) // 7, 8), dtype=np.uint8)
    lanes[:, :7] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 7)
    coeffs = ((lanes.view("<u8") >> _LANE_SHIFTS) & _LANE_MASK).astype(np.int32)
    if coeffs.max() >= p.q:
        raise CoefficientRangeError(f"coefficient {int(coeffs.max())} out of range [0, {p.q})")
    return Poly(coeffs.reshape(-1, p.n))


# -- key / signature formats ---------------------------------------------------

def _header(p: ParamSet) -> bytes:
    return MAGIC + bytes([VERSION, p.param_id])


def _split_header(data: bytes, p: ParamSet, kind: str) -> bytes:
    if len(data) < HEADER_BYTES:
        raise LengthError(f"{kind} shorter than the {HEADER_BYTES}-byte header")
    if data[:4] != MAGIC:
        raise HeaderError(f"bad magic {data[:4]!r}")
    if data[4] != VERSION:
        raise HeaderError(f"unsupported version {data[4]:#04x}")
    if data[5] != p.param_id:
        raise HeaderError(f"parameter id {data[5]:#04x} does not match {p.param_id:#04x}")
    return data[HEADER_BYTES:]


def pk_bytes(p: ParamSet) -> int:
    return HEADER_BYTES + SEED_BYTES + p.k * poly_bytes(p)


def sk_bytes(p: ParamSet) -> int:
    return HEADER_BYTES + p.k * poly_bytes(p)


def sig_bytes(p: ParamSet) -> int:
    return HEADER_BYTES + (p.k + 2) * poly_bytes(p) + SEED_BYTES


def _pack_one(kind: str, ring: Ring, vec: PolyVec, *polys: Poly) -> bytes:
    """The k rows of vec, then polys, in one pack_poly call; a batch of values is refused."""
    k, n = ring.k, ring.n
    if vec.domain is not Poly or vec.data.shape != (k, n) or any(e.coeffs.shape != (n,) for e in polys):
        raise CodecError(f"a {kind} is serialized as one coefficient-domain value, not a batch")
    rows = np.concatenate((vec.data, *(e.coeffs[None] for e in polys)))
    return pack_poly(Poly(rows), ring)


def _seed(value, what: str) -> bytes:
    """A SEED_BYTES-long rho or h, refused otherwise: parse would refuse its wire."""
    if len(value) != SEED_BYTES:
        raise CodecError(f"{what} must be {SEED_BYTES} bytes")
    return value


def serialize_pk(pk, ring: Ring) -> bytes:
    return b"".join((_header(ring.params), _seed(pk.rho, "rho"), _pack_one("public key", ring, pk.p_vec)))


def parse_pk(data: bytes, ring: Ring):
    from .scheme import public_key

    p = ring.params
    body = _split_header(data, p, "public key")
    if len(data) != pk_bytes(p):
        raise LengthError(f"public key must be {pk_bytes(p)} bytes, got {len(data)}")
    rows = unpack_poly(body[SEED_BYTES:], ring).coeffs
    return public_key(body[:SEED_BYTES], PolyVec(rows, Poly), ring)


def serialize_sk(sk, ring: Ring) -> bytes:
    return _header(ring.params) + _pack_one("secret key", ring, sk.s)


def parse_sk(data: bytes, ring: Ring):
    from .scheme import SecretKey

    p = ring.params
    body = _split_header(data, p, "secret key")
    if len(data) != sk_bytes(p):
        raise LengthError(f"secret key must be {sk_bytes(p)} bytes, got {len(data)}")
    return SecretKey(s=PolyVec(unpack_poly(body, ring).coeffs, Poly))


def serialize_sig(sig, ring: Ring) -> bytes:
    return b"".join((_header(ring.params), _pack_one("signature", ring, sig.z1, sig.z2, sig.z3),
                     _seed(sig.h, "h")))


def parse_sig(data: bytes, ring: Ring):
    from .scheme import Signature

    p = ring.params
    body = _split_header(data, p, "signature")
    if len(data) != sig_bytes(p):
        raise LengthError(f"signature must be {sig_bytes(p)} bytes, got {len(data)}")
    end = (p.k + 2) * poly_bytes(p)
    rows = unpack_poly(body[:end], ring).coeffs
    return Signature(PolyVec(rows[: p.k], Poly), Poly(rows[p.k]), Poly(rows[p.k + 1]), body[end:])
