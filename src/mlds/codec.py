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
"""

from __future__ import annotations

import numpy as np

from .params import ParamSet
from .ring import Ring, Poly
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


def bits_to_bytes(bits: np.ndarray) -> bytes:
    if len(bits) % 8 != 0:
        raise CodecError("bit string length must be a multiple of 8")
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little").tobytes()


# -- message encode / decode --------------------------------------------------

def encode_bits(bits: np.ndarray, ring: Ring) -> Poly:
    """Spread mu_bits payload bits into a ring element at amplitude floor(q/2)."""
    p = ring.params
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape != (p.mu_bits,):
        raise CodecError(f"payload must be exactly {p.mu_bits} bits, got {bits.shape}")
    if np.any((bits != 0) & (bits != 1)):
        raise CodecError("payload entries must be 0 or 1")
    coeffs = np.zeros(p.n, dtype=np.int64)
    step = p.n // p.redundancy
    for rep in range(p.redundancy):
        coeffs[rep * step : rep * step + p.mu_bits] = bits * p.half_q
    return Poly(coeffs)


def decode_bits(v: Poly, ring: Ring) -> np.ndarray:
    """Threshold-decode a ring element back to mu_bits payload bits."""
    p = ring.params
    d = np.abs(v.coeffs - p.half_q)
    dist = np.minimum(d, p.q - d)
    if p.redundancy == 1:
        return (dist < p.quarter_q).astype(np.uint8)
    total = dist.reshape(p.redundancy, p.mu_bits).sum(axis=0)
    return (total <= p.q).astype(np.uint8)


def decode_payload(v: Poly, ring: Ring) -> bytes:
    """Decoded payload packed into bytes (little-endian bits)."""
    return bits_to_bytes(decode_bits(v, ring))


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


# Each group of four coefficients is one 56-bit little-endian integer, read
# and written through a zero-padded 8-byte "<u8" lane.
_LANE_SHIFTS = np.arange(4, dtype=np.uint64) * PACK_BITS
_LANE_MASK = (1 << PACK_BITS) - 1


def pack_poly(v: Poly, ring: Ring) -> bytes:
    """Pack coefficients little-endian, 14 bits each, 4 coefficients per 7 bytes."""
    _require_packable(ring.params)
    c = v.coeffs.astype(np.uint64).reshape(-1, 4)
    groups = np.bitwise_or.reduce(c << _LANE_SHIFTS, axis=1).astype("<u8")
    return groups.view(np.uint8).reshape(-1, 8)[:, :7].tobytes()


def unpack_poly(data: bytes, ring: Ring) -> Poly:
    p = ring.params
    _require_packable(p)
    expected = poly_bytes(p)
    if len(data) != expected:
        raise LengthError(f"packed polynomial must be {expected} bytes, got {len(data)}")
    lanes = np.zeros((expected // 7, 8), dtype=np.uint8)
    lanes[:, :7] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 7)
    groups = lanes.view("<u8")
    coeffs = ((groups >> _LANE_SHIFTS) & _LANE_MASK).astype(np.int64).reshape(-1)
    if coeffs.max() >= p.q:
        raise CoefficientRangeError(f"coefficient {int(coeffs.max())} out of range [0, {p.q})")
    return Poly(coeffs)


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


def serialize_pk(pk, ring: Ring) -> bytes:
    out = [_header(ring.params), pk.rho]
    out.extend(pack_poly(e, ring) for e in pk.p_vec)
    return b"".join(out)


def parse_pk(data: bytes, ring: Ring):
    from .scheme import public_key

    p = ring.params
    body = _split_header(data, p, "public key")
    if len(data) != pk_bytes(p):
        raise LengthError(f"public key must be {pk_bytes(p)} bytes, got {len(data)}")
    rho = body[:SEED_BYTES]
    step = poly_bytes(p)
    elems = []
    for i in range(p.k):
        off = SEED_BYTES + i * step
        elems.append(unpack_poly(body[off : off + step], ring))
    return public_key(rho, ring.vec(elems), ring)


def serialize_sk(sk, ring: Ring) -> bytes:
    out = [_header(ring.params)]
    out.extend(pack_poly(e, ring) for e in sk.s)
    return b"".join(out)


def parse_sk(data: bytes, ring: Ring):
    from .scheme import SecretKey

    p = ring.params
    body = _split_header(data, p, "secret key")
    if len(data) != sk_bytes(p):
        raise LengthError(f"secret key must be {sk_bytes(p)} bytes, got {len(data)}")
    step = poly_bytes(p)
    elems = [unpack_poly(body[i * step : (i + 1) * step], ring) for i in range(p.k)]
    return SecretKey(s=ring.vec(elems))


def serialize_sig(sig, ring: Ring) -> bytes:
    out = [_header(ring.params)]
    out.extend(pack_poly(e, ring) for e in sig.z1)
    out.append(pack_poly(sig.z2, ring))
    out.append(pack_poly(sig.z3, ring))
    out.append(sig.h)
    return b"".join(out)


def parse_sig(data: bytes, ring: Ring):
    from .scheme import Signature

    p = ring.params
    body = _split_header(data, p, "signature")
    if len(data) != sig_bytes(p):
        raise LengthError(f"signature must be {sig_bytes(p)} bytes, got {len(data)}")
    step = poly_bytes(p)
    z1 = [unpack_poly(body[i * step : (i + 1) * step], ring) for i in range(p.k)]
    z2 = unpack_poly(body[p.k * step : (p.k + 1) * step], ring)
    z3 = unpack_poly(body[(p.k + 1) * step : (p.k + 2) * step], ring)
    h = body[(p.k + 2) * step :]
    return Signature(z1=ring.vec(z1), z2=z2, z3=z3, h=h)
