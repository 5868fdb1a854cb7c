"""Message-bit <-> ring-element encoding, coefficient packing, file formats.

Encoding writes each payload bit as floor(q/2) into one coefficient
(``redundancy = 1``) or into four coefficients i, i+n/4, i+2n/4, i+3n/4
(``redundancy = 4``). Decoding thresholds on the circular distance
dist(a, b) = min(|a - b|, q - |a - b|):

* redundancy 1: bit = 1 iff dist(v_i, floor(q/2)) < floor(q/4); the tie
  dist = floor(q/4) decodes to 0.
* redundancy 4: t = sum of the four distances; bit = 0 if t > q else 1.

Every file starts with the 6-byte header  magic "MLDS" || version 0x01 ||
param-id. Coefficients are packed little-endian at ``bits_per_coeff`` = b bits
each, n*b/8 bytes per polynomial (448 at n = 256, q = 12289). All formats:

    pk  = header || rho(32) || pack(P_0) || ... || pack(P_{k-1})
    sk  = header || pack(s_0) || ... || pack(s_{k-1})
    sig = header || pack(z1_0) || ... || pack(z1_{k-1}) || pack(z2)
                 || pack(z3) || h(32)

``pk_bytes``, ``sk_bytes``, ``sig_bytes`` and ``key_sizes`` (wire and
information-theoretic sizes) read one count of each format's seeds and
polynomials. ``mu_payload_bits`` expands digests into the bits that ``_codeword`` lays out.

``PublicKey``, ``SecretKey`` and ``Signature`` live here, next to their
layouts. Each carries its ``ParamSet`` and is checked once, when it is
built, its ring values by ``Ring._operand``, the ring's one operand rule:
a malformed value raises ``CodecError`` and never exists, so the
serializers refuse only a value of another type or set, and verification
never meets a malformed signature. The parsers take any bytes-like wire.

Each wire value is packed and unpacked in one pass. ``unpack_poly`` turns
m * ``poly_bytes`` bytes into a coefficient-domain (m, n) ``RqArray``, also for m = 1,
with one length and one range check over all rows. A ``Signature`` holds its
rows in wire order, as one (k + 2, n) array z, so a serializer packs each
trial's (k, n) or (k + 2, n) array as it is, one wire per trial (a tuple of
them for a batch), and a parser hands the unpacked array to the constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .params import ParamSet
from .ring import COEFF, NTT, DomainError, Ring, RqArray, get_ring
from .sampling import SEED_BYTES, _as_bytes, _batch, _each, gen_a

MAGIC = b"MLDS"
VERSION = 0x01
HEADER_BYTES = 6
PACK_BITS = 14  # read only by perfbench/bench_workloads.py's z3 tamper; the codec packs at bits_per_coeff


class CodecError(ValueError):
    """Base class for all serialization failures."""


class HeaderError(CodecError):
    """Bad magic, version, or parameter identifier."""


class LengthError(CodecError):
    """Truncated or over-long input."""


class CoefficientRangeError(CodecError):
    """A packed coefficient is >= q."""


# -- keys and signatures ---------------------------------------------------------
#
# In the shapes below, trials is () for one value and (B,) for a batch of B,
# whose rho or h is then a tuple of B.

@dataclass(frozen=True, eq=False)
class PublicKey:
    """(rho, P) and A_hat = gen_a(rho) under ``params``; made by ``scheme.keygen`` or ``parse_pk``.

    A_hat's type, shape, dtype and range are checked; that it is gen_a(rho) is trusted.
    """

    rho: bytes  # a tuple of seeds for a batch
    p_vec: RqArray  # (*trials, k, n)
    a_hat: RqArray = field(repr=False)  # (*trials, k, k, n), NTT domain
    params: ParamSet = field(repr=False)

    def __post_init__(self):
        p, trials = self.params, _trials(self.rho)
        if not (isinstance(p, ParamSet) and trials is not None
                and _in_range(p, _ring_data(p, self.p_vec, COEFF, trials + (p.k, p.n)),
                              _ring_data(p, self.a_hat, NTT, trials + (p.k, p.k, p.n)))):
            raise CodecError("a public key is a 32-byte rho (a tuple of them for a batch), a "
                             "coefficient-domain (*trials, k, n) P and a (*trials, k, k, n) "
                             "A_hat, int32 in [0, q)")


@dataclass(frozen=True, eq=False)
class SecretKey:
    """s under ``params``; made by ``scheme.keygen`` or ``parse_sk``."""

    s: RqArray  # (*trials, k, n)
    params: ParamSet = field(repr=False)

    def __post_init__(self):
        p = self.params  # one key, (k, n), or a batch of them, (B, k, n)
        if not (isinstance(p, ParamSet) and _in_range(p, _ring_data(p, self.s, COEFF, (p.k, p.n), 1))):
            raise CodecError("a secret key is a coefficient-domain (*trials, k, n) int32 s in [0, q)")


@dataclass(frozen=True, eq=False)
class Signature:
    """(z1, z2, z3, h) under ``params``; made by ``scheme.sign`` or ``parse_sig``.

    z holds the k + 2 rows in wire order; ``z1``, ``z2`` and ``z3`` are views of them.
    """

    z: RqArray  # (*trials, k + 2, n)
    h: bytes  # a tuple of digests for a batch
    params: ParamSet = field(repr=False)

    def __post_init__(self):
        p, trials = self.params, _trials(self.h)
        if not (isinstance(p, ParamSet) and trials is not None
                and _in_range(p, _ring_data(p, self.z, COEFF, trials + (p.k + 2, p.n)))):
            raise CodecError("a signature is a 32-byte h (a tuple of them for a batch) and a "
                             "coefficient-domain (*trials, k + 2, n) z, int32 in [0, q)")

    @property
    def z1(self) -> RqArray:
        """Rows 0..k-1 of z: (*trials, k, n)."""
        return RqArray(self.z.data[..., :-2, :], COEFF)

    @property
    def z2(self) -> RqArray:
        """Row k of z: (*trials, 1, n)."""
        return RqArray(self.z.data[..., -2:-1, :], COEFF)

    @property
    def z3(self) -> RqArray:
        """Row k + 1 of z: (*trials, 1, n)."""
        return RqArray(self.z.data[..., -1:, :], COEFF)


def _ring_data(p: ParamSet, value, domain: str, tail: tuple, lead: int = 0) -> np.ndarray | None:
    """The data of ``value`` as ``Ring._operand`` reads it, an int32 (..., *tail) array in
    ``domain``, if at most ``lead`` axes precede ``tail``; None for anything else."""
    try:
        c = get_ring(p)._operand("a key or signature", value, domain, tail)
    except DomainError:
        return None
    return c if c.ndim <= len(tail) + lead else None


def _in_range(p: ParamSet, *values) -> bool:
    """Whether every array is there (not None) and has entries, all in [0, q)."""
    # a negative int32 read as uint32 is >= q, so one maximum per array checks [0, q)
    return all(c is not None and c.size > 0 and c.view(np.uint32).max() < p.q for c in values)


def _trials(seeds) -> tuple | None:
    """() for one 32-byte seed or digest, (B,) for a tuple of B >= 1 of them, None for anything else."""
    batch = seeds if type(seeds) is tuple else (seeds,)
    if not (batch and all(isinstance(s, bytes) and len(s) == SEED_BYTES for s in batch)):
        return None
    return (len(batch),) if batch is seeds else ()


# -- bit helpers -------------------------------------------------------------

def mu_payload_bits(mu, params: ParamSet) -> np.ndarray:
    """The digest bits carried by z3, bit j of byte i at 8*i + j: all of mu, or its first n/4.

    One digest gives (mu_bits,) bits; a list or tuple of digests (mu_bits,) per
    trial along a leading axis.
    """
    digests = b"".join(mu) if _batch(mu) else mu
    bits = np.unpackbits(np.frombuffer(digests, dtype=np.uint8), bitorder="little")
    return bits.reshape(_batch(mu) + (-1,))[..., : params.mu_bits]


# -- message encode / decode --------------------------------------------------

def encode_bits(bits: np.ndarray, ring: Ring) -> RqArray:
    """Spread mu_bits payload bits into one coefficient-domain row at amplitude floor(q/2).

    Leading axes of ``bits`` (..., mu_bits) carry over: (..., 1, n).
    """
    p = ring.params
    bits = np.asarray(bits)
    if bits.shape[-1:] != (p.mu_bits,) or not bits.size:
        raise CodecError(f"payload must be exactly {p.mu_bits} bits per row, got {bits.shape}")
    # 0.5 is in range but would encode as 0; the range is checked before the int32 cast, which could wrap
    if bits.dtype.kind not in "biu" or bits.min() < 0 or bits.max() > 1:
        raise CodecError("payload entries must be 0 or 1, of an integer or bool dtype")
    return RqArray(_codeword(bits, p)[..., None, :], COEFF)


def _codeword(bits: np.ndarray, p: ParamSet) -> np.ndarray:
    """The int32 (..., n) payload layout of checked (..., mu_bits) bits, read by ``encode_bits`` and
    ``scheme.verify``: copy r of bit i at coefficient r * mu_bits + i, amplitude floor(q/2)."""
    return np.concatenate([bits.astype(np.int32) * p.half_q] * p.redundancy, axis=-1)


def decode_bits(v: RqArray, ring: Ring) -> np.ndarray:
    """Threshold-decode one coefficient-domain row (..., 1, n) back to (..., mu_bits) payload bits;
    ``Ring._operand`` checks the row and raises ``DomainError`` for anything else."""
    p = ring.params
    c = ring._operand("decode_bits", v, COEFF, (1, p.n))
    # For coefficients in [0, q), |v - floor(q/2)| <= floor(q/2) <= q - |v - floor(q/2)|,
    # so the plain distance is already the circular one.
    dist = np.abs(c[..., 0, :] - p.half_q)
    if p.redundancy == 1:
        return (dist < p.quarter_q).view(np.uint8)
    total = dist.reshape(dist.shape[:-1] + (p.redundancy, p.mu_bits)).sum(axis=-2, dtype=np.int32)
    return (total <= p.q).view(np.uint8)


def decode_payload(v: RqArray, ring: Ring) -> np.ndarray:
    """Decoded payload packed into bytes (little-endian bits): (..., mu_bits // 8) uint8."""
    return np.packbits(decode_bits(v, ring), axis=-1, bitorder="little")


# -- coefficient packing -------------------------------------------------------

def poly_bytes(p: ParamSet) -> int:
    """Packed size of one polynomial: n coefficients at ``bits_per_coeff`` = b bits, n*b/8 bytes."""
    return p.n * p.bits_per_coeff // 8


@lru_cache(maxsize=None)
def _layout(b: int) -> tuple:
    """Group bytes, field start bytes, field shifts and placement at b <= 16 bits per coefficient:
    a group is the 8 / gcd(b, 8) coefficients that end on a byte, field t lies in the 4-byte window
    at byte floor(t*b/8) shifted by t*b mod 8, and placement[4t + u, j] = 1 puts its byte u at j."""
    t = np.arange(8 // math.gcd(b, 8)) * b
    width = (t[-1] + b) // 8
    place = (((t >> 3)[:, None] + np.arange(4)).reshape(-1, 1) == np.arange(width)).astype(np.float32)
    return width, t >> 3, (t & 7).astype(np.uint8), place


def _pack_rows(c: np.ndarray, p: ParamSet) -> bytes:
    """Pack an int32 stack whose values are known to lie in [0, q)."""
    _, starts, shifts, place = _layout(p.bits_per_coeff)
    # C order: where one group is a whole row, reshape keeps a parsed or Fortran-ordered
    # stack's strides, and the byte view below needs a contiguous last axis
    windows = (c.reshape(-1, len(starts)) << shifts).astype("<i4", order="C", copy=False)
    # the fields hold disjoint bits, so each float32 sum of window bytes is an exact OR below 256
    return (windows.view(np.uint8) @ place).astype(np.uint8).tobytes()


def pack_poly(v: RqArray, ring: Ring) -> bytes:
    """Pack the (n,) rows of a (..., n) int32 coefficient stack in order, ``bits_per_coeff`` bits each."""
    p = ring.params
    c = v.data  # a negative int32 read as uint32 is >= q: one maximum checks [0, q)
    if (v.domain != COEFF or c.dtype != np.int32 or c.shape[-1:] != (p.n,) or not c.size
            or c.view(np.uint32).max() >= p.q):
        raise CodecError(f"pack_poly takes coefficient-domain int32 values in [0, {p.q}) "
                         f"on an axis of {p.n}")
    return _pack_rows(c, p)


def unpack_poly(data: bytes, ring: Ring) -> RqArray:
    """Unpack m * poly_bytes bytes (any bytes-like object) into a coefficient-domain (m, n)
    stack, m >= 1."""
    body = _as_bytes(data)
    if body is None:
        raise CodecError(f"packed rows are a bytes-like object, not {type(data).__name__}")
    p = ring.params
    step, b, size = poly_bytes(p), p.bits_per_coeff, len(body)
    if not size or size % step:
        raise LengthError(f"packed rows must be a positive multiple of {step} bytes, got {size}")
    width, starts, shifts, _ = _layout(b)
    # a 4-byte window at each group byte, over the data and 3 zero bytes; the mask drops its sign
    windows = np.ndarray((size // width, width), "<i4", body + bytes(3), strides=(width, 1))
    coeffs = windows[:, starts] >> shifts & (1 << b) - 1
    if coeffs.max() >= p.q:
        raise CoefficientRangeError(f"coefficient {int(coeffs.max())} out of range [0, {p.q})")
    return RqArray(coeffs.astype(np.int32, copy=False).reshape(-1, p.n), COEFF)


# -- key / signature formats ---------------------------------------------------

def _body(data, p: ParamSet, kind: str, size: int) -> bytes:
    """The bytes after the header of a ``size``-byte wire value; ``data`` is any bytes-like object."""
    wire = _as_bytes(data)
    if wire is None:
        raise CodecError(f"a {kind} is a bytes-like object, not {type(data).__name__}")
    if len(wire) < HEADER_BYTES:
        raise LengthError(f"{kind} shorter than the {HEADER_BYTES}-byte header")
    if wire[:4] != MAGIC:
        raise HeaderError(f"bad magic {wire[:4]!r}")
    if wire[4] != VERSION:
        raise HeaderError(f"unsupported version {wire[4]:#04x}")
    if wire[5] != p.param_id:
        raise HeaderError(f"parameter id {wire[5]:#04x} does not match {p.param_id:#04x}")
    if len(wire) != size:
        raise LengthError(f"{kind} must be {size} bytes, got {len(wire)}")
    return wire[HEADER_BYTES:]


#: After the header of each format, in ``SizeReport`` order: (32-byte seeds and digests,
#: polynomials beyond k).
_LAYOUT = {"pk": (1, 0), "sk": (0, 0), "sig": (1, 2)}


def _body_size(p: ParamSet, kind: str, element: float) -> float:
    """Bytes after the header of a ``kind`` value at ``element`` bytes per polynomial."""
    seeds, extra = _LAYOUT[kind]
    return seeds * SEED_BYTES + (p.k + extra) * element


def pk_bytes(p: ParamSet) -> int:
    return HEADER_BYTES + _body_size(p, "pk", poly_bytes(p))


def sk_bytes(p: ParamSet) -> int:
    return HEADER_BYTES + _body_size(p, "sk", poly_bytes(p))


def sig_bytes(p: ParamSet) -> int:
    return HEADER_BYTES + _body_size(p, "sig", poly_bytes(p))


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
    element = p.n * math.log2(p.q) / 8
    return SizeReport(*(_body_size(p, kind, element) for kind in _LAYOUT),
                      pk_bytes(p), sk_bytes(p), sig_bytes(p))


def _header_of(value, cls, ring: Ring) -> bytes:
    """The wire header of ``value``, which must be a ``cls`` of ``ring``'s set."""
    if not (isinstance(value, cls) and value.params == ring.params):
        raise CodecError(f"only a {cls.__name__} of this parameter set serializes to its format")
    return MAGIC + bytes([VERSION, ring.params.param_id])


def serialize_pk(pk, ring: Ring) -> bytes | tuple[bytes, ...]:
    head = _header_of(pk, PublicKey, ring)
    return _each(lambda rho, p: b"".join((head, rho, _pack_rows(p, ring.params))), pk.rho, pk.p_vec.data)


def parse_pk(data: bytes, ring: Ring) -> PublicKey:
    p = ring.params
    body = _body(data, p, "public key", pk_bytes(p))
    rho = body[:SEED_BYTES]
    return PublicKey(rho, unpack_poly(body[SEED_BYTES:], ring), gen_a(rho, ring), p)


def serialize_sk(sk, ring: Ring) -> bytes | tuple[bytes, ...]:
    head, s = _header_of(sk, SecretKey, ring), sk.s.data  # a batch's s has a leading trial axis
    return _each(lambda s: head + _pack_rows(s, ring.params), list(s) if s.ndim == 3 else s)


def parse_sk(data: bytes, ring: Ring) -> SecretKey:
    p = ring.params
    body = _body(data, p, "secret key", sk_bytes(p))
    return SecretKey(unpack_poly(body, ring), p)


def serialize_sig(sig, ring: Ring) -> bytes | tuple[bytes, ...]:
    head = _header_of(sig, Signature, ring)
    return _each(lambda h, z: b"".join((head, _pack_rows(z, ring.params), h)), sig.h, sig.z.data)


def parse_sig(data: bytes, ring: Ring) -> Signature:
    p = ring.params
    body = _body(data, p, "signature", sig_bytes(p))
    return Signature(unpack_poly(body[:-SEED_BYTES], ring), body[-SEED_BYTES:], p)
