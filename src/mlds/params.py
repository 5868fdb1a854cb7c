"""Parameter sets.

Everything downstream (ring arithmetic, samplers, codec, scheme) consumes a
single frozen ``ParamSet``, named "ML-SD-<n>x<k>" and checked once, when it
is built: an invalid set raises ``ParamError`` with every invariant it
violates, so none exists to reach a ``Ring``. The default set "ML-SD-256x2" is

    n = 256, q = 12289, k = 2, eta = 16

with one message bit per ring coefficient (``redundancy = 1``). A redundant
four-coefficients-per-bit mode (``redundancy = 4``) carries n/4 payload bits:
64 at n = 256, 128 at n = 512.

``param_id``, the set's one-byte wire header id, follows from the five fields:
0x01 for the shipped ones (the defaults), and for every other set the reserved
"unregistered" 0x00, which all such sets share. Equal fields are one equal set
with one id, whether built or ``dataclasses.replace``d.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


class ParamError(ValueError):
    """A parameter set violates one of its invariants."""


@dataclass(frozen=True)
class ParamSet:
    """A parameter set; an invalid one raises ``ParamError`` when built, by ``dataclasses.replace`` too."""

    n: int = 256
    q: int = 12289
    k: int = 2
    eta: int = 16
    redundancy: int = 1

    @property
    def param_id(self) -> int:
        """Wire header id: 0x01 for the shipped fields, 0x00 for every other set."""
        return 0x01 if (self.n, self.q, self.k, self.eta, self.redundancy) == _SHIPPED else 0x00

    @property
    def name(self) -> str:
        """ML-SD-<n>x<k>; "ML-SD-256x2" for the default set."""
        return f"ML-SD-{self.n}x{self.k}"

    @property
    def bits_per_coeff(self) -> int:
        """Packing width: ceil(log2(q)); 14 for q = 12289."""
        return (self.q - 1).bit_length()

    @property
    def mu_bits(self) -> int:
        """Message-digest bits encoded into one ring element."""
        return self.n // self.redundancy

    @property
    def half_q(self) -> int:
        return self.q // 2

    @property
    def quarter_q(self) -> int:
        return self.q // 4

    @property
    def max_eta(self) -> int:
        """Largest eta that ``ParamSet`` admits at this q: a multiple of 8 with
        2*eta < floor(q/4), so the decode noise ||e3 + e4||_inf <= 2*eta cannot flip a bit."""
        return (self.quarter_q - 1) // 2 // 8 * 8

    def __post_init__(self):
        errors = _violations(self)
        if errors:
            raise ParamError("; ".join(errors))


#: Bytes of every seed and digest (rho, xi, r, mu = crh(M), h).
SEED_BYTES = 32


def _prime_factors(x: int) -> list[int]:
    """The distinct prime factors of x, ascending, by trial division; [] for x < 2."""
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def _violations(p: ParamSet) -> list[str]:
    """Every invariant ``p`` violates, for ``ParamSet.__post_init__`` to raise.

    A field that is not exactly an ``int`` (a bool, a float) is reported alone,
    before any arithmetic reads it. Every admitted set packs: 8 | n*bits_per_coeff ends each
    polynomial on a byte, and k(q-1)^2 < 2^31 gives q <= 46341 (46337 at n = 4 is the largest
    admitted), so bits_per_coeff <= 16 fits a 2-byte ``gen_a`` candidate and a 4-byte window
    read at a bit shift of at most 7.

    q is prime when ``_prime_factors(q) == [q]``, the trial division that the NTT's root rule
    also runs on q - 1. It costs O(sqrt(q)) steps, so it runs only for q < 2^31: ring values
    are int32 in [0, q), so no larger q is admissible under any transform, and the checks
    below (2n | q - 1, then the float64 and int32 bounds) refuse every such q whatever its
    factors.
    """
    errors = [f"{f.name}={getattr(p, f.name)!r} is not an int"
              for f in fields(p) if type(getattr(p, f.name)) is not int]
    if errors:
        return errors
    if p.n < 2 or p.n & (p.n - 1) != 0:
        errors.append(f"n={p.n} is not a power of two >= 2")
    if p.q < 2**31 and _prime_factors(p.q) != [p.q]:
        errors.append(f"q={p.q} is not prime")
    elif (p.q - 1) % (2 * p.n) != 0:
        errors.append(f"q={p.q} is not congruent to 1 mod 2n={2 * p.n}")
    elif p.n * (p.q - 1) ** 3 >= 2**53:  # float64 NTT exactness, see mlds.ring
        errors.append(
            f"n*(q-1)^3 = {p.n * (p.q - 1) ** 3} is not below 2^53: "
            "the two-stage float64 NTT would round its partial sums"
        )
    elif p.n * p.bits_per_coeff % 8:  # each packed polynomial ends on a byte, see mlds.codec
        errors.append(f"n*bits_per_coeff = {p.n * p.bits_per_coeff} bits is not a whole number of bytes")
    if p.k < 1:
        errors.append(f"k={p.k} must be >= 1")
    elif p.k * (p.q - 1) ** 2 >= 2**31:  # int32 ring values, see mlds.ring
        errors.append(
            f"k*(q-1)^2 = {p.k * (p.q - 1) ** 2} is not below 2^31: "
            "a module product's sum of k products would overflow int32"
        )
    if p.eta < 1:
        errors.append(f"eta={p.eta} must be >= 1")
    elif p.eta % 8 != 0:
        errors.append(f"eta={p.eta} is not a multiple of 8, as the byte-aligned binomial sampler needs")
    elif p.eta > p.max_eta:
        errors.append(f"2*eta = {2 * p.eta} is not below floor(q/4) = {p.quarter_q}, so the decode "
                      "noise ||e3 + e4||_inf <= 2*eta of an honest signature could flip a bit")
    if p.redundancy not in (1, 4):
        errors.append(f"redundancy={p.redundancy} not in {{1, 4}}")
    elif p.n % (4 * p.redundancy) != 0:
        errors.append(f"n={p.n} is not a multiple of 4*redundancy = {4 * p.redundancy}")
    elif p.mu_bits > 8 * SEED_BYTES:
        errors.append(f"mu_bits = n/redundancy = {p.mu_bits} is more than the "
                      f"{8 * SEED_BYTES} bits of the message digest")
    return errors


_SHIPPED = tuple(f.default for f in fields(ParamSet))  # the defaults, the one set with id 0x01
DEFAULT_PARAMS = ParamSet()

