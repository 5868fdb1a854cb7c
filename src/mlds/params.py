"""Parameter sets.

Everything downstream (ring arithmetic, samplers, codec, scheme) consumes a
single frozen ``ParamSet``, named "ML-SD-<n>x<k>" and checked once, when it
is built: an invalid set raises ``ParamError`` with every invariant
``validate_params`` reports, so none exists to reach a ``Ring``. The default
set "ML-SD-256x2" is

    n = 256, q = 12289, k = 2, eta = 16

with one message bit per ring coefficient (``redundancy = 1``). A redundant
four-coefficients-per-bit mode (``redundancy = 4``) is available for 64-bit
payloads.

``param_id`` is the set's one-byte wire header id. Built without one, the
shipped fields (the defaults) get 0x01 and any other set the reserved
"unregistered" id 0x00, which every such set shares; ``dataclasses.replace``
passes the id on, so a set replaced from the shipped one keeps 0x01.
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
    param_id: int | None = None  # built as 0x01 for the shipped fields, else 0x00

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
        """Largest eta that ``validate_params`` admits at this q: a multiple of 8 with
        2*eta < floor(q/4), so the decode noise ||e3 + e4||_inf <= 2*eta cannot flip a bit."""
        return (self.quarter_q - 1) // 2 // 8 * 8

    def __post_init__(self):
        if self.param_id is None:
            # a field that is not an int is not shipped; validate_params reports it
            shipped = all(type(getattr(self, f.name)) is int and getattr(self, f.name) == f.default
                          for f in fields(self) if f.name != "param_id")
            object.__setattr__(self, "param_id", 0x01 if shipped else 0x00)
        errors = validate_params(self)
        if errors:
            raise ParamError("; ".join(errors))


#: Bytes of every seed and digest (rho, xi, r, mu = crh(M), h).
SEED_BYTES = 32


def _is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin, exact for x < 3.3e24."""
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if x % p == 0:
            return x == p
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def validate_params(p: ParamSet) -> list[str]:
    """Return every violated invariant (empty list means the set is valid).

    A field that is not exactly an ``int`` (a bool, a float) is reported alone,
    before any arithmetic reads it.
    """
    errors = [f"{f.name}={getattr(p, f.name)!r} is not an int"
              for f in fields(p) if type(getattr(p, f.name)) is not int]
    if errors:
        return errors
    if p.n < 2 or p.n & (p.n - 1) != 0:
        errors.append(f"n={p.n} is not a power of two >= 2")
    if not _is_prime(p.q):
        errors.append(f"q={p.q} is not prime")
    elif (p.q - 1) % (2 * p.n) != 0:
        errors.append(f"q={p.q} is not congruent to 1 mod 2n={2 * p.n}")
    elif p.n * (p.q - 1) ** 3 >= 2**53:  # float64 NTT exactness, see mlds.ring
        errors.append(
            f"n*(q-1)^3 = {p.n * (p.q - 1) ** 3} is not below 2^53: "
            "the two-stage float64 NTT would round its partial sums"
        )
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
        errors.append(f"redundancy={p.redundancy} does not divide n={p.n} cleanly")
    elif p.mu_bits > 8 * SEED_BYTES:
        errors.append(f"mu_bits = n/redundancy = {p.mu_bits} is more than the "
                      f"{8 * SEED_BYTES} bits of the message digest")
    if not 0 <= p.param_id <= 255:
        errors.append(f"param_id={p.param_id} does not fit in the one header byte 0..255")
    return errors


DEFAULT_PARAMS = ParamSet()

