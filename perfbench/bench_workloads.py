"""The three workloads, their seeded request streams and their output checks.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned. ``groups()`` yields lists of
``Request``; the client stops only between groups, so every run sees the same
mix. Only ``Request.call`` is timed, and it reaches mlds through module
attributes (``scheme.sign``, ``codec.parse_sig``, ...) so that the traced run
sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mlds.cli
from mlds import codec, estimator, scheme
from mlds.params import DEFAULT_PARAMS
from mlds.ring import get_ring

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

PARAMS = DEFAULT_PARAMS


@dataclass(frozen=True)
class Request:
    kind: str  # the workload's op kind whose latency this request feeds
    units: int  # unit operations performed: requests, cycles or estimates
    make: Callable[[], object]  # untimed: builds the program input
    call: Callable[[object], object]  # timed: the program work
    check: Callable[[object, object], int]  # untimed: failed units, 0 if correct


def _given(value):
    return lambda: value


def kat_gate() -> tuple[int, int]:
    """(attempted, failed) for the pinned KAT digests, run in-process via the CLI."""
    failed = 0
    for policy, digest in REFERENCE["kat_sha256"].items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mlds.cli.main(["kat", "--count", "16", "--seed", "1f" * 32, "--policy", policy])
        if code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != digest:
            failed += 1
    return len(REFERENCE["kat_sha256"]), failed


class Workload:
    name: str
    kinds: tuple[str, str]  # op_a, op_b
    warmup_groups: int
    flush_bytes = 0  # see bench_calibration

    def setup_args(self) -> list[str]:
        """Arguments of bench_setup.py for this workload."""
        raise NotImplementedError

    def setup_checks(self) -> tuple[int, int]:
        """(attempted, failed) of checks on the prepared input."""
        return 0, 0


class HotKey(Workload):
    """One long-lived key; z2 signs to wire bytes and more verifies from wire bytes."""

    name = "hot-key"
    kinds = ("sign", "verify")
    warmup_groups = 20

    # The mix is chosen, not taken from measured traffic. Three verifies per
    # sign: a signature is checked by more parties than make it, and signs
    # still get a quarter of the requests (thousands of samples a run).
    # One verify in ten is tampered: hundreds of each tamper kind a run,
    # while honest verifies set the verify median. One message in 33 is
    # 64 KiB: more than 1%, so that tail sets the p99 of both kinds, and few
    # enough that the p50 stays on the 32 B-1 KiB body.
    VERIFIES_PER_SIGN = 3
    TAMPER_RATE = 0.15  # of the 2nd and 3rd verify in a group: 10% of all verifies
    RECENT = 16  # verifies pick from the last RECENT signatures
    LARGE_MESSAGE = 64 * 1024
    LARGE_RATE = 0.03

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.ring = get_ring(PARAMS)
        pk, sk = scheme.keygen(self.rng.randbytes(32), PARAMS)
        self.pk_wire = codec.serialize_pk(pk, self.ring)
        self.sk_wire = codec.serialize_sk(sk, self.ring)
        self.pk = codec.parse_pk(self.pk_wire, self.ring)
        self.sk = codec.parse_sk(self.sk_wire, self.ring)
        self.recent: deque = deque(maxlen=self.RECENT)

    def setup_args(self) -> list[str]:
        return [self.pk_wire.hex(), self.sk_wire.hex()]

    def setup_checks(self) -> tuple[int, int]:
        """The one serialize/parse round trip of the key must be lossless."""
        ok = (codec.serialize_pk(self.pk, self.ring) == self.pk_wire
              and codec.serialize_sk(self.sk, self.ring) == self.sk_wire)
        return 1, int(not ok)

    def _message_size(self) -> int:
        if self.rng.random() < self.LARGE_RATE:
            return self.LARGE_MESSAGE
        return self.rng.randint(32, 1024)

    def _tamper(self):
        if self.rng.random() < 0.5:
            return ("h", self.rng.randrange(codec.SEED_BYTES), self.rng.randrange(1, 256))
        return ("z3", self.rng.randrange(PARAMS.n), 0)

    def groups(self):
        rng = self.rng
        while True:
            sign_input = (rng.randbytes(self._message_size()), rng.randbytes(32))
            picks = [(0, None)]  # every signature is verified honestly once
            for _ in range(self.VERIFIES_PER_SIGN - 1):
                back = rng.randrange(self.RECENT)
                picks.append((back, self._tamper() if rng.random() < self.TAMPER_RATE else None))
            yield [Request("sign", 1, _given(sign_input), self._sign, self._remember)] + [
                Request("verify", 1, functools.partial(self._verify_input, back, tamper),
                        self._verify, _check_verdict)
                for back, tamper in picks
            ]

    def _sign(self, inp):
        msg, r = inp
        sig = scheme.sign(self.sk, self.pk, msg, r, PARAMS, scheme.Z2_DERIVED)
        return codec.serialize_sig(sig, self.ring)

    def _remember(self, inp, wire) -> int:
        self.recent.append((inp[0], wire))
        return int(len(wire) != codec.sig_bytes(PARAMS))

    def _verify_input(self, back, tamper):
        msg, wire = self.recent[-1 - min(back, len(self.recent) - 1)]
        if tamper is None:
            return msg, wire, None
        return msg, _apply_tamper(wire, tamper), {"h": "h-mismatch", "z3": "mu-mismatch"}[tamper[0]]

    def _verify(self, inp):
        msg, wire, _ = inp
        return scheme.verify(self.pk, msg, codec.parse_sig(wire, self.ring), PARAMS, scheme.Z2_DERIVED)


def _apply_tamper(wire: bytes, tamper) -> bytes:
    """Flip bits of one h byte, or shift one z3 coefficient by floor(q/2) mod q."""
    where, index, mask = tamper
    out = bytearray(wire)
    if where == "h":
        out[len(out) - codec.SEED_BYTES + index] ^= mask
        return bytes(out)
    step = codec.poly_bytes(PARAMS)
    start = codec.HEADER_BYTES + (PARAMS.k + 1) * step
    packed = int.from_bytes(out[start:start + step], "little")
    shift = codec.PACK_BITS * index
    coeff = (packed >> shift) & ((1 << codec.PACK_BITS) - 1)
    packed ^= (coeff ^ (coeff + PARAMS.half_q) % PARAMS.q) << shift
    out[start:start + step] = packed.to_bytes(step, "little")
    return bytes(out)


def _check_verdict(inp, result) -> int:
    """Honest signatures accept; each tamper rejects with its own reason."""
    expected = inp[2]
    return int(result.ok != (expected is None) or result.reason != expected)


class ColdKeys(Workload):
    """measure_agreement over fresh-key cycles, alternating z2 and literal batches."""

    name = "cold-keys"
    kinds = ("z2", "literal")
    warmup_groups = 1

    # Cycles per measure_agreement call. The tests' 10,000-cycle calls take
    # ~33 s each on a 2-vCPU host, longer than a run. 64 is the smallest
    # batch at which ROADMAP item 4 expects batching along an array axis to
    # reach its floor, and it leaves 70 to 110 calls of each policy in a 30 s
    # run for the medians.
    BATCH = 64
    RECOUNT_GROUPS = 1  # literal batches re-counted cycle by cycle

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.setup_master = self.rng.randbytes(32)

    def setup_args(self) -> list[str]:
        return [self.setup_master.hex()]

    def groups(self):
        for index in itertools.count():
            yield [
                Request("z2", self.BATCH, _given(self.rng.randbytes(32)),
                        functools.partial(self._measure, scheme.Z2_DERIVED), self._check_z2),
                Request("literal", self.BATCH, _given(self.rng.randbytes(32)),
                        functools.partial(self._measure, scheme.SECRET_DERIVED),
                        functools.partial(self._check_literal, index < self.RECOUNT_GROUPS)),
            ]

    def _measure(self, policy, master):
        return scheme.measure_agreement(self.BATCH, PARAMS, policy, master)

    def _check_z2(self, master, report) -> int:
        if report.trials != self.BATCH:
            return self.BATCH
        return report.mu_failures + report.h_failures

    def _check_literal(self, recount, master, report) -> int:
        if report.trials != self.BATCH or report.mu_failures:
            return self.BATCH
        if recount and (report.mu_failures, report.h_failures) != self.recount(master):
            return self.BATCH
        return 0

    def recount(self, master: bytes, policy=scheme.SECRET_DERIVED) -> tuple[int, int]:
        """(mu, h) failures of the batch, one keygen/sign/verify cycle at a time."""
        reasons = []
        for t in range(self.BATCH):
            zeta, r, msg = scheme.derive_case_seeds(master, t)
            pk, sk = scheme.keygen(zeta, PARAMS)
            sig = scheme.sign(sk, pk, msg, r, PARAMS, policy)
            reasons.append(scheme.verify(pk, msg, sig, PARAMS, policy).reason)
        return reasons.count("mu-mismatch"), reasons.count("h-mismatch")


class Estimate(Workload):
    """primal_cost and dual_cost over a seeded order of the binomial LWE grid."""

    name = "estimate"
    kinds = ("primal", "dual")
    warmup_groups = 0
    flush_bytes = 64 << 20

    # Every group is one pass over all of GRID, so runs with different seeds
    # do the same work in a different order.
    GRID = tuple((n, eta) for n in (512, 768, 1024) for eta in (2, 4, 8, 16))

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")

    def setup_args(self) -> list[str]:
        return ["512", "16"]

    def groups(self):
        while True:
            order = list(self.GRID)
            self.rng.shuffle(order)
            yield [
                Request(kind, 1, functools.partial(_instance, n, eta),
                        functools.partial(_attack, kind), functools.partial(_check_attack, kind))
                for n, eta in order for kind in self.kinds
            ]


def _instance(n_lwe: int, eta: int):
    return (n_lwe, eta), estimator.LweInstance.from_binomial(n_lwe, PARAMS.q, eta)


def _attack(kind, inp):
    return getattr(estimator, f"{kind}_cost")(inp[1])


def _check_attack(kind, inp, est) -> int:
    """Exact match with the recorded grid; criterion 7 within its tolerance."""
    (n_lwe, eta), _ = inp
    got = [est.m, est.b, est.classical_bits, est.quantum_bits]
    if est.kind != kind or got != REFERENCE["estimates"][f"{n_lwe}/{eta}"][kind]:
        return 1
    ref = REFERENCE["criterion_7"]
    if (n_lwe, eta) == (ref["n_lwe"], ref["eta"]):
        want, tol = ref[kind], ref["tolerance"]
        if (abs(est.b - want["b"]) > tol["b"]
                or abs(est.classical_bits - want["classical_bits"]) > tol["bits"]
                or abs(est.quantum_bits - want["quantum_bits"]) > tol["bits"]):
            return 1
    return 0


WORKLOADS = {w.name: w for w in (HotKey, ColdKeys, Estimate)}


def layer_probe(cycles: int = 8) -> tuple[int, int]:
    """Fixed-input calls into every layer, for per-call costs; (attempted, failed).

    The same on every workload, so a layer's per-call cost is reported even
    where the workload itself never calls it.
    """
    ring = get_ring(PARAMS)
    failed = 0
    for i in range(cycles):
        pk, sk = scheme.keygen(bytes([0xA0 + i]) * 32, PARAMS)
        pk = codec.parse_pk(codec.serialize_pk(pk, ring), ring)
        msg = bytes([i]) * 256
        sig = scheme.sign(sk, pk, msg, bytes([0xC0 + i]) * 32, PARAMS, scheme.Z2_DERIVED)
        wire = codec.serialize_sig(sig, ring)
        failed += not scheme.verify(pk, msg, codec.parse_sig(wire, ring), PARAMS,
                                    scheme.Z2_DERIVED).ok
    inp = _instance(512, 16)
    for kind in Estimate.kinds:
        failed += _check_attack(kind, inp, _attack(kind, inp))
    return cycles + len(Estimate.kinds), failed
