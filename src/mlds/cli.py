"""Command-line front end: key lifecycle, signing, verification, KATs,
agreement measurement, and attack-cost estimation.

Exit codes: 0 success/accept, 1 verification reject, 2 malformed input
(bad arguments, bad file contents), 3 I/O failure. Output files are written
atomically (temp file + rename); seeds and digests on the command line are
lowercase hex without prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict

from . import codec
from .estimator import EstimatorError, LweInstance, primal_cost, dual_cost
from .params import DEFAULT_PARAMS, SEED_BYTES
from .ring import get_ring
from .scheme import POLICIES, Z2_DERIVED, keygen, measure_agreement, run_cases, sign, verify

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def _parse_seed(text: str) -> bytes:
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        raise UsageError(f"seed is not valid hex: {text!r}")
    if len(seed) != SEED_BYTES:
        raise UsageError(f"seed must be {SEED_BYTES} bytes ({2 * SEED_BYTES} hex chars), got {len(seed)}")
    return seed


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mlds-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_keygen(args) -> int:
    zeta = _parse_seed(args.seed) if args.seed else os.urandom(SEED_BYTES)
    ring = get_ring(DEFAULT_PARAMS)
    pk, sk = keygen(zeta, DEFAULT_PARAMS)
    _write_atomic(args.out_pk, codec.serialize_pk(pk, ring))
    _write_atomic(args.out_sk, codec.serialize_sk(sk, ring))
    print(f"wrote {args.out_pk} ({codec.pk_bytes(DEFAULT_PARAMS)} B) "
          f"and {args.out_sk} ({codec.sk_bytes(DEFAULT_PARAMS)} B)")
    return EXIT_OK


def cmd_sign(args) -> int:
    ring = get_ring(DEFAULT_PARAMS)
    sk = codec.parse_sk(_read_file(args.sk), ring)
    pk = codec.parse_pk(_read_file(args.pk), ring)
    message = _read_file(args.msg)
    r = os.urandom(SEED_BYTES)  # fresh per signature; never caller-supplied outside kat
    sig = sign(sk, pk, message, r, DEFAULT_PARAMS)
    _write_atomic(args.out_sig, codec.serialize_sig(sig, ring))
    print(f"wrote {args.out_sig} ({codec.sig_bytes(DEFAULT_PARAMS)} B)")
    return EXIT_OK


def cmd_verify(args) -> int:
    ring = get_ring(DEFAULT_PARAMS)
    pk = codec.parse_pk(_read_file(args.pk), ring)
    sig = codec.parse_sig(_read_file(args.sig), ring)
    message = _read_file(args.msg)
    result = verify(pk, message, sig, DEFAULT_PARAMS)
    if result.ok:
        print("accept")
        return EXIT_OK
    print(f"reject: {result.reason}", file=sys.stderr)
    return EXIT_REJECT


def cmd_kat(args) -> int:
    ring, lines = get_ring(DEFAULT_PARAMS), []
    for cases, pk, sk, sig, verdicts in run_cases(_parse_seed(args.seed), args.count,
                                                  DEFAULT_PARAMS, args.policy):
        wires = zip(codec.serialize_pk(pk, ring), codec.serialize_sk(sk, ring),
                    codec.serialize_sig(sig, ring))
        for (zeta, r, msg), (pk_wire, sk_wire, sig_wire), verdict in zip(cases, wires, verdicts):
            lines.append(
                f"case {len(lines)}: zeta={zeta.hex()} r={r.hex()} msg={msg.hex()}"
                f" pk={pk_wire.hex()} sk={sk_wire.hex()} sig={sig_wire.hex()}"
                f" verdict={'accept' if verdict.ok else 'reject'}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_atomic(args.out, text.encode())
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_measure(args) -> int:
    master = _parse_seed(args.seed) if args.seed else None
    report = measure_agreement(args.trials, DEFAULT_PARAMS, args.policy, master)
    mu_lo, mu_hi = report.mu_interval
    h_lo, h_hi = report.h_interval
    print(f"trials: {report.trials} (policy: {args.policy})")
    print(f"mu failures: {report.mu_failures} "
          f"rate {report.mu_rate:.6f} [95% CI {mu_lo:.6f}, {mu_hi:.6f}]")
    print(f"h failures:  {report.h_failures} "
          f"rate {report.h_rate:.6f} [95% CI {h_lo:.6f}, {h_hi:.6f}]")
    print(f"max noise: {report.max_noise} (analytic bound 2*eta = {2 * DEFAULT_PARAMS.eta})")
    return EXIT_OK


FORGERY = ("forgery: not priced; the v1 relation rests on no hardness assumption (strict xfails "
           "test_verify_rejects_a_key_only_forgery, test_z2_signing_reads_the_secret_key)")


def _estimate_instance(n_lwe: int, q: int, eta: int, max_samples: int) -> dict:
    """The instance's fields and each attack's price, or its ``"refused"`` reason when that
    attack's model refuses the instance; raises the first refusal when every attack refuses."""
    inst = LweInstance.from_binomial(n_lwe, q, eta, max_samples)
    attacks, refused = {}, []
    for kind, cost in (("primal", primal_cost), ("dual", dual_cost)):
        try:
            a = cost(inst)
        except EstimatorError as exc:
            refused.append(exc)
            attacks[kind] = {"refused": str(exc)}
        else:
            attacks[kind] = {"m": a.m, "b": a.b, "classical_bits": a.classical_bits,
                             "quantum_bits": a.quantum_bits}
    if len(refused) == len(attacks):
        raise refused[0]
    return {"n_lwe": inst.n_lwe, "q": inst.q, "eta": eta, "sigma": inst.sigma,
            "max_samples": inst.max_samples, **attacks}


def cmd_estimate(args) -> int:
    p = DEFAULT_PARAMS
    inst = _estimate_instance(args.n_lwe, args.q, args.eta, args.max_samples)
    payload = {
        "params": {"n": p.n, "q": p.q, "k": p.k, "eta": p.eta, "name": p.name},
        "sizes_bytes": {name: round(size, 1) for name, size in asdict(codec.key_sizes(p)).items()},
        "instances": [inst],
        "forgery": FORGERY,
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK
    print(_sizes_line(p))
    print(f"{'attack':>6} {'n_lwe':>5} {'q':>6} {'eta':>3} {'m':>5} {'b':>5} | "
          "key recovery (LWE) bits: classical quantum")
    for kind in ("primal", "dual"):
        a = inst[kind]
        cells = (f"refused: {a['refused']}" if "refused" in a else
                 f"{a['m']:>5} {a['b']:>5} | {'':>25}{a['classical_bits']:>9} {a['quantum_bits']:>7}")
        print(f"{kind:>6} {inst['n_lwe']:>5} {inst['q']:>6} {inst['eta']:>3} {cells}")
    print(FORGERY)
    return EXIT_OK


def _sizes_line(p) -> str:
    """The key and signature sizes of parameter set ``p``, on one line that names it."""
    sizes = codec.key_sizes(p)
    return (f"sizes of {p.name} at q = {p.q} (bytes): pk {sizes.pk_it:.1f} it / {sizes.pk_wire} wire, "
            f"sk {sizes.sk_it:.1f} it / {sizes.sk_wire} wire, "
            f"sig {sizes.sig_it:.1f} it / {sizes.sig_wire} wire")


def cmd_info(args) -> int:
    p = DEFAULT_PARAMS
    print(f"parameter set: {p.name} (id {p.param_id:#04x})")
    print(f"  n={p.n} q={p.q} k={p.k} eta={p.eta} redundancy={p.redundancy}")
    print(f"  bits/coeff={p.bits_per_coeff} mu_bits={p.mu_bits} "
          f"floor(q/2)={p.half_q} floor(q/4)={p.quarter_q}")
    print(f"  decode margin: ||e3+e4||_inf <= 2*eta = {2 * p.eta} < floor(q/4) = {p.quarter_q} "
          f"(largest admissible eta: {p.max_eta})")
    consts = get_ring(p).constants
    print(f"ntt: gamma={consts.gamma} omega={consts.omega} n_inv={consts.n_inv}")
    print(_sizes_line(p))
    print("h policies (signing only): z2 (recomputable, default), literal (signer binds the secret path)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--out-pk", required=True)
    kg.add_argument("--out-sk", required=True)
    kg.add_argument("--seed", help=f"{SEED_BYTES}-byte hex seed (deterministic keygen)")
    kg.set_defaults(func=cmd_keygen)

    sg = sub.add_parser("sign", help="sign a message file")
    sg.add_argument("--sk", required=True)
    sg.add_argument("--pk", required=True)
    sg.add_argument("--msg", required=True)
    sg.add_argument("--out-sig", required=True)
    sg.set_defaults(func=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signature file")
    vf.add_argument("--pk", required=True)
    vf.add_argument("--msg", required=True)
    vf.add_argument("--sig", required=True)
    vf.set_defaults(func=cmd_verify)

    kat = sub.add_parser("kat", help="deterministic known-answer fixtures")
    kat.add_argument("--count", type=int, required=True)
    kat.add_argument("--seed", required=True, help=f"{SEED_BYTES}-byte hex master seed")
    kat.add_argument("--policy", choices=POLICIES, default=Z2_DERIVED)
    kat.add_argument("--out", help="write fixtures to a file instead of stdout")
    kat.set_defaults(func=cmd_kat)

    ms = sub.add_parser("measure", help="measure decode/h agreement rates")
    ms.add_argument("--trials", type=int, required=True)
    ms.add_argument("--policy", choices=POLICIES, default=Z2_DERIVED)
    ms.add_argument("--seed", help=f"{SEED_BYTES}-byte hex master seed (reproducible runs)")
    ms.set_defaults(func=cmd_measure)

    est = sub.add_parser("estimate", help="core-SVP key-recovery (LWE) attack costs and sizes")
    key = LweInstance.from_params(DEFAULT_PARAMS)  # each flag replaces one field of the pk's instance
    est.add_argument("--n-lwe", type=int, default=key.n_lwe,
                     help="LWE secret dimension (default: k*n = %(default)s)")
    est.add_argument("--q", type=int, default=key.q)
    est.add_argument("--eta", type=int, default=DEFAULT_PARAMS.eta)
    est.add_argument("--max-samples", type=int, default=key.max_samples,
                     help="most LWE samples m (default: the k*n = %(default)s a public key gives)")
    est.add_argument("--json", action="store_true")
    est.set_defaults(func=cmd_estimate)

    info = sub.add_parser("info", help="print parameters, constants, and sizes")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:  # CodecError, ParamError, EstimatorError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
