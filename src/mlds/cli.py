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

from . import codec
from .codec import CodecError
from .estimator import LweInstance, key_sizes, primal_cost, dual_cost, EstimatorError
from .params import DEFAULT_PARAMS, ParamError, derive_ntt_constants, validate_params
from .ring import get_ring
from .scheme import (
    POLICIES,
    Z2_DERIVED,
    derive_case_seeds,
    keygen,
    measure_agreement,
    sign,
    verify,
)

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
    if len(seed) != 32:
        raise UsageError(f"seed must be 32 bytes (64 hex chars), got {len(seed)}")
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
    zeta = _parse_seed(args.seed) if args.seed else os.urandom(32)
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
    r = os.urandom(32)  # fresh per signature; never caller-supplied outside kat
    sig = sign(sk, pk, message, r, DEFAULT_PARAMS, args.policy)
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
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    master = _parse_seed(args.seed)
    ring = get_ring(DEFAULT_PARAMS)
    lines = []
    for i in range(args.count):
        zeta, r, msg = derive_case_seeds(master, i)
        pk, sk = keygen(zeta, DEFAULT_PARAMS)
        sig = sign(sk, pk, msg, r, DEFAULT_PARAMS, args.policy)
        verdict = "accept" if verify(pk, msg, sig, DEFAULT_PARAMS).ok else "reject"
        lines.append(
            f"case {i}: zeta={zeta.hex()} r={r.hex()} msg={msg.hex()}"
            f" pk={codec.serialize_pk(pk, ring).hex()}"
            f" sk={codec.serialize_sk(sk, ring).hex()}"
            f" sig={codec.serialize_sig(sig, ring).hex()}"
            f" verdict={verdict}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_atomic(args.out, text.encode())
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_measure(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
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


def _estimate_instance(n_lwe: int, q: int, eta: int, max_samples: int | None) -> dict:
    inst = LweInstance.from_binomial(n_lwe, q, eta, max_samples)
    primal = primal_cost(inst)
    dual = dual_cost(inst)
    return {
        "n_lwe": inst.n_lwe,
        "q": inst.q,
        "eta": eta,
        "sigma": inst.sigma,
        "max_samples": inst.max_samples,
        "primal": {"m": primal.m, "b": primal.b,
                   "classical_bits": primal.classical_bits,
                   "quantum_bits": primal.quantum_bits},
        "dual": {"m": dual.m, "b": dual.b,
                 "classical_bits": dual.classical_bits,
                 "quantum_bits": dual.quantum_bits},
    }


def cmd_estimate(args) -> int:
    p = DEFAULT_PARAMS
    sizes = key_sizes(p)
    if args.n_lwe is not None:
        dims = [args.n_lwe]
    else:
        # module secret dimension n*k, plus the conservative n*k^2 reading
        dims = [p.n * p.k, p.n * p.k * p.k]
    instances = [_estimate_instance(d, args.q, args.eta, args.max_samples) for d in dims]
    payload = {
        "params": {"n": p.n, "q": p.q, "k": p.k, "eta": p.eta, "name": p.name},
        "sizes_bytes": {
            "pk_it": round(sizes.pk_it, 1), "sk_it": round(sizes.sk_it, 1),
            "sig_it": round(sizes.sig_it, 1), "pk_wire": sizes.pk_wire,
            "sk_wire": sizes.sk_wire, "sig_wire": sizes.sig_wire,
        },
        "instances": instances,
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_OK
    print(f"{'n':>4} {'q':>6} {'k':>2} {'eta':>3} | {'pk':>6} {'sk':>6} {'sig':>6} | "
          f"{'attack':>6} {'n_lwe':>5} {'m':>5} {'b':>5} {'classical':>9} {'quantum':>8}")
    for inst in instances:
        for kind in ("primal", "dual"):
            a = inst[kind]
            print(f"{p.n:>4} {inst['q']:>6} {p.k:>2} {inst['eta']:>3} | "
                  f"{sizes.pk_it:>6.1f} {sizes.sk_it:>6.1f} {sizes.sig_it:>6.1f} | "
                  f"{kind:>6} {inst['n_lwe']:>5} {a['m']:>5} {a['b']:>5} "
                  f"{a['classical_bits']:>9} {a['quantum_bits']:>8}")
    print(f"wire sizes: pk={sizes.pk_wire} B sk={sizes.sk_wire} B sig={sizes.sig_wire} B")
    return EXIT_OK


def cmd_info(args) -> int:
    p = DEFAULT_PARAMS
    problems = validate_params(p)
    print(f"parameter set: {p.name} (id {p.param_id:#04x})")
    print(f"  n={p.n} q={p.q} k={p.k} eta={p.eta} redundancy={p.redundancy}")
    print(f"  bits/coeff={p.bits_per_coeff} mu_bits={p.mu_bits} "
          f"floor(q/2)={p.half_q} floor(q/4)={p.quarter_q}")
    print(f"  validation: {'ok' if not problems else '; '.join(problems)}")
    if problems:
        return EXIT_USAGE
    consts = derive_ntt_constants(p)
    sizes = key_sizes(p)
    print(f"ntt: gamma={consts.gamma} omega={consts.omega} n_inv={consts.n_inv}")
    print(f"sizes (bytes): pk {sizes.pk_it:.1f} it / {sizes.pk_wire} wire, "
          f"sk {sizes.sk_it:.1f} it / {sizes.sk_wire} wire, "
          f"sig {sizes.sig_it:.1f} it / {sizes.sig_wire} wire")
    print("h policies (signing only): z2 (recomputable, default), literal (signer binds the secret path)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--out-pk", required=True)
    kg.add_argument("--out-sk", required=True)
    kg.add_argument("--seed", help="32-byte hex seed (deterministic keygen)")
    kg.set_defaults(func=cmd_keygen)

    sg = sub.add_parser("sign", help="sign a message file")
    sg.add_argument("--sk", required=True)
    sg.add_argument("--pk", required=True)
    sg.add_argument("--msg", required=True)
    sg.add_argument("--out-sig", required=True)
    sg.add_argument("--policy", choices=POLICIES, default=Z2_DERIVED)
    sg.set_defaults(func=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signature file")
    vf.add_argument("--pk", required=True)
    vf.add_argument("--msg", required=True)
    vf.add_argument("--sig", required=True)
    vf.set_defaults(func=cmd_verify)

    kat = sub.add_parser("kat", help="deterministic known-answer fixtures")
    kat.add_argument("--count", type=int, required=True)
    kat.add_argument("--seed", required=True, help="32-byte hex master seed")
    kat.add_argument("--policy", choices=POLICIES, default=Z2_DERIVED)
    kat.add_argument("--out", help="write fixtures to a file instead of stdout")
    kat.set_defaults(func=cmd_kat)

    ms = sub.add_parser("measure", help="measure decode/h agreement rates")
    ms.add_argument("--trials", type=int, required=True)
    ms.add_argument("--policy", choices=POLICIES, default=Z2_DERIVED)
    ms.add_argument("--seed", help="32-byte hex master seed (reproducible runs)")
    ms.set_defaults(func=cmd_measure)

    est = sub.add_parser("estimate", help="core-SVP attack costs and sizes")
    est.add_argument("--n-lwe", type=int, default=None,
                     help="LWE secret dimension (default: both n*k and n*k^2)")
    est.add_argument("--q", type=int, default=DEFAULT_PARAMS.q)
    est.add_argument("--eta", type=int, default=DEFAULT_PARAMS.eta)
    est.add_argument("--max-samples", type=int, default=None)
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
    except (UsageError, CodecError, ParamError, EstimatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
