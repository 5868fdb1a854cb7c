import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import mlds.cli
from mlds import (DEFAULT_PARAMS, ParamError, ParamSet, get_ring, keygen, serialize_pk,
                  serialize_sig, serialize_sk, sign, validate_params, verify)
from mlds.sampling import derive_case_seeds
from mlds.scheme import AGREEMENT_CHUNK
from mlds.cli import main, EXIT_OK, EXIT_REJECT, EXIT_USAGE, EXIT_IO
from mlds.estimator import AttackEstimate, LweInstance, dual_cost, primal_cost

import test_acceptance

SEED = "00" * 32
SEED2 = "ab" * 32


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def keyfiles(tmp_path):
    pk = tmp_path / "key.pk"
    sk = tmp_path / "key.sk"
    assert run_cli("keygen", "--out-pk", str(pk), "--out-sk", str(sk), "--seed", SEED) == EXIT_OK
    return pk, sk


def test_keygen_writes_expected_sizes(keyfiles):
    pk, sk = keyfiles
    assert pk.stat().st_size == 934
    assert sk.stat().st_size == 902


def test_keygen_deterministic_with_seed(tmp_path, keyfiles):
    pk, sk = keyfiles
    pk2 = tmp_path / "again.pk"
    sk2 = tmp_path / "again.sk"
    run_cli("keygen", "--out-pk", str(pk2), "--out-sk", str(sk2), "--seed", SEED)
    assert pk.read_bytes() == pk2.read_bytes()
    assert sk.read_bytes() == sk2.read_bytes()


def test_sign_verify_roundtrip_z2(tmp_path, keyfiles, rng):
    pk, sk = keyfiles
    msg = tmp_path / "msg.bin"
    msg.write_bytes(rng.bytes(1024))
    sig = tmp_path / "msg.sig"
    assert run_cli("sign", "--sk", str(sk), "--pk", str(pk), "--msg", str(msg),
                   "--out-sig", str(sig)) == EXIT_OK
    assert sig.stat().st_size == 1830
    assert run_cli("verify", "--pk", str(pk), "--msg", str(msg), "--sig", str(sig)) == EXIT_OK


def test_verify_rejects_wrong_message(tmp_path, keyfiles, rng, capsys):
    pk, sk = keyfiles
    msg = tmp_path / "msg.bin"
    msg.write_bytes(rng.bytes(100))
    sig = tmp_path / "msg.sig"
    run_cli("sign", "--sk", str(sk), "--pk", str(pk), "--msg", str(msg),
            "--out-sig", str(sig))
    other = tmp_path / "other.bin"
    other.write_bytes(b"different payload")
    code = run_cli("verify", "--pk", str(pk), "--msg", str(other), "--sig", str(sig))
    assert code == EXIT_REJECT
    assert "mu-mismatch" in capsys.readouterr().err


def test_verify_truncated_sig_is_usage_error(tmp_path, keyfiles, rng):
    pk, sk = keyfiles
    msg = tmp_path / "msg.bin"
    msg.write_bytes(rng.bytes(64))
    sig = tmp_path / "msg.sig"
    run_cli("sign", "--sk", str(sk), "--pk", str(pk), "--msg", str(msg),
            "--out-sig", str(sig))
    sig.write_bytes(sig.read_bytes()[:500])
    assert run_cli("verify", "--pk", str(pk), "--msg", str(msg), "--sig", str(sig)) == EXIT_USAGE


def test_verify_corrupt_magic_is_usage_error(tmp_path, keyfiles, rng):
    pk, sk = keyfiles
    msg = tmp_path / "msg.bin"
    msg.write_bytes(rng.bytes(64))
    sig = tmp_path / "msg.sig"
    run_cli("sign", "--sk", str(sk), "--pk", str(pk), "--msg", str(msg),
            "--out-sig", str(sig))
    blob = bytearray(sig.read_bytes())
    blob[0] ^= 0xFF
    sig.write_bytes(bytes(blob))
    assert run_cli("verify", "--pk", str(pk), "--msg", str(msg), "--sig", str(sig)) == EXIT_USAGE


def test_sign_has_no_policy_option(tmp_path, keyfiles, capsys):
    # the verifier rejects nearly every literal signature, so mlds sign makes z2 ones only
    pk, sk = keyfiles
    with pytest.raises(SystemExit) as exc:
        run_cli("sign", "--sk", str(sk), "--pk", str(pk), "--msg", str(pk),
                "--out-sig", str(tmp_path / "msg.sig"), "--policy", "literal")
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --policy literal" in capsys.readouterr().err
    assert not (tmp_path / "msg.sig").exists()


def test_verify_has_no_policy_option(tmp_path, keyfiles, capsys):
    # verification is one rule; the policy is chosen when signing
    pk, _ = keyfiles
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--pk", str(pk), "--msg", str(pk), "--sig", str(pk), "--policy", "z2")
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --policy z2" in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path):
    assert run_cli("verify", "--pk", str(tmp_path / "nope.pk"),
                   "--msg", str(tmp_path / "nope.msg"),
                   "--sig", str(tmp_path / "nope.sig")) == EXIT_IO


def test_bad_seed_is_usage_error(tmp_path):
    assert run_cli("keygen", "--out-pk", str(tmp_path / "a"), "--out-sk", str(tmp_path / "b"),
                   "--seed", "zz") == EXIT_USAGE
    assert run_cli("keygen", "--out-pk", str(tmp_path / "a"), "--out-sk", str(tmp_path / "b"),
                   "--seed", "ab" * 16) == EXIT_USAGE


def test_no_partial_output_on_failure(tmp_path, monkeypatch):
    # force the atomic writer to fail after the temp file exists
    import mlds.cli as cli_mod

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli_mod.os, "replace", boom)
    out_pk = tmp_path / "x.pk"
    out_sk = tmp_path / "x.sk"
    assert run_cli("keygen", "--out-pk", str(out_pk), "--out-sk", str(out_sk),
                   "--seed", SEED) == EXIT_IO
    assert not out_pk.exists() and not out_sk.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".mlds-tmp-")]


# -- kat ---------------------------------------------------------------------------

KAT_LINE = re.compile(
    r"^case (\d+): zeta=([0-9a-f]{64}) r=([0-9a-f]{64}) msg=([0-9a-f]{64})"
    r" pk=([0-9a-f]{1868}) sk=([0-9a-f]{1804}) sig=([0-9a-f]{3660})"
    r" verdict=(accept|reject)$"
)


def test_kat_line_format(capsys):
    assert run_cli("kat", "--count", "3", "--seed", SEED) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        m = KAT_LINE.match(line)
        assert m, line[:80]
        assert int(m.group(1)) == i


def test_kat_deterministic_across_runs(capsys):
    run_cli("kat", "--count", "4", "--seed", SEED2)
    first = capsys.readouterr().out
    run_cli("kat", "--count", "4", "--seed", SEED2)
    second = capsys.readouterr().out
    assert first == second
    run_cli("kat", "--count", "4", "--seed", SEED)
    assert capsys.readouterr().out != first


def test_kat_z2_policy_all_accept(capsys):
    run_cli("kat", "--count", "4", "--seed", SEED, "--policy", "z2")
    out = capsys.readouterr().out
    assert out.count("verdict=accept") == 4


def test_kat_to_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "fixtures.kat"
    run_cli("kat", "--count", "2", "--seed", SEED, "--out", str(out))
    capsys.readouterr()
    run_cli("kat", "--count", "2", "--seed", SEED)
    assert out.read_text() == capsys.readouterr().out


def test_kat_subprocess_byte_identical():
    cmd = [sys.executable, "-m", "mlds.cli", "kat", "--count", "2", "--seed", SEED]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and a


@pytest.mark.parametrize("policy", ["z2", "literal"])
def test_kat_across_a_chunk_boundary_matches_single_calls(policy, capsys):
    # kat runs its cases in batched chunks of AGREEMENT_CHUNK; the last case starts
    # a second chunk, and every line must equal one built from single calls
    count = AGREEMENT_CHUNK + 1
    master, ring = bytes.fromhex(SEED2), get_ring(DEFAULT_PARAMS)
    expected = []
    for i in range(count):
        zeta, r, msg = derive_case_seeds(master, i)
        pk, sk = keygen(zeta)
        sig = sign(sk, pk, msg, r, policy=policy)
        verdict = "accept" if verify(pk, msg, sig).ok else "reject"
        expected.append(f"case {i}: zeta={zeta.hex()} r={r.hex()} msg={msg.hex()}"
                        f" pk={serialize_pk(pk, ring).hex()} sk={serialize_sk(sk, ring).hex()}"
                        f" sig={serialize_sig(sig, ring).hex()} verdict={verdict}\n")
    assert run_cli("kat", "--count", str(count), "--seed", SEED2, "--policy", policy) == EXIT_OK
    assert capsys.readouterr().out == "".join(expected)


def test_kat_rejects_bad_count(tmp_path, capsys):
    # run_cases refuses the count, before any case runs or any file is written
    out = tmp_path / "fixtures.kat"
    for count in ("0", "-1"):
        assert run_cli("kat", "--count", count, "--seed", SEED, "--out", str(out)) == EXIT_USAGE
        assert "count must be an int >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert run_cli("kat", "--count", count, "--seed", SEED) == EXIT_USAGE
        assert capsys.readouterr().out == ""


# -- measure -----------------------------------------------------------------------

def test_measure_z2(capsys):
    assert run_cli("measure", "--trials", "25", "--policy", "z2", "--seed", SEED) == EXIT_OK
    out = capsys.readouterr().out
    assert "mu failures: 0" in out
    assert "h failures:  0" in out
    assert "CI" in out
    noise = re.search(r"max noise: (\d+) \(analytic bound 2\*eta = 32\)", out)
    assert noise and int(noise.group(1)) <= 32


#: SHA-256 of the stdout of  mlds measure --trials 130 --seed 1f..1f --policy P: 130
#: cycles run in chunks of AGREEMENT_CHUNK and so cross two chunk boundaries.
MEASURE_SHA256 = {
    "z2": "0c2f503fcf8db074ea9974b70bad860af1ea52430ee97bf4ab6dd619ac24f0ec",
    "literal": "40ae16740a0a8c13fd09a6c88d1af02e7b1a28e266c71dc686e7ced4be53acde",
}


@pytest.mark.parametrize("policy", sorted(MEASURE_SHA256))
def test_measure_output_digest_pinned(policy, capsys):
    assert 2 * AGREEMENT_CHUNK < 130
    assert run_cli("measure", "--trials", "130", "--seed", "1f" * 32, "--policy", policy) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == MEASURE_SHA256[policy]


def test_measure_rejects_zero_trials(capsys):
    # measure_agreement refuses the count, with or without a master seed
    for trials in ("0", "-1"):
        for seed in ((), ("--seed", SEED)):
            assert run_cli("measure", "--trials", trials, *seed) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == "" and "trials must be an int >= 1" in err


# -- estimate / info ------------------------------------------------------------------

def test_estimate_json_default_prices_the_public_key_instance(capsys):
    assert run_cli("estimate", "--json") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["q"] == 12289
    assert [inst["n_lwe"] for inst in payload["instances"]] == [512]
    (row,) = payload["instances"]
    key = LweInstance.from_params(DEFAULT_PARAMS)
    assert (row["q"], row["eta"], row["sigma"], row["max_samples"]) == (key.q, 16, key.sigma, 512)
    for est in (primal_cost(key), dual_cost(key)):
        assert row[est.kind] == {"m": est.m, "b": est.b, "classical_bits": est.classical_bits,
                                 "quantum_bits": est.quantum_bits}
    assert [tuple(row[kind].values()) for kind in ("primal", "dual")] == [(507, 430, 125, 113),
                                                                          (512, 427, 124, 113)]
    assert abs(payload["sizes_bytes"]["pk_it"] - 901.5) <= 0.5
    assert payload["sizes_bytes"]["sig_wire"] == 1830


def test_estimate_prints_one_forgery_line_that_names_strict_xfails(capsys):
    assert run_cli("estimate") == EXIT_OK
    line = capsys.readouterr().out.splitlines()[-1]
    assert run_cli("estimate", "--json") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["forgery"] == line == mlds.cli.FORGERY
    assert "no hardness assumption" in line
    for name in ("test_verify_rejects_a_key_only_forgery", "test_z2_signing_reads_the_secret_key"):
        (mark,) = getattr(test_acceptance, name).pytestmark
        assert name in line and mark.name == "xfail" and mark.kwargs["strict"] is True


#: SHA-256 of the stdout of  mlds estimate [--json]: every estimate, size and
#: column of the default run, and its forgery line, byte for byte.
ESTIMATE_SHA256 = {
    "table": "77aee5829ba4e5299c6c2da76144b486ef1e92d8f6d5d217cf63842cabcd5c07",
    "json": "a5cb210ee1a3c2a1548d461afefe415361af84d62af6c2a91e83ebf1b4e3eb31",
}


@pytest.mark.parametrize("form", sorted(ESTIMATE_SHA256))
def test_estimate_output_digest_pinned(form):
    cmd = [sys.executable, "-m", "mlds.cli", "estimate"] + (["--json"] if form == "json" else [])
    digest = hashlib.sha256(subprocess.run(cmd, capture_output=True, check=True).stdout).hexdigest()
    assert digest == ESTIMATE_SHA256[form]


def test_estimate_explicit_instance(capsys):
    assert run_cli("estimate", "--n-lwe", "1024", "--q", "12289", "--eta", "16") == EXIT_OK
    out = capsys.readouterr().out
    assert "primal" in out and "dual" in out
    assert "1024" in out


def test_estimate_table_prints_the_instance_q_and_eta(capsys):
    assert run_cli("estimate", "--n-lwe", "512", "--eta", "2", "--q", "7681") == EXIT_OK
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert header[:4] == ["attack", "n_lwe", "q", "eta"]
    assert [row[0] for row in rows] == ["primal", "dual"]
    assert {(row[1], row[2], row[3]) for row in rows} == {("512", "7681", "2")}


def test_estimate_prints_the_signature_set_sizes_once_under_its_name(capsys):
    # the sizes are the shipped set's at its own q, not the instance's q = 7681
    assert run_cli("estimate", "--n-lwe", "512", "--eta", "8", "--q", "7681") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("sizes of ML-SD-256x2 at q = 12289 (bytes): pk 901.4 it / 934 wire, "
                        "sk 869.4 it / 902 wire, sig 1770.9 it / 1830 wire")
    assert len(lines) == 5 and lines[-1] == mlds.cli.FORGERY  # sizes, header, primal, dual, forgery
    assert not any("901.4" in line or "1830" in line for line in lines[1:])


def test_estimate_json_records_each_instance_eta(capsys):
    assert run_cli("estimate", "--n-lwe", "512", "--eta", "2", "--q", "7681", "--json") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [(inst["n_lwe"], inst["q"], inst["eta"]) for inst in payload["instances"]] == [(512, 7681, 2)]
    # the params block stays the signature set whose sizes are reported
    assert (payload["params"]["q"], payload["params"]["eta"]) == (12289, 16)


def test_estimate_names_the_block_size_an_instance_is_too_small_for(capsys):
    # n_lwe = 16 with 32 samples builds lattices of dimension 49 at most
    assert run_cli("estimate", "--n-lwe", "16", "--max-samples", "32") == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the largest lattice dimension, 49 at m = max_samples, is below "
                   "MIN_BLOCK = 50, the smallest block size the delta(b) model holds for\n")


def refused_line(out: str, kind: str) -> str:
    """The table row of the attack ``kind``, which must be a refusal."""
    (line,) = [line for line in out.splitlines() if line.split()[:1] == [kind]]
    assert line.split()[4] == "refused:"
    return line


def test_estimate_rejects_dual_outside_model(capsys, monkeypatch):
    # Such noise already defeats the primal embedding, so primal_cost is stubbed
    # to price it; the dual model's own refusal is printed on the dual's row.
    stub = AttackEstimate("primal", 1, 50, 14, 13)
    monkeypatch.setattr(mlds.cli, "primal_cost", lambda inst: stub)
    assert run_cli("estimate", "--n-lwe", "256", "--q", "2", "--eta", "1000000") == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "sigma*sqrt(2*pi) < q" in refused_line(captured.out, "dual")


def test_estimate_rejects_dual_optimum_at_tau_clamp(capsys, monkeypatch):
    # sigma = sqrt(eta / 2) = q / 4: every dual cell has tau at the 2^30 clamp, so the
    # optimum's cost would be the clamp's; primal_cost is stubbed as above
    q = 2**61 - 1
    stub = AttackEstimate("primal", 1, 50, 14, 13)
    monkeypatch.setattr(mlds.cli, "primal_cost", lambda inst: stub)
    assert run_cli("estimate", "--n-lwe", "60", "--q", str(q), "--eta", str(q * q // 8),
                   "--max-samples", "10", "--json") == EXIT_OK
    (inst,) = json.loads(capsys.readouterr().out)["instances"]
    assert inst["dual"]["refused"].startswith("dual optimum (m=1, b=50)")
    assert "clamp" in inst["dual"]["refused"]
    assert inst["primal"] == {"m": 1, "b": 50, "classical_bits": 14, "quantum_bits": 13}


def test_estimate_prices_the_dual_where_the_primal_refuses(capsys):
    # at the largest admissible eta the primal embedding has no feasible (m, b), yet the
    # dual model prices the same instance; each attack is priced on its own
    assert run_cli("estimate", "--eta", "1528") == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert refused_line(captured.out, "primal").endswith(
        "refused: no (m, b) satisfies the primal embedding condition in bounds")
    (dual,) = [line.split() for line in captured.out.splitlines() if line.split()[:1] == ["dual"]]
    assert dual == ["dual", "512", "12289", "1528", "512", "1024", "|", "301", "273"]
    assert run_cli("estimate", "--eta", "1528", "--json") == EXIT_OK
    (inst,) = json.loads(capsys.readouterr().out)["instances"]
    assert inst["primal"] == {"refused": "no (m, b) satisfies the primal embedding condition in bounds"}
    assert inst["dual"] == {"m": 512, "b": 1024, "classical_bits": 301, "quantum_bits": 273}


def test_info_runs(capsys):
    assert run_cli("info") == EXIT_OK
    out = capsys.readouterr().out
    assert "ML-SD-256x2" in out
    assert "gamma=3400" in out
    assert "n_inv=12241" in out
    assert ("sizes of ML-SD-256x2 at q = 12289 (bytes): pk 901.4 it / 934 wire, "
            "sk 869.4 it / 902 wire, sig 1770.9 it / 1830 wire") in out.splitlines()


def test_info_prints_the_decode_margin(capsys):
    assert run_cli("info") == EXIT_OK
    line = next(x for x in capsys.readouterr().out.splitlines() if "decode margin" in x)
    assert "2*eta = 32 < floor(q/4) = 3072" in line
    assert line.endswith("(largest admissible eta: 1528)")
    # the same rule as validate_params: 1528 validates, the next multiple of 8 cannot be built
    assert not validate_params(ParamSet(eta=1528))
    with pytest.raises(ParamError, match=r"floor\(q/4\) = 3072"):
        ParamSet(eta=1536)


def test_info_reports_an_invalid_set():
    # an invalid set cannot be built, so `mlds info` never meets one: the
    # ParamError names each violation, as its removed validation line did
    with pytest.raises(ParamError, match="^eta=3 is not a multiple of 8"):
        dataclasses.replace(mlds.cli.DEFAULT_PARAMS, eta=3)
