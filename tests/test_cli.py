import json
import os
import re
import subprocess
import sys

import pytest

import mlds.cli
from mlds import ParamSet
from mlds.cli import main, EXIT_OK, EXIT_REJECT, EXIT_USAGE, EXIT_IO
from mlds.estimator import AttackEstimate

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
                   "--out-sig", str(sig), "--policy", "z2") == EXIT_OK
    assert sig.stat().st_size == 1830
    assert run_cli("verify", "--pk", str(pk), "--msg", str(msg), "--sig", str(sig)) == EXIT_OK


def test_verify_rejects_wrong_message(tmp_path, keyfiles, rng, capsys):
    pk, sk = keyfiles
    msg = tmp_path / "msg.bin"
    msg.write_bytes(rng.bytes(100))
    sig = tmp_path / "msg.sig"
    run_cli("sign", "--sk", str(sk), "--pk", str(pk), "--msg", str(msg),
            "--out-sig", str(sig), "--policy", "z2")
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
            "--out-sig", str(sig), "--policy", "z2")
    sig.write_bytes(sig.read_bytes()[:500])
    assert run_cli("verify", "--pk", str(pk), "--msg", str(msg), "--sig", str(sig)) == EXIT_USAGE


def test_verify_corrupt_magic_is_usage_error(tmp_path, keyfiles, rng):
    pk, sk = keyfiles
    msg = tmp_path / "msg.bin"
    msg.write_bytes(rng.bytes(64))
    sig = tmp_path / "msg.sig"
    run_cli("sign", "--sk", str(sk), "--pk", str(pk), "--msg", str(msg),
            "--out-sig", str(sig), "--policy", "z2")
    blob = bytearray(sig.read_bytes())
    blob[0] ^= 0xFF
    sig.write_bytes(bytes(blob))
    assert run_cli("verify", "--pk", str(pk), "--msg", str(msg), "--sig", str(sig)) == EXIT_USAGE


def test_literal_policy_roundtrip_reports_verdict(tmp_path, keyfiles, rng):
    # the literal h binds the signer's secret path; the verifier's check may
    # reject -- either exit code is legitimate, never a crash
    pk, sk = keyfiles
    msg = tmp_path / "msg.bin"
    msg.write_bytes(rng.bytes(64))
    sig = tmp_path / "msg.sig"
    run_cli("sign", "--sk", str(sk), "--pk", str(pk), "--msg", str(msg),
            "--out-sig", str(sig), "--policy", "literal")
    code = run_cli("verify", "--pk", str(pk), "--msg", str(msg), "--sig", str(sig))
    assert code in (EXIT_OK, EXIT_REJECT)


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


def test_kat_rejects_bad_count():
    assert run_cli("kat", "--count", "0", "--seed", SEED) == EXIT_USAGE


# -- measure -----------------------------------------------------------------------

def test_measure_z2(capsys):
    assert run_cli("measure", "--trials", "25", "--policy", "z2", "--seed", SEED) == EXIT_OK
    out = capsys.readouterr().out
    assert "mu failures: 0" in out
    assert "h failures:  0" in out
    assert "CI" in out
    noise = re.search(r"max noise: (\d+) \(analytic bound 2\*eta = 32\)", out)
    assert noise and int(noise.group(1)) <= 32


def test_measure_rejects_zero_trials():
    assert run_cli("measure", "--trials", "0", "--seed", SEED) == EXIT_USAGE


# -- estimate / info ------------------------------------------------------------------

def test_estimate_json_default_reports_both_dimensions(capsys):
    assert run_cli("estimate", "--json") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["q"] == 12289
    dims = [inst["n_lwe"] for inst in payload["instances"]]
    assert dims == [512, 1024]
    big = payload["instances"][1]
    assert abs(big["primal"]["b"] - 967) <= 2
    assert abs(big["dual"]["b"] - 962) <= 2
    assert abs(payload["sizes_bytes"]["pk_it"] - 901.5) <= 0.5
    assert payload["sizes_bytes"]["sig_wire"] == 1830


def test_estimate_explicit_instance(capsys):
    assert run_cli("estimate", "--n-lwe", "1024", "--q", "12289", "--eta", "16") == EXIT_OK
    out = capsys.readouterr().out
    assert "primal" in out and "dual" in out
    assert "1024" in out


def test_estimate_table_prints_the_instance_q_and_eta(capsys):
    assert run_cli("estimate", "--n-lwe", "512", "--eta", "2", "--q", "7681") == EXIT_OK
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert [row[9] for row in rows] == ["primal", "dual"]
    assert {(row[1], row[3]) for row in rows} == {("7681", "2")}


def test_estimate_json_records_each_instance_eta(capsys):
    assert run_cli("estimate", "--n-lwe", "512", "--eta", "2", "--q", "7681", "--json") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [(inst["n_lwe"], inst["q"], inst["eta"]) for inst in payload["instances"]] == [(512, 7681, 2)]
    # the params block stays the signature set whose sizes are reported
    assert (payload["params"]["q"], payload["params"]["eta"]) == (12289, 16)


def test_estimate_rejects_dual_outside_model(capsys, monkeypatch):
    # Such noise already defeats the primal embedding, so primal_cost is
    # stubbed to let the dual model's own rejection reach the command line.
    stub = AttackEstimate("primal", 1, 50, 14, 13)
    monkeypatch.setattr(mlds.cli, "primal_cost", lambda inst: stub)
    assert run_cli("estimate", "--n-lwe", "256", "--q", "2", "--eta", "1000000") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "sigma*sqrt(2*pi) < q" in captured.err


def test_info_runs(capsys):
    assert run_cli("info") == EXIT_OK
    out = capsys.readouterr().out
    assert "ML-SD-256x2" in out
    assert "gamma=3400" in out
    assert "n_inv=12241" in out
    assert "validation: ok" in out


def test_info_reports_an_invalid_set(monkeypatch, capsys):
    monkeypatch.setattr(mlds.cli, "DEFAULT_PARAMS", ParamSet(eta=3))
    assert run_cli("info") == EXIT_USAGE
    out = capsys.readouterr().out
    assert "  validation: eta=3 is not a multiple of 8" in out
    assert "ntt:" not in out and "sizes" not in out
