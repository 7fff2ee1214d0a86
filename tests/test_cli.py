import hashlib
import json
import subprocess
import sys

import pytest

from psmt.cli import main


def read_lines(path):
    return path.read_text().splitlines()


def csv_rows(path):
    lines = read_lines(path)
    assert lines[0].startswith("# schema: ")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_run_basic_phase_costs(tmp_path, capsys):
    rc = main(["run", "--protocol", "basic", "--n", "5", "--adversary",
               "passive", "--trials", "3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "successes=3/3" in out
    rows = csv_rows(tmp_path / "phases.csv")
    t0 = [r for r in rows if r["trial"] == "0"]
    assert len(t0) == 3  # round one, the size marker, the masked payload
    by_phase = {r["phase"]: r for r in t0}
    assert by_phase["round1"]["direction"] == "bob->alice"
    assert by_phase["round1"]["symbols"] == "15"
    assert by_phase["pb-overhead"]["symbols"] == "5"
    assert by_phase["masked-secrets"]["symbols"] == "15"
    summary = csv_rows(tmp_path / "summary.csv")[0]
    assert summary["successes"] == "3"
    assert summary["success_rate"] == "1/1"  # fractions come out reduced
    assert summary["success_rate_dec"] == "1.000000"
    assert summary["q"] == "7"
    assert len(summary) == 21


def test_run_rejects_even_n(tmp_path, capsys):
    rc = main(["run", "--n", "6", "--out", str(tmp_path)])
    assert rc == 2
    assert "n must equal 2t+1 (got n=6, t=2)" in capsys.readouterr().err


@pytest.mark.parametrize("command,protocol", [
    ("run", "basic"), ("run", "improved"), ("audit", "basic"), ("audit", "improved")])
def test_m_refused_outside_rank(tmp_path, capsys, command, protocol):
    # --m was ignored here: the run went ahead over F_7 and wrote m=1
    rc = main([command, "--protocol", protocol, "--n", "5", "--m", "9",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "--m is the rank protocol's extension degree" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "audit"])
def test_t_is_not_an_option(capsys, command):
    # t is always (n-1)/2; on run, --t reads as an ambiguous prefix of
    # --trials and --transcript
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "5", "--t", "2"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_run_reproduces_byte_identical(tmp_path):
    argv = ["run", "--protocol", "improved", "--n", "7", "--l", "2",
            "--adversary", "targeted-syndrome", "--trials", "4", "--seed",
            "99", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = [(tmp_path / name).read_bytes()
             for name in ("phases.csv", "summary.csv")]
    assert main(argv) == 0
    second = [(tmp_path / name).read_bytes()
              for name in ("phases.csv", "summary.csv")]
    assert first == second


def test_run_rank_protocol(tmp_path, capsys):
    rc = main(["run", "--protocol", "rank", "--n", "3", "--adversary",
               "fixed-tamper", "--trials", "2", "--out", str(tmp_path)])
    assert rc == 0
    summary = csv_rows(tmp_path / "summary.csv")[0]
    assert summary["protocol"] == "rank"
    assert summary["q"] == "16"
    assert summary["m"] == "4"
    assert summary["successes"] == "2"


def test_run_transcript_log(tmp_path):
    rc = main(["run", "--protocol", "basic", "--n", "5", "--adversary",
               "replay", "--trials", "1", "--transcript", "--out",
               str(tmp_path)])
    assert rc == 0
    lines = read_lines(tmp_path / "transcript_0000.jsonl")
    assert len(lines) >= 3
    recs = [json.loads(line) for line in lines]
    assert recs[0]["direction"] == "bob->alice"
    assert recs[0]["phase"] == "round1"
    for rec in recs:
        assert set(rec) >= {"direction", "phase", "public", "sent", "delivered"}


def test_run_ambiguous_adversary_prefix(tmp_path, capsys):
    rc = main(["run", "--n", "5", "--adversary", "r", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown adversary 'r'" in capsys.readouterr().err


def test_audit_single_adversary_passes(tmp_path, capsys):
    rc = main(["audit", "--protocol", "basic", "--n", "3", "--q", "5",
               "--adversary", "passive", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "adversary=passive PASS" in out
    assert "audit PASS" in out
    rows = csv_rows(tmp_path / "audit.csv")
    assert len(rows) == 1
    assert rows[0]["passed"] == "1"
    assert rows[0]["runs"] == "3125"


def test_audit_refuses_oversized(capsys):
    rc = main(["audit", "--protocol", "basic", "--n", "5", "--adversary",
               "passive"])
    assert rc == 2
    assert "REFUSED" in capsys.readouterr().out


def test_audit_budget_flag_widens(capsys):
    # raising the budget turns the same refusal into a real audit; keep the
    # parameters at the n=3 minimum so this stays quick
    rc = main(["audit", "--protocol", "basic", "--n", "3", "--q", "5",
               "--adversary", "targeted-syndrome", "--budget", "4000"])
    assert rc == 0
    assert "runs=3125" in capsys.readouterr().out


def test_bench_sweep_within_bound(tmp_path, capsys):
    rc = main(["bench", "--n", "5,7", "--l", "1,n", "--trials", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = csv_rows(tmp_path / "bench.csv")
    assert len(rows) == 4
    for row in rows:
        assert row["within_bound"] == "1"
        assert int(row["total_symbols_max"]) <= int(row["predicted_symbols"])


@pytest.mark.parametrize("option", ["--n", "--l"])
def test_bench_empty_sweep_refused(tmp_path, capsys, option):
    # an empty list wrote a header-only bench.csv and exited 0
    with pytest.raises(SystemExit) as exc:
        main(["bench", option, "", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument %s: needs at least one value" % option in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exits_2(tmp_path, capsys):
    # an OSError on the output directory was a bare traceback with exit 1,
    # the status of a reliability failure
    (tmp_path / "file").write_text("")
    rc = main(["run", "--n", "3", "--out", str(tmp_path / "file" / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err


@pytest.mark.parametrize("command", ["run", "bench"])
def test_zero_trials_refused(tmp_path, capsys, command):
    # no trial means no measured total: refused before anything is written
    rc = main([command, "--n", "5", "--trials", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "trials must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_bad_l_token(tmp_path, capsys):
    rc = main(["bench", "--n", "5", "--l", "square", "--out", str(tmp_path)])
    assert rc == 2
    assert "bad l token" in capsys.readouterr().err


def test_cli_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "psmt.cli", "run", "--protocol", "basic",
         "--n", "5", "--trials", "1", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "successes=1/1" in proc.stdout


def test_run_largest_prime_field_delivers(tmp_path, capsys):
    rc = main(["run", "--protocol", "basic", "--n", "5", "--q", "2147483647",
               "--l", "3", "--trials", "20", "--adversary", "random-noise",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "successes=20/20" in capsys.readouterr().out


@pytest.mark.parametrize("n,q,message", [
    ("5", "4294967311", "p < 2^31"),
    ("7", "8", "must exceed n+1=8"),
])
def test_run_refuses_unusable_field(tmp_path, capsys, n, q, message):
    rc = main(["run", "--n", n, "--q", q, "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err


# sha256 of phases.csv, summary.csv and the transcript_*.jsonl files in
# order, for one seeded run of each protocol against a tampering adversary.
# Changes that only restructure the code must leave these outputs, the wire
# order included, byte-identical.
PINNED_RUNS = {
    "basic": (["--protocol", "basic", "--n", "7", "--l", "5", "--q", "16",
               "--adversary", "replay"],
              "dcae74fcedb6e3a1fe0eae2b770dfb01196d329343f1bf3cc7b867f12b075dfc"),
    # n = 11, l = 121: her rewrites of the masked block and Bob's decode of
    # it are large enough for broadcast_decode's whole-channel rule
    "basic-n11": (["--protocol", "basic", "--n", "11", "--l", "121",
                   "--adversary", "random-noise"],
                  "418c34e9315046be4237c18e93c0f36fc2b70ccf7ea9b0bde540828016191095"),
    "improved": (["--protocol", "improved", "--n", "7", "--l", "5",
                  "--adversary", "targeted-syndrome"],
                 "1fcce6e60790282cfce23e8b3eba43498eb3d38a4d157544f65ae875a5a4062a"),
    "rank": (["--protocol", "rank", "--n", "3", "--l", "3",
              "--adversary", "tap-replay"],
             "100ca4cd8a216eba33fd8774a0df04741b5834044e28ed805703b9d9633c1504"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_outputs_match_pinned_digests(tmp_path, capsys, name):
    args, digest = PINNED_RUNS[name]
    assert main(["run", *args, "--trials", "4", "--seed", "13", "--transcript",
                 "--out", str(tmp_path)]) == 0
    transcripts = sorted(tmp_path.glob("transcript_*.jsonl"))
    assert len(transcripts) == 4
    h = hashlib.sha256()
    for path in [tmp_path / "phases.csv", tmp_path / "summary.csv", *transcripts]:
        h.update(path.read_bytes())
    assert h.hexdigest() == digest
