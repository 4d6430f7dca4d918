"""Command line behavior: exit codes, transcripts, reports, goldens."""

import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import chowlab
import chowlab.cli as cli
from chowlab.cli import golden_bytes, main
from chowlab.cli.experiments import EXPERIMENT_IDS, run_experiment

CHEAP_IDS = (
    "s5-symbols",
    "s5-family-symbols",
    "s5-residue-system",
    "s5-hilbert",
    "s6-residue",
    "s6-ideal",
    "s7-dims",
)


def data_dir(name):
    return resources.files("chowlab").joinpath("data").joinpath(name)


def test_run_prints_transcript_bytes(capsys):
    for stem in ("s6-session", "s5-session2"):
        sess = data_dir("sessions").joinpath(f"{stem}.sess")
        golden = data_dir("goldens").joinpath(f"{stem}.transcript").read_text()
        assert main(["run", str(sess)]) == 0
        assert capsys.readouterr().out == golden


def test_python_dash_m_runs_the_cli():
    src = str(Path(chowlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "chowlab", "exp", "s6-residue"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("== s6-residue: PASS")


def test_run_missing_file(capsys):
    assert main(["run", "/no/such/file.sess"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_parse_error_has_location(tmp_path, capsys):
    bad = tmp_path / "bad.sess"
    bad.write_text("ring r=0,(x,y),dp;\npoly f=;\n")
    assert main(["run", str(bad)]) == 3
    assert "2:8" in capsys.readouterr().err


def test_run_eval_error(tmp_path, capsys):
    bad = tmp_path / "bad.sess"
    bad.write_text("ring r=0,(x,y),dp;\npoly f=x/y;\n")
    assert main(["run", str(bad)]) == 4
    err = capsys.readouterr().err
    assert "2:" in err and "division" in err


def test_run_huge_integer_is_a_located_eval_error(tmp_path, capsys):
    bad = tmp_path / "big.sess"
    bad.write_text("int n = 2^1000000;\nn;\n")
    assert main(["run", str(bad)]) == 4
    err = capsys.readouterr().err
    assert "big.sess:2:1: value too large to print" in err


def test_run_reports_unexpected_errors_without_traceback(tmp_path, capsys, monkeypatch):
    ok = tmp_path / "ok.sess"
    ok.write_text("int n = 1;\n")

    def defect(_):
        raise RuntimeError("engine defect")

    monkeypatch.setattr(cli, "evaluate", defect)
    assert main(["run", str(ok)]) == 4
    monkeypatch.setattr(cli, "parse", defect)
    assert main(["run", str(ok)]) == 3
    err = capsys.readouterr().err
    assert err.count("internal error") == 2 and "engine defect" in err
    assert "Traceback" not in err


def test_exp_unknown_id(capsys):
    assert main(["exp", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_exp_json_schema(capsys):
    assert main(["exp", "s6-residue", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == ["checks", "elapsed_ms", "id", "inputs", "results"]
    assert report["id"] == "s6-residue"
    tags = {c["tag"] for c in report["checks"]}
    assert tags <= {"PAPER", "TRIVIAL", "DERIVED"}
    assert "PAPER" in tags
    for c in report["checks"]:
        assert sorted(c) == ["computed", "expected", "name", "pass", "tag"]
        assert c["pass"] is True


def test_every_experiment_has_paper_and_invariant_checks():
    # cheap ids only; the heavy intersection is exercised by the acceptance
    # suite, and its report layout is identical
    for exp_id in CHEAP_IDS:
        report = run_experiment(exp_id)
        tags = [c["tag"] for c in report["checks"]]
        assert "PAPER" in tags, exp_id
        assert "TRIVIAL" in tags or "DERIVED" in tags, exp_id
        assert all(c["pass"] for c in report["checks"]), exp_id


def test_exp_reports_match_goldens(capsys):
    golden = str(data_dir("goldens"))
    for exp_id in CHEAP_IDS:
        assert main(["exp", exp_id, "--golden", golden]) == 0, exp_id
        capsys.readouterr()


def test_exp_reports_deterministic():
    for exp_id in ("s5-symbols", "s6-residue"):
        assert golden_bytes(run_experiment(exp_id)) == golden_bytes(run_experiment(exp_id))


def test_bless_writes_packaged_bytes(tmp_path, capsys):
    for exp_id in ("s5-symbols", "s7-dims"):
        assert main(["exp", exp_id, "--golden", str(tmp_path), "--bless"]) == 0
        capsys.readouterr()
        fresh = (tmp_path / f"{exp_id}.json").read_bytes()
        packaged = data_dir("goldens").joinpath(f"{exp_id}.json").read_bytes()
        assert fresh == packaged


def test_golden_mismatch_detected(tmp_path, capsys):
    assert main(["exp", "s5-symbols", "--golden", str(tmp_path), "--bless"]) == 0
    capsys.readouterr()
    target = tmp_path / "s5-symbols.json"
    target.write_bytes(target.read_bytes().replace(b'"r"', b'"q"', 1))
    assert main(["exp", "s5-symbols", "--golden", str(tmp_path)]) == 1
    assert "golden mismatch" in capsys.readouterr().err


def test_missing_golden_flagged(tmp_path, capsys):
    assert main(["exp", "s5-symbols", "--golden", str(tmp_path)]) == 1
    assert "missing golden" in capsys.readouterr().err


def test_golden_dir_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHOWLAB_GOLDEN_DIR", str(data_dir("goldens")))
    assert main(["exp", "s6-residue"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("CHOWLAB_GOLDEN_DIR", str(tmp_path))
    assert main(["exp", "s6-residue"]) == 1
    assert "missing golden" in capsys.readouterr().err


def test_bless_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv("CHOWLAB_GOLDEN_DIR", raising=False)
    assert main(["exp", "s5-symbols", "--bless"]) == 2
    assert "--bless needs" in capsys.readouterr().err


def test_exp_all_aggregates(monkeypatch, capsys):
    monkeypatch.setattr(cli, "EXPERIMENT_IDS", ("s5-symbols", "s6-residue"))
    assert main(["exp", "all", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["id"] for r in reports] == ["s5-symbols", "s6-residue"]


def test_timeout_enforced(monkeypatch, capsys):
    def slow(exp_id):
        time.sleep(5)

    monkeypatch.setattr(cli, "run_experiment", slow)
    assert main(["exp", "s5-symbols", "--timeout", "1"]) == 1
    assert "exceeded" in capsys.readouterr().err


def test_exp_all_keeps_reports_after_a_timeout(monkeypatch, capsys):
    ids = ("s5-symbols", "s6-residue", "s7-dims")
    monkeypatch.setattr(cli, "EXPERIMENT_IDS", ids)

    def slow_in_the_middle(exp_id):
        if exp_id == "s6-residue":
            time.sleep(5)
        return run_experiment(exp_id)

    monkeypatch.setattr(cli, "run_experiment", slow_in_the_middle)
    golden = str(data_dir("goldens"))
    assert main(["exp", "all", "--json", "--timeout", "1", "--golden", golden]) == 1
    captured = capsys.readouterr()
    assert "experiment s6-residue exceeded 1s" in captured.err
    assert "mismatch" not in captured.err and "missing" not in captured.err
    reports = json.loads(captured.out)
    assert [r["id"] for r in reports] == ["s5-symbols", "s7-dims"]
    assert all(c["pass"] for r in reports for c in r["checks"])
    assert main(["exp", "all", "--timeout", "1"]) == 1
    out = capsys.readouterr().out
    assert "== s5-symbols: PASS" in out and "== s7-dims: PASS" in out


def test_human_output_shows_failures(monkeypatch, capsys):
    def rigged(exp_id):
        return {
            "id": exp_id,
            "inputs": {},
            "results": {},
            "checks": [
                {"name": "good", "tag": "TRIVIAL", "expected": 1, "computed": 1, "pass": True},
                {"name": "bad", "tag": "PAPER", "expected": 1, "computed": 2, "pass": False},
            ],
            "elapsed_ms": 1,
        }

    monkeypatch.setattr(cli, "run_experiment", rigged)
    assert main(["exp", "s5-symbols"]) == 1
    out = capsys.readouterr().out
    assert "s5-symbols: FAIL" in out
    assert "[PAPER] bad: FAIL" in out
    assert "expected: 1" in out and "computed: 2" in out


def test_experiment_registry_matches_contract():
    assert EXPERIMENT_IDS == (
        "s5-symbols",
        "s5-family-symbols",
        "s5-residue-system",
        "s5-ideal",
        "s5-hilbert",
        "s6-residue",
        "s6-ideal",
        "s7-dims",
    )
