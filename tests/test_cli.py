"""Command line behavior: exit codes, transcripts, reports, goldens."""

import json
import os
import signal
import subprocess
import sys
import time
from importlib import resources
from math import comb
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


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("command", ["exp", "run"])
def test_reader_that_exits_early_is_no_traceback(command, unbuffered):
    args = ["s7-dims"] if command == "exp" else [str(data_dir("sessions") / "s6-session.sess")]
    src = str(Path(chowlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "chowlab", command, *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the first write
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


# three small lex generators whose `std` runs for minutes
LEX_SCRIPT = (
    "ring r=0,(x,y,z),lp;\n"
    "ideal i = 1/3*x^2-1/2*x*y^2*z^2+5*x*y, -9/4*x^2*y^2*z^2+1/2*x*y^2*z^2+y^2*z^2-9/2*y^2*z,"
    " -7*x^2*z-4/3*x*y^2*z^2+1/2*x*y;\n"
    "std(i);\n"
)


@pytest.mark.parametrize("command", ["exp", "run"])
def test_interrupt_is_one_located_line(command, tmp_path):
    # exp s5-ideal takes about 1.5 s (2-core x86-64 host, CPython 3.11) and
    # the lex script minutes, so each is past interpreter start-up and still
    # busy when SIGINT arrives 1 s after start; it must then end within 5 s
    if command == "exp":
        args, where = ["s5-ideal"], "chowlab: experiment s5-ideal"
    else:
        path = tmp_path / "lex.sess"
        path.write_text(LEX_SCRIPT, encoding="utf-8")
        args, where = [str(path)], f"{path}:"
    src = str(Path(chowlab.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "chowlab", command, *args],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        time.sleep(1)
        assert proc.poll() is None, "finished before the interrupt"
        proc.send_signal(signal.SIGINT)
        start = time.perf_counter()
        out, err = proc.communicate(timeout=30)
        assert time.perf_counter() - start < 5
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == cli.EXIT_INTERRUPTED == 130
    assert (out, err) == ("", f"{where} interrupted\n")


def test_run_missing_file(capsys):
    assert main(["run", "/no/such/file.sess"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_run_non_utf8_script(tmp_path, capsys):
    bad = tmp_path / "bad.sess"
    bad.write_bytes(b"\xff\xfering r=0,(x,y),dp;\n")
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"chowlab: cannot read {bad}: 'utf-8' codec")


def test_run_lres_of_a_huge_degree(tmp_path, capsys):
    # only the degrees that have generators are tabulated, not every degree
    # up to the largest
    script = tmp_path / "huge.sess"
    script.write_text(
        "ring r=0,(x,y),dp;\nideal i=x^1000000000,y^3;\nlist T=lres(i,0);\n"
        'print(betti(T),"betti");\n'
    )
    assert main(["run", str(script)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "//  degree  count",
        "//       3      1",
        "// 1000000000      1",
        "// total: 2",
    ]


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


RING26 = "ring r=0,(" + ",".join("abcdefghijklmnopqrstuvwxyz") + "),dp;\n"


# hostile scripts: (script, exit code, stdout on success or the start of the
# located error after the path, seconds allowed)
HOSTILE = {
    # str.isdigit() holds for these digits, but int() rejects '²' and reads
    # the others as 3
    "superscript-exponent": (
        "ring r=0,(x,y),dp;\npoly f=x^\u00b2;\n", 3, "2:10: unexpected character", 1
    ),
    "arabic-indic-digit": (
        "ring r=0,(x,y),dp;\npoly f=\u0663*x;\nf;\n", 3, "2:8: unexpected character", 1
    ),
    "fullwidth-digit": (
        "ring r=0,(x,y),dp;\npoly f=\uff13*x;\nf;\n", 3, "2:8: unexpected character", 1
    ),
    "accented-letter": (
        "ring r=0,(x,y),dp;\npoly f=\u00e9;\n", 3, "2:8: unexpected character", 1
    ),
    # krull_dim once tried all 2^26 subsets of the variables
    "dim-in-26-variables": (RING26 + "ideal J=a;\ndim(J);\n", 0, "25\n", 1),
    # hilbert_table once enumerated every monomial up to the degree cap 40,
    # about 9.4 million in 6 variables
    "hilb-in-6-variables": (
        "ring r=0,(a,b,c,d,e,f),dp; ideal J=a; hilb(J,2);\n",
        0,
        "".join(f"// {comb(d + 4, 4):8d} t^{d}\n" for d in range(41))
        + "// ** table truncated; quotient is not finite dimensional\n",
        1,
    ),
    # the irreducibility check once ran trial division up to the square root
    # of a coefficient, after clearing denominators
    "huge-minpoly-coefficient": (
        "ring r=(0,a),(x,y),dp;\nminpoly=a^2-" + "1234567890" * 7 + "123457;\n",
        4,
        "2:1: minimal polynomial coefficients too large",
        1,
    ),
    # Polynomial.__pow__ once squared the base past its last bit, so ^16
    # built the 32nd power (6,545 terms here); the work bound refuses the
    # four-variable ^16 (test_dsl)
    "power-of-a-sum": (
        "ring r=0,(x,y,z),dp;\npoly f=(x+y+z+1)^16;\ndeg(f);\n", 0, "16\n", 5
    ),
    # a power of a sum once had no size bound: this one would have 10^9 + 1
    # terms
    "huge-power-of-a-sum": (
        "ring r=0,(x),dp;\npoly f=(x+1)^(10^9);\n", 4, "2:13: power too large", 1
    ),
    # an exponent too large for a float must fail the term bound first
    "astronomical-power-of-a-sum": (
        "ring r=0,(x),dp;\npoly f=(x+1)^(10^400);\n", 4, "2:13: power too large", 1
    ),
    # nor a bound on its work: this one has 1001 terms, within the term
    # bound, but coefficients of up to 1000 bits
    "slow-power-of-a-sum": (
        "ring r=0,(x),dp;\npoly f=(x+1)^1000;\n", 4, "2:13: power too large", 1
    ),
    # the Hilbert numerator was once a dense list as long as its largest
    # degree, here 10^9 + 1 entries
    "hilb-of-a-huge-lead": (
        "ring r=0,(x,y),dp; ideal J=x^1000000000,y; hilb(J,2); dim(J);\n",
        0,
        "".join(f"// {1:8d} t^{d}\n" for d in range(41))
        + "// ** table truncated at the degree cap t^40; quotient is finite dimensional\n"
        + "0\n",
        1,
    ),
    # an intersection with an irrational coefficient, irrational once monic
    # too, once took the block elimination with a, past 90 s
    "irrational-intersection": (
        "ring r=(0,a),(x,y,z),dp; minpoly=a2-a+1;\n"
        "ideal i=-1/2*x2z2+8/5*xy2+7*a*yz2,1/2*x2yz2-5*z2;\n"
        "ideal j=-7/5*x2y2+2/3*x2z2+3/5*xyz,1/2*x2y2z2+3/2*xy2z-1/5*xz;\n"
        "ideal I=intersect(i,j); ncols(I); dim(I);\n",
        0,
        "15\n2\n",
        10,
    ),
    "huge-minpoly-denominator": (
        "ring r=(0,a),(x,y),dp;\nminpoly=a^2-1/1" + "0" * 29 + "1;\n",
        4,
        "2:1: minimal polynomial coefficients too large",
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_script(name, tmp_path, capsys):
    script, code, expect, seconds = HOSTILE[name]
    path = tmp_path / "hostile.sess"
    path.write_text(script, encoding="utf-8")
    start = time.perf_counter()
    assert main(["run", str(path)]) == code
    assert time.perf_counter() - start < seconds
    out, err = capsys.readouterr()
    if code == 0:
        assert (out, err) == (expect, "")
    else:
        assert err.startswith(f"{path}:{expect}"), err
        assert "internal error" not in err and "Traceback" not in err


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


def test_golden_mismatch_names_the_first_differing_field(tmp_path, capsys):
    assert main(["exp", "s7-dims", "--golden", str(tmp_path), "--bless"]) == 0
    capsys.readouterr()
    target = tmp_path / "s7-dims.json"
    doc = json.loads(target.read_bytes())
    doc["results"]["hilbert-table"][4][1] = 5
    target.write_text(json.dumps(doc, indent=2) + "\n")
    assert main(["exp", "s7-dims", "--golden", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert (
        "golden mismatch for s7-dims at results.hilbert-table.4.1: "
        "expected 5, computed 6"
    ) in err
    # a field only one side has reads as absent
    doc = json.loads(golden_bytes(run_experiment("s7-dims")))
    doc["results"]["extra"] = [1]
    target.write_text(json.dumps(doc, indent=2) + "\n")
    assert main(["exp", "s7-dims", "--golden", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert 'at results.extra: expected [1], computed "<absent>"' in err


def test_golden_that_is_not_json_is_reported(tmp_path, capsys):
    (tmp_path / "s7-dims.json").write_text('{"id": "s7-dims",')
    assert main(["exp", "s7-dims", "--golden", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"golden {tmp_path / 's7-dims.json'} is not valid JSON" in err
    assert "Traceback" not in err


def test_unreadable_golden_is_a_located_error(tmp_path, capsys, monkeypatch):
    (tmp_path / "s6-residue.json").mkdir()
    assert main(["exp", "s6-residue", "--golden", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"chowlab: cannot read golden {tmp_path / 's6-residue.json'}: ")
    assert len(err.strip().splitlines()) == 1
    # a golden "directory" that is a regular file
    plain = tmp_path / "plain"
    plain.write_text("")
    assert main(["exp", "s6-residue", "--golden", str(plain)]) == 2
    assert "cannot read golden" in capsys.readouterr().err

    def refuse(self):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_bytes", refuse)
    assert main(["exp", "s6-residue", "--golden", str(data_dir("goldens"))]) == 2
    assert "s6-residue.json: Permission denied" in capsys.readouterr().err


def test_bless_into_a_file_is_a_located_error(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("keep")
    assert main(["exp", "s6-residue", "--golden", str(plain), "--bless"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"chowlab: cannot write golden {plain / 's6-residue.json'}: ")
    assert len(err.strip().splitlines()) == 1
    assert plain.read_text() == "keep"


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


@pytest.mark.parametrize("value", ["-1", str(2**31), "10000000000", "1.5"])
def test_timeout_out_of_range_is_a_usage_error(value, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_experiment", lambda exp_id: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        main(["exp", "s7-dims", "--timeout", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--timeout" in err and "Traceback" not in err


def test_timeout_bounds_are_accepted(monkeypatch, capsys):
    seen = []

    def record(exp_id):
        seen.append(signal.alarm(0))  # the pending timer, cancelled
        return run_experiment(exp_id)

    monkeypatch.setattr(cli, "run_experiment", record)
    assert main(["exp", "s7-dims", "--timeout", "0"]) == 0
    assert main(["exp", "s7-dims", "--timeout", str(2**31 - 1)]) == 0
    assert seen == [0, 2**31 - 1]


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
