"""Command line front end: script replay and experiment reports.

Exit codes: 0 success, 1 check or golden failure, 2 usage or missing
input, 3 parse error, 4 evaluation error.
"""

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from ..dsl import DslEvalError, DslSyntaxError, evaluate, parse
from .experiments import EXPERIMENT_IDS, run_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chowlab",
        description="Exact computations on graded quotients, symbols, and residues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a session script, print its transcript")
    run_p.add_argument("path", help="path to a .sess script")

    exp_p = sub.add_parser("exp", help="run a named experiment, or 'all'")
    exp_p.add_argument("id", help="experiment id, one of: %s, all" % ", ".join(EXPERIMENT_IDS))
    exp_p.add_argument("--json", action="store_true", help="emit the report as JSON")
    exp_p.add_argument(
        "--golden",
        metavar="DIR",
        default=None,
        help="directory of golden reports (default: $CHOWLAB_GOLDEN_DIR)",
    )
    exp_p.add_argument(
        "--bless", action="store_true", help="rewrite golden files instead of comparing"
    )
    exp_p.add_argument(
        "--timeout", type=int, default=600, metavar="SEC", help="per-experiment limit"
    )

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_exp(args)


def _cmd_run(args):
    path = Path(args.path)
    try:
        source = path.read_text()
    except OSError as exc:
        print(f"chowlab: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    try:
        script = parse(source)
    except DslSyntaxError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect: report it, never as a traceback
        print(f"{path}: internal error while parsing: {exc!r}", file=sys.stderr)
        return 3
    try:
        transcript = evaluate(script)
    except DslEvalError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a defect: report it, never as a traceback
        print(f"{path}: internal error while evaluating: {exc!r}", file=sys.stderr)
        return 4
    sys.stdout.write(transcript)
    return 0


def _cmd_exp(args):
    if args.id != "all" and args.id not in EXPERIMENT_IDS:
        known = ", ".join(EXPERIMENT_IDS)
        print(f"chowlab: unknown experiment {args.id!r} (known: {known}, all)", file=sys.stderr)
        return 2
    ids = list(EXPERIMENT_IDS) if args.id == "all" else [args.id]
    golden_dir = args.golden or os.environ.get("CHOWLAB_GOLDEN_DIR")
    if args.bless and not golden_dir:
        print("chowlab: --bless needs --golden or CHOWLAB_GOLDEN_DIR", file=sys.stderr)
        return 2

    exit_code = 0
    reports = []
    for exp_id in ids:
        try:
            report = _run_with_timeout(args.timeout, exp_id)
        except TimeoutError:
            # a failure like any other: the remaining ids still run
            print(f"chowlab: experiment {exp_id} exceeded {args.timeout}s", file=sys.stderr)
            exit_code = 1
            continue
        reports.append(report)
        if not all(c["pass"] for c in report["checks"]):
            exit_code = 1
        if golden_dir:
            mismatch = _check_golden(Path(golden_dir), report, bless=args.bless)
            if mismatch:
                print(f"chowlab: {mismatch}", file=sys.stderr)
                exit_code = 1

    if args.json:
        if args.id == "all":
            print(json.dumps(reports, indent=2))
        elif reports:
            print(json.dumps(reports[0], indent=2))
    else:
        for report in reports:
            _print_human(report)
    return exit_code


def _run_with_timeout(seconds, exp_id):
    """run_experiment(exp_id), raising TimeoutError after `seconds` (0: no limit).

    The limit is a SIGALRM timer, and Python runs signal handlers only in
    the main thread, so `--timeout` holds only when the CLI runs there.
    """
    if seconds <= 0:
        return run_experiment(exp_id)

    def _alarm(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        return run_experiment(exp_id)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def golden_bytes(report):
    """Canonical golden serialization: wall time zeroed, trailing newline."""
    frozen = dict(report)
    frozen["elapsed_ms"] = 0
    return (json.dumps(frozen, indent=2) + "\n").encode()


def _check_golden(directory, report, bless):
    path = directory / f"{report['id']}.json"
    blob = golden_bytes(report)
    if bless:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        return None
    if not path.exists():
        return f"missing golden {path}"
    if path.read_bytes() != blob:
        return f"golden mismatch for {report['id']}: {path}"
    return None


def _print_human(report):
    ok = all(c["pass"] for c in report["checks"])
    verdict = "PASS" if ok else "FAIL"
    print(
        f"== {report['id']}: {verdict} "
        f"({len(report['checks'])} checks, {report['elapsed_ms']} ms)"
    )
    for c in report["checks"]:
        mark = "ok" if c["pass"] else "FAIL"
        print(f"  [{c['tag']}] {c['name']}: {mark}")
        if not c["pass"]:
            print(f"      expected: {c['expected']}")
            print(f"      computed: {c['computed']}")
