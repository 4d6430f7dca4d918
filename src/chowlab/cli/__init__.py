"""Command line front end: script replay and experiment reports.

Exit codes: 0 success, 1 check or golden failure, 2 usage or missing
input, 3 parse error, 4 evaluation error, 130 interrupted (SIGINT), 141
standard output closed early.
"""

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from ..dsl import DslEvalError, DslSyntaxError, evaluate, parse
from .experiments import EXPERIMENT_IDS, run_experiment

# 128 + SIGPIPE: what a shell reports for a program that SIGPIPE ended
EXIT_BROKEN_PIPE = 141
# 128 + SIGINT, likewise
EXIT_INTERRUPTED = 130
# the largest delay signal.alarm takes (a C int)
MAX_TIMEOUT = 2**31 - 1


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
        "--timeout",
        type=_timeout,
        default=600,
        metavar="SEC",
        help=f"per-experiment limit, 0 to {MAX_TIMEOUT} (0: no limit)",
    )

    args = parser.parse_args(argv)
    try:
        code = _cmd_run(args) if args.command == "run" else _cmd_exp(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so that the flush at
        # exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        # `run` names its script; `exp` names the experiment it stops itself
        print(f"{getattr(args, 'path', 'chowlab')}: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    return code


def _cmd_run(args):
    path = Path(args.path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"chowlab: cannot read {path}: {reason}", file=sys.stderr)
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
        except KeyboardInterrupt:
            print(f"chowlab: experiment {exp_id} interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED
        reports.append(report)
        if not all(c["pass"] for c in report["checks"]):
            exit_code = 1
        if golden_dir:
            failure = _check_golden(Path(golden_dir), report, bless=args.bless)
            if failure:
                code, message = failure
                print(f"chowlab: {message}", file=sys.stderr)
                exit_code = max(exit_code, code)

    if args.json:
        if args.id == "all":
            print(json.dumps(reports, indent=2))
        elif reports:
            print(json.dumps(reports[0], indent=2))
    else:
        for report in reports:
            _print_human(report)
    return exit_code


def _timeout(text):
    """--timeout value: whole seconds from 0 (no limit) to MAX_TIMEOUT."""
    try:
        seconds = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number of seconds: {text!r}") from None
    if not 0 <= seconds <= MAX_TIMEOUT:
        raise argparse.ArgumentTypeError(f"{seconds} is outside 0 (no limit) to {MAX_TIMEOUT}")
    return seconds


def _run_with_timeout(seconds, exp_id):
    """run_experiment(exp_id), raising TimeoutError after `seconds` (0: no limit).

    The limit is a SIGALRM timer, and Python runs signal handlers only in
    the main thread, so `--timeout` holds only when the CLI runs there.
    """
    if seconds == 0:
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
    """None, or (exit code, message): 1 for a mismatch, 2 for a golden file
    that cannot be read or written."""
    path = directory / f"{report['id']}.json"
    blob = golden_bytes(report)
    try:
        if bless:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)
            return None
        golden = path.read_bytes()
    except FileNotFoundError:
        return 1, f"missing golden {path}"
    except OSError as exc:
        verb = "write" if bless else "read"
        return 2, f"cannot {verb} golden {path}: {exc.strerror or exc}"
    if golden == blob:
        return None
    try:
        expected = json.loads(golden)
    except ValueError as exc:
        return 1, f"golden {path} is not valid JSON: {exc}"
    diff = _first_difference(expected, json.loads(blob))
    if diff is None:
        return 1, f"golden mismatch for {report['id']}: {path} differs in layout"
    where, want, got = diff
    return 1, (
        f"golden mismatch for {report['id']} at {where}: "
        f"expected {json.dumps(want)}, computed {json.dumps(got)}"
    )


_ABSENT = "<absent>"


def _first_difference(expected, computed, where=""):
    """(path, expected, computed) at the first difference of two JSON values,
    a missing key or list entry reading as <absent>; None if they are equal."""
    if isinstance(expected, dict) and isinstance(computed, dict):
        keys = list(expected) + [k for k in computed if k not in expected]
    elif isinstance(expected, list) and isinstance(computed, list):
        keys = range(max(len(expected), len(computed)))
    elif expected == computed and type(expected) is type(computed):
        return None
    else:
        return where or "(top)", expected, computed
    for key in keys:
        diff = _first_difference(
            _entry(expected, key),
            _entry(computed, key),
            f"{where}.{key}" if where else str(key),
        )
        if diff:
            return diff
    return None


def _entry(value, key):
    if isinstance(value, dict):
        return value.get(key, _ABSENT)
    return value[key] if key < len(value) else _ABSENT


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
