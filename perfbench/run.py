#!/usr/bin/env python3
"""chowlab benchmark: shipped computations, one op per fresh interpreter.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or `all` to run each in turn.  The load
is a closed loop with one client: ops run one at a time, each in a fresh
interpreter, as `chowlab exp` and `chowlab run` do for users, so set-up is
paid per op and no in-process state carries from one op to the next.  A
pass runs every op of the workload once; passes repeat until S seconds
have gone by (at least one pass).

Every op's output is compared byte for byte with its pinned reference (the
shipped goldens and transcripts, or the s5-hilbert golden's
jacobian-table for the rank sweeps).  An op fails on a mismatch, an error
exit or a timeout, and a failed op is never timed as a success.

With --trace 0 the last line reports the end-to-end metrics.  With
--trace 1 the run makes untraced passes and then traced passes (see
tracer.py) and reports the per-layer metrics, plus trace.overhead_s, the
traced minus the untraced wall time.  The line before the last is a
JSON report with provenance, the seed, the op order and any failures.
See README.md for why each workload was chosen.
"""

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
PACKAGE = ROOT / "src" / "chowlab"
GOLDENS = PACKAGE / "data" / "goldens"

OP_LIMIT_S = 120  # per-op time limit
RUN_BUDGET_S = 170  # every op of one run ends within this, so the run ends in 180 s
KILL_GRACE_S = 5  # after SIGTERM, before SIGKILL
SETUP_SAMPLES = 5  # set-up is measured at least this often per untraced run

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PAPER_EXPERIMENTS = (
    "s5-symbols",
    "s5-family-symbols",
    "s5-residue-system",
    "s5-hilbert",
    "s6-residue",
    "s6-ideal",
    "s7-dims",
)
PAPER_SESSIONS = ("s5-session2", "s6-session")


class Op:
    """One unit of work: a child command line and its pinned reference bytes."""

    def __init__(self, name, argv, reference):
        self.name = name
        self.argv = argv
        self.reference = reference


def experiment_op(exp_id):
    return Op(exp_id, ["exp", exp_id], (GOLDENS / f"{exp_id}.json").read_bytes())


def session_op(name):
    return Op(name, ["run", name], (GOLDENS / f"{name}.transcript").read_bytes())


def rank_op(name, field_name, top):
    golden = json.loads((GOLDENS / "s5-hilbert.json").read_bytes())
    table = golden["results"]["jacobian-table"][: top + 1]
    return Op(name, ["rank", field_name, str(top)], json.dumps(table).encode())


def workload_ops(workload, seed):
    """The ops of one pass, in the order the seed gives."""
    if workload == "quintic-intersection":
        return [experiment_op("s5-ideal")]
    if workload == "rank-ext":
        return [rank_op("rank-ext", "ext", 10)]
    if workload == "rank-qq":
        return [rank_op("rank-qq", "qq", 13)]
    if workload == "paper-suite":
        ops = [experiment_op(e) for e in PAPER_EXPERIMENTS]
        ops += [session_op(s) for s in PAPER_SESSIONS]
        random.Random(seed).shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("quintic-intersection", "rank-ext", "rank-qq", "paper-suite")


class OpResult:
    """Outcome of one op: verdict, timings, peak memory, output and spans."""

    def __init__(self, name):
        self.name = name
        self.ok = False
        self.reason = None
        self.active_span = None
        self.setup_s = None
        self.work_s = None
        self.rss_mb = None
        self.output = None
        self.spans = None

    def failure(self):
        return {"op": self.name, "reason": self.reason, "active_span": self.active_span}


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(argv, limit):
    """Run the child; return (spawn time, parsed last line or None, exit code, stderr, timed out)."""
    cmd = [sys.executable, str(CHILD), *argv]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    timed_out = False
    try:
        try:
            out, err = proc.communicate(timeout=max(limit, 0.001))
        except subprocess.TimeoutExpired:
            timed_out = True
            proc.send_signal(signal.SIGTERM)
            try:
                out, err = proc.communicate(timeout=KILL_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.decode(errors="replace").strip().splitlines()
    message = None
    if lines:
        try:
            message = json.loads(lines[-1])
        except ValueError:
            message = None
    return spawned, message, proc.returncode, err.decode(errors="replace"), timed_out


def run_op(op, trace, limit):
    """Run one op in a fresh interpreter and verify its output."""
    res = OpResult(op.name)
    argv = op.argv + (["--trace"] if trace else [])
    spawned, msg, code, err, timed_out = _spawn(argv, limit)
    if timed_out:
        res.reason = f"timeout after {limit:.0f} s"
        if msg and msg.get("killed"):
            res.active_span = msg.get("active")
        return res
    if code != 0 or not msg or "output" not in msg:
        tail = err.strip().splitlines()[-1:] or [""]
        res.reason = f"exit {code}: {tail[0]}"
        return res
    res.output = msg["output"].encode()
    verified = time.monotonic()
    res.setup_s = msg["ready"] - spawned
    res.rss_mb = msg["rss_kb"] / 1024
    res.spans = msg.get("spans")
    if res.output != op.reference:
        res.reason = "output differs from its pinned reference"
        return res
    res.ok = True
    res.work_s = verified - msg["ready"]
    return res


def setup_pass(ops):
    """Set-up seconds (interpreter start to inputs ready) summed over the ops.

    None if any op's set-up failed.
    """
    total = 0.0
    for op in ops:
        spawned, msg, code, _, _ = _spawn(op.argv + ["--setup-only"], OP_LIMIT_S)
        if code != 0 or not msg or "ready" not in msg:
            return None
        total += msg["ready"] - spawned
    return total


def run_passes(ops, seconds, trace, deadline, op_limit=OP_LIMIT_S):
    """Passes over the ops until `seconds` are gone (at least one pass)."""
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        if passes and time.monotonic() >= deadline:
            break
        passes.append(
            [run_op(op, trace, min(op_limit, deadline - time.monotonic())) for op in ops]
        )
    return passes


def pass_wall(results):
    """Seconds of verified work in one pass, set-up excluded."""
    return sum(r.work_s for r in results if r.ok)


def _verified(passes):
    """The passes whose ops all succeeded; all passes if none did."""
    return [p for p in passes if all(r.ok for r in p)] or passes


def _median_wall(passes):
    return statistics.median(pass_wall(p) for p in _verified(passes))


def end_to_end_metrics(passes, setup_samples):
    return {
        "wall_s": _median_wall(passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(
            max((r.rss_mb or 0.0) for r in p) for p in _verified(passes)
        ),
    }


def per_layer_metrics(untraced, traced):
    per_pass = [tracer.layer_metrics([r.spans or [] for r in p]) for p in _verified(traced)]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = _median_wall(traced) - _median_wall(untraced)
    return out


def provenance():
    commit, dirty = None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def run_workload(workload, seed, seconds, trace):
    """One benchmark run of one workload; returns (result, report)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    ops = workload_ops(workload, seed)
    # set-up is sampled before and after the timed passes, so that its median
    # spans the run and not one moment of it
    samples = [] if trace else [setup_pass(ops) for _ in range(SETUP_SAMPLES // 2)]
    untraced = run_passes(ops, seconds, False, deadline)
    all_passes = list(untraced)
    if trace:
        traced = run_passes(ops, seconds, True, deadline)
        all_passes += traced
        values = per_layer_metrics(untraced, traced)
        units = dict(tracer.PER_LAYER)
    else:
        samples += [sum(r.setup_s for r in p) for p in untraced if all(r.ok for r in p)]
        while len(samples) < SETUP_SAMPLES:
            samples.append(setup_pass(ops))
        # a failed set-up also fails its ops, so the run is reported incorrect
        values = end_to_end_metrics(untraced, [s for s in samples if s is not None] or [0.0])
        units = dict(END_TO_END)
    results = [r for p in all_passes for r in p]
    failures = [r.failure() for r in results if not r.ok]
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "passes": len(untraced),
        "op_order": [op.name for op in ops],
        "fail_ratio": len(failures) / len(results),
        "failures": failures,
        "provenance": provenance(),
    }
    return result, report


def _print_block(result, report):
    print(
        f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"passes={report['passes']} ops/pass={len(report['op_order'])}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print(
        f"  {'fail_ratio':42s} {report['fail_ratio']:>14.6g} "
        f"({result['failed']}/{result['attempted']} ops)"
    )
    for f in report["failures"]:
        where = f" [active: {f['active_span']}]" if f["active_span"] else ""
        print(f"  FAILED {f['op']}: {f['reason']}{where}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file() or not GOLDENS.is_dir():
        print(f"perfbench: no chowlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, report = run_workload(name, args.seed, args.seconds, args.trace)
        _print_block(result, report)
        print(json.dumps({"report": report}))
        if args.workload != "all":
            combined = result
            break
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
