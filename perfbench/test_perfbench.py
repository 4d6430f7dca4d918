"""The benchmark's own tests: verdicts, tracing, pinned counts, time limit.

Run from the repository root with `python3 -m pytest -q perfbench`
(about 1 min, most of it the quintic count pin).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer


def _pass(ops, trace, op_limit=run.OP_LIMIT_S):
    deadline = time.monotonic() + 600
    (results,) = run.run_passes(ops, 0, trace, deadline, op_limit)
    return results


def _counts(metrics):
    return {
        k: v
        for k, v in metrics.items()
        if k.endswith((".calls", ".basis_terms", ".redundant_calls", ".rows", "_ratio"))
    }


def _corrupt(op):
    flipped = bytes([op.reference[0] ^ 1]) + op.reference[1:]
    return run.Op(op.name, op.argv, flipped)


CHEAP_OPS = [
    lambda: run.experiment_op("s6-residue"),
    lambda: run.session_op("s6-session"),
    lambda: run.rank_op("rank-qq", "qq", 6),
]


@pytest.mark.parametrize("make_op", CHEAP_OPS, ids=["experiment", "session", "rank"])
def test_corrupted_reference_is_reported_as_failed(make_op):
    op = make_op()
    (good,) = _pass([op], trace=False)
    assert good.ok and good.work_s > 0
    (bad,) = _pass([_corrupt(op)], trace=False)
    assert not bad.ok
    assert bad.work_s is None
    assert bad.failure() == {
        "op": op.name,
        "reason": "output differs from its pinned reference",
        "active_span": None,
    }
    assert run.pass_wall([bad]) == 0


def test_timeout_kills_op_and_names_active_span():
    start = time.monotonic()
    (res,) = _pass([run.experiment_op("s5-ideal")], trace=True, op_limit=3)
    assert time.monotonic() - start < 3 + run.KILL_GRACE_S + 5
    assert not res.ok
    assert res.name == "s5-ideal"
    assert res.reason == "timeout after 3 s"
    assert res.active_span.startswith("cli.run_experiment > groebner.")


def _check_spans(results):
    for r in results:
        ready_to_done = r.work_s
        for i, (name, start, end, parent, _) in enumerate(r.spans):
            assert isinstance(name, str) and start <= end
            if parent >= 0:
                assert parent < i
                assert r.spans[parent][1] <= start and end <= r.spans[parent][2]
        assert sum(tracer.self_times(r.spans)) <= ready_to_done


def test_traced_paper_suite_matches_untraced_and_seed_changes_only_order():
    ops1 = run.workload_ops("paper-suite", 1)
    ops2 = run.workload_ops("paper-suite", 2)
    assert [o.name for o in ops1] != [o.name for o in ops2]
    assert sorted(o.name for o in ops1) == sorted(o.name for o in ops2)

    plain = _pass(ops1, trace=False)
    traced1 = _pass(ops1, trace=True)
    traced2 = _pass(ops2, trace=True)
    assert all(r.ok for r in plain + traced1 + traced2)
    by_name = {r.name: r.output for r in plain}
    for r in traced1 + traced2:
        assert r.output == by_name[r.name]
    _check_spans(traced1)
    assert sum(sum(tracer.self_times(r.spans)) for r in traced1) <= run.pass_wall(traced1)
    m1 = tracer.layer_metrics([r.spans for r in traced1])
    m2 = tracer.layer_metrics([r.spans for r in traced2])
    assert _counts(m1) == _counts(m2)
    assert m1["rings.hilbert_table.calls"] > 0 and m1["dsl.parse.self_s"] > 0


def _traced_op_metrics(op):
    (res,) = _pass([op], trace=True)
    assert res.ok
    _check_spans([res])
    return tracer.layer_metrics([res.spans])


PINNED_COUNTS = ["groebner.buchberger.calls", "groebner.buchberger.basis_terms",
                 "rings.mingens_degrees.buchberger_calls", "rings.linalg_oracle.rows",
                 "groebner.buchberger.redundant_calls"]


def test_s6_ideal_counts_are_pinned_and_repeat():
    op = run.experiment_op("s6-ideal")
    first = _traced_op_metrics(op)
    second = _traced_op_metrics(op)
    assert _counts(first) == _counts(second)
    assert {k: first[k] for k in PINNED_COUNTS} == {
        "groebner.buchberger.calls": 10,
        "groebner.buchberger.basis_terms": 75,
        "rings.mingens_degrees.buchberger_calls": 5,
        "rings.linalg_oracle.rows": 15,
        "groebner.buchberger.redundant_calls": 1,
    }


def test_quintic_intersection_counts_are_pinned():
    (op,) = run.workload_ops("quintic-intersection", 0)
    metrics = _traced_op_metrics(op)
    assert {k: metrics[k] for k in PINNED_COUNTS} == {
        "groebner.buchberger.calls": 10,
        "groebner.buchberger.basis_terms": 26977,
        "rings.mingens_degrees.buchberger_calls": 7,
        "rings.linalg_oracle.rows": 104,
        "groebner.buchberger.redundant_calls": 4,
    }


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(run.__file__).parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-qq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
