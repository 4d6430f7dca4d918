"""Run one benchmark op in a fresh interpreter; report it as one JSON line.

Usage: python3 perfbench/child.py KIND ARG [--trace] [--setup-only]

  exp ID        run_experiment(ID), serialized with cli.golden_bytes
  run NAME      parse and evaluate the shipped session NAME.sess
  rank FIELD D  linalg_oracle on the s5-hilbert Jacobian ideal over
                FIELD (qq or ext, i.e. Q[a]/(a^2-a+1)) for degrees 0..D

chowlab must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).  Set-up ends when the op's inputs are ready; the reported
`ready` and `done` times come from time.monotonic, which the parent
shares.  On SIGTERM the child reports the span that was active, if
traced, and exits with code 3.
"""

import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "chowlab"


def _jacobian_ideal(field_name):
    from chowlab.coeff import QQ, ExtField
    from chowlab.poly import RingContext
    from chowlab.rings import jacob

    field = ExtField("a", [1, -1, 1]) if field_name == "ext" else QQ
    ctx = RingContext(("w", "x", "y", "z"), field=field)
    w, x, y, z = ctx.gens()
    k = w**2 * x + w * x * y + w * y**2 + y**3 + w * x * z
    return jacob(w**5 + z**5 + x * y**4 + x**4 * y + z * w * k, "full")


def prepare(kind, args):
    """Build the op's inputs; return a callable that computes its output text.

    The callable looks chowlab's functions up at call time, so it runs the
    traced wrappers when a tracer was installed after this returns.
    """
    if kind == "exp":
        from chowlab import cli
        from chowlab.cli import experiments

        (exp_id,) = args
        return lambda: cli.golden_bytes(experiments.run_experiment(exp_id)).decode()
    if kind == "run":
        from chowlab import dsl

        (name,) = args
        source = (SRC / "data" / "sessions" / f"{name}.sess").read_text()
        return lambda: dsl.evaluate(dsl.parse(source))
    if kind == "rank":
        from chowlab import rings

        field_name, top = args
        ideal = _jacobian_ideal(field_name)
        return lambda: json.dumps(
            [[d, rings.linalg_oracle(ideal, d)] for d in range(int(top) + 1)]
        )
    raise SystemExit(f"child.py: unknown op kind {kind!r}")


def main(argv):
    flags = {a for a in argv if a.startswith("--")}
    kind, *args = [a for a in argv if not a.startswith("--")]
    op = prepare(kind, args)
    tracer = None
    if "--trace" in flags:
        tracer = Tracer()
        tracer.install()

    def on_term(signum, frame):
        active = tracer.active() if tracer else None
        sys.stdout.write(json.dumps({"killed": True, "active": active}) + "\n")
        sys.stdout.flush()
        os._exit(3)

    signal.signal(signal.SIGTERM, on_term)
    ready = time.monotonic()
    if "--setup-only" in flags:
        print(json.dumps({"ready": ready}))
        return 0
    output = op()
    report = {
        "ready": ready,
        "done": time.monotonic(),
        "output": output,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        report["spans"] = tracer.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
