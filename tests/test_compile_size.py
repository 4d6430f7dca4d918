"""Every module of the package compiles from fewer than 8192 parser tokens.

CPython's parser keeps a module's tokens in an array that grows by doubling
and zeroes each new slot.  A module past 8192 tokens doubles it to 16384,
which cost about 0.7 MB of compile peak (`tracemalloc` around `compile`) in
every interpreter that compiles the module without bytecode.  Tokens are
counted with `tokenize`, without COMMENT, NL and ENCODING, which never reach
the parser.
"""

import tokenize
from pathlib import Path

import chowlab

STEP = 8192
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path):
    with path.open("rb") as fh:
        return sum(1 for t in tokenize.tokenize(fh.readline) if t.type not in SKIPPED)


def test_every_module_compiles_from_fewer_tokens_than_the_step():
    root = Path(chowlab.__file__).resolve().parent
    counts = {p.relative_to(root).as_posix(): parser_tokens(p) for p in root.rglob("*.py")}
    assert {"dsl.py", "groebner.py", "_engine.py", "hilbert.py"} <= counts.keys()
    assert {name: n for name, n in counts.items() if n >= STEP} == {}
