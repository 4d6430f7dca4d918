"""The README promises no runtime dependencies: importing every chowlab
module loads nothing outside the standard library and chowlab itself."""

import subprocess
import sys
from pathlib import Path

import chowlab

# run with site, so an installed third-party module would import and be
# named; what the interpreter loaded before chowlab is left out.  -I drops
# the environment, so -B keeps the checkout free of bytecode files.
# `chowlab.__main__` runs the CLI and imports only `sys` and `chowlab.cli`
PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import chowlab
for info in pkgutil.walk_packages(chowlab.__path__, "chowlab."):
    if info.name != "chowlab.__main__":
        importlib.import_module(info.name)
tops = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(tops - set(sys.stdlib_module_names) - {"chowlab"})))
print(" ".join(sorted(name for name in sys.modules if name.startswith("chowlab."))))
"""


def test_importing_every_module_loads_only_the_standard_library():
    src = Path(chowlab.__file__).resolve().parents[1]
    modules = set()
    for path in (src / "chowlab").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        modules.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    modules -= {"chowlab", "chowlab.__main__"}
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", PROBE, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    foreign, imported = proc.stdout.splitlines()
    assert foreign == ""
    # every module of the package was imported, so the check saw them all
    assert set(imported.split()) == modules


# the engine and the numerators sit below the API: importing them loads no
# module above them
ENGINE_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import chowlab._engine, chowlab.hilbert
print(" ".join(sorted(name for name in sys.modules if name.startswith("chowlab."))))
"""


def test_the_engine_and_the_numerators_import_nothing_above_them():
    src = Path(chowlab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", ENGINE_PROBE, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"chowlab._engine", "chowlab.hilbert"} <= loaded
    # a submodule of cli loads the package first
    assert loaded.isdisjoint({"chowlab.groebner", "chowlab.rings", "chowlab.dsl", "chowlab.cli"})
