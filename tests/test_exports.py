"""Every exported name resolves, no export list repeats a name, the
package exports exactly its modules' export lists, and running it imports
no module that only annotations or class decorators would need."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import stirnum

MODULES = [
    "stirnum",
    "stirnum.cli",
    "stirnum.errors",
    "stirnum.identities",
    "stirnum.rationals",
    "stirnum.sequences",
    "stirnum.series",
    "stirnum.stirling",
]

# The library modules the package re-exports, in export order.
REEXPORTED = ["errors", "identities", "rationals", "sequences", "series", "stirling"]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [symbol for symbol in exported if not hasattr(module, symbol)] == []


def test_package_exports_the_module_lists():
    modules = [importlib.import_module(f"stirnum.{name}") for name in REEXPORTED]
    assert stirnum.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    for module in modules:
        for name in module.__all__:
            assert getattr(stirnum, name) is getattr(module, name), name


def test_star_import_binds_no_private_helper():
    namespace = {}
    exec("from stirnum import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(stirnum.__all__)
    assert [name for name in bound if name.startswith("_") and name != "__version__"] == []


# One command line per handler of cli.main.
HANDLER_LINES = [
    ["stirling2", "5", "3"],
    ["mdet", "3", "4", "2"],
    ["euler-poly", "4", "--at", "1/3", "--format", "json"],
    ["two-param-euler", "3", "--alpha", "2", "--lambda", "3", "--format", "csv"],
    ["series", "dump", "recip-exp-plus-one", "--order", "8"],
    ["verify", "I1", "--k-max", "2"],
    ["verify", "reductions", "--k-max", "1"],
]
UNNEEDED = ("dataclasses", "inspect", "typing")


def test_running_every_handler_imports_no_typing_inspect_or_dataclasses():
    # -S keeps site and its .pth hooks, which may import typing, out of the
    # interpreter, so every module loaded is the package's own doing.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / 'src')!r})\n"
        "import stirnum\n"
        "from stirnum import cli\n"
        f"codes = [cli.main(argv) for argv in {HANDLER_LINES!r}]\n"
        f"print(codes, sorted(set({UNNEEDED!r}) & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * len(HANDLER_LINES)} []"
