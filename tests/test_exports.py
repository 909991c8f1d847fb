"""Every exported name resolves, no export list repeats a name, and the
package exports exactly its modules' export lists."""

import importlib

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
