"""Every exported name resolves, and no export list repeats a name."""

import importlib

import pytest

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


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [symbol for symbol in exported if not hasattr(module, symbol)] == []
