"""Smoke test: every workload on a tiny operation list, every output checked.

It has no timing gates.  Run from the repository root with

    python3 perfbench/smoke_test.py

or ``python3 -m pytest perfbench/smoke_test.py``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def _declared(kind: str) -> set:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {entry["name"] for entry in json.load(f)[kind]}


def _smoke(trace: bool) -> None:
    declared = _declared("per_layer" if trace else "end_to_end")
    for name in run.WORKLOADS:
        line, detail = run.run(name, seed=3, seconds=1, trace=trace, tiny=True)
        assert line["failed"] / line["attempted"] == 0, (name, detail["errors"])
        assert line["correct"]
        assert set(line["metrics"]) == declared, name


def test_every_workload_untraced():
    _smoke(trace=False)


def test_every_workload_traced():
    _smoke(trace=True)


if __name__ == "__main__":
    test_every_workload_untraced()
    test_every_workload_traced()
    print("smoke test passed")
