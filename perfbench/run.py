"""stirnum benchmark: one seeded workload, timed end to end or traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

The operation list is built from --seed and sized so a run of the code
this benchmark was written against lasts about --seconds.  It runs in a
fresh interpreter (perfbench/worker.py), so no run reads another run's
Stirling tables or lru_cache.  Every output is then checked here, outside
the timed process.

--trace 0 prints the end-to-end metrics.  Their times are referred to a
reference host speed by the probe in speed.py, so that the drifting speed
of a shared CPU does not swamp a change in the program; the raw times are
in the detail line.  --trace 1 runs the list twice, untraced and then
traced, and prints the per-layer metrics, in raw seconds, together with
the tracing overhead (traced run_s minus untraced run_s).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details: the
generated mix, the environment and the tail percentile used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "perfbench")
WORKER = os.path.join(BENCH, "worker.py")

# Fresh-interpreter set-up: import plus parser construction, timed inside
# the child so process start-up noise stays out, and bracketed by two
# host-speed probes.  About 50 ms, with a wide spread from one start to
# the next, hence the median of many starts, half taken before the timed
# operations and half after them.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "for _ in range(10):\n"
    "    speed.probe()\n"
    "before = speed.probe()\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import stirnum\n"
    "from stirnum import cli\n"
    "cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, before, speed.probe())\n"
)
SETUP_STARTS = 16
# The timed workers must finish within this many seconds of the start, so
# a run ends, checks included, inside the 180 s a run is allowed.
RUN_BUDGET_S = 160
# Nearest-rank percentiles tried for the tail, highest first; the first
# with at least ten samples beyond it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

SERIES_LAYERS = ("series.mul", "series.reciprocal", "series.add", "series.scale", "series.exp_linear")
TIMED_LAYERS = (
    "series.mul",
    "series.reciprocal",
    "series.pow",
    "series.derivative",
    "series.add",
    "series.scale",
    "series.exp_linear",
    "stirling.stirling2",
    "stirling.stirling1",
    "stirling.m_determinant",
    "sequences.formula",
    "sequences.oracle",
    "identities.verify",
    "cli.main",
)


@dataclass(frozen=True)
class Workload:
    why: str
    generate: Callable
    # Builds the output check; stirnum is importable when it is called.
    make_check: Callable[[], Callable[[dict, list], bool]]
    # Traced layers that must record calls on this workload; zero calls
    # means a binding was missed and fails the traced run.
    expected_layers: Tuple[str, ...]


def _verify_check():
    from stirnum.identities import DEFAULT_MIN_WINDOW

    return workloads.make_verify_check(DEFAULT_MIN_WINDOW)


def _table_check():
    from stirnum.stirling import stirling2_explicit

    return workloads.make_table_check(stirling2_explicit)


WORKLOADS: Dict[str, Workload] = {
    "verify-sweep": Workload(
        workloads.VERIFY_WHY,
        workloads.verify_sweep,
        _verify_check,
        SERIES_LAYERS
        + (
            "series.pow",
            "series.derivative",
            "stirling.stirling2",
            "stirling.stirling1",
            "stirling.m_determinant",
            "sequences.formula",
            "identities.verify",
            "identities.weights",
            "cli.main",
        ),
    ),
    "sequence-pairs": Workload(
        workloads.PAIRS_WHY,
        workloads.sequence_pairs,
        lambda: workloads.check_pair,
        SERIES_LAYERS
        + ("stirling.stirling2", "sequences.formula", "sequences.oracle", "sequences.sequence_value"),
    ),
    "stirling-table": Workload(
        workloads.TABLE_WHY,
        workloads.stirling_table,
        _table_check,
        ("stirling.stirling2", "stirling.stirling1", "stirling.m_determinant", "cli.main"),
    ),
}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _python(args: List[str], stdin: str = None, timeout: float = 60) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable] + args,
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(starts: int) -> List[Tuple[float, float, float]]:
    """(set-up seconds, probe before, probe after) for each fresh start."""
    return [
        tuple(float(x) for x in _python(["-c", SETUP_PROBE, SRC, BENCH]).split())
        for _ in range(starts)
    ]


def run_worker(ops: List[dict], trace: bool, deadline: float) -> dict:
    request = json.dumps({"ops": ops, "trace": trace})
    return json.loads(_python([WORKER], request, timeout=max(1.0, deadline - time.monotonic())))


def check_outputs(ops: List[dict], result: dict, check) -> List[int]:
    """Indices of operations that raised or whose output failed the check."""
    failed = []
    for index, (op, output) in enumerate(zip(ops, result["outputs"])):
        if output is None:
            failed.append(index)
            continue
        try:
            ok = check(op, output)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError):
            ok = False
        if not ok:
            failed.append(index)
    return failed


def tail_latency(latencies: List[float]) -> Tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return percentile, ordered[rank - 1], len(ordered) - rank
    return 100.0, ordered[-1], 0


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git, or
    'unknown' outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, samples: Dict[str, int]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "samples": samples,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, failed: int, setup: List[Tuple[float, float, float]]) -> Tuple[dict, dict]:
    """Metrics at the reference host speed, each latency referred by the
    probes sampled while it ran."""
    raw = result["latencies_s"]
    probes = result["probes_s"]
    latencies = speed.refer(raw, result["spans"], result["probe_times"], probes)
    percentile, tail, beyond = tail_latency(latencies)
    setup_referred = [speed.referred(*start) for start in setup]
    metrics = {
        "run_s": metric(math.fsum(latencies), "s"),
        "op_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": metric(tail * 1000, "ms"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "ok_ratio": metric(1 - failed / len(latencies), "ratio"),
        "setup_s": metric(statistics.median(setup_referred), "s"),
    }
    detail = {
        "op_tail": {"percentile": percentile, "samples_beyond": beyond},
        "fail_ratio": failed / len(latencies),
        "raw": {
            "run_s": result["run_s"],
            "op_p50_ms": statistics.median(raw) * 1000,
            "op_tail_ms": tail_latency(raw)[1] * 1000,
            "setup_s": statistics.median(start[0] for start in setup),
        },
        "probe_us": {
            "median": statistics.median(probes) * 1e6,
            "min": min(probes) * 1e6,
            "max": max(probes) * 1e6,
        },
        "setup_starts": [list(start) for start in setup],
    }
    return metrics, detail


def per_layer(plain: dict, traced: dict, output_bytes: int) -> dict:
    layers = traced["layers"]
    metrics = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.calls"] = metric(layers[name]["calls"], "count")
        metrics[f"{name}.self_s"] = metric(layers[name]["self_s"], "s")
    metrics["identities.weights.self_s"] = metric(layers["identities.weights"]["self_s"], "s")
    units = {"series.mul.max_bits": "bits"}
    for name, value in traced["counts"].items():
        metrics[name] = metric(value, units.get(name, "count"))
    metrics["cli.output_bytes"] = metric(output_bytes, "bytes")
    metrics["trace.top_span_s"] = metric(traced["top_span_s"], "s")
    metrics["trace.run_s"] = metric(traced["run_s"], "s")
    metrics["trace.overhead_s"] = metric(traced["run_s"] - plain["run_s"], "s")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Tuple[dict, dict]:
    """Run one workload; return (result line, detail record)."""
    if not os.path.isdir(os.path.join(SRC, "stirnum")):
        raise BenchError(f"no stirnum package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[name]
    ops, mix = workload.generate(random.Random(seed), seconds, tiny)
    check = workload.make_check()
    detail = {"workload": name, "why": workload.why, "seconds": seconds, "mix": mix}

    if trace:
        plain = run_worker(ops, False, deadline)
        traced = run_worker(ops, True, deadline)
        failed = check_outputs(ops, plain, check) + check_outputs(ops, traced, check)
        missing = [layer for layer in workload.expected_layers if not traced["layers"][layer]["calls"]]
        if missing:
            raise BenchError(f"traced layers recorded no calls on {name}: {missing}")
        output_bytes = sum(len(out[1]) for op, out in zip(ops, traced["outputs"]) if "argv" in op and out)
        metrics = per_layer(plain, traced, output_bytes)
        errors = {**traced["errors"], **plain["errors"]}
        detail["untraced_run_s"] = plain["run_s"]
        samples = {"operations": len(ops), "worker_runs": 2}
    else:
        measure_setup(1)  # warms the bytecode cache
        setup = measure_setup(SETUP_STARTS // 2)
        plain = run_worker(ops, False, deadline)
        setup += measure_setup(SETUP_STARTS - SETUP_STARTS // 2)
        failed = check_outputs(ops, plain, check)
        metrics, extra = end_to_end(plain, len(failed), setup)
        errors = plain["errors"]
        detail.update(extra)
        samples = {"operations": len(ops), "worker_runs": 1, "setup_starts": SETUP_STARTS}
    detail["env"] = environment(seed, samples)
    detail["errors"] = {str(i): errors.get(str(i), "output check failed") for i in failed[:20]}
    attempted = samples["operations"] * samples["worker_runs"]
    line = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    return line, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
