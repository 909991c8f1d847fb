"""Run one operation list in a fresh interpreter and report what it saw.

Reads ``{"ops": [...], "trace": bool}`` as JSON on stdin and writes one
JSON object to stdout: per-operation latencies and outputs, run_s, the
process's peak RSS and, when tracing, the per-layer totals.  Operations
run in a closed loop with one client: each starts when the previous one
returned.  The caller checks the outputs; this process only times them.

An untraced run also samples the host's speed (speed.Sampler) all through
the loop; each latency, and run_s, leave the sampling time out.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import stirnum  # noqa: E402
from stirnum import cli  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return [code, buffer.getvalue()]


def _run_pair(family, n, params):
    # Parameters were converted before the clock started.
    values = [
        stirnum.sequence_value(family, n, route, **params).value for route in ("formula", "oracle")
    ]
    return [str(value) for value in values]


def main() -> None:
    request = json.load(sys.stdin)
    trace = tracer.Tracer() if request["trace"] else None
    if trace is not None:
        tracer.install(trace)
    calls = []
    for op in request["ops"]:
        if "argv" in op:
            calls.append((_run_cli, (op["argv"],)))
        else:
            family, n, params = op["pair"]
            calls.append(
                (_run_pair, (family, n, {k: Fraction(v) for k, v in params.items()}))
            )

    latencies, spans, outputs, errors = [], [], [], {}
    sampler = speed.Sampler()
    perf_counter = time.perf_counter
    if trace is None:
        sampler.start()
    run_start, run_spent = perf_counter(), sampler.spent
    for index, (func, args) in enumerate(calls):
        spent = sampler.spent
        start = perf_counter()
        try:
            output = func(*args)
        except Exception as exc:  # an unexpected raise counts as a failed operation
            output = None
            errors[index] = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        latencies.append(end - start - (sampler.spent - spent))
        spans.append((start, end))
        outputs.append(output)
    run_s = perf_counter() - run_start - (sampler.spent - run_spent)
    if trace is None:
        sampler.stop()

    result = {
        "run_s": run_s,
        "latencies_s": latencies,
        "outputs": outputs,
        "errors": errors,
        "spans": spans,
        "probe_times": sampler.times,
        "probes_s": sampler.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace is not None:
        result["layers"] = {
            name: {"calls": s.calls, "self_s": s.self_s}
            for name, s in trace.layers.items()
        }
        result["counts"] = trace.counts
        result["top_span_s"] = trace.top_span_s
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
