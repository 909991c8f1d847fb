"""Host-speed probe: a fixed piece of reference work, timed all through a run.

A CPU shared with other tenants need not run at one speed.  On the 2-vCPU
host this benchmark was written on, the same bytecode takes about 1.7
times longer in the host's slow state than in its fast one, the state
flips every few hundred milliseconds, and the share of time spent in each
drifts over minutes.  Raw wall times of two runs of the same code
therefore differ by far more than the benchmark's bounds.

So an untraced worker runs a ``Sampler``: an interval timer interrupts the
run every ``INTERVAL_S`` and times the probe, between operations and in
the middle of them alike.  ``refer`` then scales each operation's latency
by ``REFERENCE_S`` over the mean probe time seen while it ran.  Times come
out at the reference speed: a change in stirnum moves them in full, a
change in the host's speed much less.  The probe uses builtins only, so
calling it before ``import stirnum`` imports nothing the timed set-up
would otherwise pay for.
"""

import bisect
import signal
import time

# A probe's nominal duration.  Referred times read as they would on a host
# on which the probe takes this long.
REFERENCE_S = 40e-6
# The probe keeps its fastest of this many passes, so one interrupt does
# not count as a slow host.
PASSES = 3
# Sampling period: short next to the host's speed states, long next to
# a probe, which then costs about 1% of the run.
INTERVAL_S = 0.01


def _reference_work() -> int:
    # Interpreter dispatch plus small big-int arithmetic, like the
    # Fraction-heavy code it stands in for.
    a, b, acc = 1, 1, 0
    for k in range(1, 200):
        a, b = b, a + b
        acc += (a * k + b) % 1000003
    return acc + len(str(a))


def probe() -> float:
    """Seconds the reference work takes on the host right now."""
    perf_counter = time.perf_counter
    best = float("inf")
    for _ in range(PASSES):
        start = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - start)
    return best


def referred(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at the
    reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)


class Sampler:
    """Times the probe every INTERVAL_S from a SIGALRM handler, which
    Python runs in the main thread between bytecodes, so samples land
    inside long operations too.  ``spent`` is the time sampling took, for
    the caller to take out of its own timings."""

    def __init__(self) -> None:
        self.times = []
        self.probes = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def refer(latencies, spans, times, probes):
    """Each latency at the reference speed.  Operation i ran over
    ``spans[i]`` (start, end); its host speed is the mean probe taken from
    one interval before its start to one interval after its end, or the
    probe nearest its midpoint when a delayed timer left that window
    empty."""
    out = []
    for seconds, (start, end) in zip(latencies, spans):
        lo = bisect.bisect_left(times, start - INTERVAL_S)
        hi = bisect.bisect_right(times, end + INTERVAL_S)
        if lo == hi:
            mid = (start + end) / 2
            after = bisect.bisect_left(times, mid)
            if after == len(times) or (after > 0 and mid - times[after - 1] < times[after] - mid):
                after -= 1
            lo, hi = after, after + 1
        window = probes[lo:hi]
        out.append(seconds * REFERENCE_S * len(window) / sum(window))
    return out
