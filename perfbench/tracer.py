"""Outside-in tracer: wraps stirnum's public functions from outside src/.

Every wrapped call opens a span.  Spans nest through a stack, so a span's
self time is its duration minus the durations of the wrapped calls made
inside it.  Spans are folded into per-layer totals as they close rather
than stored one by one: the Stirling lookups alone run to millions of
calls in a traced run.

A name bound with ``from .stirling import stirling2`` is a separate
binding in the importing module, so each function is replaced in every
stirnum module namespace that holds it, not only where it is defined.
LaurentSeries operators are replaced on the class, which the type slots
follow, so ``result * self`` inside ``__pow__`` nests as a child span.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List

perf_counter = time.perf_counter


class LayerStats:
    """Totals for one layer: calls and self time."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        # Counters derived from argument and result sizes, not counted
        # inside the program.
        self.counts: Dict[str, int] = {
            "series.mul.coeff_pairs": 0,
            "series.mul.max_bits": 0,
            "series.reciprocal.coeff_pairs": 0,
            "series.reciprocal.max_len": 0,
            "stirling.max_n": 0,
            "stirling.m_determinant.max_j": 0,
            "identities.coeffs_compared": 0,
        }
        self.top_span_s = 0.0
        # Each entry is the child time accumulated by one open span.
        self._stack: List[float] = []

    def wrap(self, layer: str, func: Callable, after: Callable = None) -> Callable:
        """Return func wrapped in a span charged to ``layer``.

        ``after(args, result)`` runs outside the timed span and updates the
        size-derived counters.
        """
        stats = self.layers.setdefault(layer, LayerStats())
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return_value = func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                stats.calls += 1
                stats.self_s += duration - child
                if stack:
                    stack[-1] += duration
                else:
                    self.top_span_s += duration
            if after is not None:
                # The hook's time is kept out of the enclosing span's self time.
                hook_start = perf_counter()
                after(args, return_value)
                if stack:
                    stack[-1] += perf_counter() - hook_start
            return return_value

        return traced

    def patch_function(
        self, owner, name: str, layer: str, modules, after: Callable = None
    ) -> None:
        """Replace every binding of ``owner.<name>`` across ``modules``."""
        original = getattr(owner, name)
        traced = self.wrap(layer, original, after)
        bound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no binding of {name} found to trace")

    def patch_method(self, cls, name: str, layer: str, after: Callable = None) -> None:
        setattr(cls, name, self.wrap(layer, vars(cls)[name], after))

    def bump_max(self, key: str, value: int) -> None:
        if value > self.counts[key]:
            self.counts[key] = value


def _product_pairs(len_a: int, len_b: int, out_len: int) -> int:
    """Coefficient pairs (i, j) with i < len_a, j < len_b, i + j < out_len:
    the products a truncated schoolbook multiply visits, zeros included."""
    return sum(min(len_b, out_len - i) for i in range(min(len_a, out_len)))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of stirling, series, sequences, identities
    and cli.  Layer names are ``<module>.<function group>``."""
    from stirnum import cli, identities, sequences, series, stirling
    import stirnum

    modules = (stirling, series, sequences, identities, cli, stirnum)
    LaurentSeries = series.LaurentSeries

    def function(owner, name, layer, after=None):
        tracer.patch_function(owner, name, layer, modules, after)

    def after_mul(args, result):
        other = args[1]
        if isinstance(other, LaurentSeries) and result.coeffs:
            tracer.counts["series.mul.coeff_pairs"] += _product_pairs(
                len(args[0].coeffs), len(other.coeffs), len(result.coeffs)
            )
            tracer.bump_max(
                "series.mul.max_bits",
                max(c.numerator.bit_length() + c.denominator.bit_length() for c in result.coeffs),
            )

    def after_reciprocal(args, result):
        length = len(result.coeffs)
        tracer.counts["series.reciprocal.coeff_pairs"] += length * (length - 1) // 2
        tracer.bump_max("series.reciprocal.max_len", length)

    def after_stirling(args, result):
        tracer.bump_max("stirling.max_n", args[0])

    def after_mdet(args, result):
        tracer.bump_max("stirling.m_determinant.max_j", args[0])

    def after_verify(args, report):
        lo, hi = report.window
        tracer.counts["identities.coeffs_compared"] += hi - lo

    tracer.patch_method(LaurentSeries, "__mul__", "series.mul", after_mul)
    tracer.patch_method(LaurentSeries, "reciprocal", "series.reciprocal", after_reciprocal)
    tracer.patch_method(LaurentSeries, "__pow__", "series.pow")
    tracer.patch_method(LaurentSeries, "derivative", "series.derivative")
    for name in ("__add__", "__sub__", "__neg__"):
        tracer.patch_method(LaurentSeries, name, "series.add")
    tracer.patch_method(LaurentSeries, "scale", "series.scale")
    function(series, "exp_linear", "series.exp_linear")

    # stirling's own module namespace is patched too, so lambda_coeff,
    # a_coeff and the determinant relation reach the wrapped functions.
    function(stirling, "stirling2", "stirling.stirling2", after_stirling)
    function(stirling, "stirling1", "stirling.stirling1", after_stirling)
    function(stirling, "m_determinant", "stirling.m_determinant", after_mdet)

    for name in (
        "bernoulli_formula",
        "apostol_bernoulli_formula",
        "euler_number",
        "euler_polynomial_formula",
        "two_param_euler_formula",
    ):
        function(sequences, name, "sequences.formula")
    for name in (
        "bernoulli_oracle",
        "apostol_bernoulli_oracle",
        "euler_polynomial_oracle",
        "two_param_euler_oracle",
    ):
        function(sequences, name, "sequences.oracle")
    function(sequences, "sequence_value", "sequences.sequence_value")

    for name in (
        "verify_core_identity",
        "verify_plus_identity",
        "verify_general_derivative",
        "verify_general_power",
    ):
        function(identities, name, "identities.verify", after_verify)
    function(identities, "core_identity_coefficients", "identities.weights")

    function(cli, "main", "cli.main")
