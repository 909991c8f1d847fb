"""The three seeded workloads: how each builds its operation list, and the
untimed check each applies to every operation's output.

An operation is either ``{"argv": [...]}``, one ``stirnum.cli.main`` call,
or ``{"pair": [family, n, params]}``, one ``sequence_value`` call per route
(formula, then oracle).  Rationals travel as their literal text.

Each generator draws from a seeded ``random.Random`` and stratifies its
draws: every block of operations holds the same mix of expensive and cheap
cases, and the seed decides the order, the output formats and the
parameter points.  That keeps run_s and the tail comparable across seeds
while every seed still sends different inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

FORMATS = ("plain", "json", "csv")
IDENTITY_TAGS = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "P1", "P2", "G1", "G2")
CHECK_TARGETS = ("det-relation", "alt-sum", "reductions")
# The grid `verify` uses for G1/G2 when no point is given; the benchmark
# passes one point per operation.
G_ALPHAS = ("-3/2", "-1", "1/2", "1", "2")
G_LAMBDAS = ("-5/3", "-1", "1/2", "1", "2")
# `verify reductions` runs over a 3 x 3 (alpha, lambda) grid per n.
REDUCTION_GRID = 9


def _cycled(rng, pool, count: int) -> List:
    """count draws that use every pool entry equally often, in seeded order."""
    out: List = []
    while len(out) < count:
        batch = list(pool)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]


def _with_formats(rng, ops: List[dict]) -> None:
    """Give the operations formats that rotate plain, json, csv from a
    seeded starting point."""
    start = rng.randrange(len(FORMATS))
    for i, op in enumerate(ops):
        op["argv"] += ["--format", FORMATS[(start + i) % len(FORMATS)]]


# -- verify-sweep -------------------------------------------------------------

VERIFY_WHY = (
    "verify calls at series orders 12-34: the LaurentSeries multiply ladders "
    "dominate, the small-order side of series-kernel work and sweep reuse"
)


def verify_sweep(rng, seconds: float, tiny: bool) -> Tuple[List[dict], dict]:
    # One block runs every target once at every K; about 7 s on a 2-vCPU
    # x86-64 host with Python 3.11.
    k_values = range(1, 3) if tiny else range(4, 13)
    blocks = 1 if tiny else max(1, round(seconds / 7.0))
    ops: List[dict] = []
    for _ in range(blocks):
        block = []
        for target in IDENTITY_TAGS + CHECK_TARGETS:
            ks = list(k_values)
            if target in ("G1", "G2"):
                # Every lambda, 1 (the Laurent branch) included, in each block.
                points = zip(_cycled(rng, G_ALPHAS, len(ks)), _cycled(rng, G_LAMBDAS, len(ks)))
            else:
                points = [None] * len(ks)
            for k, point in zip(ks, points):
                argv = ["verify", target, "--k-max", str(k)]
                if point is not None:
                    argv += [f"--alpha={point[0]}", f"--lambda={point[1]}"]
                block.append({"argv": argv})
        rng.shuffle(block)
        ops.extend(block)
    _with_formats(rng, ops)
    ks = [int(op["argv"][3]) for op in ops]
    mix = {
        "ops_by_target": _count(op["argv"][1] for op in ops),
        "ops_by_format": _count(op["argv"][-1] for op in ops),
        "k_max_range": [min(ks), max(ks)],
        "max_series_order": 2 * max(ks) + 10,
    }
    return ops, mix


def expected_reports(target: str, k: int) -> int:
    if target in IDENTITY_TAGS or target == "alt-sum":
        return k
    if target == "det-relation":
        return k * (k + 1) // 2
    return (k + 1) * REDUCTION_GRID


def _verify_rows(fmt: str, text: str) -> List[Tuple[bool, Optional[int]]]:
    """(passed, window width or None) for every report in one output."""
    if fmt == "json":
        result = json.loads(text)["result"]
        rows = [
            (row["passed"], row["window"][1] - row["window"][0] if "window" in row else None)
            for row in result["checks"]
        ]
        if result["total"] != len(rows) or result["ok"] != sum(p for p, _ in rows):
            raise ValueError("json totals disagree with its rows")
        return rows
    if fmt == "csv":
        records = list(csv.DictReader(io.StringIO(text)))
        return [
            (
                row["passed"] == "true",
                int(row["window_hi"]) - int(row["window_lo"]) if row["window_lo"] else None,
            )
            for row in records
        ]
    lines = text.splitlines()
    ok, total = lines[-1].split()[0].split("/")
    rows = []
    for line in lines[:-1]:
        width = None
        if "window=[" in line:
            lo, hi = line.split("window=[")[1].split(")")[0].split(",")
            width = int(hi) - int(lo)
        rows.append((line.endswith(" ok"), width))
    if int(total) != len(rows) or int(ok) != sum(p for p, _ in rows):
        raise ValueError("plain summary line disagrees with its rows")
    return rows


def make_verify_check(min_window: int) -> Callable[[dict, list], bool]:
    def check(op: dict, output: list) -> bool:
        code, text = output
        argv = op["argv"]
        target, k, fmt = argv[1], int(argv[3]), argv[-1]
        rows = _verify_rows(fmt, text)
        return (
            code == 0
            and len(rows) == expected_reports(target, k)
            and all(passed for passed, _ in rows)
            and all(width is None or width >= min_window for _, width in rows)
            and all(width is not None for _, width in rows) == (target in IDENTITY_TAGS)
        )

    return check


# -- sequence-pairs -----------------------------------------------------------

PAIRS_WHY = (
    "formula and oracle route per family member, n up to ~300: one long "
    "reciprocal per operation plus Stirling-heavy closed forms"
)

PAIR_FAMILIES = (
    "bernoulli",
    "apostol_bernoulli",
    "euler_number",
    "euler_polynomial",
    "two_param_euler",
)
# Geometric ladder of indices, about 16% apart; every family visits every
# rung once a block, and the seed draws the parameter points and the order.
# A dense ladder with fixed rungs keeps the latency distribution dense
# around its median and its tail, and keeps the same kind of operation at
# those percentiles from one seed to the next.
PAIR_RUNGS = (
    4, 5, 6, 7, 8, 9, 11, 13, 15, 17, 20, 23, 26, 30, 35, 40, 46, 54, 62,
    72, 84, 97, 115, 137, 165, 197, 235, 280,
)
PAIR_RUNGS_TINY = (2, 4, 6, 8)
# Parameter pools of similar height, so no seed draws a much costlier point.
PAIR_LAMBDAS = ("2", "3", "1/2", "1/3", "-1", "-2", "3/2", "2/3")
PAIR_XS = ("1/3", "-1/3", "2/3", "-2/3", "3/2", "-3/2", "1/4", "-2")
PAIR_ALPHAS = ("1/2", "-1/2", "2", "-2", "3/2", "-3/2")
PAIR_TWO_PARAM_LAMBDAS = ("2", "1/2", "3", "1/3", "2/3", "3/2")
PAIR_BLOCK_S = 13.0


def sequence_pairs(rng, seconds: float, tiny: bool) -> Tuple[List[dict], dict]:
    # One block takes about PAIR_BLOCK_S on a 2-vCPU x86-64 host with
    # Python 3.11, dominated by the top few rungs.
    rungs = PAIR_RUNGS_TINY if tiny else PAIR_RUNGS
    blocks = 1 if tiny else max(1, round(seconds / PAIR_BLOCK_S))
    ops: List[dict] = []
    for _ in range(blocks):
        block = []
        for family in PAIR_FAMILIES:
            size = len(rungs)
            lams = _cycled(rng, PAIR_LAMBDAS, size)
            xs = _cycled(rng, PAIR_XS, size)
            alphas = _cycled(rng, PAIR_ALPHAS, size)
            two_lams = _cycled(rng, PAIR_TWO_PARAM_LAMBDAS, size)
            for i, n in enumerate(rungs):
                params: Dict[str, str] = {}
                if family == "bernoulli":
                    n = max(2, n - n % 2)
                elif family == "apostol_bernoulli":
                    params = {"lam": lams[i]}
                elif family == "euler_polynomial":
                    params = {"x": xs[i]}
                elif family == "two_param_euler":
                    params = {"x": xs[i], "alpha": alphas[i], "lam": two_lams[i]}
                block.append({"pair": [family, n, params]})
        rng.shuffle(block)
        ops.extend(block)
    pairs = [op["pair"] for op in ops]
    mix = {
        "ops_by_family": _count(family for family, _, _ in pairs),
        "max_n": max(n for _, n, _ in pairs),
        # The oracle truncates at order n + 4 (Bernoulli) or n + 8 (others).
        "max_series_order": max(n + (4 if f == "bernoulli" else 8) for f, n, _ in pairs),
    }
    return ops, mix


def check_pair(op: dict, output: list) -> bool:
    formula, oracle = output
    return Fraction(formula) == Fraction(oracle)


# -- stirling-table -----------------------------------------------------------

TABLE_WHY = (
    "CLI Stirling and mdet queries that read below or grow past the table "
    "frontier: the series layer is idle and table memory sets peak RSS"
)

# Table sizes stay below these caps, which keeps peak RSS near 90 MB.
TABLE_CAPS = {"stirling2": 600, "stirling1": 450}
TABLE_CAPS_TINY = {"stirling2": 40, "stirling1": 30}
MDET_MAX_J, MDET_MAX_I = 25, 30
WRITE_SHARE = 0.02
TABLE_OPS_PER_SECOND = 250


def stirling_table(rng, seconds: float, tiny: bool) -> Tuple[List[dict], dict]:
    caps = TABLE_CAPS_TINY if tiny else TABLE_CAPS
    max_j, max_i = (6, 5) if tiny else (MDET_MAX_J, MDET_MAX_I)
    total = 60 if tiny else max(50, round(seconds * TABLE_OPS_PER_SECOND))
    kinds = ["stirling2"] * round(total * 0.45) + ["stirling1"] * round(total * 0.40)
    kinds += ["mdet"] * (total - len(kinds))
    rng.shuffle(kinds)
    # A stirling2 query goes first and grows the table past every n an mdet
    # query reads, so mdet queries never grow the table themselves.
    kinds.insert(0, kinds.pop(kinds.index("stirling2")))

    # Write i of a kind grows its table to a size on a linear ramp from
    # above the largest mdet n up to the cap; each kind's first query writes.
    # Write i falls at a seeded place in the i-th of equal stretches of that
    # kind's queries, so the frontier, and with it the size of the numbers
    # reads return, grows at the same pace on every seed.
    floor = max_j + max_i - 1
    write_sizes = {}
    for kind, cap in caps.items():
        queries = kinds.count(kind)
        writes = max(1, round(queries * WRITE_SHARE))
        positions = [0] + [
            rng.randrange(i * queries // writes, (i + 1) * queries // writes) for i in range(1, writes)
        ]
        sizes = [floor + math.ceil((cap - floor) * (i + 1) / writes) for i in range(writes)]
        write_sizes[kind] = dict(zip(positions, sizes))

    ops: List[dict] = []
    writes_done = 0
    seen = {"stirling2": 0, "stirling1": 0}
    frontier = {"stirling2": 0, "stirling1": 0}
    for kind in kinds:
        if kind == "mdet":
            # Relation shape: J = n - k + 1, K = n, I = k.
            j, k = rng.randint(1, max_j), rng.randint(1, max_i)
            n = j + k - 1
            ops.append({"argv": ["mdet", str(j), str(n), str(k)]})
            continue
        index = seen[kind]
        seen[kind] += 1
        if index in write_sizes[kind]:
            n = frontier[kind] = write_sizes[kind][index]
            writes_done += 1
        else:
            n = rng.randint(1, frontier[kind])
        ops.append({"argv": [kind, str(n), str(rng.randint(1, n))]})
    _with_formats(rng, ops)
    table_queries = len(ops) - kinds.count("mdet")
    mix = {
        "ops_by_kind": _count(kinds),
        "write_share": writes_done / table_queries,
        "read_share": 1 - writes_done / table_queries,
        "max_n": {kind: max(int(op["argv"][1]) for op in ops if op["argv"][0] == kind) for kind in caps},
        "max_mdet_j": max(int(op["argv"][1]) for op in ops if op["argv"][0] == "mdet"),
    }
    return ops, mix


def _scalar(fmt: str, text: str) -> Fraction:
    if fmt == "json":
        return Fraction(json.loads(text)["result"])
    if fmt == "csv":
        return Fraction(list(csv.reader(io.StringIO(text)))[-1][-1])
    return Fraction(text.strip())


class FallingFactorials:
    """s(n, k) read off this module's own expansion of the falling factorial
    x(x-1)...(x-n+1) = sum_k s(n, k) x**k, cached per n, so the check
    shares no code with the library's Stirling table."""

    def __init__(self) -> None:
        self._rows: List[List[int]] = [[1]]

    def stirling1(self, n: int, k: int) -> int:
        while len(self._rows) <= n:
            # Multiply the last expansion by (x - m).
            m = len(self._rows) - 1
            prev = self._rows[-1]
            self._rows.append([hi - m * lo for hi, lo in zip([0] + prev, prev + [0])])
        return self._rows[n][k]


def make_table_check(stirling2_explicit) -> Callable[[dict, list], bool]:
    """S(n, k) is checked against the library's explicit alternating sum,
    s(n, k) and mdet against FallingFactorials."""
    falling = FallingFactorials()

    def check(op: dict, output: list) -> bool:
        code, text = output
        argv = op["argv"]
        if code != 0:
            return False
        kind, value = argv[0], _scalar(argv[-1], text)
        if kind == "stirling2":
            return value == stirling2_explicit(int(argv[1]), int(argv[2]))
        if kind == "stirling1":
            return value == falling.stirling1(int(argv[1]), int(argv[2]))
        n, k = int(argv[2]), int(argv[3])
        # s(n, k) == (-1)**(n + k*k) (n-1)! M_{n-k+1}(n, k)
        return falling.stirling1(n, k) == (-1) ** (n + k * k) * math.factorial(n - 1) * value

    return check


def _count(items) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return out
