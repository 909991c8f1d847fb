"""Mutation harness: every mutant of the cross-checked routes must be killed.

Each mutant is one exact snippet of one source file, its replacement,
and the library test file expected to kill it.  For each, the tree is
copied to a temporary directory, the snippet is replaced there, and the
test suite runs on the copy with ``pytest -x``, one group of files per
process: the mutant's own test file first, then the other library test
files one at a time, then the rest of ``tests/`` together, stopping at
the first group that fails.  A mutant the suite fails on is killed; one
it passes on survives.  So the test file named for a mutant only sets the
order the suite runs in, never what counts as a kill, and a killed mutant
usually costs one file rather than the suite.  The unmutated copy must
pass every group first, each in a process of its own as the mutants run
it, or no kill would mean anything.

A snippet that does not occur exactly once in its file is an error, so
the list cannot rot silently as the code changes.

    python tools/mutants.py

Exits 0 when every mutant is killed, 1 when one survives, 2 on an error.
It needs the test extras (pytest, hypothesis) and nothing else.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SERIES = "src/stirnum/series.py"
SEQUENCES = "src/stirnum/sequences.py"
IDENTITIES = "src/stirnum/identities.py"
STIRLING = "src/stirnum/stirling.py"
CLI = "src/stirnum/cli.py"

STIRLING_TESTS = "tests/test_stirling.py"
SERIES_TESTS = "tests/test_series.py"
SEQUENCES_TESTS = "tests/test_sequences.py"
IDENTITIES_TESTS = "tests/test_identities.py"
CLI_TESTS = "tests/test_cli.py"
VALUES_TESTS = "tests/test_values.py"

# (label, file, exact snippet, replacement, test file expected to kill it)
MUTANTS = [
    (
        "LaurentSeries construction skips normalization",
        SERIES,
        'raise DomainError("a series needs a nonzero denominator")\n        nums, den = _normalized(nums, den)',
        'raise DomainError("a series needs a nonzero denominator")\n        nums, den = (nums, den)',
        SERIES_TESTS,
    ),
    (
        "_pascal_recurrence s = 0 lead",
        SERIES,
        "diagonal = list(accumulate(diagonal, initial=r))",
        "diagonal = list(accumulate(diagonal, initial=-r))",
        SERIES_TESTS,
    ),
    (
        "_pascal_recurrence s = 1 fold",
        SERIES,
        "accumulate(map(operator.add, diagonal, repeat(r)), initial=0)",
        "accumulate(map(operator.add, diagonal, repeat(-r)), initial=0)",
        SERIES_TESTS,
    ),
    (
        "_pascal_recurrence batch rescales nums but not the diagonal",
        SERIES,
        "diagonal = [x * widen for x in diagonal]",
        "diagonal = [x * (widen // batch) for x in diagonal]",
        SERIES_TESTS,
    ),
    (
        "_pascal_reciprocal ratio",
        SERIES,
        "ratio = mu / lead",
        "ratio = lead / mu",
        SERIES_TESTS,
    ),
    (
        "_egf_unscaled factorial step",
        SERIES,
        "accumulate(range(top, start, -1), operator.mul, initial=1)",
        "accumulate(range(top + 1, start + 1, -1), operator.mul, initial=1)",
        SERIES_TESTS,
    ),
    (
        "grown tail's factorial ratio off by one",
        SERIES,
        "ratios[-1] * math.factorial(start) * den",
        "ratios[-1] * math.factorial(start + 1) * den",
        SERIES_TESTS,
    ),
    (
        "a continued Pascal run leaves its held diagonal unscaled on widening",
        SERIES,
        "diagonal = [x * widen for x in diagonal]",
        "diagonal = [x * widen for x in diagonal] if first == 1 else diagonal",
        SERIES_TESTS,
    ),
    (
        "_dilated first factor",
        SERIES,
        "first = alpha**r.offset",
        "first = alpha**-r.offset",
        SERIES_TESTS,
    ),
    (
        "_lcm_product lower bound",
        SERIES,
        "lo = max(0, k - len(b) + 1)",
        "lo = max(0, k - len(b) + 2)",
        SERIES_TESTS,
    ),
    (
        "_power Miller weights",
        SERIES,
        "range(k + 1 - n, k * n + 1, k + 1)",
        "range(k + 2 - n, k * n + 2, k + 1)",
        STIRLING_TESTS,
    ),
    (
        "chain growth starts one coefficient late",
        SERIES,
        "base.nums, base.den, reach, len(entry.nums))",
        "base.nums, base.den, reach, len(entry.nums) + 1)",
        IDENTITIES_TESTS,
    ),
    (
        "derivative rebuild cut one coefficient short",
        SERIES,
        "before.truncated(before.offset + stop)",
        "before.truncated(before.offset + stop - 1)",
        IDENTITIES_TESTS,
    ),
    (
        "a short Miller power read as held",
        SERIES,
        "if entry is None or len(entry.nums) < self.length(order):",
        "if entry is None:",
        IDENTITIES_TESTS,
    ),
    (
        "a kept entry never charged",
        SERIES,
        "if self._store is not None:\n            self._store.charge(",
        "if self._store is None:\n            self._store.charge(",
        IDENTITIES_TESTS,
    ),
    (
        "growth never charged",
        SERIES,
        "(0 if old is None else _stored_bits(old))",
        "(0 if old is None else _stored_bits(entry))",
        IDENTITIES_TESTS,
    ),
    (
        "a longer base leaves the entries on the old one",
        SERIES,
        "self.base = self._powers[0] = self._derivatives[0] = self._miller[1] = base",
        "self.base = base",
        IDENTITIES_TESTS,
    ),
    (
        "ladder read length per order",
        SERIES,
        "return order + self.base.offset - 1",
        "return order + self.base.offset",
        IDENTITIES_TESTS,
    ),
    (
        "ladder key drops mu's sign",
        SERIES,
        "return mu.numerator, mu.denominator",
        "return abs(mu.numerator), mu.denominator",
        SERIES_TESTS,
    ),
    (
        "recip_exp_linear scales by 1/c, not -1/c",
        SERIES,
        "base.scale(-1 / c)",
        "base.scale(1 / c)",
        SERIES_TESTS,
    ),
    (
        "_charged_bits per-series charge",
        SERIES,
        " + 320 * len(ints) + 8192",
        " + 320 * len(ints)",
        SERIES_TESTS,
    ),
    (
        "two_param_euler_oracle dot-product offset",
        SEQUENCES,
        "reversed(r.nums[: n + 1])",
        "reversed(r.nums[1 : n + 2])",
        SEQUENCES_TESTS,
    ),
    (
        "two_param_euler_oracle alpha fold power n - 1",
        SEQUENCES,
        "power = -alpha**n",
        "power = -alpha ** (n - 1)",
        SEQUENCES_TESTS,
    ),
    (
        "two_param_euler_oracle drops the sign of -B_(-lam)",
        SEQUENCES,
        "power = -alpha**n",
        "power = alpha**n",
        SEQUENCES_TESTS,
    ),
    (
        "apostol_bernoulli_oracle in-place index off by one",
        SEQUENCES,
        "i = n - 1 - base.offset",
        "i = n - base.offset",
        SEQUENCES_TESTS,
    ),
    (
        "euler_number even-index guard turns the cross-check off",
        SEQUENCES,
        "if n % 2 == 0:\n        direct = _euler_even_direct(n)",
        "if n % 2 != 0:\n        direct = _euler_even_direct(n)",
        SEQUENCES_TESTS,
    ),
    (
        "_geometric_stirling_sum Horner step sign",
        SEQUENCES,
        "acc = row[m] * q_power - m * p * acc",
        "acc = row[m] * q_power + m * p * acc",
        SEQUENCES_TESTS,
    ),
    (
        "_geometric_stirling_sum running power of q",
        SEQUENCES,
        "q_power *= q",
        "q_power = q",
        SEQUENCES_TESTS,
    ),
    (
        "reduction pivot",
        SEQUENCES,
        "[alpha / x for x in _REDUCTION_NODES]",
        "[x / alpha for x in _REDUCTION_NODES]",
        IDENTITIES_TESTS,
    ),
    (
        "reduction builds of lambda kept under lambda's numerator alone",
        SEQUENCES,
        'key = "reductions", n, lam.numerator, lam.denominator',
        'key = "reductions", n, lam.numerator, 1',
        SEQUENCES_TESTS,
    ),
    (
        "reduction pivot sums of alpha kept under alpha's numerator alone",
        SEQUENCES,
        "key = a, b",
        "key = a",
        SEQUENCES_TESTS,
    ),
    (
        "a grown reduction entry is not charged again",
        SEQUENCES,
        "if found.bits != bits:\n                store.keep(key, found)",
        "if not bits:\n                store.keep(key, found)",
        SEQUENCES_TESTS,
    ),
    (
        "reduction node x = 5/2",
        SEQUENCES,
        "_REDUCTION_NODES = (Fraction(-1, 3), Fraction(5, 2))",
        "_REDUCTION_NODES = (Fraction(-1, 3), Fraction(1))",
        SEQUENCES_TESTS,
    ),
    (
        "I8 constant (-1)**k",
        IDENTITIES,
        '"I8": (_f, "power", b_coeff, _g, lambda k: (-1) ** k, lambda k, m: 0),',
        '"I8": (_f, "power", b_coeff, _g, lambda k: 1, lambda k, m: 0),',
        IDENTITIES_TESTS,
    ),
    (
        "P1 weight (-1)**(m - 1)",
        IDENTITIES,
        '"P1": (_h, "derivative", lambda k, m: (-1) ** (m - 1) * lambda_coeff(k, m), _h, None, lambda k, m: 0),',
        '"P1": (_h, "derivative", lambda k, m: (-1) ** m * lambda_coeff(k, m), _h, None, lambda k, m: 0),',
        IDENTITIES_TESTS,
    ),
    (
        "G1 power of alpha k, not k + 1",
        IDENTITIES,
        '"G1": (None, "derivative", lambda_coeff, None, None, lambda k, m: k),',
        '"G1": (None, "derivative", lambda_coeff, None, None, lambda k, m: k + 1),',
        IDENTITIES_TESTS,
    ),
    (
        "G2 power of alpha 1 - m, not -m",
        IDENTITIES,
        '"G2": (None, "power", _first_kind_weight, None, None, lambda k, m: 1 - m),',
        '"G2": (None, "power", _first_kind_weight, None, None, lambda k, m: -m),',
        IDENTITIES_TESTS,
    ),
    (
        "power-kind chain-rule power m - 1, not m",
        IDENTITIES,
        "return tuple(exponent(k, m) + m - 1 for m in range(1, k + 1))",
        "return tuple(exponent(k, m) + m for m in range(1, k + 1))",
        IDENTITIES_TESTS,
    ),
    (
        "chain rule reads the alpha of the other side",
        IDENTITIES,
        "side_alpha = lhs_alpha if lhs_j else rhs_alpha",
        "side_alpha = rhs_alpha if lhs_j else lhs_alpha",
        IDENTITIES_TESTS,
    ),
    (
        "stored right side keyed without its order",
        IDENTITIES,
        "key = (identity_id, k, order)",
        "key = (identity_id, k)",
        IDENTITIES_TESTS,
    ),
    (
        "a nonzero power of alpha reads the shared sum",
        IDENTITIES,
        "        key += (alpha,)",
        "        pass",
        IDENTITIES_TESTS,
    ),
    (
        "discrepancy reported times alpha_l**e, not alpha_l**(e + j)",
        IDENTITIES,
        "scale = lhs_sign * lhs_alpha ** (e + lhs_j)",
        "scale = lhs_sign * lhs_alpha**e",
        IDENTITIES_TESTS,
    ),
    (
        "discrepancy reported without the left side's sign",
        IDENTITIES,
        "scale = lhs_sign * lhs_alpha",
        "scale = lhs_alpha",
        IDENTITIES_TESTS,
    ),
    (
        "rhs sign not raised to m on the derivative kind",
        IDENTITIES,
        "rhs_sign ** (m if lhs_j else 1)",
        "rhs_sign",
        IDENTITIES_TESTS,
    ),
    (
        "lhs sign not raised to k on the power kind",
        IDENTITIES,
        "lhs_sign = lhs_sign if lhs_j else lhs_sign**k",
        "lhs_sign = lhs_sign",
        IDENTITIES_TESTS,
    ),
    (
        "additive constant not times the left side's sign",
        IDENTITIES,
        "LaurentSeries.constant(lhs_sign * constant(k), rhs_hi)",
        "LaurentSeries.constant(constant(k), rhs_hi)",
        IDENTITIES_TESTS,
    ),
    (
        "a check with its own weights reads the stored right side",
        IDENTITIES,
        "stored = rhs_ladder.sums.get(key) if coeff_override is None else None",
        "stored = rhs_ladder.sums.get(key)",
        IDENTITIES_TESTS,
    ),
    (
        "first-kind Stirling recurrence sign",
        STIRLING,
        "row[k] = prev[k - 1] - (m - 1) * prev[k]",
        "row[k] = prev[k - 1] + (m - 1) * prev[k]",
        STIRLING_TESTS,
    ),
    (
        "m_determinant sign",
        STIRLING,
        "minors.append(-sum(",
        "minors.append(sum(",
        STIRLING_TESTS,
    ),
    (
        "direct parse skips the choices check",
        CLI,
        "if action.choices is not None and value not in action.choices:",
        "if False:",
        CLI_TESTS,
    ),
    (
        "direct parse keeps the first of a repeated option",
        CLI,
        "if action in given:\n            return None",
        "if action in given:\n            continue",
        CLI_TESTS,
    ),
    (
        "argparse route lets '--' through as an option value",
        CLI,
        "if any(type(value) is list for value in vars(args).values()):",
        "if False:",
        CLI_TESTS,
    ),
    (
        "CSV fast path ignores '\"'",
        CLI,
        '_CSV_QUOTED = (",", \'"\', "\\r", "\\n")',
        '_CSV_QUOTED = (",", "\\r", "\\n")',
        CLI_TESTS,
    ),
    (
        "JSON writer prints a bool as an int",
        CLI,
        'bool: {True: "true", False: "false"}.__getitem__,',
        "bool: int.__repr__,",
        CLI_TESTS,
    ),
    (
        "Polynomial.__eq__ compares nums only",
        SEQUENCES,
        '__slots__ = ("nums", "den", "_coeffs")',
        '__slots__ = ("nums", "den", "_coeffs")\n'
        "    __hash__ = _Value.__hash__\n"
        "    def __eq__(self, other):\n"
        "        return self.nums == other.nums if other.__class__ is self.__class__ else NotImplemented",
        VALUES_TESTS,
    ),
    (
        "LaurentSeries equality and hash leave out offset",
        SERIES,
        '__slots__ = ("offset", "nums", "den", "_coeffs")',
        '__slots__ = ("offset", "nums", "den", "_coeffs")\n'
        "    def __hash__(self):\n"
        "        return hash((self.nums, self.den))\n"
        "    def __eq__(self, other):\n"
        "        if other.__class__ is not self.__class__:\n"
        "            return NotImplemented\n"
        "        return (self.nums, self.den) == (other.nums, other.den)",
        VALUES_TESTS,
    ),
]

LIBRARY_TESTS = [STIRLING_TESTS, SERIES_TESTS, SEQUENCES_TESTS, IDENTITIES_TESTS, CLI_TESTS, VALUES_TESTS]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def suite_groups():
    """Each library test file alone, then every other test file of ``tests/``."""
    rest = sorted(
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "tests").glob("test_*.py")
        if path.relative_to(ROOT).as_posix() not in LIBRARY_TESTS
    )
    return [[path] for path in LIBRARY_TESTS] + [rest]


def check_snippets():
    """Every snippet occurs exactly once in its file and every mutant names
    a library test file; else the errors."""
    errors = []
    for label, path, snippet, _, tests in MUTANTS:
        found = (ROOT / path).read_text().count(snippet)
        if found != 1:
            errors.append(f"{label}: snippet occurs {found} times in {path}: {snippet!r}")
        if tests not in LIBRARY_TESTS:
            errors.append(f"{label}: {tests} is not a library test file")
    return errors


def tree_env(tree):
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def check_import(tree):
    """Exit 2 unless ``stirnum`` imports from ``tree``."""
    where = subprocess.run(
        [sys.executable, "-c", "import stirnum; print(stirnum.__file__)"],
        cwd=tree, env=tree_env(tree), capture_output=True, text=True,
    )
    if not Path(where.stdout.strip()).resolve().is_relative_to(tree.resolve()):
        print(f"stirnum is not imported from the copy: {where.stdout or where.stderr}", file=sys.stderr)
        sys.exit(2)


def run_suite(tree, groups):
    """(exit code of the first group pytest fails, else 0; seconds) of the
    groups on ``tree``, one pytest process each, stopping at a failure."""
    start = time.perf_counter()
    for files in groups:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
            cwd=tree, env=tree_env(tree), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if done.returncode != 0:
            break
    return done.returncode, time.perf_counter() - start


def main():
    errors = check_snippets()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    groups = suite_groups()
    total = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="stirnum-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        check_import(tree)
        code, seconds = run_suite(tree, groups)
        if code != 0:
            print(f"the unmutated tree fails its tests (pytest exit {code})", file=sys.stderr)
            return 2
        print(f"unmutated tree passes in {seconds:.0f} s", flush=True)
        survivors = []
        for label, path, snippet, replacement, tests in MUTANTS:
            source = (ROOT / path).read_text()
            (tree / path).write_text(source.replace(snippet, replacement))
            try:
                code, seconds = run_suite(tree, sorted(groups, key=lambda files: files != [tests]))
            finally:
                (tree / path).write_text(source)
            # pytest exits 1 on a failed test and 2 on a collection error;
            # any other code is the harness's own error.
            if code not in (0, 1, 2):
                print(f"{label}: pytest exit {code}", file=sys.stderr)
                return 2
            verdict = "survived" if code == 0 else "killed"
            print(f"{verdict:8}  {seconds:5.0f} s  {label}", flush=True)
            if code == 0:
                survivors.append(label)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed"
          f" in {time.perf_counter() - total:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
