"""Mutation harness: every mutant of the cross-checked routes must be killed.

Each mutant is one exact snippet of one source file and its replacement.
For each, the tree is copied to a temporary directory, the snippet is
replaced there, and the test suite runs on the copy with ``pytest -x``:
the library test files first, then the rest of ``tests/``.  A mutant the
suite fails on is killed; one it passes on survives.  The unmutated copy
must pass first, or no kill would mean anything.

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

# (label, file, exact snippet, replacement)
MUTANTS = [
    (
        "LaurentSeries construction skips normalization",
        SERIES,
        "nums, den = _normalized(self.nums, self.den)",
        "nums, den = (self.nums, self.den)",
    ),
    (
        "_pascal_recurrence s = 0 lead",
        SERIES,
        "diagonal = list(accumulate(diagonal, initial=r))",
        "diagonal = list(accumulate(diagonal, initial=-r))",
    ),
    (
        "_pascal_recurrence s = 1 fold",
        SERIES,
        "accumulate(map(operator.add, diagonal, repeat(r)), initial=0)",
        "accumulate(map(operator.add, diagonal, repeat(-r)), initial=0)",
    ),
    (
        "_pascal_reciprocal ratio",
        SERIES,
        "ratio = lam / lead",
        "ratio = lead / lam",
    ),
    (
        "_egf_unscaled factorial step",
        SERIES,
        "ratio *= k or 1",
        "ratio *= k + 1",
    ),
    (
        "_dilated first factor",
        SERIES,
        "first = alpha**r.offset",
        "first = alpha**-r.offset",
    ),
    (
        "_lcm_product lower bound",
        SERIES,
        "lo = max(0, k - len(b) + 1)",
        "lo = max(0, k - len(b) + 2)",
    ),
    (
        "_power Miller weights",
        SERIES,
        "range(k + 1 - n, k * n + 1, k + 1)",
        "range(k + 2 - n, k * n + 2, k + 1)",
    ),
    (
        "_build_base below-split dilation",
        SERIES,
        "return _dilated(_source_reciprocal(lam, c, order), alpha)",
        "return _source_reciprocal(lam, c, order)",
    ),
    (
        "store replace-on-longer below the split only",
        SERIES,
        "if ladder is None or ladder.top < order:",
        "if ladder is None or ladder.top < min(order, _EGF_MIN_LENGTH - 1):",
    ),
    (
        "recip_exp_linear store-read truncation",
        SERIES,
        "r.truncated(order + 2 * r.offset - 1)",
        "r.truncated(order + 2 * r.offset)",
    ),
    (
        "_stored_bits per-series charge",
        SERIES,
        " + 320 * len(r.nums) + 8192",
        " + 320 * len(r.nums)",
    ),
    (
        "two_param_euler_oracle dot-product offset",
        SEQUENCES,
        "reversed(r.nums[: n + 1])",
        "reversed(r.nums[1 : n + 2])",
    ),
    (
        "_geometric_stirling_sum step",
        SEQUENCES,
        "weight *= -m",
        "weight *= m",
    ),
    (
        "reduction pivot",
        SEQUENCES,
        "pivot = alpha / x",
        "pivot = x / alpha",
    ),
    (
        "reduction node x = 5/2",
        SEQUENCES,
        "_REDUCTION_NODES = (Fraction(-1, 3), Fraction(5, 2))",
        "_REDUCTION_NODES = (Fraction(-1, 3), Fraction(1))",
    ),
    (
        "I8 constant (-1)**k",
        IDENTITIES,
        '"I8": (_f, "power", b_coeff, _g, lambda k: (-1) ** k),',
        '"I8": (_f, "power", b_coeff, _g, lambda k: 1),',
    ),
    (
        "P1 weight (-1)**(m - 1)",
        IDENTITIES,
        '"P1": (_h, "derivative", lambda k, m: (-1) ** (m - 1) * lambda_coeff(k, m), _h, None),',
        '"P1": (_h, "derivative", lambda k, m: (-1) ** m * lambda_coeff(k, m), _h, None),',
    ),
    (
        "G1 factor alpha**k",
        IDENTITIES,
        "scale = alpha**k",
        "scale = alpha ** (k + 1)",
    ),
    (
        "G2 factor alpha**(1 - m)",
        IDENTITIES,
        "w * alpha ** (1 - m)",
        "w * alpha ** (m - 1)",
    ),
    (
        "first-kind Stirling recurrence sign",
        STIRLING,
        "row[k] = prev[k - 1] - (m - 1) * prev[k]",
        "row[k] = prev[k - 1] + (m - 1) * prev[k]",
    ),
    (
        "m_determinant sign",
        STIRLING,
        "minors.append(-sum(",
        "minors.append(sum(",
    ),
]

LIBRARY_TESTS = [
    "tests/test_stirling.py",
    "tests/test_series.py",
    "tests/test_sequences.py",
    "tests/test_identities.py",
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def suite_files():
    """The library test files, then every other test file of ``tests/``."""
    rest = sorted(
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "tests").glob("test_*.py")
        if path.relative_to(ROOT).as_posix() not in LIBRARY_TESTS
    )
    return LIBRARY_TESTS + rest


def check_snippets():
    """Every snippet occurs exactly once in its file; else the errors."""
    errors = []
    for label, path, snippet, _ in MUTANTS:
        found = (ROOT / path).read_text().count(snippet)
        if found != 1:
            errors.append(f"{label}: snippet occurs {found} times in {path}: {snippet!r}")
    return errors


def run_suite(tree, files):
    """(pytest's exit code, seconds) of the suite on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import stirnum; print(stirnum.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if not Path(where.stdout.strip()).resolve().is_relative_to(tree.resolve()):
        print(f"stirnum is not imported from the copy: {where.stdout or where.stderr}", file=sys.stderr)
        sys.exit(2)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode, time.perf_counter() - start


def main():
    errors = check_snippets()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    files = suite_files()
    with tempfile.TemporaryDirectory(prefix="stirnum-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        code, seconds = run_suite(tree, files)
        if code != 0:
            print(f"the unmutated tree fails its tests (pytest exit {code})", file=sys.stderr)
            return 2
        print(f"unmutated tree passes in {seconds:.0f} s", flush=True)
        survivors = []
        for label, path, snippet, replacement in MUTANTS:
            source = (ROOT / path).read_text()
            (tree / path).write_text(source.replace(snippet, replacement))
            try:
                code, seconds = run_suite(tree, files)
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
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
