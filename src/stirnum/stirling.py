"""Stirling numbers of both kinds and the coefficient families built on them.

The working path for both kinds is the triangular recurrence, memoized in a
shared append-only table.  The explicit alternating sum (second kind) and
the bordered determinant M_j(k, i) (first kind) are kept as independent
routes so each can cross-check the other.  M_j(k, i) is Hessenberg once
its first column is moved last, so its determinant takes an O(j**2)
integer recurrence.

Conventions: S(n, k) is the second kind (set partitions of n labelled
elements into k blocks); s(n, k) is the signed first kind, with
sum_k s(n, k) x**k equal to the falling factorial x(x-1)...(x-n+1).
Both satisfy S(0, 0) = s(0, 0) = 1 and vanish outside 0 <= k <= n.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import List, Tuple

from .errors import ConsistencyError, DomainError

__all__ = [
    "StirlingTable",
    "stirling2",
    "stirling1",
    "stirling2_explicit",
    "lambda_coeff",
    "mu_coeff",
    "m_determinant",
    "a_coeff",
    "b_coeff",
    "verify_first_kind_determinant_relation",
]


class StirlingTable:
    """Rows of a Stirling triangle, grown on demand and never mutated after.

    kind "second": S(n, k) = k*S(n-1, k) + S(n-1, k-1)
    kind "first":  s(n, k) = s(n-1, k-1) - (n-1)*s(n-1, k)

    Rows are only ever appended, as tuples.  The table is not locked: grow
    it from one thread at a time.
    """

    def __init__(self, kind: str):
        if kind not in ("second", "first"):
            raise ValueError(f"kind must be 'second' or 'first', got {kind!r}")
        self.kind = kind
        self._rows: List[Tuple[int, ...]] = [(1,)]

    def value(self, n: int, k: int) -> int:
        if n < 0:
            raise DomainError(f"Stirling numbers need n >= 0, got n={n}")
        if k < 0 or k > n:
            return 0
        if n >= len(self._rows):
            self._grow(n)
        return self._rows[n][k]

    def row(self, n: int) -> Tuple[int, ...]:
        """The stored row n, entries k = 0..n, grown to if needed."""
        if n < 0:
            raise DomainError(f"Stirling numbers need n >= 0, got n={n}")
        if n >= len(self._rows):
            self._grow(n)
        return self._rows[n]

    def _grow(self, n: int) -> None:
        while len(self._rows) <= n:
            m = len(self._rows)
            prev = self._rows[m - 1]
            row = [0] * (m + 1)
            if self.kind == "second":
                for k in range(1, m):
                    row[k] = k * prev[k] + prev[k - 1]
            else:
                for k in range(1, m):
                    row[k] = prev[k - 1] - (m - 1) * prev[k]
            row[m] = 1
            self._rows.append(tuple(row))


_SECOND = StirlingTable("second")
_FIRST = StirlingTable("first")


def stirling2(n: int, k: int) -> int:
    """S(n, k), second kind, by the memoized recurrence."""
    return _SECOND.value(n, k)


def stirling1(n: int, k: int) -> int:
    """s(n, k), signed first kind, by the memoized recurrence."""
    return _FIRST.value(n, k)


def stirling2_explicit(n: int, k: int) -> int:
    """S(n, k) from the alternating binomial sum, for 1 <= k <= n.

    (1/k!) * sum_{l=1..k} (-1)**(k-l) C(k, l) l**n.  The sum is always
    divisible by k!; a remainder would mean a broken implementation.
    """
    if not 1 <= k <= n:
        raise DomainError(f"explicit sum needs 1 <= k <= n, got n={n}, k={k}")
    total = sum((-1) ** (k - l) * math.comb(k, l) * l**n for l in range(1, k + 1))
    quotient, remainder = divmod(total, math.factorial(k))
    if remainder:
        raise ConsistencyError(
            f"alternating sum for S({n},{k}) not divisible by {k}!"
        )
    return quotient


def _check_coeff_domain(k: int, m: int, m_max: int) -> None:
    if k < 1:
        raise DomainError(f"coefficient families need k >= 1, got k={k}")
    if not 1 <= m <= m_max:
        raise DomainError(f"m must satisfy 1 <= m <= {m_max}, got m={m}")


def lambda_coeff(k: int, m: int) -> int:
    """(-1)**k (m-1)! S(k+1, m) for 1 <= m <= k+1."""
    _check_coeff_domain(k, m, k + 1)
    return (-1) ** k * math.factorial(m - 1) * stirling2(k + 1, m)


def mu_coeff(k: int, m: int) -> int:
    """(-1)**(m-1) (m-1)! S(k+1, m) for 1 <= m <= k+1."""
    _check_coeff_domain(k, m, k + 1)
    return (-1) ** (m - 1) * math.factorial(m - 1) * stirling2(k + 1, m)


@functools.lru_cache(maxsize=1024)
def m_determinant(j: int, k: int, i: int) -> Fraction:
    """Determinant of the j x j bordered matrix M_j(k, i).

    Row r (1-based) has first column C(k, i+r-1) / (i+r-2)! and, for
    column c >= 2, the entry S(i+c-1, i+r-1), which is 0 for r > c and 1
    for r = c.  Moving the first column last (sign (-1)**(j-1)) gives an
    upper Hessenberg h with unit subdiagonal and h[r][c] = S(i+c, i+r-1)
    for c < j.  Its leading minors D_0 = 1, D_c = sum_{r<=c} (-1)**(c-r)
    h[r][c] D_{r-1} are kept as the ints E_c = (-1)**c D_c, which drops
    the signs: E_c = -sum_{r<=c} h[r][c] E_{r-1}, and det M = (-1)**(j-1)
    D_j = sum_{r<=j} h[r][j] E_{r-1}.  Only that last column is rational;
    it is summed over the common denominator (i+j-2)!.

    The latest 1024 distinct values are kept: every identity check at
    index k asks for the same k determinants again.  The identity weights
    up to k = 48 read values of at most 303 bits, so a cache of those
    takes about 0.3 MB; an ``mdet`` query with larger arguments keeps a
    value as long as the one it prints.
    """
    if j < 1 or k < 1 or i < 1:
        raise DomainError(f"m_determinant needs j, k, i >= 1, got ({j}, {k}, {i})")
    minors = [1]
    for c in range(1, j):
        minors.append(-sum(stirling2(i + c, i + r - 1) * minors[r - 1] for r in range(1, c + 1)))
    top = i + j - 2
    # h[r][j] = C(k, i+r-1) * (top! / (i+r-2)!) / top!
    numerator = sum(
        math.comb(k, i + r - 1) * math.perm(top, j - r) * minors[r - 1] for r in range(1, j + 1)
    )
    return Fraction(numerator, math.factorial(top))


def a_coeff(k: int, m: int) -> Fraction:
    """(-1)**(m*m+1) M_{k-m+1}(k, m) for 1 <= m <= k."""
    _check_coeff_domain(k, m, k)
    return (-1) ** (m * m + 1) * m_determinant(k - m + 1, k, m)


def b_coeff(k: int, m: int) -> Fraction:
    """(-1)**(k-m) a_coeff(k, m) for 1 <= m <= k."""
    _check_coeff_domain(k, m, k)
    return (-1) ** (k - m) * a_coeff(k, m)


def verify_first_kind_determinant_relation(n: int, k: int) -> bool:
    """Check s(n, k) == (-1)**(n + k*k) (n-1)! M_{n-k+1}(n, k) exactly."""
    if not 1 <= k <= n:
        raise DomainError(f"relation needs 1 <= k <= n, got n={n}, k={k}")
    lhs = Fraction(stirling1(n, k))
    rhs = (-1) ** (n + k * k) * math.factorial(n - 1) * m_determinant(n - k + 1, n, k)
    return lhs == rhs
