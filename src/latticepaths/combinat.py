"""Exact integer primitives shared by the formula catalogs.

Everything here is exact: Python integers only.  The binomial
coefficient is extended to negative upper index by the usual reflection, which
several coefficient-extraction formulas rely on.
"""

from __future__ import annotations

import math
from functools import lru_cache


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = (-1)^k C(k-n-1, k) for n < 0."""
    if k < 0:
        return 0
    if n < 0:
        return (-1) ** k * math.comb(k - n - 1, k)
    if k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def _trinomial_row(n: int, b: int) -> tuple:
    # Coefficients of (1 + b*t + t^2)^n, degrees 0..2n, via the holonomic
    # recurrence (j+1) T(j+1) = b (n-j) T(j) + (2n-j+1) T(j-1).
    if n == 0:
        return (1,)
    row = [0] * (2 * n + 1)
    row[0] = 1
    for j in range(0, 2 * n):
        prev = row[j - 1] if j >= 1 else 0
        val = b * (n - j) * row[j] + (2 * n - j + 1) * prev
        q, r = divmod(val, j + 1)
        assert r == 0
        row[j + 1] = q
    return tuple(row)


def trinomial(n: int, a: int, k: int) -> int:
    """Coefficient of t^k in (1 + a*t + t^2)^n for n >= 0 and an int middle weight a."""
    if not isinstance(a, int):
        raise TypeError(f"trinomial needs an int middle weight, got {type(a).__name__}")
    if n < 0:
        raise ValueError("trinomial needs n >= 0")
    if k < 0 or k > 2 * n:
        return 0
    if k > n:
        k = 2 * n - k  # symmetry, keeps cached rows short on the right end
    return _trinomial_row(n, a)[k]


def trinomial_row(n: int, a: int) -> tuple:
    """Full coefficient row of (1 + a*t + t^2)^n as a tuple of ints."""
    if n < 0:
        raise ValueError("trinomial_row needs n >= 0")
    return _trinomial_row(n, a)


def divisor_count(h: int) -> int:
    """Number of divisors of h >= 1."""
    if h < 1:
        raise ValueError("divisor_count needs h >= 1")
    count = 1
    d = 2
    while d * d <= h:
        if h % d == 0:
            e = 0
            while h % d == 0:
                h //= d
                e += 1
            count *= e + 1
        d += 1
    if h > 1:
        count *= 2
    return count


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def motzkin_numbers(upto: int, colors: int = 1) -> list:
    """Counts of Motzkin paths of length 0..upto with `colors` horizontal colors.

    m[n] = colors*m[n-1] + sum_k m[k] m[n-2-k].
    """
    m = [1]
    for n in range(1, upto + 1):
        val = colors * m[n - 1]
        for k in range(0, n - 1):
            val += m[k] * m[n - 2 - k]
        m.append(val)
    return m


def a002212_terms(upto: int) -> list:
    """1, 1, 3, 10, 36, ...: term n counts 3-Motzkin paths of length n-1 (term 0 is 1)."""
    m3 = motzkin_numbers(max(upto - 1, 0), colors=3)
    return [1] + m3[:upto]
