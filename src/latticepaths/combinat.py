"""Exact integer primitives shared by the formula catalogs.

Everything here is exact: Python integers only.  The binomial
coefficient is extended to negative upper index by the usual reflection, which
several coefficient-extraction formulas rely on.

The sequences are linear per row or term.  A trinomial row is cached as its
half up to the centre; it is one pass of (1 + bt + t^2) over the cached row
below it when that exists, and otherwise the holonomic recurrence stopped at
the centre.  A ladder of counts that each read a few entries at a fixed
distance from the centre of their row reads them off one band of
Q^M (1 + 2t)^(-e), Q = 1 + 3t + t^2, slid from row to row in constant work.
Motzkin numbers follow their three-term P-recurrence.  Every quotient that
must be exact, here and in the closed forms of the other modules, goes through
``_exact_div``, which raises ArithmeticError on a remainder.
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = (-1)^k C(k-n-1, k) for n < 0."""
    if k < 0:
        return 0
    if n < 0:
        return (-1) ** k * math.comb(k - n - 1, k)
    if k > n:
        return 0
    return math.comb(n, k)


def _exact_div(a: int, b: int) -> int:
    """a / b for ints that b divides; raises ArithmeticError otherwise."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact division by {b}")
    return q


# (n, b) -> half row T(n, b, 0..n) of (1 + b*t + t^2)^n; the other half
# follows from the symmetry T(n, b, k) = T(n, b, 2n - k).
_HALF_ROWS: dict = {}


def _half_row(n: int, b: int) -> list:
    row = _HALF_ROWS.get((n, b))
    if row is not None:
        return row
    p = _HALF_ROWS.get((n - 1, b))
    if n == 0:
        row = [1]
    elif p is not None:
        # multiply the cached row n-1 by 1 + b*t + t^2; its centre term
        # T(n-1, n) is T(n-1, n-2) by symmetry
        q = [0, 0] + p  # q[k] = T(n-1, k-2)
        row = [p[k] + b * q[k + 1] + q[k] for k in range(n)]
        row.append(b * p[n - 1] + 2 * q[n])
    else:
        # holonomic recurrence (j+1) T(j+1) = b (n-j) T(j) + (2n-j+1) T(j-1),
        # stopped at the centre
        row = [1] * (n + 1)
        prev = 0
        for j in range(n):
            row[j + 1] = _exact_div(b * (n - j) * row[j] + (2 * n - j + 1) * prev, j + 1)
            prev = row[j]
    _HALF_ROWS[(n, b)] = row
    return row


def _kernel_band(lo: int, hi: int, e: int):
    """Yield [h_M(M+lo), ..., h_M(M+hi)] for M = 0, 1, 2, ..., where
    h_M(s) = [t^s] Q^M (1 + 2t)^(-e) and Q = 1 + 3t + t^2.

    Every row is the same list, updated in place: read it before advancing.
    Row M+1 is Q times row M, so it needs row M one entry past each end;
    those two come from the first-order ODE (1 + 2t) Q H' = (M(1 + 2t) Q' - 2eQ) H,
    (s+1) h(s+1) = (3M - 2e - 5s) h(s) + (8M - 6e - 7(s-1)) h(s-1)
                   + 2(2M - e - s + 2) h(s-2),
    solved for h(s+1) at the top and for h(s-2) at the bottom.  Needs
    hi - lo >= 2, and lo <= -e so that the bottom divisor never vanishes.
    """
    b = [binomial(-e, s) * 2 ** s if s >= 0 else 0 for s in range(lo, hi + 1)]
    w = hi - lo
    # the recurrence's coefficients at the two ends, each linear in M
    ta, tb, tc = -2 * e - 5 * hi, -6 * e - 7 * (hi - 1), 2 - e - hi
    bd, bf, bg = 1 - e - lo, 2 * e + 5 * (lo + 1), -6 * e - 7 * lo
    M = 0
    while True:
        yield b
        # the recurrence at s = M + hi for the top and at s = M + lo + 1 for the
        # bottom; it holds, and gives 0, at entries below position 0, and only
        # h(0) = 1, where the top divisor vanishes, needs its own value
        top = 1 if M + hi == -1 else _exact_div(
            (ta - 2 * M) * b[w] + (M + tb) * b[w - 1] + 2 * (M + tc) * b[w - 2], M + hi + 1)
        prev = _exact_div((M + lo + 2) * b[2] + (2 * M + bf) * b[1] - (M + bg) * b[0],
                          2 * (M + bd))
        for k in range(w):
            cur = b[k]
            b[k] = b[k + 1] + 3 * cur + prev
            prev = cur
        b[w] = top + 3 * b[w] + prev
        M += 1


def trinomial(n: int, a: int, k: int) -> int:
    """Coefficient of t^k in (1 + a*t + t^2)^n for n >= 0 and an int middle weight a."""
    if not isinstance(a, int):
        raise TypeError(f"trinomial needs an int middle weight, got {type(a).__name__}")
    if n < 0:
        raise ValueError("trinomial needs n >= 0")
    if k < 0 or k > 2 * n:
        return 0
    if k > n:
        k = 2 * n - k
    return _half_row(n, a)[k]


def trinomial_row(n: int, a: int) -> tuple:
    """Full coefficient row of (1 + a*t + t^2)^n as a tuple of 2n + 1 ints."""
    if n < 0:
        raise ValueError("trinomial_row needs n >= 0")
    half = _half_row(n, a)
    return tuple(half + half[-2::-1])


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
    return _exact_div(math.comb(2 * n, n), n + 1)


def motzkin_numbers(upto: int, colors: int = 1) -> list:
    """Counts of Motzkin paths of length 0..upto with `colors` horizontal colors.

    With c = colors the counts are P-recursive:
    (n+2) m[n] = c(2n+1) m[n-1] - (c^2-4)(n-1) m[n-2], from m[0] = 1, m[1] = c.
    """
    m = [1]
    if upto >= 1:
        m.append(colors)
    c2 = colors * colors - 4
    for n in range(2, upto + 1):
        m.append(_exact_div(colors * (2 * n + 1) * m[n - 1] - c2 * (n - 1) * m[n - 2], n + 2))
    return m


def a002212_terms(upto: int) -> list:
    """1, 1, 3, 10, 36, ...: term n counts 3-Motzkin paths of length n-1 (term 0 is 1)."""
    m3 = motzkin_numbers(max(upto - 1, 0), colors=3)
    return [1] + m3[:upto]
