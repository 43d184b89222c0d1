"""The skew and dual-skew end-level counts and the average register number as
they were before they read a band of kernel rows, kept as oracles.

`old_skew_sj_coeff` takes a dot product of `old_lambda_prime_x8` with a
full trinomial row per count, and `old_dual_skew_coeff` one of `old_mu`
with a row read through `trinomial`, so a ladder of counts costs a row per
rung.  `old_horton_avg_reg` reads its row through two `vpow_coeff` calls
per even m.  The bodies are kept verbatim.
"""

from fractions import Fraction
from functools import lru_cache

from latticepaths.combinat import binomial, trinomial, trinomial_row
from latticepaths.treeseries import _unary_binary_kernel, unary_binary_count


@lru_cache(maxsize=None)
def old_lambda_prime_x8(j: int, i: int) -> int:
    """8 * lambda'_{j;i}, an integer."""
    return 2 ** i * (3 * binomial(-j, i) + 5 * binomial(1 - j, i)
                     + binomial(2 - j, i) - binomial(3 - j, i))


def old_skew_sj_coeff(n: int, j: int) -> int:
    """[z^n] of skew paths ending at level j, by trinomial extraction:
    sum_i lambda'_{j;i} * tri(m+j-1, 3, m-i) with m = (n-j)/2."""
    if j < 0:
        raise ValueError("level j must be >= 0")
    if n < j or (n - j) % 2:
        return 0
    m = (n - j) // 2
    if m == 0:
        return 1
    row = trinomial_row(m + j - 1, 3)
    total = 0
    for i in range(max(0, m + 1 - len(row)), m + 1):  # tri(., 3, k) = 0 past the row
        lam8 = old_lambda_prime_x8(j, i)
        if lam8:
            total += lam8 * row[m - i]
    assert total % 8 == 0
    return total // 8


def old_mu(j: int, k: int) -> int:
    # the k > j+i binomials vanish, so 2**(j+i-k) is only formed when safe
    total = 0
    for c, top in ((3, j), (-7, j + 1), (5, j + 2), (-1, j + 3)):
        b = binomial(top, k)
        if b:
            total += c * b * 2 ** (top - k)
    return total


def old_dual_skew_coeff(n: int, j: int) -> int:
    """[z^n] of dual skew paths ending at level j via trinomial extraction."""
    if j < 0:
        raise ValueError("level j must be >= 0")
    if n < j or (n - j) % 2:
        return 0
    N = (n - j) // 2
    if N == 0:
        return 2 ** j
    total = 0
    for k in range(min(N, j + 3) + 1):
        total += old_mu(j, k) * trinomial(N - 1, 3, N - k)
    return total


def old_horton_avg_reg(n: int, a: int) -> Fraction:
    """Exact average register number over all n-node trees."""
    if n < 1:
        raise ValueError("n must be >= 1")
    kern = _unary_binary_kernel(a)
    total = 0
    for m in range(2, n + 2, 2):
        v2 = (m & -m).bit_length() - 1
        diff = kern.vpow_coeff(n, m - 1)
        if m + 1 <= n:
            diff -= kern.vpow_coeff(n, m + 1)
        total += v2 * diff
    return Fraction(total, unary_binary_count(n, a))
