"""The skew and dual-skew end-level counts and the average register number as
they were before they read a band of kernel rows, kept as oracles.

`old_skew_sj_coeff` takes a dot product of `old_lambda_prime_x8` with a
full trinomial row per count, and `old_dual_skew_coeff` one of `old_mu`
with a row read through `trinomial`, so a ladder of counts costs a row per
rung.  `old_horton_avg_reg` reads its row through two `vpow_coeff` calls
per even m.  `old_marked_height_total` is the height sum of marked trees as
one transposed Horner pass over the extraction vector: every power of R runs
over all n entries, and every term adds a shifted copy of d, read through
2n `vpow_coeff` calls.  `old_marked_leaf_total`, `old_retakh_leaf_total` (with
its hand-reduced weights), `old_amp_layer_coeff` and `old_amplitude_total`
are the closed forms as they were before each stated its v-form as terms for
one `Kernel.coeff` call: a trinomial pair, a weighted sum against row n - 2,
a second difference on row n, and n separate `vpow_coeff` calls.
`old_ubar_power`, `old_deng_mansour_count`, `old_last_downrun_total` and
`old_hoppy_negative_coeff` are the k-Dyck closed forms as they were before
they read int Fuss-Catalan coefficients: Fraction sums asserted integral.
The bodies are kept verbatim.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add

from latticepaths.combinat import binomial, divisor_count, trinomial, trinomial_row
from latticepaths.pathseries import _MOTZKIN
from latticepaths.series import PowerSeries
from latticepaths.treeseries import _MARKED, _unary_binary_kernel, marked_count, unary_binary_count


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


def old_marked_height_total(n: int) -> int:
    """Total height (in nodes) over all marked trees on n nodes.

    Sums a_n and [z^n] of every tail layer of :func:`marked_height_tail`.
    With R = (v+2)/(1+2v) each layer expands geometrically,
    tail_h = z(1 - v^2) sum_j v^(h+(h+1)j) R^((h-1)(j+1)), and
    [z^n] z G(v) = sum_k g_k [z^(n-1)] v^k (Lagrange-Buermann), so only the
    terms with h+(h+1)j <= n-1 contribute.

    The sum is sum_p <R^p 1, y_p>, where y_p adds d shifted down by every
    exponent e whose term carries R^p.  It is taken by Horner's rule on the
    transposed map, z <- R^T z + y_p for p from high to low, and read off as
    z[0]; R^T is the step of R run from the top index down, so the whole sum
    is big-integer additions and doublings, with no big-by-big product.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = n - 1
    # d[k] = [z^m] (1 - v^2) v^k
    d = [_MARKED.vpow_coeff(m, k) - _MARKED.vpow_coeff(m, k + 2) for k in range(m + 1)]
    # v-exponents e = h + (h+1)j of the terms, grouped by their power of R
    by_power: dict = {}
    for h in range(1, m + 1):
        for e in range(h, m + 1, h + 1):
            by_power.setdefault((h - 1) * ((e + 1) // (h + 1)), []).append(e)
    z = [0] * (m + 1)
    for p in range(max(by_power, default=-1), -1, -1):
        # z <- R^T z with R = (v+2)/(1+2v): c_i = 2 z_i + z_(i+1) - 2 c_(i+1)
        prev_z = prev_c = 0
        for i in range(m, -1, -1):
            prev_z, z[i] = z[i], 2 * z[i] + prev_z - 2 * prev_c
            prev_c = z[i]
        for e in by_power.get(p, ()):
            z[:m + 1 - e] = map(add, z, d[e:])
    return marked_count(n) + z[0]


def old_marked_leaf_total(n: int) -> int:
    """Total leaves over all marked trees on n nodes: [z^n] z/(1-v) under
    z = v/(1+3v+v^2), extracted as a pair of trinomials."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    m = n - 1
    return trinomial(m - 1, 3, m) + trinomial(m - 1, 3, m - 1)


_RETAKH_LEAF_W = [1, 1, 1, 2, 0, -1]


def old_retakh_leaf_total(n: int) -> int:
    """[z^n] of :func:`retakh_leaf_series` by trinomial extraction."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    return sum(c * trinomial(n - 2, 1, n - 1 - i)
               for i, c in enumerate(_RETAKH_LEAF_W) if c)


def old_amp_layer_coeff(n: int, E: int) -> int:
    """[z^n] of the E-layer, extracted against one trinomial row."""
    total = 0
    kE = E
    while kE <= n + 2:
        total -= (trinomial(n, 1, n + 2 - kE) - 2 * trinomial(n, 1, n - kE)
                  + trinomial(n, 1, n - 2 - kE))
        kE += E
    return total


def old_amplitude_total(n: int) -> int:
    """Sum of amplitudes over all closed Motzkin paths of length n.

    Extracted from [Q(1-v^2) D(v) - v(1+2v) Q]/v^2 with D the divisor-count
    generating function; the numerator reduces to the convolution below.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    d = [0] + [divisor_count(m) for m in range(1, n + 3)]

    def a(jj: int) -> int:
        val = sum(sign * d[i] for sign, i in ((1, jj), (1, jj - 1), (-1, jj - 3), (-1, jj - 4))
                  if 1 <= i <= n + 2)
        return val - {1: 1, 2: 3, 3: 3, 4: 2}.get(jj, 0)

    total = 0
    for j in range(n + 1):
        hj = a(j + 2)
        if hj:
            total += hj * _MOTZKIN.vpow_coeff(n, j)
    return total


def old_ubar_power(d: int, k: int, order: int) -> PowerSeries:
    """d-th power of :func:`ubar` via C(d-1+(k+1)l, l) * d / (kl+d)."""
    if d < 1:
        raise ValueError("power d must be >= 1")
    if k < 1:
        raise ValueError("rise height k must be >= 1")
    coeffs = [Fraction(binomial(d - 1 + (k + 1) * l, l) * d, k * l + d)
              for l in range(order + 1)]
    return PowerSeries("z", coeffs, order)


def old_fuss_catalan(l: int, k: int) -> Fraction:
    return Fraction(binomial(1 + l * (k + 1), l), 1 + l * (k + 1))


def old_deng_mansour_count(n_up: int, j: int, k: int) -> int:
    """Closed-form count of paths with n_up rises of +k ending at level j > 0
    with their last step a rise (never having left level >= 0).

    Equals [z^(n_up - 1)] (S_{j-k} * ubar - S_{j-k-1}); zero whenever j < k
    or j exceeds k*n_up.
    """
    if n_up < 1:
        raise ValueError("need at least one rise")
    if k < 1:
        raise ValueError("rise height k must be >= 1")
    if j < k or j > k * n_up:
        return 0
    n = n_up - 1
    jj = j - k
    total = Fraction(0)
    for m in range(min(n, jj // (k + 1)) + 1):
        c = (-1) ** m * binomial(jj - k * m, m)
        if c:
            total += c * old_fuss_catalan(n - m, k)
    assert total.denominator == 1
    return int(total)


def old_last_downrun_total(m: int, k: int) -> int:
    """Total length of the final fall run, summed over all closed paths with
    m rises of +k (equivalently: total end level of paths with m rises whose
    last step is a rise).  Equals the difference of consecutive ubar
    coefficients."""
    if m < 0:
        raise ValueError("m must be >= 0")
    val = old_fuss_catalan(m + 1, k) - old_fuss_catalan(m, k)
    assert val.denominator == 1
    return int(val)


def old_hoppy_negative_coeff(l: int, k: int) -> int:
    """Closed form for one coefficient of :func:`hoppy_negative_series`."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if k < 1:
        raise ValueError("rise height k must be >= 1")
    val = Fraction(2 * binomial(1 + (k + 1) * (l + 1), l + 1), k * (l + 1) + 2) \
        - Fraction(4 * binomial(1 + (k + 1) * l, l), k * l + 2)
    assert val.denominator == 1
    return int(val)
