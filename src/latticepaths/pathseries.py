"""Closed forms and generating functions for the path families.

Every quantity here is exact: coefficients are integers or Fractions, and
each generating function comes with at least one independent route (kernel
substitution, explicit coefficient formula, or determinant recursion) so the
test suite can cross-check them against brute-force enumeration.

Conventions used throughout:

* Families supported on even powers of z (skew and dual-skew paths) are
  computed internally in x = z^2 and re-interleaved on output.
* The kernel substitutions are always of the shape outer = v / Q(v) with Q
  = 1 + bv + v^2.  Closed v-forms are evaluated by Lagrange extraction
  against one trinomial row per coefficient (:class:`~.series.Kernel`),
  never by inverting the substitution and composing.
* The empty path has height 0, no horizontal step, amplitude 0, and is
  counted by the h = 0 "no horizontal at the top" class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .combinat import binomial, divisor_count, motzkin_numbers, trinomial, trinomial_row
from .series import Kernel, MarkerPoly, PowerSeries

_ONE = Fraction(1)
# z = v/(1 + v + v^2) for Motzkin-type paths; x = v/(1 + 3v + v^2) shared by
# skew, dual-skew and marked-tree counting
_MOTZKIN = Kernel(1)
_SKEW = Kernel(3, "x")


# ----------------------------------------------------------------------
# Paths with unit falls and rises of height k (closed nonnegative paths)
# ----------------------------------------------------------------------

def ubar(k: int, order: int) -> PowerSeries:
    """Root of u = 1 + z*u^(k+1) analytic at 0; counts closed paths by rises.

    The coefficient of z^l is the Fuss-Catalan number
    C(1 + l(k+1), l) / (1 + l(k+1)).
    """
    if k < 1:
        raise ValueError("rise height k must be >= 1")
    coeffs = [Fraction(binomial(1 + l * (k + 1), l), 1 + l * (k + 1))
              for l in range(order + 1)]
    return PowerSeries("z", coeffs, order)


def ubar_power(d: int, k: int, order: int) -> PowerSeries:
    """d-th power of :func:`ubar` via C(d-1+(k+1)l, l) * d / (kl+d)."""
    if d < 1:
        raise ValueError("power d must be >= 1")
    if k < 1:
        raise ValueError("rise height k must be >= 1")
    coeffs = [Fraction(binomial(d - 1 + (k + 1) * l, l) * d, k * l + d)
              for l in range(order + 1)]
    return PowerSeries("z", coeffs, order)


def denom_Sj(j: int, k: int, order: Optional[int] = None) -> PowerSeries:
    """The polynomial S_j = [u^j] 1/(1 - u + z u^(k+1)).

    S_j = sum_m (-1)^m C(j - km, m) z^m with ordinary binomials, a polynomial
    of degree <= j/(k+1).  S_j = 0 for j < 0; S_0 = ... = S_k = 1, and
    S_j - S_{j-1} + z S_{j-k-1} = 0.
    """
    if k < 1:
        raise ValueError("rise height k must be >= 1")
    if j < 0:
        return PowerSeries("z", [0], 0 if order is None else order)
    deg = j // (k + 1)
    coeffs = [(-1) ** m * binomial(j - k * m, m) for m in range(deg + 1)]
    return PowerSeries("z", coeffs, deg if order is None else order)


def _fuss_catalan(l: int, k: int) -> Fraction:
    return Fraction(binomial(1 + l * (k + 1), l), 1 + l * (k + 1))


def deng_mansour_count(n_up: int, j: int, k: int) -> int:
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
            total += c * _fuss_catalan(n - m, k)
    if n <= (jj - 1) // (k + 1):
        total -= (-1) ** n * binomial(jj - 1 - k * n, n)
    assert total.denominator == 1
    return int(total)


def last_downrun_total(m: int, k: int) -> int:
    """Total length of the final fall run, summed over all closed paths with
    m rises of +k (equivalently: total end level of paths with m rises whose
    last step is a rise).  Equals the difference of consecutive ubar
    coefficients."""
    if m < 0:
        raise ValueError("m must be >= 0")
    val = _fuss_catalan(m + 1, k) - _fuss_catalan(m, k)
    assert val.denominator == 1
    return int(val)


def hoppy_early_total(m: int, k: int) -> int:
    """Total length of the fall run directly after the first rise, summed
    over closed paths with m + 1 rises of +k: k/(m+1) * C((k+1)m, m)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    num = k * binomial((k + 1) * m, m)
    assert num % (m + 1) == 0
    return num // (m + 1)


def hoppy_negative_series(k: int, order: int) -> PowerSeries:
    """Total length of the final fall run over paths that may dip one level
    below ground (floor -1) and end at 0, by number of rises:
    (ubar^2 - 1)/z - 2 ubar^2."""
    u2 = ubar_power(2, k, order + 1)
    return (u2 - 1).shift(-1) - 2 * u2.truncate(order)


def hoppy_negative_coeff(l: int, k: int) -> int:
    """Closed form for one coefficient of :func:`hoppy_negative_series`."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if k < 1:
        raise ValueError("rise height k must be >= 1")
    val = Fraction(2 * binomial(1 + (k + 1) * (l + 1), l + 1), k * (l + 1) + 2) \
        - Fraction(4 * binomial(1 + (k + 1) * l, l), k * l + 2)
    assert val.denominator == 1
    return int(val)


# ----------------------------------------------------------------------
# Skew paths (up, down, and red left-down steps; even support)
# ----------------------------------------------------------------------

def _W_x(order: int) -> PowerSeries:
    """sqrt(1 - 6x + 5x^2) as an x-series."""
    return PowerSeries("x", [1, -6, 5]).pad(order).sqrt()


def _interleave(xseries, j: int, order: int) -> PowerSeries:
    """Spread the x-series xseries(j, xorder) onto powers z^(j + 2m)."""
    if j < 0:
        raise ValueError("level j must be >= 0")
    coeffs: List[MarkerPoly] = [MarkerPoly()] * (order + 1)
    if order >= j:
        xser = xseries(j, (order - j) // 2)
        coeffs[j::2] = xser.coeffs
    return PowerSeries("z", coeffs, order)


def _shat_x(j: int, xorder: int) -> PowerSeries:
    """x-series of s_j / z^j: equals (1+v) (Q/(1+2v))^j with Q = 1+3v+v^2."""
    Q = PowerSeries("v", [1, 3, 1]).pad(xorder)
    base = PowerSeries("v", [1, 1]).pad(xorder)
    ratio = (Q / PowerSeries("v", [1, 2]).pad(xorder)) ** j
    return _SKEW.eval(base * ratio, xorder)


def skew_sj_series(j: int, order: int) -> PowerSeries:
    """z-series of skew paths ending at level j (support on z^(j+2m))."""
    return _interleave(_shat_x, j, order)


@lru_cache(maxsize=None)
def _lambda_prime_x8(j: int, i: int) -> int:
    """8 * lambda'_{j;i}, an integer."""
    return 2 ** i * (3 * binomial(-j, i) + 5 * binomial(1 - j, i)
                     + binomial(2 - j, i) - binomial(3 - j, i))


def skew_sj_coeff(n: int, j: int) -> int:
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
        lam8 = _lambda_prime_x8(j, i)
        if lam8:
            total += lam8 * row[m - i]
    assert total % 8 == 0
    return total // 8


def skew_open_ended(order: int) -> PowerSeries:
    """Skew paths with free endpoint: sum_j s_j, directly as
    (3 - 3z^2 - W)/(2(P - z)) with W = sqrt(1-6z^2+5z^4), P = (1+z^2+W)/2."""
    W = PowerSeries("z", [1, 0, -6, 0, 5]).pad(order).sqrt()
    z2 = PowerSeries("z", [0, 0, 1]).pad(order)
    P = (1 + z2 + W) * Fraction(1, 2)
    num = 3 - 3 * z2 - W
    den = 2 * (P - PowerSeries.identity("z", order))
    return num / den


def skew_red_series(order: int) -> PowerSeries:
    """Closed skew paths by half-length (x = z^2) and red steps (marker w):
    (1 - wx - W_w)/(2x), W_w = sqrt(1 - (4+2w)x + (4w+w^2)x^2)."""
    w = MarkerPoly.var("w")
    W = PowerSeries("x", [1, -(4 + 2 * w), 4 * w + w * w]).pad(order + 1).sqrt()
    num = PowerSeries("x", [1, -w]).pad(order + 1) - W
    return num.shift(-1) * Fraction(1, 2)


def skew_red_total_series(order: int) -> PowerSeries:
    """Total red steps over closed skew paths of length 2n, as an x-series:
    (-1 + 6x - 5x^2 + (1-3x) W)/(2 (1-x)(1-5x))."""
    W = _W_x(order)
    num = PowerSeries("x", [-1, 6, -5]).pad(order) + PowerSeries("x", [1, -3]).pad(order) * W
    den = 2 * PowerSeries("x", [1, -6, 5]).pad(order)
    return num / den


def skew_red_fixed_power(kred: int, order: int) -> PowerSeries:
    """x-series of closed skew paths with exactly kred red steps (kred <= 4).

    The closed forms collapse to Catalan-type expressions in sqrt(1-4x).
    """
    root = PowerSeries("x", [1, -4]).pad(order + 1).sqrt()
    x = PowerSeries.identity("x", order)
    if kred == 0:
        return (1 - root).shift(-1) * Fraction(1, 2)
    root = root.truncate(order)
    if kred == 1:
        return (1 - 2 * x - root) / (2 * root)
    if kred == 2:
        return x ** 3 * root ** (-3)
    if kred == 3:
        return x ** 4 * PowerSeries("x", [1, -2]).pad(order) * root ** (-5)
    if kred == 4:
        return x ** 5 * PowerSeries("x", [1, -4, 5]).pad(order) * root ** (-7)
    raise ValueError("closed forms are tabulated for 0 <= kred <= 4 only")


# ----------------------------------------------------------------------
# Dual skew paths (up, down, and blue left-up steps; even support)
# ----------------------------------------------------------------------

def _ghat_x(j: int, xorder: int) -> PowerSeries:
    """x-series of G_j / z^j: equals (1+v)(2+v)^j under x = v/(1+3v+v^2)."""
    base = PowerSeries("v", [1, 1]).pad(xorder)
    pw = PowerSeries("v", [2, 1]).pad(xorder) ** j
    return _SKEW.eval(base * pw, xorder)


def dual_skew_Gj_series(j: int, order: int) -> PowerSeries:
    """z-series of dual skew paths ending at level j (support z^(j+2N))."""
    return _interleave(_ghat_x, j, order)


def _mu(j: int, k: int) -> int:
    # the k > j+i binomials vanish, so 2**(j+i-k) is only formed when safe
    total = 0
    for c, top in ((3, j), (-7, j + 1), (5, j + 2), (-1, j + 3)):
        b = binomial(top, k)
        if b:
            total += c * b * 2 ** (top - k)
    return total


def dual_skew_coeff(n: int, j: int) -> int:
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
        total += _mu(j, k) * trinomial(N - 1, 3, N - k)
    return total


def dual_open_ended(order: int) -> PowerSeries:
    """Dual skew paths with free endpoint:
    (3z^2 - 3 + W)/(4z - 1 - z^2 - 2z^3 - W)."""
    W = PowerSeries("z", [1, 0, -6, 0, 5]).pad(order).sqrt()
    num = PowerSeries("z", [-3, 0, 3]).pad(order) + W
    den = PowerSeries("z", [-1, 4, -1, -2]).pad(order) - W
    return num / den


# ----------------------------------------------------------------------
# Height-bounded Motzkin paths and the amplitude statistic
# ----------------------------------------------------------------------

def motzkin_det(n: int, order: int, star: bool = False) -> PowerSeries:
    """Banded determinant D_n (or the top-row-trimmed D*_n when star=True).

    D_n = (1-z) D_{n-1} - z^2 D_{n-2} with D_0 = 1, D_1 = 1-z;
    D*_n = D_{n-1} - z^2 D_{n-2} with D_{-1} = 0 and D*_0 = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev = PowerSeries("z", [0]).pad(order)  # D_{-1}
    cur = PowerSeries.const("z", 1, order)   # D_0
    zz = PowerSeries("z", [0, 0, 1]).pad(order)
    omz = PowerSeries("z", [1, -1]).pad(order)
    if not star:
        for _ in range(n):
            prev, cur = cur, omz * cur - zz * prev
        return cur
    if n == 0:
        return cur
    for _ in range(n - 1):
        prev, cur = cur, omz * cur - zz * prev
    return cur - zz * prev


def motzkin_bounded(h: int, order: int, variant: str = "all") -> PowerSeries:
    """Motzkin paths of height <= h: D_h/D_{h+1} for variant "all", and
    D*_h/D*_{h+1} for variant "no-top-horizontal" (no flat step at level h)."""
    if h < 0:
        raise ValueError("height bound must be >= 0")
    if variant == "all":
        return motzkin_det(h, order) / motzkin_det(h + 1, order)
    if variant == "no-top-horizontal":
        return motzkin_det(h, order, star=True) / motzkin_det(h + 1, order, star=True)
    raise ValueError(f"unknown variant {variant!r}")


def motzkin_bounded_coeff(n: int, h: int, variant: str = "all") -> int:
    """[z^n] of :func:`motzkin_bounded` extracted against one trinomial row,
    using the closed v-forms Q(1 - v^(2h+2))/(1 - v^(2h+4)) and
    Q(1 - v^(2h+1))/(1 - v^(2h+3))."""
    if h < 0:
        raise ValueError("height bound must be >= 0")
    if variant == "all":
        period, top = 2 * h + 4, 2 * h + 2
    elif variant == "no-top-horizontal":
        period, top = 2 * h + 3, 2 * h + 1
    else:
        raise ValueError(f"unknown variant {variant!r}")
    total = 0
    a = 0
    while a <= n:
        # [z^n] (1 + v + v^2) v^a = [z^n] v^(a+1)/z
        total += _MOTZKIN.vpow_coeff(n + 1, a + 1)
        if a + top <= n:
            total -= _MOTZKIN.vpow_coeff(n + 1, a + top + 1)
        a += period
    return total


def motzkin_height_total(n: int) -> int:
    """Total height over all closed Motzkin paths of length n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    m_n = motzkin_bounded_coeff(n, n)  # unconstrained count
    total = 0
    for h in range(n):
        c = motzkin_bounded_coeff(n, h)
        if c >= m_n:
            break
        total += m_n - c
    return total


@lru_cache(maxsize=None)
def _red_chain(order: int) -> List[int]:
    """Coefficients of 1/sqrt(1 - 6x + 5x^2) by its holonomic recurrence
    (n+1) c_{n+1} = (6n+3) c_n - 5n c_{n-1}."""
    c = [1] * (order + 1)
    if order >= 1:
        c[1] = 3
    for n in range(1, order):
        c[n + 1] = ((6 * n + 3) * c[n] - 5 * n * c[n - 1]) // (n + 1)
    return c


def skew_red_total(n: int) -> int:
    """[x^n] of :func:`skew_red_total_series` without series arithmetic:
    the derivative form collapses to (1 - 3x - W)/(2W), so the coefficient
    is (c_n - 3 c_{n-1})/2 off the 1/W chain."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    c = _red_chain(n)
    val = c[n] - 3 * c[n - 1]
    assert val % 2 == 0
    return val // 2


def _amp_layer_series(E: int, order: int) -> PowerSeries:
    """v-series of -Q(1 - v^2) v^(E-2)/(1 - v^E), the telescoping layer."""
    coeffs = [0] * (order + 1)
    kE = E
    while kE - 2 <= order:
        coeffs[kE - 2] = 1
        kE += E
    geo = PowerSeries("v", coeffs, order)
    pre = PowerSeries("v", [1, 1, 1]).pad(order) * PowerSeries("v", [1, 0, -1]).pad(order)
    return -(pre * geo)


def _amp_layers(h: int, kind: str) -> Tuple[int, int]:
    """The layer periods E whose difference gives amplitude class `kind` at h."""
    if h < 0:
        raise ValueError("height must be >= 0")
    if kind not in ("horiz", "no-horiz"):
        raise ValueError(f"unknown kind {kind!r}")
    top = 2 * h + (4 if kind == "horiz" else 3)
    return top, top - 1


def amplitude_series(h: int, kind: str, order: int) -> PowerSeries:
    """Closed Motzkin paths whose greatest level is exactly h, split by
    whether a flat step occurs at that level ("horiz") or not ("no-horiz").

    amplitude = 2h + 1 in the first class and 2h in the second.
    """
    hi, lo = _amp_layers(h, kind)
    expr = _amp_layer_series(hi, order) - _amp_layer_series(lo, order)
    return _MOTZKIN.eval(expr, order)


def _amp_layer_coeff(n: int, E: int) -> int:
    """[z^n] of the E-layer, extracted against one trinomial row."""
    total = 0
    kE = E
    while kE <= n + 2:
        total -= (trinomial(n, 1, n + 2 - kE) - 2 * trinomial(n, 1, n - kE)
                  + trinomial(n, 1, n - 2 - kE))
        kE += E
    return total


def amplitude_coeff(n: int, h: int, kind: str) -> int:
    """Single coefficient of :func:`amplitude_series`, without inversion."""
    hi, lo = _amp_layers(h, kind)
    return _amp_layer_coeff(n, hi) - _amp_layer_coeff(n, lo)


def amplitude_total(n: int) -> int:
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


def amplitude_average(n: int) -> Fraction:
    """Exact average amplitude of closed Motzkin paths of length n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(amplitude_total(n), motzkin_numbers(n)[n])


# ----------------------------------------------------------------------
# Limiting turn statistics (m-th dip and m-th summit of long closed paths)
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def _kemp_root_sigma(order: int) -> PowerSeries:
    """sqrt((1-w)(9-w)) at w = 36 sigma, an integer sigma-series.

    (1-w)(9-w) = 9(1 + 4y) with y = -10 sigma + 36 sigma^2 in Z[sigma], and
    the weights binom(1/2,k) 4^k of sqrt(1 + 4y) are integers.  The last
    root is kept, so the valley and the peak series of one size share it;
    callers must not change it.
    """
    return 3 * PowerSeries("sigma", [1, -40, 144]).pad(order).sqrt()


def kemp_valley_series(order: int) -> PowerSeries:
    """Limit of the average level of the m-th valley, as a w-series:
    (w^2 + 2w - 3 + (1+w) sqrt((1-w)(9-w)))/(2(1-w)^2).

    Twice the series is computed at w = 36 sigma, where the root, the
    numerator and the division by (1-w)^2 stay in integers; coefficient n
    is then scaled by 1/(2 * 36^n).
    """
    root = _kemp_root_sigma(order)
    num = PowerSeries("sigma", [-3, 72, 1296]).pad(order) \
        + PowerSeries("sigma", [1, 36]).pad(order) * root
    den = PowerSeries("sigma", [1, -72, 1296]).pad(order)
    return (num / den).unscale("w", 36, 2)


def kemp_peak_series(order: int) -> PowerSeries:
    """Limit of the average level of the m-th peak, as a w-series:
    w sqrt((1-w)(9-w))/(1-w)^2.

    Computed at w = 36 sigma over integers, like :func:`kemp_valley_series`;
    coefficient n is then scaled by 1/36^n.
    """
    num = PowerSeries("sigma", [0, 36]).pad(order) * _kemp_root_sigma(order)
    den = PowerSeries("sigma", [1, -72, 1296]).pad(order)
    return (num / den).unscale("w", 36)


def _ballot_table(rem: int, top: int) -> List[int]:
    """B(rem, l) for all l in 0..top sharing rem's parity, as a flat list
    indexed by l (off-parity slots stay 0).  One binomial evaluation plus an
    exact multiplicative chain; B(rem, l) = C(rem, u) - C(rem, u-1) with
    u = (rem - l)/2."""
    table = [0] * (top + 1)
    l0 = rem & 1
    u = (rem - l0) // 2
    cur = binomial(rem, u)
    nxt = cur * u // (rem - u + 1) if u > 0 else 0  # C(rem, u-1)
    l = l0
    while l <= top:
        if l <= rem:
            table[l] = cur - nxt
        cur = nxt
        u -= 1
        nxt = cur * u // (rem - u + 1) if u > 0 else 0
        l += 2
        if cur == 0:
            break
    return table


@lru_cache(maxsize=8)
def _kemp_dp(n: int, m_max: int) -> Dict[Tuple[str, int], Fraction]:
    """One forward pass over all nonnegative closed paths of length 2n,
    harvesting the exact average level of the m-th valley and m-th peak for
    every m <= m_max (averaged over paths with at least m such turns)."""
    N = 2 * n
    size = N + 2
    upper = [[0] * size for _ in range(m_max)]  # last step a rise
    down = [[0] * size for _ in range(m_max)]   # last step a fall
    upper[0][1] = 1
    num_v = [0] * (m_max + 1)
    den_v = [0] * (m_max + 1)
    num_p = [0] * (m_max + 1)
    den_p = [0] * (m_max + 1)
    for i in range(1, N):
        rem = N - i - 1
        hi = min(i, rem + 1)
        vmax = min(m_max, i // 2 + 1)  # at most i//2 valleys after i steps
        ball = _ballot_table(rem, hi + 2)
        # harvest: a fall-ending state at level j with v = m-1 valleys is one
        # forced rise away from its m-th valley; a rise-ending state one
        # forced fall away from its m-th peak.
        start = i & 1
        for v in range(vmax):
            rowD = down[v]
            for j in range(start, hi + 1, 2):
                c = rowD[j]
                if c:
                    b = ball[j + 1]
                    if b:
                        cb = c * b
                        num_v[v + 1] += cb * j
                        den_v[v + 1] += cb
            rowU = upper[v]
            for j in range(start if start else 2, hi + 1, 2):
                c = rowU[j]
                if c:
                    b = ball[j - 1]
                    if b:
                        cb = c * b
                        num_p[v + 1] += cb * j
                        den_p[v + 1] += cb
        if i == N - 1:
            break
        new_upper = [[0] * size for _ in range(m_max)]
        new_down = [[0] * size for _ in range(m_max)]
        nhi = min(i + 1, N - i)
        nstart = (i + 1) & 1
        for v in range(min(m_max, (i + 1) // 2 + 1)):
            oldU = upper[v]
            oldD = down[v]
            nU = new_upper[v]
            nD = new_down[v]
            prevD = down[v - 1] if v else None
            for j in range(nstart if nstart else 2, nhi + 1, 2):
                acc = oldU[j - 1]
                if prevD is not None:
                    acc += prevD[j - 1]
                if acc:
                    nU[j] = acc
            for j in range(nstart, nhi + 1, 2):
                acc = oldU[j + 1] + oldD[j + 1]
                if acc:
                    nD[j] = acc
        upper, down = new_upper, new_down
    out: Dict[Tuple[str, int], Fraction] = {}
    for m in range(1, m_max + 1):
        out[("valley", m)] = Fraction(num_v[m], den_v[m]) if den_v[m] else Fraction(0)
        out[("peak", m)] = Fraction(num_p[m], den_p[m]) if den_p[m] else Fraction(0)
    return out


def kemp_finite_oracle(m: int, n: int, kind: str = "valley",
                       m_max: Optional[int] = None) -> Fraction:
    """Exact average level of the m-th valley (or peak) over closed
    nonnegative unit-step paths of length 2n having at least m such turns.

    Passing m_max computes all orders up to m_max in one cached sweep.
    """
    if kind not in ("valley", "peak"):
        raise ValueError(f"unknown kind {kind!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = m if m_max is None else m_max
    if cap < m:
        raise ValueError("m_max must be >= m")
    return _kemp_dp(n, cap)[(kind, m)]


# ----------------------------------------------------------------------
# Paths with unit rises and arbitrary falls, possibly in a strip
# ----------------------------------------------------------------------

def _v_poly(coeff_pairs: List[Tuple[int, int]], order: int) -> PowerSeries:
    coeffs = [0] * (order + 1)
    for e, c in coeff_pairs:
        if 0 <= e <= order:
            coeffs[e] += c
    return PowerSeries("v", coeffs, order)


def deutsch_phi(t: int, j: int, order: int, bound: Optional[int] = None) -> PowerSeries:
    """Paths with unit rises and falls of any size, from level t to level j,
    confined to [0, bound-1] (or unbounded when bound is None), counted by
    steps.

    Closed v-forms under z = v/(1 + v + v^2); a finite bound must exceed
    both endpoints.
    """
    if t < 0 or j < 0:
        raise ValueError("levels must be >= 0")
    if bound is not None and bound <= max(t, j):
        raise ValueError("bound must exceed both endpoints")
    vorder = order
    one_plus = PowerSeries("v", [1, 1]).pad(vorder)
    Q = PowerSeries("v", [1, 1, 1]).pad(vorder)
    one_minus = PowerSeries("v", [1, -1]).pad(vorder)
    if j < t:
        expr = (one_plus ** (t - j - 2)
                * _v_poly([(0, 1), (j + 1, -1)], vorder)
                * PowerSeries("v", [0, 1]).pad(vorder) * Q)
        if bound is None:
            expr = expr / one_minus
        else:
            expr = expr * _v_poly([(0, 1), (bound - t, -1)], vorder) \
                / (one_minus * _v_poly([(0, 1), (bound + 2, -1)], vorder))
    else:
        expr = (_v_poly([(j - t, 1)], vorder)
                * _v_poly([(0, 1), (t + 2, -1)], vorder) * Q
                * one_plus ** (-(j - t + 2)))
        if bound is None:
            expr = expr / one_minus
        else:
            expr = expr * _v_poly([(0, 1), (bound + 1 - j, -1)], vorder) \
                / (one_minus * _v_poly([(0, 1), (bound + 2, -1)], vorder))
    return _MOTZKIN.eval(expr, order)


def deutsch_Dm(m: int, order: int) -> PowerSeries:
    """Strip determinant: (1+v)^(m-1) (1 - v^(m+2)) / (Q^m (1-v))."""
    if m < 0:
        raise ValueError("m must be >= 0")
    expr = (PowerSeries("v", [1, 1]).pad(order) ** (m - 1)
            * _v_poly([(0, 1), (m + 2, -1)], order)
            * PowerSeries("v", [1, 1, 1]).pad(order) ** (-m)
            / PowerSeries("v", [1, -1]).pad(order))
    return _MOTZKIN.eval(expr, order)


def deutsch_strip_solve(t: int, m: int, order: int) -> List[PowerSeries]:
    """Solve the m-by-m band system for strip-confined paths from level t:
    phi_i - z phi_{i-1} - z sum_{k>i} phi_k = [i == t].  Returns all phi_j.

    Independent of the closed forms; pivots stay units so elimination over
    truncated series is exact.
    """
    if not 0 <= t < m:
        raise ValueError("start level must lie inside the strip")
    return _deutsch_strip_solutions(m, order)[t]


def _deutsch_strip_solutions(m: int, order: int) -> List[List[PowerSeries]]:
    """`deutsch_strip_solve(t, m, order)` for every start level t, from one
    elimination of the band matrix with all m right-hand sides."""
    z = PowerSeries.identity("z", order)
    zero = PowerSeries.const("z", 0, order)
    one = PowerSeries.const("z", 1, order)
    A = [[zero] * m for _ in range(m)]
    for i in range(m):
        A[i][i] = one
        if i > 0:
            A[i][i - 1] = -z
        for k in range(i + 1, m):
            A[i][k] = -z
    b = [[one if i == t else zero for t in range(m)] for i in range(m)]  # b[row][t]
    for col in range(m):
        inv = A[col][col].inverse()
        for row in range(col + 1, m):
            if A[row][col].is_zero:
                continue
            f = A[row][col] * inv
            for k in range(col, m):
                A[row][k] = A[row][k] - f * A[col][k]
            b[row] = [x - f * y for x, y in zip(b[row], b[col])]
    sols = []
    for t in range(m):
        sol = [zero] * m
        for row in range(m - 1, -1, -1):
            acc = b[row][t]
            for k in range(row + 1, m):
                acc = acc - A[row][k] * sol[k]
            sol[row] = acc / A[row][row]
        sols.append(sol)
    return sols
