"""Closed forms and generating functions for the path families.

Every quantity here is exact: coefficients are integers or Fractions, and
each generating function comes with at least one independent route (kernel
substitution, explicit coefficient formula, or determinant recursion) so the
test suite can cross-check them against brute-force enumeration.

Conventions used throughout:

* Families supported on even powers of z (skew and dual-skew paths) are
  computed internally in x = z^2 and re-interleaved on output.
* The kernel substitutions are always of the shape outer = v / Q(v) with Q
  = 1 + bv + v^2.  Closed v-forms are evaluated by Lagrange extraction,
  never by inverting the substitution and composing: a series through
  ``Kernel.eval`` and a single coefficient of a closed form through one
  ``Kernel.coeff`` call on the form's (k, c) terms (:class:`~.series.Kernel`).
  The skew and dual-skew end-level counts read their ladders off one
  sliding band instead (``combinat._kernel_band``).
* The empty path has height 0, no horizontal step, amplitude 0, and is
  counted by the h = 0 "no horizontal at the top" class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from operator import mul
from typing import Callable, Dict, List, Optional, Tuple

from .combinat import _exact_div, _kernel_band, binomial, divisor_count, motzkin_numbers
from .series import Kernel, MarkerPoly, PowerSeries

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
    return ubar_power(1, k, order)


def _ubar_coeff(l: int, d: int, k: int) -> int:
    """[z^l] ubar^d = d C(d-1+(k+1)l, l) / (kl+d), a Fuss-Catalan number."""
    return _exact_div(d * binomial(d - 1 + (k + 1) * l, l), k * l + d)


def ubar_power(d: int, k: int, order: int) -> PowerSeries:
    """d-th power of :func:`ubar`, coefficient by coefficient."""
    if d < 1:
        raise ValueError("power d must be >= 1")
    if k < 1:
        raise ValueError("rise height k must be >= 1")
    return PowerSeries("z", [_ubar_coeff(l, d, k) for l in range(order + 1)], order)


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
    return sum((-1) ** m * binomial(jj - k * m, m) * _ubar_coeff(n - m, 1, k)
               for m in range(min(n, jj // (k + 1)) + 1))


def last_downrun_total(m: int, k: int) -> int:
    """Total length of the final fall run, summed over all closed paths with
    m rises of +k (equivalently: total end level of paths with m rises whose
    last step is a rise).  Equals the difference of consecutive ubar
    coefficients."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _ubar_coeff(m + 1, 1, k) - _ubar_coeff(m, 1, k)


def hoppy_early_total(m: int, k: int) -> int:
    """Total length of the fall run directly after the first rise, summed
    over closed paths with m + 1 rises of +k: k/(m+1) * C((k+1)m, m)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _exact_div(k * binomial((k + 1) * m, m), m + 1)


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
    return _ubar_coeff(l + 1, 2, k) - 2 * _ubar_coeff(l, 2, k)


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


def _skew_sj_ladder(n: int, j: int) -> List[int]:
    """s_j(j), s_j(j+2), ..., s_j(j+2r) for the largest j + 2r <= n: with
    m = (n-j)/2, s_j(n) = h_M(m) + h_M(m-1) - h_M(m-2) - h_M(m-3) off the
    band of h_M = Q^M (1+2t)^(-j) at M = m+j-1 (rows M < j only lead there)."""
    if j < 0:
        raise ValueError("level j must be >= 0")
    if n < j:
        return []
    band = islice(_kernel_band(-j - 2, 1 - j, j), j, None)
    return [1] + [b[3] + b[2] - b[1] - b[0] for _, b in zip(range((n - j) // 2), band)]


def skew_sj_coeff(n: int, j: int) -> int:
    """[z^n] of skew paths ending at level j, by Lagrange extraction in
    x = v/Q(v), Q = 1+3v+v^2: [t^m] (1+t)^2 (1-t) Q(t)^(m+j-1) (1+2t)^(-j)
    with m = (n-j)/2, the last rung of one band ladder."""
    if j < 0:
        raise ValueError("level j must be >= 0")
    if n < j or (n - j) % 2:
        return 0
    return _skew_sj_ladder(n, j)[-1]


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


def _dual_gj_ladder(n: int, j: int) -> List[int]:
    """G_j(j), G_j(j+2), ..., G_j(j+2r) for the largest j + 2r <= n: with
    N = (n-j)/2, G_j(n) = sum_k mu_k T(N-1, 3, N-k) off the e = 0 band, row
    M = N-1 of (1+3t+t^2)^M, mu_k = [t^k] (1+t)^2 (1-t) (2+t)^j."""
    if j < 0:
        raise ValueError("level j must be >= 0")
    if n < j:
        return []
    mu = [0] * (j + 4)
    for k in range(j + 1):
        for d, sign in enumerate((1, 1, -1, -1)):
            mu[k + d] += sign * binomial(j, k) << (j - k)
    mu.reverse()  # band entry i is T(N-1, 3, N-(j+3-i))
    band = _kernel_band(-j - 2, 1, 0)
    return [1 << j] + [sum(map(mul, mu, b)) for _, b in zip(range((n - j) // 2), band)]


def dual_skew_coeff(n: int, j: int) -> int:
    """[z^n] of dual skew paths ending at level j, by Lagrange extraction in
    x = v/Q(v), Q = 1+3v+v^2: [t^N] (1+t)^2 (1-t) (2+t)^j Q(t)^(N-1) with
    N = (n-j)/2, the last rung of one band ladder."""
    if j < 0:
        raise ValueError("level j must be >= 0")
    if n < j or (n - j) % 2:
        return 0
    return _dual_gj_ladder(n, j)[-1]


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
    D*_n = D_{n-1} - z^2 D_{n-2} obeys the same recurrence with D*_0 = D*_1 = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    zz = PowerSeries("z", [0, 0, 1]).pad(order)
    omz = PowerSeries("z", [1, -1]).pad(order)
    prev = PowerSeries.const("z", 1, order)  # D_0 = D*_0
    cur = prev if star else omz * prev       # D*_1 or D_1
    for _ in range(n - 1):
        prev, cur = cur, omz * cur - zz * prev
    return cur if n else prev


# Paths of height <= h form the strip Q(1 - v^(E-2))/(1 - v^E) under
# z = v/Q(v), Q = 1 + v + v^2, with period E = 2h + 4, or 2h + 3 when no flat
# step may run at level h.  An amplitude class is one strip less the strip of
# period E - 1.
_STRIP_PERIOD = {"all": 4, "no-top-horizontal": 3}
_AMP_STRIP = {"horiz": "all", "no-horiz": "no-top-horizontal"}


def _period(h: int, variant: str) -> int:
    """The period E of the height-<= h strip `variant`."""
    if h < 0:
        raise ValueError("height bound must be >= 0")
    if variant not in _STRIP_PERIOD:
        raise ValueError(f"unknown variant {variant!r}")
    return 2 * h + _STRIP_PERIOD[variant]


def motzkin_bounded(h: int, order: int, variant: str = "all") -> PowerSeries:
    """Motzkin paths of height <= h: D_h/D_{h+1} for variant "all", and
    D*_h/D*_{h+1} for variant "no-top-horizontal" (no flat step at level h),
    whose strip has the odd period."""
    star = _period(h, variant) % 2 == 1
    return motzkin_det(h, order, star) / motzkin_det(h + 1, order, star)


def motzkin_bounded_coeff(n: int, h: int, variant: str = "all") -> int:
    """[z^n] of :func:`motzkin_bounded`: the strip is Q plus the layer of its
    period, and [z^n] Q = [z^(n+1)] v is the Motzkin number."""
    E = _period(h, variant)
    return _MOTZKIN.vpow_coeff(n + 1, 1) + _amp_layer_coeff(n, E) if n >= 0 else 0


def _height_total(bounded: Callable[[int], int], every: int) -> int:
    """Total height over `every` objects, bounded(h) of them of height <= h:
    the sum over h >= 0 of the objects taller than h."""
    total = h = 0
    while (c := bounded(h)) < every:
        total += every - c
        h += 1
    return total


def motzkin_height_total(n: int) -> int:
    """Total height over all closed Motzkin paths of length n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _height_total(partial(motzkin_bounded_coeff, n), motzkin_bounded_coeff(n, n))


def _red_chain(order: int) -> List[int]:
    """Coefficients of 1/sqrt(1 - 6x + 5x^2) by its holonomic recurrence
    (n+1) c_{n+1} = (6n+3) c_n - 5n c_{n-1}."""
    c = [1] * (order + 1)
    if order >= 1:
        c[1] = 3
    for n in range(1, order):
        c[n + 1] = _exact_div((6 * n + 3) * c[n] - 5 * n * c[n - 1], n + 1)
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
    return _exact_div(c[n] - 3 * c[n - 1], 2)


def _geom_block(var: str, base: int, period: int, order: int) -> PowerSeries:
    """(1 - t^2) t^base/(1 - t^period) as a series in t = var."""
    coeffs = [0] * (order + 1)
    for e in range(base, order + 1, period):
        coeffs[e] = 1
    return PowerSeries(var, [1, 0, -1]).pad(order) * PowerSeries(var, coeffs, order)


def _amp_layer_series(E: int, order: int) -> PowerSeries:
    """v-series of -Q(1 - v^2) v^(E-2)/(1 - v^E): the strip of period E less Q."""
    return -(PowerSeries("v", [1, 1, 1]).pad(order) * _geom_block("v", E - 2, E, order))


def _amp_layers(h: int, kind: str) -> Tuple[int, int]:
    """The layer periods E whose difference gives amplitude class `kind` at h."""
    if kind not in _AMP_STRIP:
        raise ValueError(f"unknown kind {kind!r}")
    top = _period(h, _AMP_STRIP[kind])
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
    """[z^n] of the E-layer for n >= 0: with v/Q = z it is
    -[z^(n+1)] of the sum over kE <= n+2 of v^(kE-1) - v^(kE+1)."""
    terms = []
    for kE in range(E, n + 3, E):
        terms += ((kE - 1, -1), (kE + 1, 1))
    return _MOTZKIN.coeff(n + 1, terms)


def amplitude_coeff(n: int, h: int, kind: str) -> int:
    """Single coefficient of :func:`amplitude_series`, without inversion."""
    hi, lo = _amp_layers(h, kind)
    return _amp_layer_coeff(n, hi) - _amp_layer_coeff(n, lo) if n >= 0 else 0


def _amplitude_terms(n: int) -> List[Tuple[int, int]]:
    """The v-terms whose extraction at length m <= n is amplitude_total(m).

    The totals are [z^m] of [Q(1-v^2) D(v) - v(1+2v) Q]/v^2 with D the
    divisor-count generating function; the numerator reduces to the weight
    d(j+2) + d(j+1) - d(j-1) - d(j-2) on v^j, less 3, 3, 2 at j = 0, 1, 2,
    which does not depend on the length.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    d = [0, 0, 0] + [divisor_count(m) for m in range(1, n + 3)]  # d[i + 2] = d(i)
    weights = [d[j + 4] + d[j + 3] - d[j + 1] - d[j] for j in range(n + 1)]
    for j, c in zip(range(n + 1), (3, 3, 2)):
        weights[j] -= c
    return list(enumerate(weights))


def _amplitude_ladder(n: int) -> List[int]:
    """amplitude_total(0), ..., amplitude_total(n), off one list of terms."""
    terms = _amplitude_terms(n)
    return [_MOTZKIN.coeff(m, terms) for m in range(n + 1)]


def amplitude_total(n: int) -> int:
    """Sum of amplitudes over all closed Motzkin paths of length n."""
    return _MOTZKIN.coeff(n, _amplitude_terms(n))


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
    nxt = _exact_div(cur * u, rem - u + 1) if u > 0 else 0  # C(rem, u-1)
    l = l0
    while l <= top:
        if l <= rem:
            table[l] = cur - nxt
        cur = nxt
        u -= 1
        nxt = _exact_div(cur * u, rem - u + 1) if u > 0 else 0
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
    else:
        expr = (_v_poly([(j - t, 1)], vorder)
                * _v_poly([(0, 1), (t + 2, -1)], vorder) * Q
                * one_plus ** (-(j - t + 2)))
    if bound is None:
        expr = expr / one_minus
    else:
        # the strip factor (1 - v^cut)/((1 - v)(1 - v^(bound+2)))
        cut = bound - t if j < t else bound + 1 - j
        expr = expr * _v_poly([(0, 1), (cut, -1)], vorder) \
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

    Independent of the closed forms: the system itself gives coefficient
    n + 1 of every phi_i from coefficient n, with no series division.
    """
    if not 0 <= t < m:
        raise ValueError("start level must lie inside the strip")
    return _deutsch_strip_solutions(m, order)[t]


def _deutsch_strip_solutions(m: int, order: int) -> List[List[PowerSeries]]:
    """`deutsch_strip_solve(t, m, order)` for every start level t, read off
    the band system one coefficient at a time:
    phi_i[n+1] = phi_(i-1)[n] + sum_{k>i} phi_k[n]."""
    sols = []
    for t in range(m):
        phi = [[int(i == t)] for i in range(m)]
        for n in range(order):
            above = 0
            for i in range(m - 1, -1, -1):
                phi[i].append((phi[i - 1][n] if i else 0) + above)
                above += phi[i][n]
        sols.append([PowerSeries("z", c, order) for c in phi])
    return sols
