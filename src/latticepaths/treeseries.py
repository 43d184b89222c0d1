"""Closed forms and generating functions for the tree families.

Same ground rules as the path-series module: exact arithmetic only, and
every formula is reachable by at least two independent routes so the tests
can confront them with each other and with exhaustive generation.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import List

from .combinat import binomial, motzkin_numbers, trinomial
from .pathseries import motzkin_bounded_coeff
from .series import Kernel, MarkerPoly, PowerSeries

# z = v/(1 + 3v + v^2) for marked trees; z = v/(1 + v + v^2) for the
# restricted-path trees
_MARKED = Kernel(3)
_MOTZKIN = Kernel(1)


# ----------------------------------------------------------------------
# Unary-binary trees with a flat colors, graded by register number
# ----------------------------------------------------------------------

def _unary_binary_kernel(a: int) -> Kernel:
    """z = u/(1 + (a+2)u + u^2), the kernel of trees with a flat colors."""
    if a < 0:
        raise ValueError("number of extra unary colours a must be >= 0")
    return Kernel(a + 2)


def _geom_block(p: int, shift_down: bool, order: int) -> PowerSeries:
    """(1 - u^2) u^(2^p - 1) / (1 - u^(2^(p+1) if shift_down else 2^p))
    as a u-series; the two Horton layer shapes."""
    period = 2 ** (p + 1) if shift_down else 2 ** p
    base = 2 ** p - 1
    coeffs = [0] * (order + 1)
    e = base
    while e <= order:
        coeffs[e] += 1
        e += period
    geo = PowerSeries("u", coeffs, order)
    return PowerSeries("u", [1, 0, -1]).pad(order) * geo


def horton_Rp(p: int, a: int, order: int) -> PowerSeries:
    """Trees whose register number is exactly p, as a z-series:
    ((1-u^2)/u) u^(2^p)/(1 - u^(2^(p+1))) under z = u/(1+(a+2)u+u^2)."""
    if p < 0:
        raise ValueError("register rank must be >= 0")
    return _unary_binary_kernel(a).eval(_geom_block(p, True, order), order)


def horton_Sp(p: int, a: int, order: int) -> PowerSeries:
    """Trees with register number >= p (so S_0 counts everything):
    ((1-u^2)/u) u^(2^p)/(1 - u^(2^p))."""
    if p < 0:
        raise ValueError("register rank must be >= 0")
    return _unary_binary_kernel(a).eval(_geom_block(p, False, order), order)


def unary_binary_count(n: int, a: int) -> int:
    """Number of unary-binary trees with n nodes and a flat colors, by
    trinomial extraction of [z^n](1 + u)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    kernel = _unary_binary_kernel(a)
    if n == 0:
        return 1
    return kernel.vpow_coeff(n, 1)  # [z^n](1 + u) = [z^n]u for n >= 1


def horton_avg_reg(n: int, a: int) -> Fraction:
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


def node_count_series(a: int, order: int) -> PowerSeries:
    """N(z) = 1 + u: the tree count with its closed square-root form
    (1 - az - sqrt(1 - 2(a+2)z + a(a+4)z^2))/(2z) checked in the tests."""
    return _unary_binary_kernel(a).eval(PowerSeries("u", [1, 1]).pad(order), order)


# ----------------------------------------------------------------------
# Marked ordered trees (mark on a last edge with internal child)
# ----------------------------------------------------------------------

def marked_count_series(order: int) -> PowerSeries:
    """A(z) = (1 - z - sqrt(1 - 6z + 5z^2))/2 = z + z^2 + 3z^3 + 10z^4 + ..."""
    W = PowerSeries("z", [1, -6, 5]).pad(order).sqrt()
    return (PowerSeries("z", [1, -1]).pad(order) - W) * Fraction(1, 2)


def marked_leaf_series(order: int) -> PowerSeries:
    """Bivariate count of marked trees by nodes (z) and leaves (marker u):
    -z + zu/2 + 1/2 - (1/2) sqrt(1 - 4z + 4z^2 - 2zu + z^2 u^2)."""
    u = MarkerPoly.var("u")
    inner = PowerSeries("z", [1, -4 - 2 * u, 4 + u * u]).pad(order)
    lead = PowerSeries("z", [Fraction(1, 2), u * Fraction(1, 2) - 1]).pad(order)
    return lead - inner.sqrt() * Fraction(1, 2)


def marked_leaf_total(n: int) -> int:
    """Total leaves over all marked trees on n nodes: [z^n] z/(1-v) under
    z = v/(1+3v+v^2), extracted as a pair of trinomials."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    m = n - 1
    return trinomial(m - 1, 3, m) + trinomial(m - 1, 3, m - 1)


def marked_count(n: int) -> int:
    """Number of marked trees on n nodes (shares the unary-binary extractor
    since A(z) = z N(z) for one flat color)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return unary_binary_count(n - 1, 1)


def _height_parts(h: int, order: int):
    """(1+2v)^(h-1), v^h (v+2)^(h-1) and the shared denominator
    (1+3v+v^2)[(1+2v)^(h-1) - v^(h+1)(v+2)^(h-1)], as v-series."""
    if h < 1:
        raise ValueError("height bound must be >= 1")
    one2 = PowerSeries("v", [1, 2]).pad(order) ** (h - 1)
    tail = PowerSeries("v", [0] * h + [1]).pad(order) \
        * PowerSeries("v", [2, 1]).pad(order) ** (h - 1)
    den = PowerSeries("v", [1, 3, 1]).pad(order) * (one2 - tail.shift(1).truncate(order))
    return one2, tail, den


def marked_height_ph(h: int, order: int) -> PowerSeries:
    """Marked trees of height (in nodes) at most h:
    p_h = z(1+v) [(1+2v)^(h-1) - v^h (v+2)^(h-1)]
               / [(1+2v)^(h-1) - v^(h+1) (v+2)^(h-1)]."""
    one2, tail, den = _height_parts(h, order)
    v = PowerSeries.identity("v", order)
    return _MARKED.eval(v * PowerSeries("v", [1, 1]).pad(order) * (one2 - tail) / den, order)


def marked_height_tail(h: int, order: int) -> PowerSeries:
    """Marked trees of height exceeding h:
    z(1 - v^2)(v+2)^(h-1) v^h / [(1+2v)^(h-1) - v^(h+1)(v+2)^(h-1)]."""
    _, tail, den = _height_parts(h, order)
    v = PowerSeries.identity("v", order)
    return _MARKED.eval(v * PowerSeries("v", [1, 0, -1]).pad(order) * tail / den, order)


def marked_height_total(n: int) -> int:
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


# ----------------------------------------------------------------------
# Ternary trees by nodes and middle edges
# ----------------------------------------------------------------------

def ternary_T(n: int, k: int) -> int:
    """Ternary trees with n internal nodes and k middle edges:
    (1/n) C(n,k) C(2n, n-1-k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n - 1:
        raise ValueError("need 0 <= k <= n-1")
    num = binomial(n, k) * binomial(2 * n, n - 1 - k)
    assert num % n == 0
    return num // n


def ternary_row(n: int) -> List[int]:
    if n == 0:
        return [1]
    return [ternary_T(n, k) for k in range(n)]


def ternary_row_sum(n: int) -> int:
    """All ternary trees with n internal nodes: (1/n) C(3n, n-1)."""
    if n == 0:
        return 1
    num = binomial(3 * n, n - 1)
    assert num % n == 0
    return num // n


def ternary_t_power(n: int, k: int, l: int) -> int:
    """[x^n u^k] t^l for the kernel root t = x(1-t+ut)/(1-t)^2:
    (l/n) C(n,k) C(2n-l-1, n-l-k)."""
    if l < 1 or n < 1:
        raise ValueError("need n, l >= 1")
    num = l * binomial(n, k) * binomial(2 * n - l - 1, n - l - k)
    assert num % n == 0
    return num // n


def ternary_root_series(which: str, order: int) -> PowerSeries:
    """Kernel roots of the ternary cubic u x G^3 + (1-u) x G^2 - G + 1 = 0.

    "r1" returns 1/(1-t) as an x-series (markers u).  "r2" and "r3" have
    Puiseux expansions, so their reciprocals are returned instead, as
    series in tau = t/u with markers U (u = 1 + U) and s (s^2 = ux):
    1/r_{2,3} = t/2 -+ s * Xi(tau).
    """
    if which == "r1":
        # [x^n u^k] 1/(1-t) = sum over l >= 1 of [x^n u^k] t^l, zero past l = n - k
        return PowerSeries("x", [1] + [
            MarkerPoly({(("u", k),): sum(ternary_t_power(n, k, l) for l in range(1, n - k + 1))
                        for k in range(n)})
            for n in range(1, order + 1)], order)
    if which not in ("r2", "r3"):
        raise ValueError(f"unknown root {which!r}")
    sign = -1 if which == "r2" else 1
    return _root_recip_sigma(sign, _xi_sigma(order), order).unscale("tau", 16)


def ternary_xi(order: int) -> PowerSeries:
    """Xi(tau) = sqrt(C)/(1 - (1+U)tau) with
    C = 1 - (3+4U)/4 tau + U(1+U)/4 tau^2, so that 1/r_{2,3} = t/2 -+ s Xi.

    Built over sigma = tau/16, where every coefficient is an integer:
    C = 1 + 4y with y = -(3+4U) sigma + 16U(1+U) sigma^2 in Z[U][sigma], the
    weights of sqrt(1 + 4y) = sum_k binom(1/2,k) 4^k y^k are
    binom(1/2,k) 4^k = 2(-1)^(k-1) Cat(k-1), and the divisor
    1 - 16(1+U) sigma has constant term 1.  Coefficient n is scaled by 16^-n.
    """
    return _xi_sigma(order).unscale("tau", 16)


def _xi_sigma(order: int) -> PowerSeries:
    U = MarkerPoly.var("U")
    C = PowerSeries("sigma", [1, -4 * (3 + 4 * U), 64 * U * (1 + U)]).pad(order)
    return C.sqrt() / PowerSeries("sigma", [1, -16 * (1 + U)]).pad(order)


def _root_recip_sigma(sign: int, xi: PowerSeries, order: int) -> PowerSeries:
    """1/r_{2,3} = t/2 -+ s Xi at tau = 16 sigma, where t/2 = 8(1+U) sigma."""
    half_t = PowerSeries("sigma", [0, 8 * (1 + MarkerPoly.var("U"))]).pad(order)
    return (half_t + xi * (sign * MarkerPoly.var("s"))).truncate(order)


def ternary_factorization_check(order: int) -> bool:
    """Verify the Vieta identities tying the three kernel roots together.

    Checks, exactly: the polynomial identities behind r2 + r3 and r2 r3,
    the discriminant factorization, r1 + r2 + r3 = (u-1)/u, and the series
    identity (1/r2)(1/r3) = -ux/r1 i.e. r1 u x r2 r3 = -1, to the given
    order in tau.  The series identities are checked at tau = 16 sigma,
    where every coefficient is an integer.  Returns True when everything
    holds.
    """
    t = MarkerPoly.var("t")
    u = MarkerPoly.var("u")
    A = -t + t * t - t * t * u
    B = t * (1 - t + u * t) * (4 * u + t - 4 * u * t - t * t + t * t * u)
    if A != -t * (1 - t + u * t):
        return False
    if A * A - B != -4 * u * t * (1 - t) * (1 - t + u * t):
        return False
    # r1 + r2 + r3 = (u-1)/u  <=>  u - (1 - t + ut) = (u - 1)(1 - t)
    if u - (1 - t + u * t) != (u - 1) * (1 - t):
        return False
    # series side: (1/r2)(1/r3) with s^2 -> ux equals -ux * r1, in sigma
    U = MarkerPoly.var("U")
    uu = 1 + U
    xi = _xi_sigma(order)
    prod = _root_recip_sigma(-1, xi, order) * _root_recip_sigma(1, xi, order)
    # split off s^2 and substitute s^2 = ux = (1+U)^2 tau (1-(1+U)tau)^2 / (1+U(1+U)tau)
    sigma = PowerSeries.identity("sigma", order)
    one_minus = PowerSeries("sigma", [1, -16 * uu]).pad(order)
    denom = PowerSeries("sigma", [1, 16 * U * uu]).pad(order)
    ux = sigma * (16 * uu * uu) * one_minus * one_minus / denom
    s0 = prod.map_coeffs(lambda c: c.marker_coeff("s", 0))
    s2 = prod.map_coeffs(lambda c: c.marker_coeff("s", 2))
    lhs = s0 + s2 * ux
    # r1 = 1/(1-t) with t = (1+U)tau = 16(1+U) sigma
    r1 = PowerSeries("sigma", [(16 * uu) ** i for i in range(order + 1)], order)
    rhs = -(ux * r1)
    if lhs != rhs:
        return False
    # the factorization r1 = Xi^2 - t^2/(4ux), via the exact polynomial
    # identity C - tau(1 + U(1+U)tau)/4 = 1 - (1+U)tau
    tt_over = (sigma * 4) * denom / (one_minus * one_minus)
    if xi * xi - tt_over != r1:
        return False
    return True


# ----------------------------------------------------------------------
# Trees with peaks only low or even (unit rises, height-restricted dips)
# ----------------------------------------------------------------------

def retakh_Gk(k: int, order: int) -> PowerSeries:
    """k-th convergent of the path continued fraction:
    G_k = (v/(1+v)) (1 - v^(2k))/(1 - v^(2k+1)) under z = v/(1+v+v^2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    num = PowerSeries.identity("v", order) * _one_minus_pow(2 * k, order)
    den = PowerSeries("v", [1, 1]).pad(order) * _one_minus_pow(2 * k + 1, order)
    return _MOTZKIN.eval(num / den, order)


def _one_minus_pow(e: int, order: int) -> PowerSeries:
    return PowerSeries("v", [1] + [0] * (e - 1) + [-1], e).pad(order) if e <= order \
        else PowerSeries("v", [1], 0).pad(order)


def retakh_full(order: int) -> PowerSeries:
    """All such trees by edge pairs: z M(z) with M the Motzkin series."""
    m = motzkin_numbers(max(order - 1, 0))
    return PowerSeries("z", [0] + m[:order], order)


def retakh_leaf_series(order: int) -> PowerSeries:
    """Total leaves by nodes: v(1+v)(1 - v + 2v^2 - v^3)/((1-v)(1+v+v^2))."""
    num = (PowerSeries("v", [0, 1, 1]).pad(order)
           * PowerSeries("v", [1, -1, 2, -1]).pad(order))
    den = PowerSeries("v", [1, -1]).pad(order) * PowerSeries("v", [1, 1, 1]).pad(order)
    return _MOTZKIN.eval(num / den, order)


_RETAKH_LEAF_W = [1, 1, 1, 2, 0, -1]


def retakh_leaf_total(n: int) -> int:
    """[z^n] of :func:`retakh_leaf_series` by trinomial extraction."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    return sum(c * trinomial(n - 2, 1, n - 1 - i)
               for i, c in enumerate(_RETAKH_LEAF_W) if c)


def retakh_bounded_count(n: int, h: int) -> int:
    """Trees on n nodes with height (in edges) at most h; heights beyond 1
    only matter in even amounts, so odd bounds reuse the even ones."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if h < 0:
        raise ValueError("h must be >= 0")
    if h == 0:
        return 1 if n == 1 else 0
    if h == 1:
        return 1  # the path-shaped comb: z/(1-z)
    # heights 2k and 2k+1 agree for k >= 1, and both counts with bound 2k equal
    # the Motzkin paths of length n - 1 and height at most k:
    # [z^n] v(1 - v^(2k+2))/(1 - v^(2k+4))
    return motzkin_bounded_coeff(n - 1, h // 2)


def retakh_height_total(n: int) -> int:
    """Total path height over all trees on n nodes (tree height in edges
    equals the height of the corresponding path)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m_total = retakh_bounded_count(n, 2 * n)  # all of them
    total = 0
    h = 0
    while True:
        c = retakh_bounded_count(n, h)
        if c >= m_total:
            break
        total += m_total - c
        h += 1
    return total
