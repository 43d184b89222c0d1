"""The height-bounded strips and layer blocks as they were before every
strip became Q plus one telescoping layer, and the strip band solve as it was
before it read each coefficient off the one before it, kept as oracles.

`old_motzkin_bounded_coeff` extracts a whole strip
Q(1 - v^(E-2))/(1 - v^E) with its own loop; `old_motzkin_det` builds D*_n
from D_{n-1} and D_{n-2} in a second loop; `old_amp_layer_series` and
`old_geom_block` build the blocks (1 - t^2) t^base/(1 - t^period) each on
its own.  `old_deutsch_strip_solutions` eliminates the m-by-m band matrix
over truncated series, with one series `inverse()` per pivot and one series
division per back-substituted unknown.  The bodies are kept verbatim.
"""

from typing import List

from latticepaths.pathseries import _MOTZKIN
from latticepaths.series import PowerSeries


def old_motzkin_det(n: int, order: int, star: bool = False) -> PowerSeries:
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


def old_motzkin_bounded_coeff(n: int, h: int, variant: str = "all") -> int:
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


def old_amp_layer_series(E: int, order: int) -> PowerSeries:
    """v-series of -Q(1 - v^2) v^(E-2)/(1 - v^E), the telescoping layer."""
    coeffs = [0] * (order + 1)
    kE = E
    while kE - 2 <= order:
        coeffs[kE - 2] = 1
        kE += E
    geo = PowerSeries("v", coeffs, order)
    pre = PowerSeries("v", [1, 1, 1]).pad(order) * PowerSeries("v", [1, 0, -1]).pad(order)
    return -(pre * geo)


def old_geom_block(p: int, shift_down: bool, order: int) -> PowerSeries:
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


def old_deutsch_strip_solutions(m: int, order: int) -> List[List[PowerSeries]]:
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
