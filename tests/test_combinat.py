"""Integer kernels: binomials with negative upper index, trinomial rows,
divisor counts, and the small named sequences everything else leans on."""

import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticepaths import combinat
from latticepaths.combinat import (
    a002212_terms,
    binomial,
    catalan,
    divisor_count,
    motzkin_numbers,
    trinomial,
    trinomial_row,
)


SRC = Path(combinat.__file__).resolve().parent


def test_exact_div_returns_the_quotient_or_raises():
    assert combinat._exact_div(12, 4) == 3
    assert combinat._exact_div(-12, 4) == -3
    assert combinat._exact_div(12, -4) == -3
    assert combinat._exact_div(0, 7) == 0
    for a, b in ((7, 2), (-7, 2), (1, 3), (10 ** 40 + 1, 10 ** 20)):
        with pytest.raises(ArithmeticError):
            combinat._exact_div(a, b)


def test_no_assert_statement_in_the_package():
    # an assert is compiled away under python -O; exactness goes through _exact_div
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_exact_div_still_raises_under_optimisation():
    script = ("from latticepaths.combinat import _exact_div\n"
              "try:\n    _exact_div(7, 2)\nexcept ArithmeticError:\n    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def test_binomial_matches_math_comb():
    for n in range(0, 12):
        for k in range(0, 14):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_negative_upper_index():
    # C(n, k) = (-1)^k C(k - n - 1, k) continues the polynomial in n
    for n in range(-8, 0):
        for k in range(0, 8):
            expected = (-1) ** k * math.comb(k - n - 1, k)
            assert binomial(n, k) == expected


def test_binomial_negative_k_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(-3, -2) == 0


def _expand_trinomial_row(n: int, b: int) -> list:
    coeffs = [1]
    for _ in range(n):
        nxt = [0] * (len(coeffs) + 2)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += b * c
            nxt[i + 2] += c
        coeffs = nxt
    return coeffs


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_trinomial_against_direct_expansion(b):
    for n in range(0, 9):
        row = _expand_trinomial_row(n, b)
        for k in range(-2, 2 * n + 3):
            want = row[k] if 0 <= k <= 2 * n else 0
            assert trinomial(n, b, k) == want


def test_trinomial_row_symmetry():
    for n in range(0, 9):
        for b in (1, 3):
            for k in range(0, 2 * n + 1):
                assert trinomial(n, b, k) == trinomial(n, b, 2 * n - k)


def test_trinomial_row_accessor_consistent():
    for n in range(0, 8):
        row = trinomial_row(n, 3)
        for k, value in enumerate(row):
            assert trinomial(n, 3, k) == value


def test_trinomial_rejects_a_non_int_middle_weight():
    with pytest.raises(TypeError):
        trinomial(3, Fraction(1, 2), 2)
    with pytest.raises(TypeError):
        trinomial(2, 1.0, 1)


def test_divisor_count_brute():
    for h in range(1, 200):
        want = sum(1 for d in range(1, h + 1) if h % d == 0)
        assert divisor_count(h) == want


def test_catalan_values():
    assert [catalan(n) for n in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_motzkin_sequences():
    assert motzkin_numbers(8) == [1, 1, 2, 4, 9, 21, 51, 127, 323]
    # 2-coloured horizontal steps give shifted Catalan numbers
    two = motzkin_numbers(6, colors=2)
    assert two == [catalan(n + 1) for n in range(7)]
    three = motzkin_numbers(6, colors=3)
    assert three == [1, 3, 10, 36, 137, 543, 2219]


def test_a002212_prefix():
    assert a002212_terms(9) == [1, 1, 3, 10, 36, 137, 543, 2219, 9285, 39587]


def test_motzkin_recurrence_property():
    # (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2} for the 1-coloured case
    m = motzkin_numbers(40)
    for n in range(2, 41):
        assert (n + 2) * m[n] == (2 * n + 1) * m[n - 1] + 3 * (n - 1) * m[n - 2]


def test_trinomial_prefix_sums_stay_integer():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(0, 30)
        b = rng.randrange(1, 6)
        k = rng.randrange(-1, 2 * n + 2)
        assert isinstance(trinomial(n, b, k), int)


# ----------------------------------------------------------------------
# Half rows against the deleted full-row recurrence and the direct expansion
# ----------------------------------------------------------------------

def _holonomic_full_row(n: int, b: int) -> tuple:
    # the full-row route trinomial_row used to cache: all of degrees 0..2n
    # from (j+1) T(j+1) = b (n-j) T(j) + (2n-j+1) T(j-1)
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


ROW_WEIGHTS = list(range(-3, 6))


@pytest.fixture
def cold_rows():
    """An empty half-row cache for the test, emptied again afterwards."""
    combinat._HALF_ROWS.clear()
    yield
    combinat._HALF_ROWS.clear()


@pytest.mark.parametrize("b", ROW_WEIGHTS)
def test_rows_extended_from_their_predecessor_match_both_oracles(b, cold_rows):
    # ascending n: every row after the first is built from the cached row n-1
    for n in range(0, 81):
        assert n == 0 or (n - 1, b) in combinat._HALF_ROWS
        row = trinomial_row(n, b)
        assert len(row) == 2 * n + 1
        assert row == _holonomic_full_row(n, b)
        if n <= 40:
            assert list(row) == _expand_trinomial_row(n, b)


@pytest.mark.parametrize("b", ROW_WEIGHTS)
def test_rows_built_cold_match_both_oracles(b, cold_rows):
    # descending n: row n-1 is never cached yet, so each row runs the
    # holonomic recurrence up to its centre
    for n in range(80, -1, -1):
        assert (n - 1, b) not in combinat._HALF_ROWS
        row = trinomial_row(n, b)
        assert len(row) == 2 * n + 1
        assert row == _holonomic_full_row(n, b)
        if n <= 40:
            assert list(row) == _expand_trinomial_row(n, b)


def test_trinomial_reads_the_half_row_through_its_symmetry(cold_rows):
    for b in ROW_WEIGHTS:
        for n in (0, 1, 2, 7, 30):
            full = _holonomic_full_row(n, b)
            assert [trinomial(n, b, k) for k in range(-2, 2 * n + 3)] == \
                [0, 0] + list(full) + [0, 0]
            assert len(combinat._HALF_ROWS[(n, b)]) == n + 1


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 60), b=st.integers(-3, 5), k=st.integers(-3, 125),
       warm=st.booleans())
def test_trinomial_property(n, b, k, warm):
    combinat._HALF_ROWS.clear()
    if warm and n:
        trinomial(n - 1, b, 0)
    full = _holonomic_full_row(n, b)
    assert trinomial(n, b, k) == (full[k] if 0 <= k <= 2 * n else 0)
    assert trinomial(n, b, k) == trinomial(n, b, 2 * n - k)
    assert len(trinomial_row(n, b)) == 2 * n + 1


# ----------------------------------------------------------------------
# Motzkin numbers: the P-recurrence against the deleted convolution
# ----------------------------------------------------------------------

def _motzkin_convolution(upto: int, colors: int) -> list:
    # the quadratic route motzkin_numbers used to take:
    # m[n] = colors*m[n-1] + sum_k m[k] m[n-2-k]
    m = [1]
    for n in range(1, upto + 1):
        val = colors * m[n - 1]
        for k in range(0, n - 1):
            val += m[k] * m[n - 2 - k]
        m.append(val)
    return m


@pytest.mark.parametrize("colors", range(0, 5))
def test_motzkin_recurrence_matches_the_convolution(colors):
    want = _motzkin_convolution(400, colors)
    assert motzkin_numbers(400, colors) == want
    for upto in (2, 3, 17, 101):
        assert motzkin_numbers(upto, colors) == want[:upto + 1]


@pytest.mark.parametrize("colors", range(0, 5))
def test_motzkin_short_lengths_keep_their_edge_cases(colors):
    assert motzkin_numbers(-1, colors) == [1]
    assert motzkin_numbers(0, colors) == [1]
    assert motzkin_numbers(1, colors) == [1, colors]
    for upto in (-1, 0, 1):
        assert motzkin_numbers(upto, colors) == _motzkin_convolution(upto, colors)


# ----------------------------------------------------------------------
# The sliding band of Q^M (1 + 2t)^(-e) against repeated products
# ----------------------------------------------------------------------

def _times(f: list, g: list) -> list:
    # f * g truncated to len(f) terms
    return [sum(f[i] * g[k - i] for i in range(max(0, k - len(g) + 1), k + 1))
            for k in range(len(f))]


@settings(max_examples=200, deadline=None)
@given(M=st.integers(0, 40), e=st.integers(0, 6),
       below=st.integers(0, 6), width=st.integers(3, 9))
def test_kernel_band_matches_the_expanded_product(M, e, below, width):
    # the window starts at or under -e, so under position 0 in the first rows
    lo = -e - below
    hi = lo + width - 1
    terms = max(M + hi + 1, 1)
    f = [1] + [0] * (terms - 1)
    for _ in range(e):
        f = _times(f, [(-2) ** k for k in range(terms)])
    for row, band in zip(range(M + 1), combinat._kernel_band(lo, hi, e)):
        assert band == [f[s] if 0 <= s < terms else 0
                        for s in range(row + lo, row + hi + 1)], row
        f = _times(f, [1, 3, 1])
