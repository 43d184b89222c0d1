"""Every height-bounded Motzkin class is Q plus one telescoping layer: the
strips, the amplitude classes, the determinants and the Horton blocks agree
with the bodies they replaced (`old_strips`).  So does the strip band solve,
which reads each coefficient off the one before it instead of eliminating."""

from latticepaths.pathseries import (
    _MOTZKIN, _deutsch_strip_solutions, amplitude_coeff, amplitude_series, motzkin_bounded,
    motzkin_bounded_coeff, motzkin_det)
from latticepaths.treeseries import _unary_binary_kernel, horton_Rp, horton_Sp
from old_strips import (
    old_amp_layer_series, old_deutsch_strip_solutions, old_geom_block,
    old_motzkin_bounded_coeff, old_motzkin_det)


def _same(new, old):
    """Equal dumps, orders and stored coefficient types."""
    assert (new.dump(), new.order) == (old.dump(), old.order)
    assert [type(c) for c in new._c] == [type(c) for c in old._c]


def test_bounded_coeff_is_the_old_strip_extraction():
    for n in range(61):
        for h in range(n + 2):
            for variant in ("all", "no-top-horizontal"):
                assert motzkin_bounded_coeff(n, h, variant) \
                    == old_motzkin_bounded_coeff(n, h, variant), (n, h, variant)


def test_amplitude_coeff_is_a_difference_of_old_strips():
    # horiz: height <= h less no flat step at h; no-horiz: that less height <= h - 1
    for n in range(61):
        for h in range(n + 2):
            full, trimmed = (old_motzkin_bounded_coeff(n, h, variant)
                             for variant in ("all", "no-top-horizontal"))
            lower = old_motzkin_bounded_coeff(n, h - 1) if h else 0
            assert amplitude_coeff(n, h, "horiz") == full - trimmed, (n, h)
            assert amplitude_coeff(n, h, "no-horiz") == trimmed - lower, (n, h)


def test_amplitude_series_is_the_old_layer_difference():
    for order in (0, 1, 14):
        for h in range(8):
            for kind, trim in (("horiz", 0), ("no-horiz", 1)):
                hi = 2 * h + 4 - trim
                old = _MOTZKIN.eval(old_amp_layer_series(hi, order)
                                    - old_amp_layer_series(hi - 1, order), order)
                _same(amplitude_series(h, kind, order), old)


def test_motzkin_det_and_bounded_are_the_old_loops():
    for order in (0, 1, 2, 7, 12):
        for star in (False, True):
            for n in range(12):
                _same(motzkin_det(n, order, star), old_motzkin_det(n, order, star))
            for h in range(8):
                old = old_motzkin_det(h, order, star) / old_motzkin_det(h + 1, order, star)
                variant = "no-top-horizontal" if star else "all"
                _same(motzkin_bounded(h, order, variant), old)


def test_horton_blocks_are_the_old_geom_block():
    for order in (0, 1, 20):
        for p in range(5):
            for a in range(3):
                kernel = _unary_binary_kernel(a)
                _same(horton_Rp(p, a, order), kernel.eval(old_geom_block(p, True, order), order))
                _same(horton_Sp(p, a, order), kernel.eval(old_geom_block(p, False, order), order))


def test_band_solve_is_the_old_elimination():
    for m in range(1, 9):
        for order in range(21):
            new, old = _deutsch_strip_solutions(m, order), old_deutsch_strip_solutions(m, order)
            assert len(new) == len(old) == m
            for t in range(m):
                assert len(new[t]) == len(old[t]) == m
                for phi, want in zip(new[t], old[t]):
                    _same(phi, want)
