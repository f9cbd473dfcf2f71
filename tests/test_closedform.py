"""The ``math`` closed forms keep the bits of the earlier numpy code.

``closedform`` computes the continuum table, its Richardson extrapolation
and the endpoint loci with ``math``, as lists.  They are held bit for
bit, signed zeros included, against the earlier numpy expressions in
``tests/_oracles.py``.  The energies pin that
``math.cos`` gives the bits of ``np.cos`` on every argument k pi / (2 M)
of M = 1 ... 5,000 and k = 1 ... 8.
"""
import math
import sys

import numpy as np
import pytest

from hermitize import closedform

from _oracles import (continuum_arrays, locus_arrays, richardson_arrays,
                      same_bits)


def _columns(loc):
    """t, zeta+, xi+, zeta-, xi-: the order of ``locus_arrays``."""
    return (loc.y_plus.t, loc.y_plus.zeta, loc.y_plus.xi, loc.y_minus.zeta,
            loc.y_minus.xi)


@pytest.mark.parametrize("levels", range(1, 9))
def test_continuum_table_keeps_the_numpy_bits(levels):
    ms = list(range(levels, 5001))
    want = continuum_arrays(ms, levels)
    table = closedform.continuum_convergence(ms, levels)
    assert table.ms == ms and table.levels == levels
    for got, expect in zip((table.energies, table.rescaled, table.targets),
                           want):
        assert same_bits(np.array(got), expect)


@pytest.mark.parametrize("levels", range(1, 9))
def test_richardson_keeps_the_numpy_bits_on_doubling_sizes(levels):
    for m0 in range(levels, 626):
        for count in range(1, 5):
            ms = [m0 << j for j in range(count)]
            expect = richardson_arrays(continuum_arrays(ms, levels)[1])
            got = closedform.continuum_convergence(ms, levels).richardson()
            assert same_bits(np.array(got), expect), (ms, levels)


@pytest.mark.parametrize("ms", [[5, 11], [5, 10, 21], [10, 5], [40, 80, 80],
                                [3, 6, 12, 25]])
def test_richardson_refuses_sizes_that_do_not_double(ms):
    table = closedform.continuum_convergence(ms, 2)
    with pytest.raises(ValueError, match="doubling M sequence"):
        table.richardson()


def test_endpoint_locus_keeps_the_numpy_bits():
    for n in range(2, 257):
        for samples in range(1, 65):
            want = locus_arrays(n, samples)
            loc = closedform.endpoint_locus(n, samples)
            for got, expect in zip(_columns(loc), want):
                assert same_bits(np.array(got), expect), (n, samples)
            assert loc.y_minus.t is loc.y_plus.t


_T = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 0.5,
      0.1, 1.0 - 2.0 ** -53, 0.3333333333333333, 0.9]


@pytest.mark.parametrize("kind", ["list", "ndarray"])
def test_endpoint_locus_at_explicit_parameters_keeps_the_numpy_bits(kind):
    rng = np.random.default_rng(31)
    t = _T + rng.random(40).tolist()
    for n in (2, 3, 5, 17, 64, 1000, 2 ** 40):
        given = t if kind == "list" else np.array(t)
        want = locus_arrays(n, t=given)
        loc = closedform.endpoint_locus(n, t=given)
        assert all(type(v) is float for v in loc.y_plus.t), n
        for got, expect in zip(_columns(loc), want):
            assert same_bits(np.array(got), expect), n


def test_negative_zero_clips_as_numpy_maximum_does():
    # At t = -0.0 both radicands are -0.0 - 0.0 = -0.0, and
    # np.maximum(-0.0, 0.0) is 0.0: xi is +0.0, not -0.0.
    branch = closedform.endpoint_locus(4, t=[-0.0]).y_plus
    assert np.signbit(branch.zeta[0]) and not np.signbit(branch.xi[0])


@pytest.mark.parametrize("m", [10 ** 400, 2 ** 600])
def test_continuum_size_beyond_the_float_range_is_a_value_error(m):
    with pytest.raises(ValueError, match=r"M = \d+ is too large"):
        closedform.continuum_convergence([4, m], levels=1)


def test_locus_size_beyond_the_float_range_is_a_value_error():
    with pytest.raises(ValueError, match=r"n = \d+ is too large"):
        closedform.endpoint_locus(10 ** 400, samples=3)


# The y = -1 numerator 4 n + (n + 1) rho^2 is 8 n at rho = 2, so it
# overflows once n is above the float max / 8.  An int n rounds to that
# float up to half an ulp above it; the tie rounds up, to the next float.
_LOCUS_EDGE = sys.float_info.max / 8
_LARGEST_LOCUS_N = int(_LOCUS_EDGE) + int(math.ulp(_LOCUS_EDGE)) // 2 - 1


def test_endpoint_locus_up_to_the_largest_size_keeps_the_numpy_bits():
    for n in (10 ** 300, 2 * 10 ** 307, int(_LOCUS_EDGE), _LARGEST_LOCUS_N):
        want = locus_arrays(n, 7)
        columns = _columns(closedform.endpoint_locus(n, 7))
        assert all(math.isfinite(v) for c in columns for v in c), n
        for got, expect in zip(columns, want):
            assert same_bits(np.array(got), expect), n


@pytest.mark.parametrize("n", [_LARGEST_LOCUS_N + 1, 3 * 10 ** 307,
                               4 * 10 ** 307, 5 * 10 ** 307, 10 ** 308],
                         ids=["smallest", "3e307", "4e307", "5e307", "1e308"])
def test_locus_size_whose_rows_overflow_is_a_value_error(n):
    message = (rf"^n = {n} is too large: 4 n \+ \(n \+ 1\) rho\^2 overflows "
               "the float range$")
    with pytest.raises(ValueError, match=message):
        closedform.endpoint_locus(n, samples=3)
