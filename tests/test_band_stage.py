"""The band stage of the phase solver against the earlier one.

``_oracles.band_roots`` is the band stage as it was before it was made
lean (one state array, the derivatives at every evaluation, a final
cosine); the stage in ``spectrum`` must return the same bits, fail with
the same ``NoConvergence.best``, and evaluate the phase no more often.
"""

import numpy as np
import pytest

from hermitize import spectrum
from hermitize.analysis import _zs_from_grid
from hermitize.errors import NoConvergence
from hermitize.spectrum import _EPS, _solve_batch

import _oracles
from _oracles import same_bits


def _band_args(zs):
    """(a, b, m2, p2) of the couplings that reach the band stage, as
    ``spectrum._secular_roots`` forms them: the rows with |z|^2 != 1."""
    zs = np.asarray(zs, dtype=complex)
    a, w = zs.real, zs.imag
    b = a * a + w * w
    a, w, b = a[b != 1.0], w[b != 1.0], b[b != 1.0]
    return a, b, (1.0 - a) ** 2 + w ** 2, (1.0 + a) ** 2 + w ** 2


def _outcome(band, n, args, max_iter):
    """("roots", y, row) or ("NoConvergence", message, best)."""
    try:
        return ("roots", *band(n, *args, max_iter))
    except NoConvergence as exc:
        return "NoConvergence", str(exc), exc.best


def _assert_same(n, zs):
    args = _band_args(zs)
    for max_iter in (0, 1, 2, 500):
        kind, got, extra = _outcome(spectrum._band_roots, n, args, max_iter)
        ref = _outcome(_oracles.band_roots, n, args, max_iter)
        assert kind == ref[0]
        if kind == "roots":
            assert same_bits(got, ref[1]) and np.array_equal(extra, ref[2])
        else:
            assert got == ref[1] and same_bits(extra, ref[2])


def _scan_grids(n, steps):
    """The couplings of the reality-scan sweeps: xi lines at four zeta and
    zeta lines at two xi, through exceptional points."""
    grids = [_zs_from_grid(np.linspace(0.0, 3.0, steps), zeta)
             for zeta in (0.7, 0.6, 0.3, -0.4)]
    grids += [_zs_from_grid(xi, np.linspace(-1.5, 0.95, steps))
              for xi in (0.05, 0.8)]
    return grids


@pytest.mark.parametrize("n, steps", [(8, 300), (32, 60)])
def test_reality_scan_grids_bitwise(n, steps):
    for zs in _scan_grids(n, steps):
        _assert_same(n, zs)


@pytest.mark.parametrize("n", [3, 4, 8, 32, 1024])
def test_unit_circle_within_1e_12_bitwise(n):
    # |z| = 1 + d e^(i phase): theta turns by pi within ~d of the level.
    d = np.array([-1e-12, -3e-13, -2.0 ** -52, 2.0 ** -52, 1e-14, 1e-12])
    phase = np.array([0.1, 0.9, 1.7, 2.5, 3.1, -1.3])
    zs = (1.0 + d[:, None]) * np.exp(1j * phase[None, :])
    _assert_same(n, zs.ravel())


@pytest.mark.parametrize("n", [3, 4, 10, 32, 1024])
def test_falling_pieces_bitwise(n):
    # 1 < |z| <= (n + 1)/(n - 1): psi can fall between its two critical
    # points.  At n = 10 one of these does (the case of
    # test_decreasing_piece_and_its_critical_points).
    top = (n + 1.0) / (n - 1.0)
    r = 1.0 + (top - 1.0) * np.array([0.01, 0.3, 0.7, 0.99, 1.0])
    phase = np.linspace(-3.0, 3.0, 13)
    zs = (r[:, None] * np.exp(1j * phase[None, :])).ravel()
    if n == 10:
        zs = np.append(zs, 0.7529 - 0.7385j)
    args = _band_args(zs)
    _, levels = spectrum._monotone_pieces(n, *args)
    assert np.any(levels[:, 2] < levels[:, 1])
    _assert_same(n, zs)


@pytest.mark.parametrize("n", [3, 4, 8, 1024])
def test_real_couplings_bitwise(n):
    zs = np.concatenate([np.linspace(-3.0, 3.0, 61), [0.0, -1e-300, 1e3]])
    _assert_same(n, zs)


def test_random_batches_bitwise():
    # Sizes 3 - 100, |z| log-uniform over 1e-3 .. 1e3, within 1e-3 of 1,
    # or nearly real.
    rng = np.random.default_rng(20261019)
    for trial in range(48):
        n = int(rng.integers(3, 101))
        size = int(rng.integers(1, 30))
        phase = rng.uniform(-np.pi, np.pi, size)
        if trial % 3 == 0:
            r = 10.0 ** rng.uniform(-3.0, 3.0, size)
        elif trial % 3 == 1:
            r = 1.0 + rng.uniform(-1e-3, 1e-3, size)
        else:
            r = 10.0 ** rng.uniform(-1.0, 1.0, size)
            phase = rng.choice([0.0, np.pi], size) + rng.normal(0.0, 1e-9,
                                                                size)
        _assert_same(n, r * np.exp(1j * phase))


def test_first_iterates_are_window_midpoints_unless_cut(monkeypatch):
    # The first iterate is a window midpoint, whose cosine and sine come
    # from a table, unless a piece end cuts the window (always the first
    # window, and the windows of the critical points of |z| > 1).
    n = 12
    zs = np.array([0.5 + 0.2j, 1.3 - 0.4j, 1.05 + 0.02j, 4.0 + 1.0j])
    first = []
    phase = spectrum._half_phase

    def spy(n, gamma, *args):
        if gamma.ndim == 1 and not first:
            first.append(gamma.copy())
        return phase(n, gamma, *args)

    monkeypatch.setattr(spectrum, "_half_phase", spy)
    spectrum._band_roots(n, *_band_args(zs), 500)
    win = np.arange(n + 1.0)
    mid = 0.5 * ((win * np.pi / n - 4.0 * _EPS)
                 + ((win + 1.0) * np.pi / n + 4.0 * _EPS))
    on_table = np.isin(first[0], mid)
    assert on_table.any() and not on_table.all()
    monkeypatch.undo()
    _assert_same(n, zs)


def _count(monkeypatch, module, phase_name, slope_name, band_name):
    """Count the elements each phase, derivative and band-stage call sees
    in ``module``; slope_name may be None."""
    counts = {"phase": 0, "band_phase": 0, "slope": 0, "crossings": 0}
    phase, band = getattr(module, phase_name), getattr(module, band_name)

    def counted_phase(*args, **kwargs):
        gamma = args[-1] if module is _oracles else args[1]
        counts["phase"] += gamma.size
        counts["band_phase"] += gamma.size if gamma.ndim == 1 else 0
        return phase(*args, **kwargs)

    def counted_band(*args):
        y, row = band(*args)
        counts["crossings"] += y.size
        return y, row

    monkeypatch.setattr(module, phase_name, counted_phase)
    monkeypatch.setattr(module, band_name, counted_band)
    if slope_name:
        slope = getattr(module, slope_name)

        def counted_slope(*args):
            counts["slope"] += args[-1][0].size
            return slope(*args)

        monkeypatch.setattr(module, slope_name, counted_slope)
    return counts


@pytest.mark.parametrize("n, steps, ceiling", [(8, 300, 3.42),
                                               (32, 60, 3.04)])
def test_phase_evaluations_per_crossing(monkeypatch, n, steps, ceiling):
    # On the reality-scan grids the stage evaluates the phase (its
    # monotone pieces included) no more often per crossing than the
    # earlier one did (3.418 at n = 8, 3.034 at n = 32), and the
    # derivatives only where a crossing goes on: once per evaluation of a
    # crossing but its last.
    grids = _scan_grids(n, steps)
    new = _count(monkeypatch, spectrum, "_half_phase", "_phase_slope",
                 "_band_roots")
    for zs in grids:
        _solve_batch(n, zs)
    old = _count(monkeypatch, _oracles, "half_phase", None, "band_roots")
    monkeypatch.setattr(spectrum, "_band_roots", _oracles.band_roots)
    for zs in grids:
        _solve_batch(n, zs)
    assert new["crossings"] == old["crossings"] > 0
    per_crossing = new["phase"] / new["crossings"]
    assert per_crossing <= old["phase"] / old["crossings"]
    assert per_crossing <= ceiling
    assert new["slope"] == new["band_phase"] - new["crossings"]
    assert new["slope"] < new["phase"]
