import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import (
    ConfigError,
    CurveStability,
    EmptyGrid,
    GenusTooSmall,
    curve_gldim,
    curve_gldim_bounds,
    curve_inf_scan,
    genus0_pair_sup,
    genus1_pair_sup,
    shift_gap_grid,
)

G2 = CurveStability(2, 0.0, 1.0)


def test_class_and_parameter_guards():
    with pytest.raises(GenusTooSmall):
        CurveStability(-1, 0.0, 1.0)
    with pytest.raises(ConfigError):
        CurveStability(2, 0.0, 0.0)
    with pytest.raises(ConfigError):
        CurveStability(2, 0.0, -3.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: curve_gldim(CurveStability(2, 0.0, math.nan)),
        lambda: curve_gldim(CurveStability(2, math.inf, 1.0)),
        lambda: genus1_pair_sup(CurveStability(1, 0.0, math.nan)),
    ],
    ids=["nan-H", "inf-beta", "genus1-nan-H"],
)
def test_nonfinite_curve_parameters_raise(call):
    with pytest.raises(ConfigError, match="must be finite"):
        call()


def test_genus_two_bounds_at_unit_polarization():
    lower, upper = curve_gldim_bounds(G2)
    assert abs(lower - 1.3524163823495667) < 1e-12
    assert upper == 1.5
    assert curve_gldim(G2) == (lower, upper)


def test_bounds_match_closed_forms_on_h_grid():
    for h in (0.5, 1.0, 10.0, 100.0, 1000.0):
        cs = CurveStability(2, 0.0, h)
        lower, upper = curve_gldim_bounds(cs)
        want_lower = 1.0 + (
            (math.pi / 2.0 - math.atan(-2.0 / h)) - (math.pi / 2.0 - math.atan(0.0))
        ) / math.pi
        want_upper = 1.0 + (2.0 / math.pi) * math.atan(1.0 / h)
        assert abs(lower - want_lower) < 1e-12
        assert abs(upper - want_upper) < 1e-12
        assert 1.0 < lower <= upper


def test_bounds_decrease_toward_one():
    grid = (0.1, 1.0, 10.0, 100.0, 1000.0)
    rows = curve_inf_scan(2, grid)
    lowers = [lo for _, lo, _ in rows]
    uppers = [up for _, _, up in rows]
    assert lowers == sorted(lowers, reverse=True)
    assert uppers == sorted(uppers, reverse=True)
    assert all(lo > 1.0 for lo in lowers)
    assert all(up >= lo for lo, up in zip(lowers, uppers))
    assert uppers[-1] <= 1.001


def test_higher_genus_widens_the_window():
    for g in (3, 5, 11):
        lower, upper = curve_gldim_bounds(CurveStability(g, 0.0, 1.0))
        base_lower, base_upper = curve_gldim_bounds(G2)
        assert lower > base_lower
        assert upper > base_upper
        assert upper < 2.0


def test_low_genus_is_exactly_one():
    assert curve_gldim(CurveStability(0, 0.0, 1.0)) == (1.0, 1.0)
    assert curve_gldim(CurveStability(1, 0.0, 1.0)) == (1.0, 1.0)
    with pytest.raises(GenusTooSmall):
        curve_gldim_bounds(CurveStability(1, 0.0, 1.0))


def test_scan_guards():
    with pytest.raises(EmptyGrid):
        curve_inf_scan(2, ())
    rows = curve_inf_scan(2, (1.0,), beta=0.0)
    assert len(rows) == 1 and rows[0][0] == 1.0


def test_shift_gap_grid_matches_both_bounds():
    xs = np.linspace(0.0, 2.0, 21)
    gaps = shift_gap_grid(2, 1.0, xs)
    assert gaps.shape == (21,)
    lower, upper = curve_gldim_bounds(G2)
    # integer twist at either end of the canonical window gives the lower
    # bound; the real-relaxed maximum sits at the midpoint x = g - 1
    assert abs(gaps[0] - lower) < 1e-12
    assert abs(gaps[-1] - lower) < 1e-12
    assert abs(float(np.max(gaps)) - upper) < 1e-12
    assert np.allclose(gaps, gaps[::-1], atol=1e-12)


def test_genus_zero_pair_supremum():
    cs = CurveStability(0, 0.0, 1.0)
    val = genus0_pair_sup(cs, a_max=200)
    assert abs(val - 0.9999839241490915) < 1e-12
    assert 0.99 < val < 1.0
    more = genus0_pair_sup(cs, a_max=400)
    assert val <= more < 1.0
    with pytest.raises(ConfigError):
        genus0_pair_sup(G2)


def test_genus_one_pair_supremum():
    cs = CurveStability(1, 0.0, 1.0)
    val = genus1_pair_sup(cs, r_max=50, d_max=50)
    assert abs(val - (1.0 - math.atan(1.0 / 50.0) / math.pi)) < 1e-12
    assert 0.99 < val < 1.0
    with pytest.raises(ConfigError):
        genus1_pair_sup(G2)


def test_genus_zero_pair_supremum_edges():
    # one line bundle: the only pair is Hom(O, O), with gap 0
    assert genus0_pair_sup(CurveStability(0, 0.0, 1.0), a_max=0) == 0.0
    with pytest.raises(ConfigError):
        genus0_pair_sup(CurveStability(0, 0.0, 1.0), a_max=-1)


def test_genus_one_pair_supremum_edges():
    cs = CurveStability(1, 0.0, 1.0)
    assert genus1_pair_sup(cs, r_max=0, d_max=5) == 0.0  # torsion only
    assert genus1_pair_sup(cs, r_max=5, d_max=0) == 0.0  # one slope
    assert genus1_pair_sup(cs, r_max=0, d_max=0) == 0.0  # no classes
    # (-1, 5), (5, -1): negative bounds; 2^18, 2^16: float slopes could merge
    for r_max, d_max in ((-1, 5), (5, -1), (2 ** 18, 2 ** 16)):
        with pytest.raises(ConfigError):
            genus1_pair_sup(cs, r_max=r_max, d_max=d_max)


def test_shift_gap_grid_validates_its_curve():
    with pytest.raises(ConfigError):
        shift_gap_grid(2, 0.0, [0.0, 1.0])
    with pytest.raises(ConfigError):
        shift_gap_grid(2, -1.0, [0.0, 1.0])
    with pytest.raises(GenusTooSmall):
        shift_gap_grid(-1, 1.0, [0.0, 1.0])


def _brute_genus1_pair_sup(cs, r_max=50, d_max=50):
    """Reference for genus1_pair_sup: every class pair with r1 d2 - r2 d1 > 0,
    scanned in row chunks of the full N x N gap matrix."""
    rs, ds = [], []
    for d in range(1, d_max + 1):  # torsion classes
        rs.append(0)
        ds.append(d)
    for r in range(1, r_max + 1):
        for d in range(-d_max, d_max + 1):
            rs.append(r)
            ds.append(d)
    r_arr = np.array(rs, dtype=float)
    d_arr = np.array(ds, dtype=float)
    phases = np.arctan2(r_arr * cs.H, r_arr * cs.beta - d_arr) / np.pi
    best = 0.0
    chunk = 512
    for lo in range(0, len(r_arr), chunk):
        hi = min(lo + chunk, len(r_arr))
        cross = np.outer(r_arr[lo:hi], d_arr) - np.outer(d_arr[lo:hi], r_arr)
        gaps = phases[None, :] - phases[lo:hi, None]
        gaps[cross <= 0] = -np.inf
        m = float(np.max(gaps))
        if m > best:
            best = m
    return best


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    beta=st.floats(-60.0, 60.0) | st.integers(-60, 60).map(float),
    log_h=st.floats(-3.0, 3.0),
    r_max=st.integers(0, 30),
    d_max=st.integers(0, 30),
)
def test_genus_one_slope_scan_matches_pair_scan(beta, log_h, r_max, d_max):
    cs = CurveStability(1, beta, 10.0 ** log_h)
    assert genus1_pair_sup(cs, r_max, d_max) == _brute_genus1_pair_sup(cs, r_max, d_max)


@pytest.mark.parametrize("h", [0.5, 1.0, 4.0])
def test_genus_one_slope_scan_matches_pair_scan_at_default_bounds(h):
    cs = CurveStability(1, 0.0, h)
    assert genus1_pair_sup(cs) == _brute_genus1_pair_sup(cs)


def test_genus_one_slope_scan_scales():
    # ~180k classes: 3e10 pairs for the brute-force scan
    t0 = time.perf_counter()
    val = genus1_pair_sup(CurveStability(1, 0.0, 1.0), r_max=300, d_max=300)
    assert time.perf_counter() - t0 < 5.0
    assert genus1_pair_sup(CurveStability(1, 0.0, 1.0)) < val < 1.0
