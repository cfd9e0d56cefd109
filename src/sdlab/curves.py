"""Global dimension bounds for stability conditions on smooth projective
curves.

A numerical class of rank r and degree d has central charge
Z = -d + r (beta + i H); the bounds and the pair oracles write its phase
inline.  Genus 0 and 1 give global dimension exactly 1;
genus g >= 2 gives the closed-form lower and upper bounds coming from the
pairing of a line bundle with its Serre twist, with the upper bound
optimizing the twist shift over the reals.  Desk-scale pair scans over
explicit classes approach the bounds from below and serve as oracles.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConfigError, EmptyGrid, GenusTooSmall, require_finite


class CurveStability(namedtuple("CurveStability", "genus beta H")):
    __slots__ = ()

    def __new__(cls, genus: int, beta: float, H: float):
        if genus < 0:
            raise GenusTooSmall("genus must be a nonnegative integer")
        require_finite("beta", beta)
        if require_finite("H", H) <= 0:
            raise ConfigError("H must be positive")
        return super().__new__(cls, genus, beta, H)


def arccot(x: float) -> float:
    """Principal inverse cotangent with values in (0, pi)."""
    return math.pi / 2.0 - math.atan(x)


def curve_gldim_bounds(cs: CurveStability) -> tuple[float, float]:
    """Closed-form bounds for genus at least 2.

    The lower bound pairs the trivial bundle with its Serre twist:
    1 + (arccot((beta - 2g + 2)/H) - arccot(beta/H)) / pi.  The upper bound
    relaxes the twist shift to a real variable, maximized at g - 1:
    1 + (2/pi) arctan((g - 1)/H).
    """
    g = cs.genus
    if g < 2:
        raise GenusTooSmall("closed-form bounds require genus at least 2")
    lower = 1.0 + (arccot((cs.beta - 2.0 * g + 2.0) / cs.H) - arccot(cs.beta / cs.H)) / math.pi
    upper = 1.0 + (2.0 / math.pi) * math.atan((g - 1.0) / cs.H)
    return lower, upper


def curve_gldim(cs: CurveStability) -> tuple[float, float]:
    """Global dimension of the standard stability condition as an interval;
    genus 0 and 1 give exactly (1.0, 1.0)."""
    if cs.genus <= 1:
        return 1.0, 1.0
    return curve_gldim_bounds(cs)


def curve_inf_scan(g: int, h_grid, beta: float = 0.0):
    """Rows (H, lower, upper) of the global-dimension interval over a grid
    of polarization scales."""
    hs = [float(h) for h in h_grid]
    if not hs:
        raise EmptyGrid("H grid is empty")
    rows = []
    for h in hs:
        lo, up = curve_gldim(CurveStability(genus=g, beta=beta, H=h))
        rows.append((h, lo, up))
    return rows


def shift_gap_grid(g: int, H: float, x_grid):
    """1 + (arccot((x - (2g-2))/H) - arccot(x/H)) / pi over a grid of real
    twist shifts x, as a numpy array; its max approaches the closed-form
    upper bound."""
    CurveStability(g, 0.0, H)  # raises on a negative genus or H <= 0
    import numpy as np

    xs = np.asarray(x_grid, dtype=float)
    a = np.pi / 2.0 - np.arctan((xs - (2.0 * g - 2.0)) / H)
    b = np.pi / 2.0 - np.arctan(xs / H)
    return 1.0 + (a - b) / np.pi


# -------------------------------------------------------------- pair oracles


def genus0_pair_sup(cs: CurveStability, a_max: int = 200) -> float:
    """Sup of phase gaps over line-bundle pairs O(a), O(b) with |a|, |b|
    bounded: Hom is nonzero iff b >= a (degree 0 maps) and Ext^1 is nonzero
    iff b <= a - 2 (Serre duality with omega = O(-2))."""
    if cs.genus != 0:
        raise ConfigError("genus 0 oracle called with genus %d" % cs.genus)
    if a_max < 0:
        raise ConfigError("a_max must be nonnegative")
    import numpy as np

    a = np.arange(-a_max, a_max + 1, dtype=float)
    phases = np.arctan2(cs.H, cs.beta - a) / np.pi  # class (1, a)
    prefmin = np.minimum.accumulate(phases)
    hom_sup = float(np.max(phases - prefmin))
    prefmax = np.maximum.accumulate(phases)
    ext_sup = 1.0 + float(np.max(prefmax[:-2] - phases[2:], initial=-np.inf))
    return max(hom_sup, ext_sup)


def genus1_pair_sup(cs: CurveStability, r_max: int = 50, d_max: int = 50) -> float:
    """Sup of phase gaps phi(F) - phi(E) over the Hom pairs among classes on
    an elliptic curve with rank 0..r_max and |degree| <= d_max (torsion of
    degree 1..d_max), or 0.0 when there is no such pair.

    Hom((r1,d1),(r2,d2)) is nonzero iff r1 d2 - r2 d1 > 0, i.e. iff the
    slope d/r strictly increases, torsion having slope +inf.  So the classes
    are sorted by slope and each slope group's largest phase is paired with
    the smallest phase of all strictly smaller slopes, a prefix minimum over
    the groups.  Rounded subtraction is monotone, so this is the same float
    as the maximum over all pairs.  The Calabi-Yau Ext^1 pairs mirror the Hom
    pairs and are not scanned."""
    if cs.genus != 1:
        raise ConfigError("genus 1 oracle called with genus %d" % cs.genus)
    if r_max < 0 or d_max < 0:
        raise ConfigError("r_max and d_max must be nonnegative")
    # Distinct slopes differ by at least 1/r_max^2 and have |d/r| <= d_max,
    # where the spacing of floats is at most d_max 2^-52; below this bound
    # the correctly rounded quotients d/r keep every strict order, and equal
    # slopes always give equal quotients.
    if r_max * r_max * d_max >= 2 ** 52:
        raise ConfigError("r_max^2 d_max must be below 2^52")
    import numpy as np

    # the torsion classes (0, 1..d_max), then (r, -d_max..d_max) for each r
    r_arr = np.r_[np.zeros(d_max), np.repeat(np.arange(1.0, r_max + 1), 2 * d_max + 1)]
    d_arr = np.r_[np.arange(1.0, d_max + 1), np.tile(np.arange(-d_max, d_max + 1.0), r_max)]
    phases = np.arctan2(r_arr * cs.H, r_arr * cs.beta - d_arr) / np.pi
    slopes = np.full(len(r_arr), np.inf)
    np.divide(d_arr, r_arr, out=slopes, where=r_arr > 0)
    order = np.argsort(slopes)
    slopes, phases = slopes[order], phases[order]
    starts = np.flatnonzero(np.r_[True, slopes[1:] != slopes[:-1]])
    if len(starts) < 2:
        return 0.0
    below = np.minimum.accumulate(np.minimum.reduceat(phases, starts))[:-1]
    gaps = np.maximum.reduceat(phases, starts)[1:] - below
    return max(0.0, float(np.max(gaps)))
