"""Categorical entropy and Serre dimension estimators.

The entropy series tabulates dim Hom(G, S^n G[m]) for the projective
generator G.  Since Hom(P_i, N) = dim N at vertex i and Ext^1(P_i, -) = 0,
level n is the total dimension of each summand N[b] of S^n G, added at
m = -b: one walk of the projectives' Serre orbits gives every level, and no
pairwise hom/ext table is filled.  Entropy at parameter t is the growth rate
of f_n(t) = sum_m dim * exp(-m t); the estimators fit a + b/n over a
deterministic subsequence and report the extrapolated intercept.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .catalog import catalog_for
from .derived import require_nonzero, serre_orbit, standard_generator
from .errors import BudgetExceeded, ConfigError, EmptyGrid
from .quivers import Quiver, classify_dynkin

DEFAULT_BUDGET = 10**9


def _log_sum_exp(terms) -> float:
    """log(sum(exp(v))) over the terms, shifted by their maximum so that no
    single exp overflows; ConfigError when the sum leaves the float range."""
    vals = list(terms)
    top = max(vals)
    total = top + math.log(sum(math.exp(v - top) for v in vals))
    if not math.isfinite(total):
        raise ConfigError("log-sum-exp leaves the float range; use a smaller |t|")
    return total


class EntropySeries(namedtuple("EntropySeries", "quiver n_max levels m_minus m_plus")):
    __slots__ = ()
    quiver: Quiver
    n_max: int
    levels: tuple  # levels[n] is a dict m -> dim Hom(G, S^n G[m])
    m_minus: tuple  # -min support per n
    m_plus: tuple  # -max support per n

    def log_f(self, n: int, t: float) -> float:
        """log f_n(t) via a log-sum-exp, safe for large |m t|."""
        return _log_sum_exp(math.log(d) - m * t for m, d in self.levels[n].items())


@functools.lru_cache(maxsize=64)
def entropy_series(q: Quiver, n_max: int, budget: int = DEFAULT_BUDGET) -> EntropySeries:
    if n_max < 1:
        raise ConfigError("n_max must be at least 1")
    if budget < 1:
        raise ConfigError("budget must be at least 1")
    cat = catalog_for(q)
    g = standard_generator(q)
    require_nonzero(g, "generator")
    # log_f sums a level in dict order, so keys enter in the order that
    # hom_poincare(G, S^n G) gives them: each summand N counts from the first
    # projective of G that maps to it, and the stable sort keeps the summand
    # order among ties.
    tops = [cat.entries[i].proj_vertex - 1 for i, _ in g.summands]
    rank: dict[int, int] = {}

    def first_hom(pair) -> int:
        ident = pair[0]
        if ident not in rank:
            dim = cat.entries[ident].dim_vector
            rank[ident] = next(j for j, v in enumerate(tops) if dim[v])
        return rank[ident]

    levels, mins, maxs = [], [], []
    for n, pairs in enumerate(serre_orbit(g, n_max)):
        lev: dict[int, int] = {}
        for ident, b in sorted(pairs, key=first_hom):
            lev[-b] = lev.get(-b, 0) + sum(cat.entries[ident].dim_vector)
        total = sum(lev.values())
        if total > budget:
            raise BudgetExceeded(
                "hom dimensions reached %d at n=%d (budget %d)" % (total, n, budget)
            )
        levels.append(lev)
        mins.append(-min(lev))
        maxs.append(-max(lev))
    return EntropySeries(q, n_max, tuple(levels), tuple(mins), tuple(maxs))


def _fit_intercept(ns, ys) -> float:
    """Least-squares fit of y = a + b/n; returns a (the n -> infinity limit)."""
    if len(ns) == 1:
        return ys[0]
    import numpy as np

    xs = np.array([1.0 / n for n in ns])
    b, a = np.polyfit(xs, np.array(ys), 1)
    return float(a)


def _sample_points(q: Quiver, n_max: int) -> list[int]:
    dyn = classify_dynkin(q)
    if dyn is not None:
        h = dyn.coxeter_number
        ns = [n for n in range(h, n_max + 1) if n % h == 0]
        if len(ns) >= 2:
            return ns
    lo = max(1, n_max - n_max // 2)
    return list(range(lo, n_max + 1))


def entropy_estimate(
    q: Quiver, t: float, n_max: int = 30, budget: int = DEFAULT_BUDGET
) -> float:
    """Categorical entropy h_t of the Serre functor, extrapolated from the
    series.  On Dynkin quivers the sequence (1/n) log f_n is sampled at
    multiples of the Coxeter number, where it is affine in 1/n and the fit
    is exact; otherwise the tail half of the range is used."""
    series = entropy_series(q, n_max, budget)
    ns = _sample_points(q, n_max)
    ys = [series.log_f(n, t) / n for n in ns]
    return _fit_intercept(ns, ys)


class SerreDims(namedtuple("SerreDims", "upper lower exact")):
    __slots__ = ()

    def __new__(cls, upper: float, lower: float, exact: Fraction | None):
        if upper < lower - 1e-12:
            raise AssertionError("upper Serre dimension below lower")
        return super().__new__(cls, upper, lower, exact)


def sdim_estimate(q: Quiver, n_max: int = 30, budget: int = DEFAULT_BUDGET) -> SerreDims:
    """Upper and lower Serre dimension from the shift-support growth of
    S^n G, windowed over the tail half; the exact field carries
    (h - 2) / h on Dynkin quivers and None otherwise."""
    series = entropy_series(q, n_max, budget)
    lo = max(1, n_max - n_max // 2)
    window = range(lo, n_max + 1)
    upper = max(series.m_minus[n] / n for n in window)
    lower = max(series.m_plus[n] / n for n in window)
    dyn = classify_dynkin(q)
    exact = Fraction(dyn.coxeter_number - 2, dyn.coxeter_number) if dyn else None
    return SerreDims(upper=upper, lower=lower, exact=exact)


def volume(q: Quiver, lam: float, n_max: int = 30, budget: int = DEFAULT_BUDGET) -> float:
    """exp of the entropy at t = log(lambda); lambda must be positive."""
    if lam <= 0:
        raise ConfigError("volume scale factor must be positive")
    return math.exp(entropy_estimate(q, math.log(lam), n_max, budget))


class EntropyProfile(namedtuple("EntropyProfile", "slope intercept residual c_hat")):
    __slots__ = ()
    slope: float
    intercept: float
    residual: float
    c_hat: complex  # slope + i * intercept / pi


def entropy_profile(
    q: Quiver, t_grid, n_max: int = 30, budget: int = DEFAULT_BUDGET
) -> EntropyProfile:
    """Fit h_t = slope * t + intercept over the grid; residual is the max
    absolute deviation.  A tiny residual certifies affine entropy."""
    ts = [float(t) for t in t_grid]
    if not ts:
        raise EmptyGrid("entropy profile needs a nonempty t grid")
    if len(ts) < 3:
        raise ConfigError("entropy profile needs at least 3 grid points")
    if len(set(ts)) < 2:
        # a line through one abscissa is undetermined: polyfit raises
        # LinAlgError at t = 0 and returns a rank-deficient fit elsewhere
        raise ConfigError("entropy profile needs at least 2 distinct grid points")
    import numpy as np

    hs = np.array([entropy_estimate(q, t, n_max, budget) for t in ts])
    # polyfit squares the t column, which overflows past |t| ~ 1e154; fit on
    # t / 2**e instead.  Scaling by a power of two is exact, so grids that
    # fit without it give the same bits.
    e = math.frexp(max(abs(t) for t in ts))[1]
    xs = np.array([math.ldexp(t, -e) for t in ts])
    scaled_slope, intercept = np.polyfit(xs, hs, 1)
    slope = math.ldexp(float(scaled_slope), -e)
    residual = float(np.max(np.abs(scaled_slope * xs + intercept - hs)))
    return EntropyProfile(
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
        c_hat=complex(float(slope), float(intercept) / math.pi),
    )
