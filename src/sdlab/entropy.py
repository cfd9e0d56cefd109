"""Categorical entropy and Serre dimension estimators.

The entropy series tabulates dim Hom(G, S^n G[m]) for the projective
generator G.  Since Hom(P_i, N) = dim N at vertex i and Ext^1(P_i, -) = 0,
level n is the total dimension of each summand N[b] of S^n G, added at
m = -b, and past the first return S^p G = G[k] level n is level n - p with
every m moved by -k; no pairwise Euler form is read.  Off Dynkin, on a
connected quiver, S P_i = I_i and then S = tau[1] along the preinjectives,
so S^n G for n >= 1 sits in the one shift n - 1 and level n is the single
integer |sum A^n [G]| at m = 1 - n, one matrix-vector product per level.
Disconnected quivers keep the walk: a component may be Dynkin, where orbits
cross from the projectives to the injectives again and again.  Entropy at
parameter t is the growth rate of f_n(t) = sum_m dim * exp(-m t).  Off
Dynkin, on a connected quiver, f_n(t) = |sum A^n [G]| exp((n - 1) t), so
h_t = t + log rho(Phi) exactly and both Serre dimensions are 1; the series
is still read, for its budget.  Elsewhere `growth_rate` fits a + b/n over a
deterministic subsequence and reports the extrapolated intercept.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .catalog import catalog_for
from .derived import require_nonzero, serre_walk, standard_generator
from .errors import BudgetExceeded, ConfigError, EmptyGrid
from .quivers import Quiver, classify_dynkin, int_mat_vec, log_spectral_radius

DEFAULT_BUDGET = 10**9


def log_sum_exp(terms) -> float:
    """log(sum(exp(v))) over the terms, shifted by their maximum so that no
    single exp overflows; ConfigError when the sum leaves the float range."""
    vals = list(terms)
    top = max(vals)
    # one term is its own sum: top + log(exp(0)) is top + 0.0, bit for bit
    total = top + (math.log(sum(math.exp(v - top) for v in vals)) if len(vals) > 1 else 0.0)
    if not math.isfinite(total):
        raise ConfigError("log-sum-exp leaves the float range; use a smaller |t|")
    return total


class EntropySeries(namedtuple("EntropySeries", "quiver n_max levels m_minus m_plus")):
    # no __slots__: each series keeps its caches in its instance dict
    quiver: Quiver
    n_max: int
    levels: tuple  # levels[n] is a dict m -> dim Hom(G, S^n G[m])
    m_minus: tuple  # -min support per n
    m_plus: tuple  # -max support per n

    @functools.cached_property
    def logs(self) -> dict:
        """log dim for each dimension in the levels, computed once."""
        return {d: math.log(d) for lev in self.levels for d in lev.values()}

    @functools.cached_property
    def log_rho(self) -> float | None:
        """log rho(Phi) where h_t = t + log rho exactly: off Dynkin, on a
        connected quiver; None elsewhere."""
        if catalog_for(self.quiver).single_crossing:
            return log_spectral_radius(self.quiver)
        return None

    def log_f(self, n: int, t: float) -> float:
        """log f_n(t) via a log-sum-exp over `logs`, safe for large |m t|."""
        return log_sum_exp(self.logs[d] - m * t for m, d in self.levels[n].items())


def _kclass_levels(cat, n_max: int):
    """Off Dynkin, on a connected quiver: S P_i = I_i, and S = tau[1] along
    the preinjectives, which never reach a projective.  So for n >= 1,
    S^n G = sum_i tau^(n-1) I_i [n-1] sits in one shift, its K-class
    A^n [G] is (-1)^(n-1) times its dimension vector, and level n is
    {1 - n: |sum A^n [G]|}: one integer vector stepped by A, and no catalog
    entry made."""
    w = tuple(map(sum, zip(*(cat.entries[i].dim_vector for i in cat.proj_ids))))
    yield {0: sum(w)}
    for n in range(1, n_max + 1):
        w = int_mat_vec(cat.serre_k, w)
        yield {1 - n: abs(sum(w))}


def _walked_levels(cat, g, n_max: int):
    """The levels off `serre_walk`; past its first return p, level n is level
    n - p with every key moved by -k, in the same order, so log_f keeps its bits."""
    # log_f sums a level in dict order, so keys enter in the order that
    # hom_poincare(G, S^n G) gives them: each summand N counts from the first
    # projective of G that maps to it, and the stable sort keeps the summand
    # order among ties.
    tops = [cat.entries[i].proj_vertex - 1 for i, _ in g.summands]

    def first_hom(pair) -> int:
        dim = cat.entries[pair[0]].dim_vector
        return next(j for j, v in enumerate(tops) if dim[v])

    levels = []
    for pairs, k in serre_walk(g, n_max):
        if k is not None:
            break
        lev: dict[int, int] = {}
        for ident, b in sorted(pairs, key=first_hom):
            lev[-b] = lev.get(-b, 0) + sum(cat.entries[ident].dim_vector)
        levels.append(lev)
        yield lev
    p = len(levels)
    for n in range(p, n_max + 1):
        levels.append({m - k: d for m, d in levels[n - p].items()})
        yield levels[-1]


@functools.lru_cache(maxsize=64)
def _series(q: Quiver, n_max: int, budget: int) -> EntropySeries:
    if n_max < 1:
        raise ConfigError("n_max must be at least 1")
    if budget < 1:
        raise ConfigError("budget must be at least 1")
    cat = catalog_for(q)
    g = standard_generator(q)
    require_nonzero(g, "generator")
    levels = []
    for n, lev in enumerate(_kclass_levels(cat, n_max) if cat.single_crossing
                            else _walked_levels(cat, g, n_max)):
        total = sum(lev.values())
        if total > budget:
            raise BudgetExceeded(
                "hom dimensions reached %d at n=%d (budget %d)" % (total, n, budget)
            )
        levels.append(lev)
    return EntropySeries(q, n_max, tuple(levels), tuple(-min(lev) for lev in levels),
                         tuple(-max(lev) for lev in levels))


def entropy_series(q: Quiver, n_max: int, budget: int = DEFAULT_BUDGET) -> EntropySeries:
    """Levels 0..n_max, cached once per (q, n_max, budget) whether or not the
    budget is passed.  Off Dynkin on a connected quiver they are one integer
    recurrence (`_kclass_levels`).  On a Dynkin quiver orbits cross from the
    projectives to the injectives again and again, so the levels are read off
    `serre_walk`; so are a disconnected quiver's, as a component may be Dynkin
    (and A2 + A2 has a period)."""
    return _series(q, n_max, budget)


entropy_series.cache_info = _series.cache_info
entropy_series.cache_clear = _series.cache_clear


def tail_window(n_max: int) -> range:
    """The tail half of the levels 1..n_max, where the estimators read."""
    return range(max(1, n_max - n_max // 2), n_max + 1)


def growth_rate(q: Quiver, n_max: int, log_f) -> float:
    """Extrapolated n -> infinity limit of log_f(n) / n: the intercept a of
    the least-squares fit y = a + b/n.  On Dynkin quivers it is sampled at
    the multiples of the Coxeter number when n_max holds two, where the
    sequence is affine in 1/n and the fit is exact; otherwise over the tail
    window."""
    dyn = classify_dynkin(q)
    ns = tail_window(n_max)
    if dyn is not None and n_max >= 2 * dyn.coxeter_number:
        ns = range(dyn.coxeter_number, n_max + 1, dyn.coxeter_number)
    ys = [log_f(n) / n for n in ns]
    if len(ns) == 1:
        return ys[0]
    import numpy as np

    b, a = np.polyfit(np.array([1.0 / n for n in ns]), np.array(ys), 1)
    return float(a)


def entropy_estimate(
    q: Quiver, t: float, n_max: int = 30, budget: int = DEFAULT_BUDGET
) -> float:
    """Categorical entropy h_t of the Serre functor.  Off Dynkin, on a
    connected quiver, it is t + log rho(Phi) exactly, and n_max only bounds
    the series read for its budget; elsewhere it is extrapolated from the
    series by `growth_rate` once per t and series."""
    series = entropy_series(q, n_max, budget)
    if series.log_rho is not None:
        return t + series.log_rho
    memo = vars(series).setdefault("estimates", {})  # t -> h_t, up to 64
    h = memo.get(t)
    if h is None:
        h = growth_rate(q, n_max, lambda n: series.log_f(n, t))
        if len(memo) < 64:
            memo[t] = h
    return h


class SerreDims(namedtuple("SerreDims", "upper lower exact")):
    __slots__ = ()

    def __new__(cls, upper: float, lower: float, exact: Fraction | None):
        if upper < lower - 1e-12:
            raise AssertionError("upper Serre dimension below lower")
        return super().__new__(cls, upper, lower, exact)


def sdim_estimate(q: Quiver, n_max: int = 30, budget: int = DEFAULT_BUDGET) -> SerreDims:
    """Upper and lower Serre dimension.  Off Dynkin, on a connected quiver,
    S^n G sits in the one shift n - 1, so both are exactly 1, as is the
    exact field, once the series has been read for its budget.  Elsewhere
    they are read off the shift-support growth of S^n G, windowed over the
    tail half, and the exact field carries (h - 2) / h on Dynkin quivers and
    None otherwise."""
    series = entropy_series(q, n_max, budget)
    if series.log_rho is not None:
        return SerreDims(upper=1.0, lower=1.0, exact=Fraction(1))
    window = tail_window(n_max)
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
    """Fit h_t = slope * t + intercept over the grid by least squares;
    residual is the max absolute deviation.  A tiny residual certifies
    affine entropy."""
    ts = [float(t) for t in t_grid]
    if not ts:
        raise EmptyGrid("entropy profile needs a nonempty t grid")
    if len(ts) < 3:
        raise ConfigError("entropy profile needs at least 3 grid points")
    if len(set(ts)) < 2:
        # a line through one abscissa is undetermined
        raise ConfigError("entropy profile needs at least 2 distinct grid points")
    hs = [entropy_estimate(q, t, n_max, budget) for t in ts]
    # fit on t / 2**e, inside [-1, 1], so that no square of t overflows;
    # scaling by a power of two is exact
    e = math.frexp(max(abs(t) for t in ts))[1]
    xs = [math.ldexp(t, -e) for t in ts]
    x_bar, h_bar = sum(xs) / len(xs), sum(hs) / len(hs)
    dxs = [x - x_bar for x in xs]
    scaled_slope = (sum(dx * (h - h_bar) for dx, h in zip(dxs, hs))
                    / sum(dx * dx for dx in dxs))
    intercept = h_bar - scaled_slope * x_bar
    slope = math.ldexp(scaled_slope, -e)
    residual = max(abs(scaled_slope * x + intercept - h) for x, h in zip(xs, hs))
    if not all(map(math.isfinite, (slope, intercept, residual))):
        raise ConfigError("entropy profile leaves the float range; use a smaller |t|")
    return EntropyProfile(
        slope=slope,
        intercept=intercept,
        residual=residual,
        c_hat=complex(slope, intercept / math.pi),
    )
