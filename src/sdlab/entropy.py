"""Categorical entropy and Serre dimension estimators.

The entropy series tabulates dim Hom(G, S^n G[m]) for the projective
generator G.  Since Hom(P_i, N) = dim N at vertex i and Ext^1(P_i, -) = 0,
level n is the total dimension of each summand N[b] of S^n G, added at
m = -b; no pairwise Euler form is read.  On a connected Dynkin quiver
S^h G = G[h - 2], so levels 0..h-1 (read off `IndecCatalog.serre_power`)
give every level: level n is level n mod h with every m moved by
-(n // h)(h - 2).  Those h levels are kept once per quiver for the life of
the process, so only a quiver's first series walks the catalog, and
`entropy_series.cache_clear()` does not free them.  Off Dynkin, on a
connected quiver, S P_i = I_i and then S = tau[1] along the preinjectives,
so S^n G for n >= 1 sits in the one shift n - 1 and level n is the single
integer |sum A^n [G]| at m = 1 - n, stepped by the Cayley-Hamilton
recurrence of the Coxeter polynomial.  D^b(k(Q1 + Q2)) = D^b(kQ1) +
D^b(kQ2), so a disconnected quiver's levels are the key-wise sums of its
components' levels, read level by level; its own catalog is never
stepped.

Entropy at parameter t is the growth rate of f_n(t) = sum_m dim * exp(-m t).
Off Dynkin, on a connected quiver, f_n(t) = |sum A^n [G]| exp((n - 1) t),
so h_t = t + log rho(Phi) exactly and both Serre dimensions are 1; the
estimators read no series there, so no budget binds them.  Elsewhere
`growth_rate` fits a + b/n over a deterministic subsequence and reports the
extrapolated intercept, exact in integers and rounded once, from weights
built once per sample range; no numpy is loaded.  `entropy_estimate` and
`entropy_profile` fit every t of their grid off one sweep of those samples:
each level is located and its logs taken once, and then each t gets the
values and the one fit that `growth_rate` over `EntropySeries.log_f` gives
it, bit for bit.  The Dynkin levels come from catalog orbits that take no
matrix step, as the knitting recorded S on every entry; `sdim_estimate`
reads each support at 2p levels, for G's first return p.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .catalog import catalog_for
from .derived import Period
from .errors import BudgetExceeded, ConfigError, EmptyGrid, require_finite
from .quivers import (
    Quiver,
    classify_dynkin,
    coxeter_polynomial,
    int_mat_vec,
    log_spectral_radius,
)

DEFAULT_BUDGET = 10**9
_LSE_RANGE = "log-sum-exp leaves the float range; use a smaller |t|"
_FIT_RANGE = "the growth-rate fit leaves the float range; use a smaller |t|"


def log_sum_exp(terms) -> float:
    """log(sum(exp(v))) over the terms, shifted by their maximum so that no
    single exp overflows; ConfigError when the sum leaves the float range."""
    vals = list(terms)
    top = max(vals)
    # one term is its own sum: top + log(exp(0)) is top + 0.0, bit for bit
    total = top + (math.log(sum(math.exp(v - top) for v in vals)) if len(vals) > 1 else 0.0)
    if not math.isfinite(total):
        raise ConfigError(_LSE_RANGE)
    return total


def _moved_level(level: dict, move: int) -> dict:
    """The level with every key moved by -move, in the same order."""
    return {m - move: d for m, d in level.items()}


class EntropySeries(namedtuple("EntropySeries", "quiver n_max levels m_minus m_plus")):
    """G's entropy series (`entropy_series`); no __slots__: its dict holds the estimate memo."""
    quiver: Quiver
    n_max: int
    levels: Period  # levels[n] is a dict m -> dim Hom(G, S^n G[m])
    m_minus: Period  # -min support per n
    m_plus: Period  # -max support per n

    def log_f(self, n: int, t: float) -> float:
        """log f_n(t) via a log-sum-exp, safe for large |m t|."""
        lev, move = self.levels.locate(n)
        return log_sum_exp(math.log(d) - (m - move) * t for m, d in lev.items())


def _summed(items) -> dict[int, int]:
    """The dims of the (m, dim) items added per m, keys in first-seen order."""
    out: dict[int, int] = {}
    for m, d in items:
        out[m] = out.get(m, 0) + d
    return out


def _kclass_levels(cat):
    """Off Dynkin, on a connected quiver: S P_i = I_i, and S = tau[1] along
    the preinjectives, which never reach a projective.  So for n >= 1,
    S^n G = sum_i tau^(n-1) I_i [n-1] sits in one shift, its K-class
    A^n [G] is (-1)^(n-1) times its dimension vector, and level n is
    {1 - n: |s_n|} for s_n = sum A^n [G]; no catalog entry is made.  By
    Cayley-Hamilton s_(n+d) = -sum_i a_i s_(n+i) for the characteristic
    polynomial sum a_i x^i of A = -Phi, read off Phi's as
    a_i = (-1)^(d-i) c_i; d - 1 matrix-vector steps seed it.  Endless."""
    w = tuple(map(sum, zip(*(cat.entries[i].dim_vector for i in cat.proj_ids))))
    c = coxeter_polynomial(cat.quiver)
    d = len(c) - 1
    a = [-x if (d - i) % 2 else x for i, x in enumerate(c[:d])]
    last = []  # s_(n-d)..s_(n-1)
    for n in itertools.count():
        if n < d:
            s = sum(w)
            if n + 1 < d:
                w = int_mat_vec(cat.serre_k, w)
        else:
            s = -sum(map(operator.mul, a, last))
            del last[0]
        last.append(s)
        yield {1 - n if n else 0: abs(s)}  # G itself sits in shift 0


@functools.cache
def _dynkin_levels(q: Quiver) -> tuple[list[dict[int, int]], int]:
    """(G's levels 0..h-1, G's first return p) on a connected Dynkin quiver:
    S^n G is S^n P_i = N[b] (`IndecCatalog.serre_power`) over the
    projectives P_i, and each N[b] adds its total dimension at m = -b;
    S^h G = G[h - 2] gives every later level.  Every P_i returns to itself
    after p steps, the lcm of their orbit lengths, which divides h."""
    cat = catalog_for(q)
    levels = [_summed((-b, sum(cat.entries[i].dim_vector))
                      for i, b in cat.serre_power(cat.proj_ids, n))
              for n in range(cat.dynkin.coxeter_number)]
    return levels, math.lcm(*(len(cat._orbits[i][0]) for i in cat.proj_ids))


def _connected_levels(q: Quiver):
    """(G's levels n = 0, 1, ... on the connected q, endless; h on a Dynkin
    quiver, else None)."""
    cat = catalog_for(q)
    if cat.single_crossing:
        return _kclass_levels(cat), None
    h = cat.dynkin.coxeter_number
    levels = _dynkin_levels(q)[0]
    return (_moved_level(levels[n % h], n // h * (h - 2)) for n in itertools.count()), h


def _check_sizes(n_max: int, budget: int) -> None:
    if n_max < 1:
        raise ConfigError("n_max must be at least 1")
    if budget < 1:
        raise ConfigError("budget must be at least 1")


@functools.lru_cache(maxsize=64)
def _series(q: Quiver, n_max: int, budget: int) -> EntropySeries:
    _check_sizes(n_max, budget)
    walks, hs = zip(*(_connected_levels(sub) for _, sub in catalog_for(q).components))
    # Dynkin components of one Coxeter number h share S^h G = G[h - 2]
    h = hs[0] if len(set(hs)) == 1 else None
    p, k = (h, h - 2) if h else (n_max + 1, 0)
    levels = walks[0] if len(walks) == 1 else (
        _summed(itertools.chain.from_iterable(lev.items() for lev in levs)) for levs in zip(*walks))
    period = []
    for lev in itertools.islice(levels, min(n_max + 1, p)):
        total = sum(lev.values())
        if total > budget:
            raise BudgetExceeded(
                "hom dimensions reached %d at n=%d (budget %d)" % (total, len(period), budget)
            )
        period.append(lev)
    return EntropySeries(q, n_max, Period(period, k, n_max + 1, _moved_level),
                         Period([-min(lev) for lev in period], k, n_max + 1, operator.add),
                         Period([-max(lev) for lev in period], k, n_max + 1, operator.add))


def entropy_series(q: Quiver, n_max: int, budget: int = DEFAULT_BUDGET) -> EntropySeries:
    """Levels 0..n_max, cached once per (q, n_max, budget) whether or not the
    budget is passed.  When every component is Dynkin with one Coxeter
    number h, S^h G = G[h - 2] and only levels 0..h-1 (0..n_max when
    n_max < h) and k = h - 2 are kept; `levels`, `m_minus` and `m_plus` are
    read-only sequences that read level n as level n % h with every key
    moved by -(n // h) k.  Off Dynkin on a connected quiver the levels are
    one integer recurrence (`_kclass_levels`), and on a connected Dynkin
    quiver they are read off G's h levels, kept once per quiver.  A
    disconnected quiver's levels are its components' summed key-wise, level
    by level, so that the budget stops the first level past it."""
    return _series(q, n_max, budget)


entropy_series.cache_info = _series.cache_info
entropy_series.cache_clear = _series.cache_clear


def tail_window(n_max: int) -> range:
    """The tail half of the levels 1..n_max, where the estimators read."""
    return range(max(1, n_max - n_max // 2), n_max + 1)


def _samples(q: Quiver, n_max: int) -> range:
    """The n the fits read: the multiples of the Coxeter number on a Dynkin
    quiver when n_max holds two, where log f_n / n is affine in 1/n and the
    fit is exact; otherwise the tail window."""
    dyn = classify_dynkin(q)
    if dyn is not None and n_max >= 2 * dyn.coxeter_number:
        return range(dyn.coxeter_number, n_max + 1, dyn.coxeter_number)
    return tail_window(n_max)


def growth_rate(q: Quiver, n_max: int, log_f) -> float:
    """Extrapolated n -> infinity limit of log_f(n) / n: the intercept a of
    the least-squares fit y = a + b/n over `_samples(q, n_max)`."""
    ns = _samples(q, n_max)
    return _fit(ns, [log_f(n) / n for n in ns])


def _fit(ns: range, ys: list) -> float:
    """The intercept of the least-squares fit y = a + b x over x = 1.0 / n,
    n in ns, rounded once: the float nearest to the exact intercept of the
    float inputs.  Every x and y is an exact dyadic, so the intercept is
    sum_n w_n y_n / d for `_fit_weights`' integers, one integer dot product
    over the ys moved to one common power of two and one int / int true
    division, which CPython rounds correctly.  ConfigError when it leaves
    the float range."""
    if len(ns) == 1:
        return ys[0]
    weights, d = _fit_weights(ns)
    num, scale = 0, 1  # the terms so far sum to num / scale
    for w, y in zip(weights, ys):
        m, den = y.as_integer_ratio()  # den is a power of two
        if den > scale:
            num *= den // scale
            scale = den
        elif den < scale:
            m *= scale // den
        num += w * m
    try:
        return num / (d * scale)
    except OverflowError:
        raise ConfigError(_FIT_RANGE) from None


@functools.lru_cache(maxsize=64)
def _fit_weights(ns: range) -> tuple[tuple[int, ...], int]:
    """Integers w_n = Sxx - Sx X_n and d = k Sxx - Sx^2 over the k samples
    ns, for x = 1.0 / n = X_n / 2^p with one common p, Sx = sum X_n and
    Sxx = sum X_n^2: the least-squares intercept of y = a + b x is
    sum_n w_n y_n / d, as the powers of 2^p cancel.  Sample ranges are few:
    tail windows and multiples of h."""
    ratios = [(1.0 / n).as_integer_ratio() for n in ns]
    scale = max(den for _, den in ratios)
    xs = [num * (scale // den) for num, den in ratios]
    sx, sxx = sum(xs), sum(x * x for x in xs)
    return tuple(sxx - sx * x for x in xs), len(xs) * sxx - sx * sx


def _estimates(q: Quiver, ts, n_max: int, budget: int) -> list[float]:
    """h_t for each t of ts, as `growth_rate(q, n_max, log f_n(t))` rounds
    it, from one sweep of the sampled levels: each level is located and its
    logs taken once, and a one-key level's log-sum-exp is its one term +
    0.0.  Each t not yet in the series' memo is fitted once; the first 64
    such t are kept."""
    _check_sizes(n_max, budget)
    for t in ts:
        require_finite("t", t)  # a nan would also never hit the estimate memo
    if classify_dynkin(q) is None:
        return [t + log_spectral_radius(q) for t in ts]
    series = entropy_series(q, n_max, budget)
    memo = vars(series).setdefault("estimates", {})  # t -> h_t, up to 64
    new = dict.fromkeys(t for t in ts if t not in memo)
    if new:
        ns = _samples(q, n_max)
        sweep = []  # (n, [(log dim, m) per key of level n])
        for n in ns:
            lev, move = series.levels.locate(n)
            sweep.append((n, [(math.log(d), m - move) for m, d in lev.items()]))
        for t in new:
            ys = [(terms[0][0] - terms[0][1] * t + 0.0) / n if len(terms) == 1
                  else log_sum_exp([lg - m * t for lg, m in terms]) / n
                  for n, terms in sweep]
            if not all(map(math.isfinite, ys)):
                raise ConfigError(_LSE_RANGE)
            new[t] = _fit(ns, ys)
        for t, h in new.items():
            if len(memo) < 64:
                memo[t] = h
    return [new[t] if t in new else memo[t] for t in ts]


def entropy_estimate(
    q: Quiver, t: float, n_max: int = 30, budget: int = DEFAULT_BUDGET
) -> float:
    """Categorical entropy h_t of the Serre functor.  Off Dynkin, on a
    connected quiver, it is t + log rho(Phi) exactly and reads no series; on
    a Dynkin quiver it is extrapolated from the series by `growth_rate`'s
    fit once per t and series.  A disconnected quiver raises
    DisconnectedQuiver before any series is read."""
    return _estimates(q, (t,), n_max, budget)[0]


def _tail_max(support: Period, n_max: int, p: int | None = None) -> float:
    """max m_n / n over the tail window, read at no more than 2p of its n,
    for a period p of the support (m_(n+p) = m_n + k; the stored one by
    default): on each class n = qp + r, (m_r + qk) / (qp + r) is monotone
    in q, and so is its correctly rounded quotient, so the window's first
    and last p hold the maximum."""
    window = tail_window(n_max)
    p = p or len(support.period)
    return max(support[n] / n for n in (*window[:p], *window[p:][-p:]))


class SerreDims(namedtuple("SerreDims", "upper lower exact")):
    __slots__ = ()

    def __new__(cls, upper: float, lower: float, exact: Fraction | None):
        if upper < lower - 1e-12:
            raise AssertionError("upper Serre dimension below lower")
        return super().__new__(cls, upper, lower, exact)


def sdim_estimate(q: Quiver, n_max: int = 30, budget: int = DEFAULT_BUDGET) -> SerreDims:
    """Upper and lower Serre dimension.  Off Dynkin, on a connected quiver,
    S^n G sits in the one shift n - 1, so both are exactly 1, as is the
    exact field, and no series is read.  On a Dynkin quiver they are read
    off the shift-support growth of S^n G, windowed over the tail half, and
    the exact field carries (h - 2) / h.  A disconnected quiver raises
    DisconnectedQuiver before any series is read."""
    _check_sizes(n_max, budget)
    dyn = classify_dynkin(q)
    if dyn is None:
        return SerreDims(upper=1.0, lower=1.0, exact=Fraction(1))
    series = entropy_series(q, n_max, budget)
    p = _dynkin_levels(q)[1]  # G's first return, where the supports repeat
    upper, lower = _tail_max(series.m_minus, n_max, p), _tail_max(series.m_plus, n_max, p)
    h = dyn.coxeter_number
    return SerreDims(upper=upper, lower=lower, exact=Fraction(h - 2, h))


def volume(q: Quiver, lam: float, n_max: int = 30) -> float:
    """exp of the entropy at t = log(lambda) for a finite, positive lambda;
    ConfigError when it leaves the float range."""
    if require_finite("lam", lam) <= 0:
        raise ConfigError("volume scale factor must be positive")
    h = entropy_estimate(q, math.log(lam), n_max)
    try:
        return math.exp(h)
    except OverflowError:
        raise ConfigError("volume leaves the float range; use a smaller lam") from None


class EntropyProfile(namedtuple("EntropyProfile", "slope intercept residual c_hat estimates")):
    __slots__ = ()
    slope: float
    intercept: float
    residual: float
    c_hat: complex  # slope + i * intercept / pi
    estimates: tuple  # h_t per grid t, as entropy_estimate gives it


def entropy_profile(
    q: Quiver, t_grid, n_max: int = 30, budget: int = DEFAULT_BUDGET
) -> EntropyProfile:
    """Fit h_t = slope * t + intercept over the grid by least squares;
    residual is the max absolute deviation, and estimates holds the fitted
    h_t.  A tiny residual certifies affine entropy."""
    ts = [float(t) for t in t_grid]
    if not ts:
        raise EmptyGrid("entropy profile needs a nonempty t grid")
    if len(ts) < 3:
        raise ConfigError("entropy profile needs at least 3 grid points")
    if len(set(ts)) < 2:
        # a line through one abscissa is undetermined
        raise ConfigError("entropy profile needs at least 2 distinct grid points")
    hs = _estimates(q, ts, n_max, budget)
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
        estimates=tuple(hs),
    )
