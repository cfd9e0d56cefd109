import json
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdlab.catalog
import sdlab.cli
import sdlab.derived
import sdlab.entropy
import sdlab.stability
from sdlab import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ConfigError,
    DerivedObject,
    DisconnectedQuiver,
    EmptyGrid,
    IndecCatalog,
    catalog_for,
    classify_dynkin,
    entropy_estimate,
    entropy_profile,
    entropy_series,
    gepner_construct,
    hom_poincare,
    mass_growth,
    parse_quiver,
    sdim_estimate,
    serre_apply,
    standard_generator,
    volume,
)
from sdlab.entropy import growth_rate, log_sum_exp
from sdlab.quivers import (
    Quiver,
    coxeter_matrix,
    coxeter_polynomial,
    int_mat_mul,
    log_spectral_radius,
)

from orientations import drawn_unions, every_orientation, oriented

A2 = parse_quiver("A2")
K2 = parse_quiver("K2")
K3 = parse_quiver("K3")


def test_series_levels_frozen_for_a2():
    s = entropy_series(A2, 6)
    assert dict(s.levels[0]) == {0: 3}
    assert dict(s.levels[1]) == {0: 3}
    assert dict(s.levels[2]) == {-1: 1, 0: 1}
    assert dict(s.levels[3]) == {-1: 3}
    assert s.m_minus[:7] == (0, 0, 1, 1, 1, 2, 2)
    assert s.m_plus[:7] == (0, 0, 0, 1, 1, 1, 2)


def test_series_is_cached():
    assert entropy_series(A2, 12) is entropy_series(A2, 12)
    with pytest.raises(ConfigError):
        entropy_series(A2, 0)


def test_series_is_one_cache_entry_whether_or_not_the_budget_is_passed():
    entropy_series.cache_clear()
    s = entropy_series(K2, 30)
    assert entropy_series(K2, 30, DEFAULT_BUDGET) is s
    assert entropy_series(K2, n_max=30, budget=DEFAULT_BUDGET) is s
    assert entropy_series.cache_info().misses == 1
    assert entropy_series(K2, 30, DEFAULT_BUDGET + 1) is not s
    assert entropy_series.cache_info().misses == 2


def test_log_f_matches_direct_sum():
    s = entropy_series(A2, 6)
    t = 0.7
    direct = math.log(sum(d * math.exp(-m * t) for m, d in s.levels[4].items()))
    assert abs(s.log_f(4, t) - direct) < 1e-12


def test_entropy_is_linear_on_a2():
    for t in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
        assert abs(entropy_estimate(A2, t, 30) - t / 3.0) < 1e-9


def test_entropy_vanishes_on_rank_one():
    a1 = parse_quiver("A1")
    for t in (-3.0, 0.0, 5.0):
        assert entropy_estimate(a1, t, 20) == 0.0


def test_entropy_scales_with_coxeter_number():
    # slope of h_t is (h-2)/h for the standard Dynkin families
    for name, h in (("A3", 4), ("D4", 6)):
        q = parse_quiver(name)
        est = entropy_estimate(q, 2.0, 10 * h)
        assert abs(est - 2.0 * (h - 2) / h) < 1e-9


def test_kronecker_tame_entropy_near_identity_slope():
    # on the 2-arrow Kronecker quiver the series grows like n e^{nt}; the
    # polynomial factor leaves no trace in the growth rate: h_t = t exactly,
    # whatever n_max the series is read to
    for n_max in (1, 30, 240):
        for t in (-2.0, 0.0, 0.5, 2.0):
            assert entropy_estimate(K2, t, n_max) == t
    assert entropy_estimate(K2, -0.0, 30).hex() == (0.0).hex()


def test_budget_guard_fires_on_wild_quiver():
    with pytest.raises(BudgetExceeded) as err:
        entropy_series(K3, 30)
    assert str(err.value) == "hom dimensions reached 1339571480 at n=11 (budget 1000000000)"
    # the estimate is exact off Dynkin and reads no series, so no budget
    assert entropy_estimate(K3, 0.0, 30) == 1.9248473002384139


def test_budget_below_one_is_a_config_error():
    for budget in (0, -1):
        with pytest.raises(ConfigError, match="budget must be at least 1"):
            entropy_series(A2, 30, budget)
    with pytest.raises(BudgetExceeded, match="reached 3 at n=0"):
        entropy_series(A2, 30, 2)


def test_estimators_on_a_disconnected_quiver_raise_before_reading_a_series(monkeypatch):
    q = parse_quiver("vertices:5; arrows:1->2,3->4,4->5")  # A2 + A3
    assert len(entropy_series(q, 40).levels) == 41

    def no_series(*args):
        raise AssertionError("entropy series read")

    monkeypatch.setattr(sdlab.entropy, "_series", no_series)
    for estimate in (lambda: sdim_estimate(q, 100000), lambda: entropy_estimate(q, 0.0),
                     lambda: entropy_profile(q, [-1.0, 0.0, 1.0]), lambda: volume(q, 2.0)):
        with pytest.raises(DisconnectedQuiver):
            estimate()


def test_series_walk_stops_at_the_budget_on_a_disconnected_wild_quiver():
    # K5 + A1 is walked summand by summand; the walk must stop at the level
    # that breaks the budget, not take n_max steps first
    q = parse_quiver("vertices:3; arrows:1->2,1->2,1->2,1->2,1->2")
    with pytest.raises(BudgetExceeded) as err:
        entropy_series(q, 20000)
    assert str(err.value) == "hom dimensions reached 1071193208 at n=7 (budget 1000000000)"
    assert catalog_for(q).size() <= 20


def stepped_levels(x, n, inverse=False):
    """The summands of S^j X (S^-j X with `inverse`) for j = 0..n, sorted:
    every summand stepped by the catalog n times, with no period shortcut."""
    cat = catalog_for(x.quiver)
    step = cat.serre_inv_step if inverse else cat.serre_step
    pairs = list(x.summands)
    levels = [tuple(sorted(pairs))]
    for _ in range(n):
        pairs = [(j, k + d) for i, k in pairs for j, d in [step(i)]]
        levels.append(tuple(sorted(pairs)))
    return levels


def applied_levels(x, n):
    """serre_apply(x, j).summands for j = 0..n."""
    return [serre_apply(x, j).summands for j in range(n + 1)]


def first_return(levels):
    """The least p >= 1 with level p = level 0 shifted uniformly, or None."""
    for p, lev in enumerate(levels[1:], start=1):
        shifts = {s - t for (_, s), (_, t) in zip(lev, levels[0])}
        if [i for i, _ in lev] == [i for i, _ in levels[0]] and len(shifts) == 1:
            return p
    return None


def stepped_series_levels(q, n):
    """Level j of the series off the stepped orbit, by the pairwise
    `hom_poincare`: the reference."""
    g = standard_generator(q)
    return [hom_poincare(g, DerivedObject.create(q, lev)) for lev in stepped_levels(g, n)]


LOG_F_TS = (-2.5, -1.0, 0.0, 0.3, 1.0, 2.7)


def assert_log_f_matches(series, reference):
    """On a connected quiver, log_f(n, t) equals under == the log-sum-exp of
    each (n, reference level), summed in hom_poincare's key order: a level
    has at most two keys there, so its key order decides no bit."""
    assert series.quiver.is_connected()
    for n, lev in reference:
        for t in LOG_F_TS:
            assert series.log_f(n, t) == log_sum_exp(math.log(d) - m * t for m, d in lev.items())


DYNKIN_PERIOD = ("A4", "A8", "D6", "D8", "E6", "E7", "E8")
MORE_QUIVERS = {
    "K2": "K2",
    "A~2": "vertices:3; arrows:1->2,2->3,1->3",
    "D~4": "vertices:5; arrows:2->1,3->1,4->1,5->1",
    "A4-linear": "vertices:4; arrows:1->2,2->3,3->4",  # Dynkin, not bipartite
    "A2+A2": "vertices:4; arrows:1->2,3->4",  # disconnected, yet with a period
}


def _period_cases():
    for name in DYNKIN_PERIOD:
        q = parse_quiver(name)
        h = classify_dynkin(q).coxeter_number
        p = first_return(stepped_levels(standard_generator(q), h))
        assert p is not None and p <= h
        for n in sorted({p - 1, p, p + 1, h, 2 * h + 3, 240} - {0}):
            yield pytest.param(name, n, id="%s-%d" % (name, n))
    for name, text in MORE_QUIVERS.items():
        yield pytest.param(text, 240, id="%s-240" % name)


@pytest.mark.parametrize("text,n", list(_period_cases()))
def test_orbit_apply_and_series_match_the_stepped_oracle(text, n):
    q = parse_quiver(text)
    g = standard_generator(q)
    forward = stepped_levels(g, n)
    assert applied_levels(g, n) == forward
    assert serre_apply(g, n).summands == forward[n]
    assert serre_apply(g, -n).summands == stepped_levels(g, n, inverse=True)[n]
    expect = stepped_series_levels(q, n)
    series = entropy_series(q, n)
    assert list(series.levels) == expect
    if q.is_connected():
        # two periods of every preset; test_period_view_matches_the_stepped_oracle
        # reads far levels, whose keys the period moves
        assert_log_f_matches(series, enumerate(expect[:61]))
    assert series.m_minus == tuple(-min(lev) for lev in expect)
    assert series.m_plus == tuple(-max(lev) for lev in expect)


def _view_cases():
    for name in ("A4", "D6", "E7", "E8", "A2+A2"):
        q = parse_quiver(MORE_QUIVERS.get(name, name))
        p = first_return(stepped_levels(standard_generator(q), 30))
        for n in (p - 1, p, p + 1, 10**4):
            yield pytest.param(q, n, id="%s-%d" % (name, n))
    # A2 + A3: no period, so every level is walked and kept
    for n in (11, 12, 13, 1000):
        yield pytest.param(parse_quiver("vertices:5; arrows:1->2,3->4,4->5"), n,
                           id="A2+A3-%d" % n)


@pytest.mark.parametrize("q,n", list(_view_cases()))
def test_period_view_matches_the_stepped_oracle(q, n):
    # levels, m_minus and m_plus are sequences read off one period; the
    # oracle steps every summand n times and reads sampled levels pairwise
    g = standard_generator(q)
    stepped = stepped_levels(g, n)
    p = first_return(stepped) or n + 1
    series = entropy_series(q, n)

    def want(j):
        return hom_poincare(g, DerivedObject.create(q, stepped[j]))

    assert len(series.levels) == len(series.m_minus) == len(series.m_plus) == n + 1
    picks = sorted({j for j in (0, 1, p - 1, p, p + 1, 2 * p + 1, n // 2, n - 1, n) if 0 <= j <= n})
    for j in picks:
        expect = want(j)
        for index in (j, j - n - 1):  # negative indices count from the end
            assert series.levels[index] == expect
            assert series.m_minus[index] == -min(expect)
            assert series.m_plus[index] == -max(expect)
    for cut in (slice(-3, None), slice(max(p - 1, 0), p + 2), slice(n, 0, -max(1, n // 5))):
        js = range(*cut.indices(n + 1))
        got = series.levels[cut]
        assert isinstance(got, tuple) and len(got) == len(js)
        assert list(got) == [want(j) for j in js]
        assert series.m_minus[cut] == tuple(-min(want(j)) for j in js)
        assert series.m_plus[cut] == tuple(-max(want(j)) for j in js)
    if q.is_connected():
        assert_log_f_matches(series, ((j, want(j)) for j in picks))
    for index in (n + 1, -n - 2):
        with pytest.raises(IndexError):
            series.levels[index]
        with pytest.raises(IndexError):
            series.m_minus[index]


def test_changing_a_returned_level_changes_no_series():
    q = parse_quiver("E8")
    a, b = entropy_series(q, 60), entropy_series(q, 240)
    before = [list(s.levels[j].items()) for s in (a, b) for j in (0, 14, 20, 60)]
    for s in (a, b):
        for lev in (s.levels[0], s.levels[20], *s.levels[14:16], *s.levels):
            lev[99] = 1
            lev.pop(next(iter(lev)))
    assert [list(s.levels[j].items()) for s in (a, b) for j in (0, 14, 20, 60)] == before
    assert entropy_series(q, 30).levels[20] == a.levels[20]


def test_dynkin_series_stop_stepping_at_the_first_return(monkeypatch):
    # each summand's orbit to S^p P = P[k] is kept by the catalog: the first
    # series of E8 takes p levels of |G| steps, every later one none,
    # whatever n_max, and the catalog neither grows nor walks a second
    # orbit for the inverse
    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    entropy_series.cache_clear()
    sdlab.entropy._dynkin_levels.cache_clear()
    q = parse_quiver("E8")
    cat, g = catalog_for(q), standard_generator(q)
    size = cat.size()
    p = first_return(stepped_levels(g, 30))
    calls = []
    real = cat.serre_step
    monkeypatch.setattr(cat, "serre_step", lambda ident: calls.append(ident) or real(ident))
    counts = []
    for n_max in (30, 60, 120, 240, 10**5):
        calls.clear()
        assert len(entropy_series(q, n_max).levels) == n_max + 1
        counts.append(len(calls))
    assert counts == [p * g.total_summands(), 0, 0, 0, 0] and counts[0] == 120
    assert cat.size() == size
    real_inv = cat.serre_inv_step
    monkeypatch.setattr(cat, "serre_inv_step", lambda ident: calls.append(ident) or real_inv(ident))
    calls.clear()
    # -10**5 = -3334 h + 20 and S^h G = G[h - 2] with h = 30
    far = serre_apply(g, -10**5)
    assert calls == [] and cat.size() == size
    assert far.summands == tuple((i, s - 3334 * 28) for i, s in stepped_levels(g, 20)[20])


def orbit_entry(x, j, inverse=False):
    """The catalog id of the one summand of S^j X (S^-j X with `inverse`)."""
    ((ident, _),) = stepped_levels(x, j, inverse)[j]
    return ident


def test_serre_powers_of_mixed_objects_match_the_stepped_oracle():
    # several orbits and shifts in one object, both directions, past the period
    presets = [parse_quiver(text) for text in (
        "A4", "D6", "E7", "K2", "K3", MORE_QUIVERS["A~2"], MORE_QUIVERS["D~4"],
        "vertices:4; arrows:1->2,1->2,3->4",  # K2 + A2: disconnected, so walked
    )]
    for q in presets + every_orientation("A4") + every_orientation("D5"):
        cat = catalog_for(q)
        dyn = cat.dynkin
        # off Dynkin the catalog grows as it is walked: pick flagged entries,
        # then the virtual tau^-j P_i and tau^j I_i (j <= 4) that S^-+j reach
        first, mid, last = (0, cat.size() // 2, cat.size() - 1) if dyn else (
            cat.proj_ids[0], cat.inj_ids[-1], cat.proj_ids[-1])
        pairs = [(first, 2), (mid, -1), (last, 0), (last, 3)]
        if dyn is None:
            for j, p_i, i_i in zip((1, 2, 3, 4), cat.proj_ids, cat.inj_ids[::-1]):
                pairs.append((orbit_entry(DerivedObject.create(q, [(p_i, 0)]), j, True), j))
                pairs.append((orbit_entry(DerivedObject.create(q, [(i_i, 0)]), j), -j))
        x = DerivedObject.create(q, pairs)
        h = dyn.coxeter_number if dyn else 6  # off Dynkin nothing returns; h, p pick powers
        # K3 stays below the entropy budget: its dimensions grow like 2.6^n
        top = 10 if q == K3 else 75
        forward, backward = stepped_levels(x, top), stepped_levels(x, top, inverse=True)
        p = first_return(forward) or h
        assert applied_levels(x, top) == forward
        powers = {n for n in (1, p - 1, p, p + 1, 2 * h + 3) if n <= top}
        # 1..6 cross P -> I forward and I -> P backward at j + 1 for each j
        for n in powers | {n for n in (2, 3, 4, 5, 6, 17, 40, 75) if n <= top}:
            assert serre_apply(x, n).summands == forward[n]
            assert serre_apply(x, -n).summands == backward[n]
        signed = [s * n for n in powers for s in (1, -1)]
        for a in signed:
            for b in signed:
                assert serre_apply(serre_apply(x, a), b) == serre_apply(x, a + b)
    zero = DerivedObject.create(parse_quiver("E6"), [])
    assert serre_apply(zero, 9) == zero and serre_apply(zero, -3) == zero


@pytest.mark.parametrize("text", (
    "vertices:5; arrows:1->2,3->4,4->5",
    "vertices:5; arrows:1->2,2->3,4->5",
))
def test_components_returning_with_different_shifts_are_no_period(text):
    # on A2 + A3 the ids of G come back at n = 12, but shifted by 4 on A2
    # and by 6 on A3: no level repeats with one shift, so all are stepped
    q = parse_quiver(text)
    g = standard_generator(q)
    forward = stepped_levels(g, 40)
    assert sorted(i for i, _ in forward[12]) == sorted(i for i, _ in forward[0])
    assert first_return(forward) is None
    assert applied_levels(g, 40) == forward
    assert serre_apply(g, 40).summands == forward[40]
    assert serre_apply(g, -40).summands == stepped_levels(g, 40, inverse=True)[40]
    assert list(entropy_series(q, 40).levels) == stepped_series_levels(q, 40)


UNION_SHAPES = ("A1", "A3", "A4", "D4", "D5", "E6", "K2", "K3",
                MORE_QUIVERS["A~2"], MORE_QUIVERS["D~4"])
K2_A1_A2 = parse_quiver("vertices:5; arrows:1->2,1->2,4->5")


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(q=drawn_unions(UNION_SHAPES), n=st.integers(1, 30), m=st.integers(-30, 30))
@example(q=parse_quiver("vertices:5; arrows:4->3,1->2,1->2,1->2,4->5"), n=23, m=-11)  # K3 + A3
@example(q=K2_A1_A2, n=30, m=17)
def test_serre_powers_and_series_on_drawn_unions(q, n, m):
    # components are connected full subquivers that hold every vertex and arrow
    subs = [q.full_subquiver(vs) for vs in q.components()]
    assert sorted(v for vs in q.components() for v in vs) == list(range(1, q.n + 1))
    assert all(sub.is_connected() for sub in subs)
    assert sum(len(sub.arrows) for sub in subs) == len(q.arrows)
    # every projective and injective, in three shifts, against stepping each summand
    cat = catalog_for(q)
    x = DerivedObject.create(q, [(i, j % 3 - 1) for j, i in enumerate(cat.proj_ids + cat.inj_ids)])
    assert serre_apply(x, n).summands == stepped_levels(x, n)[n]
    assert serre_apply(x, -n).summands == stepped_levels(x, n, inverse=True)[n]
    assert serre_apply(serre_apply(x, m), n) == serre_apply(x, m + n)
    # a wild component passes the default budget: only the sums are compared
    levels = entropy_series(q, n, 10**100).levels
    assert list(levels) == stepped_series_levels(q, n)
    parts = [entropy_series(sub, n, 10**100).levels for sub in subs]
    assert all(lev == sum((Counter(part[j]) for part in parts), Counter())
               for j, lev in enumerate(levels))


def test_a_disconnected_series_never_steps_its_own_catalog(monkeypatch):
    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    entropy_series.cache_clear()
    cat = catalog_for(K2_A1_A2)

    def no_step(*args):
        raise AssertionError("the catalog of K2 + A1 + A2 was stepped")

    for name in ("serre_step", "serre_inv_step", "serre_power"):
        monkeypatch.setattr(cat, name, no_step)
    for n_max in (240, 1000):
        assert len(entropy_series(K2_A1_A2, n_max).levels) == n_max + 1
        assert cat.size() == 8


def test_serre_orbit_steps_only_its_first_period(monkeypatch):
    q = parse_quiver("E8")
    g = standard_generator(q)
    cat = catalog_for(q)
    p = first_return(stepped_levels(g, 30))
    expect = {n: stepped_levels(g, abs(n), n < 0)[abs(n)] for n in (240, 247, -247)}
    calls = []

    def counted(real):
        def step(ident):
            calls.append(ident)
            return real(ident)
        return step

    monkeypatch.setattr(cat, "serre_step", counted(cat.serre_step))
    monkeypatch.setattr(cat, "serre_inv_step", counted(cat.serre_inv_step))
    levels = applied_levels(g, 240)
    assert levels[240] == expect[240]
    assert len(calls) <= p * g.total_summands()
    # every power reads the same orbits, in both directions: p levels of |G|
    # steps each, where a second stepping loop would take up to 2p
    for power, summands in expect.items():
        calls.clear()
        assert serre_apply(g, power).summands == summands
        assert len(calls) <= p * g.total_summands() == 120


def test_off_dynkin_series_and_powers_take_no_catalog_step(monkeypatch):
    # one integer vector per level and one matrix power per call, on D~4
    q = parse_quiver(MORE_QUIVERS["D~4"])
    g = standard_generator(q)
    cat = catalog_for(q)
    expect = {n: stepped_levels(g, 240, n < 0)[240] for n in (240, -240)}
    levels = [list(lev.items()) for lev in stepped_series_levels(q, 240)]
    calls = []

    def counted(real):
        def step(ident):
            calls.append(ident)
            return real(ident)
        return step

    monkeypatch.setattr(cat, "serre_step", counted(cat.serre_step))
    monkeypatch.setattr(cat, "serre_inv_step", counted(cat.serre_inv_step))
    entropy_series.cache_clear()
    assert [list(lev.items()) for lev in entropy_series(q, 240).levels] == levels
    for power, summands in expect.items():
        assert serre_apply(g, power).summands == summands
    assert calls == []


@pytest.mark.parametrize("text", ("K2", MORE_QUIVERS["D~4"]))
def test_far_serre_powers_register_only_their_images(monkeypatch, text):
    # the series makes no catalog entry, and a power registers at most the
    # |G| images it returns
    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    entropy_series.cache_clear()
    q = parse_quiver(text)
    cat, g = catalog_for(q), standard_generator(q)
    size = cat.size()
    entropy_series(q, 240)
    assert cat.size() == size
    serre_apply(g, -240)
    serre_apply(g, 2000)
    assert cat.size() <= size + 2 * g.total_summands()


ORACLE_QUIVERS = (
    "A4", "D6", "E8", "K2",
    "vertices:3; arrows:1->2,2->3,1->3",
    "vertices:5; arrows:2->1,3->1,4->1,5->1",
    "vertices:4; arrows:1->2,2->3,3->4",
)


@pytest.mark.parametrize("text", ORACLE_QUIVERS)
def test_series_levels_match_pairwise_hom_poincare(text):
    # the pairwise path on the stepped orbit is the reference: the levels
    # as mappings, and log_f to the bit as if summed in its key order
    q = parse_quiver(text)
    series = entropy_series(q, 60)
    reference = stepped_series_levels(q, 60)
    for n, expect in enumerate(reference):
        assert series.levels[n] == expect
        assert series.m_minus[n] == -min(expect)
        assert series.m_plus[n] == -max(expect)
    assert_log_f_matches(series, enumerate(reference))


KEY_BOUND_SHAPES = ("A2", "A3", "A4", "A5", "A6", "A7", "D4", "D5", "D6", "E6")


def _key_bound_quivers():
    """Every orientation of KEY_BOUND_SHAPES, then 8 seeded ones each of E7 and E8."""
    quivers = [q for name in KEY_BOUND_SHAPES for q in every_orientation(name)]
    rng = random.Random(2026)
    for name in ("E7", "E8"):
        edges = len(parse_quiver(name).undirected_edges())
        quivers += [oriented(name, [rng.randrange(2) for _ in range(edges)]) for _ in range(8)]
    return quivers


def test_levels_have_at_most_two_keys_and_one_off_dynkin(monkeypatch):
    # the bound that lets log_f sum a level in walk order: a two-term
    # log-sum-exp is the same float in either order; the stored period
    # holds every level up to a shift
    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    entropy_series.cache_clear()
    quivers = _key_bound_quivers()
    assert len(quivers) == 2 + 4 + 8 + 16 + 32 + 64 + 8 + 16 + 32 + 32 + 16
    for q in quivers:
        levels = entropy_series(q, classify_dynkin(q).coxeter_number).levels
        assert max(map(len, levels.period)) <= 2
    for text in ("K2", MORE_QUIVERS["A~2"], MORE_QUIVERS["D~4"], "K3"):
        q = parse_quiver(text)
        assert all(len(lev) == 1 for lev in stepped_series_levels(q, 10))
        assert all(len(lev) == 1 for lev in entropy_series(q, 10).levels)
    entropy_series.cache_clear()


ESTIMATOR_QUIVERS = (
    "A4", "A8", "D6", "D8", "E6", "E7", "E8", "K2",
    "vertices:3; arrows:1->2,2->3,1->3",
    "vertices:5; arrows:2->1,3->1,4->1,5->1",
)


def plain_log_sum_exp(vals):
    top = max(vals)
    return top + math.log(sum(math.exp(v - top) for v in vals))


@pytest.mark.parametrize("text", ESTIMATOR_QUIVERS)
def test_estimates_are_bit_identical_to_the_plain_chain(text):
    # stepwise levels, then a log-sum-exp over every term, then growth_rate;
    # off Dynkin the estimate is t + log rho exactly (0 on these tame
    # quivers), the limit that the plain chain's fits approach from above
    q = parse_quiver(text)
    levels = stepped_series_levels(q, 240)
    exact = catalog_for(q).single_crossing
    assert not exact or log_spectral_radius(q) == 0.0
    for n_max in (30, 60, 120, 240):
        for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
            fit = growth_rate(q, n_max, lambda n: plain_log_sum_exp(
                [math.log(d) - m * t for m, d in levels[n].items()]))
            if exact:
                assert entropy_estimate(q, t, n_max).hex() == (t + 0.0).hex()
                assert 0.0 < fit - t < 2.0 / n_max
            else:
                assert entropy_estimate(q, t, n_max).hex() == fit.hex()


@pytest.mark.parametrize("name", ("K3", "K4", "K5"))
def test_wild_kroneckers_exceed_the_budget_where_the_stepped_orbit_does(name):
    q = parse_quiver(name)
    totals = [sum(lev.values()) for lev in stepped_series_levels(q, 30)]
    n = next(j for j, total in enumerate(totals) if total > DEFAULT_BUDGET)
    message = "hom dimensions reached %d at n=%d (budget %d)" % (totals[n], n, DEFAULT_BUDGET)
    for n_max in (30, 60, 120, 240):
        with pytest.raises(BudgetExceeded) as err:
            entropy_series(q, n_max)
        assert str(err.value) == message


@pytest.fixture
def fits(monkeypatch):
    """The fits of `entropy_estimate` and `entropy_profile`, one per t, from
    an empty series cache."""
    calls = []
    fit = sdlab.entropy._fit

    def counted(*args):
        calls.append(args[0])
        return fit(*args)

    monkeypatch.setattr(sdlab.entropy, "_fit", counted)
    entropy_series.cache_clear()
    return calls


def test_each_estimate_is_fitted_once_per_series(fits):
    q = parse_quiver("E7")
    same = [entropy_estimate(q, 1, 30), entropy_estimate(q, 1.0, 30),
            entropy_estimate(q, t=1.0, n_max=30), entropy_estimate(q, 1.0, 30, DEFAULT_BUDGET)]
    assert len({h.hex() for h in same}) == 1 and len(fits) == 1
    assert entropy_estimate(q, -0.0, 30).hex() == entropy_estimate(q, 0.0, 30).hex()
    assert len(fits) == 2
    entropy_profile(q, (-1.0, 0.0, 1.0), 30)
    assert len(fits) == 3
    # clearing the series cache leaves no estimate behind
    entropy_series.cache_clear()
    assert entropy_estimate(q, 1.0, 30).hex() == same[0].hex()
    assert len(fits) == 4 and entropy_series.cache_info().misses == 1


def test_series_caches_are_bounded(fits):
    q = parse_quiver("A4")  # Dynkin: estimated by fits, where the memo is
    ts = [j / 8.0 for j in range(100)]
    hs = [entropy_estimate(q, t, 30) for t in ts]
    assert len(fits) == 100
    # the first 64 values of t are kept, the rest are fitted on every call
    assert [entropy_estimate(q, t, 30) for t in ts] == hs
    assert len(fits) == 136
    series = entropy_series(q, 30, DEFAULT_BUDGET)  # the key the estimates use
    assert len(vars(series)["estimates"]) == 64
    assert entropy_series.cache_info().maxsize == 64


def test_the_cli_profile_fits_each_t_once_past_the_memo(fits, capsys):
    # the table rows are the profile's own estimates, not 6 more fits of
    # the t past the 64-t memo
    ts = [j / 8.0 for j in range(70)]
    assert sdlab.cli.main(["entropy", "--quiver", "A4", "--t-grid=" + ",".join(map(str, ts))]) == 0
    rows = json.loads(capsys.readouterr().out)["table"]["rows"]
    assert len(fits) == 70
    assert rows == [[t, entropy_estimate(parse_quiver("A4"), t, 30)] for t in ts]


SWEEP_N_MAX = (*range(1, 62), 90, 120, 240)
SWEEP_GRIDS = {
    "signed-zeros": (-0.0, 0.0, 1.0, -1.0, 0.0),
    "repeated": (1.0, -2.0, 1.0, 0.5, -2.0, 1.0),
    # 68 distinct t fill the memo; the signed zeros and 0.5 come after it
    "past-the-memo": tuple(j / 8 + 0.5 for j in range(68)) + (-0.0, 0.0, 0.5),
    "overflow": (1e308, 0.0, 1.0),
}


def _growth_rate_estimates(q, ts, n_max, budget):
    """h_t per t by `growth_rate` over `EntropySeries.log_f`: the reference."""
    series = entropy_series(q, n_max, budget)
    return [growth_rate(q, n_max, lambda n, t=t: series.log_f(n, t)) for t in ts]


def _bits(run):
    """The floats run() returns, as hex, or the ConfigError it raises."""
    try:
        return [x.hex() for x in run()]
    except ConfigError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("grid", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS)
@pytest.mark.parametrize("name", DYNKIN_PERIOD)
def test_the_sweep_fits_every_t_as_growth_rate_does(monkeypatch, name, grid):
    # entropy_profile fits the whole grid off one sweep of the sampled
    # levels, and entropy_estimate reads the memo it leaves or sweeps alone
    q = parse_quiver(name)
    for n_max in SWEEP_N_MAX:
        entropy_series.cache_clear()
        profile = _bits(lambda: entropy_profile(q, grid, n_max)[:3])
        estimates = _bits(lambda: [entropy_estimate(q, t, n_max) for t in grid])
        with monkeypatch.context() as m:
            m.setattr(sdlab.entropy, "_estimates", _growth_rate_estimates)
            assert profile == _bits(lambda: entropy_profile(q, grid, n_max)[:3])
        assert estimates == _bits(lambda: _growth_rate_estimates(q, grid, n_max, DEFAULT_BUDGET))


def test_off_dynkin_estimates_need_no_fit(fits):
    for text in ("K2", MORE_QUIVERS["A~2"], MORE_QUIVERS["D~4"]):
        q = parse_quiver(text)
        entropy_profile(q, (-1.0, 0.0, 1.0), 30)
        volume(q, 2.0, 30)
        assert "estimates" not in vars(entropy_series(q, 30))
    assert fits == []


def test_entropy_chain_reads_no_pairwise_table(monkeypatch):
    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    entropy_series.cache_clear()
    sigma = gepner_construct(parse_quiver("E6"))

    def no_table(self, a, b):
        raise AssertionError("pairwise hom/ext lookup")

    def no_rows(self):
        raise AssertionError("pairwise chi table")

    monkeypatch.setattr(IndecCatalog, "chi", no_table)
    monkeypatch.setattr(IndecCatalog, "chi_rows", no_rows)
    monkeypatch.setattr(IndecCatalog, "hom_dim", no_table)
    monkeypatch.setattr(IndecCatalog, "ext_dim", no_table)
    for text in ("E8", "K2", "vertices:5; arrows:2->1,3->1,4->1,5->1"):
        q = parse_quiver(text)
        entropy_series(q, 60)
        entropy_estimate(q, 0.5, 60)
        entropy_profile(q, (-1.0, 0.0, 1.0), 60)
        sdim_estimate(q, 60)
        volume(q, 2.0, 60)
    mass_growth(sigma, (-1.0, 0.0, 1.0), 60)


def test_sdim_exact_and_window_on_a2():
    sd = sdim_estimate(A2, 30)
    assert sd.exact == Fraction(1, 3)
    assert abs(sd.upper - 6.0 / 17.0) < 1e-12
    assert abs(sd.lower - 1.0 / 3.0) < 1e-12
    sd17 = sdim_estimate(A2, 17)
    assert abs(sd17.upper - 4.0 / 11.0) < 1e-12
    assert sd17.upper >= sd17.lower


def test_sdim_on_kronecker():
    # Sdim = 1 on every connected non-Dynkin quiver, tame or wild: S^n G
    # sits in the one shift n - 1
    for n_max in (1, 30, 240):
        assert sdim_estimate(K2, n_max) == (1.0, 1.0, Fraction(1))
    for text in (MORE_QUIVERS["A~2"], MORE_QUIVERS["D~4"]):
        assert sdim_estimate(parse_quiver(text), 30) == (1.0, 1.0, Fraction(1))
    assert sdim_estimate(K3, 30, 10**30) == (1.0, 1.0, Fraction(1))
    # no series is read, so the default budget does not bind
    assert sdim_estimate(K3, 30) == (1.0, 1.0, Fraction(1))


@pytest.mark.parametrize("m", (3, 4, 5, 6))
def test_wild_kronecker_entropy_is_t_plus_log_rho(m):
    # Phi has characteristic polynomial x^2 - (m^2 - 2) x + 1
    q = parse_quiver("K%d" % m)
    log_rho = math.log((m * m - 2 + m * math.sqrt(m * m - 4)) / 2)
    assert abs(log_spectral_radius(q) - log_rho) < 1e-12
    for n_max in (30, 60):
        budget = sum(entropy_series(q, n_max, 10**200).levels[n_max].values()) + 1
        for t in (-2.0, 0.0, 1.5):
            assert abs(entropy_estimate(q, t, n_max, budget) - (t + log_rho)) < 1e-12
    # with the default budget too: the estimate reads no series
    assert entropy_estimate(q, 0.0, 30) == log_spectral_radius(q)


@pytest.mark.parametrize("text", (
    "K2",
    MORE_QUIVERS["A~2"],
    "vertices:4; arrows:1->2,2->3,3->4,1->4",  # A~3
    MORE_QUIVERS["D~4"],
    "vertices:6; arrows:1->3,2->3,3->4,4->5,4->6",  # D~5
))
def test_tame_quivers_have_log_rho_exactly_zero(text):
    q = parse_quiver(text)
    assert classify_dynkin(q) is None
    assert log_spectral_radius(q) == 0.0
    assert entropy_estimate(q, 0.0, 30) == 0.0


def random_non_dynkin_quivers(seed: int, count: int) -> list:
    """Distinct connected acyclic non-Dynkin quivers on 2..6 vertices: a
    random spanning tree plus up to two edges, oriented along a shuffled
    vertex order, each edge doubled with probability 1/5."""
    gen = random.Random(seed)
    out = []
    while len(out) < count:
        n = gen.randint(2, 6)
        order = list(range(1, n + 1))
        gen.shuffle(order)  # every arrow runs forward along this order
        edges = {(gen.randint(0, w - 1), w) for w in range(1, n)}
        for _ in range(gen.randint(0, 2)):
            edges.add(tuple(sorted(gen.sample(range(n), 2))))
        arrows = []
        for i, j in sorted(edges):
            arrows += [(order[i], order[j])] * (2 if gen.random() < 0.2 else 1)
        q = Quiver(n, tuple(arrows))
        if classify_dynkin(q) is None and q not in out:
            out.append(q)
    return out


@pytest.mark.parametrize("q", random_non_dynkin_quivers(2026, 20), ids=Quiver.text)
def test_log_spectral_radius_matches_eigenvalues_and_series(q):
    import numpy as np

    phi = np.array(coxeter_matrix(q).coxeter, dtype=float)
    want = math.log(float(np.max(np.abs(np.linalg.eigvals(phi)))))
    got = log_spectral_radius(q)
    if got == 0.0:
        # tame: eigenvalue 1 has a Jordan block, which eigvals resolves only
        # to ~sqrt(machine epsilon)
        assert abs(want) < 1e-7
        return
    assert abs(got - want) < 1e-9
    levels = entropy_series(q, 61, 10**200).levels
    f60, f61 = sum(levels[60].values()), sum(levels[61].values())
    assert abs(got - math.log(f61 / f60)) < 1e-9


RECURRENCE_QUIVERS = [parse_quiver(text) for text in (
    "K2", "K3", "K4", "K5",
    MORE_QUIVERS["A~2"],
    "vertices:4; arrows:1->2,2->3,3->4,1->4",  # A~3
    MORE_QUIVERS["D~4"],
    "vertices:6; arrows:1->3,2->3,3->4,4->5,4->6",  # D~5
)]


@pytest.mark.parametrize("q", RECURRENCE_QUIVERS + random_non_dynkin_quivers(2026, 20),
                         ids=Quiver.text)
def test_kclass_recurrence_equals_stepping_by_a(q):
    # off Dynkin level n is {1 - n: |sum A^n [G]|}: here every level is
    # stepped by the matrix A, where the series runs Cayley-Hamilton on
    # Phi's characteristic polynomial after d - 1 steps
    cat = catalog_for(q)
    assert cat.single_crossing
    # Cayley-Hamilton: sum_i c_i Phi^i = 0
    phi = coxeter_matrix(q).coxeter
    power = [[int(i == j) for j in range(q.n)] for i in range(q.n)]
    total = [[0] * q.n for _ in range(q.n)]
    for c in coxeter_polynomial(q):
        total = [[t + c * x for t, x in zip(tr, pr)] for tr, pr in zip(total, power)]
        power = int_mat_mul(power, phi)
    assert total == [[0] * q.n for _ in range(q.n)]
    w = [sum(col) for col in zip(*(cat.entries[i].dim_vector for i in cat.proj_ids))]
    want = [{0: sum(w)}]
    for n in range(1, 241):
        w = [sum(a * b for a, b in zip(row, w)) for row in cat.serre_k]
        want.append({1 - n: abs(sum(w))})
    for n_max in sorted(set(range(1, q.n + 1)) | {q.n + 1, 240}):
        levels = entropy_series(q, n_max, 10**2000).levels
        assert [list(lev.items()) for lev in levels] == [
            list(lev.items()) for lev in want[:n_max + 1]]


@pytest.mark.parametrize("text", ("K2", MORE_QUIVERS["D~4"]))
def test_off_dynkin_orbit_takes_no_catalog_step(monkeypatch, text):
    q = parse_quiver(text)
    g = standard_generator(q)
    cat = catalog_for(q)

    def no_step(ident):
        raise AssertionError("serre_step")

    expect = stepped_levels(g, 240)
    monkeypatch.setattr(cat, "serre_step", no_step)
    monkeypatch.setattr(cat, "serre_inv_step", no_step)
    assert applied_levels(g, 240) == expect


def test_volume_values():
    assert abs(volume(A2, 8.0, 30) - 2.0) < 1e-9
    assert abs(volume(A2, 1.0, 30) - 1.0) < 1e-9
    assert abs(volume(parse_quiver("A3"), 4.0, 40) - 2.0) < 1e-9
    with pytest.raises(ConfigError):
        volume(A2, 0.0)
    with pytest.raises(ConfigError):
        volume(A2, -2.0)
    # h_t at t = log 1e308 is t + log rho on K3 and K5, and E7 at n_max = 2
    # extrapolates above t, so exp(h_t) overflows; E8 stays below
    for q, n_max in ((parse_quiver("K3"), 30), (parse_quiver("K5"), 30), (parse_quiver("E7"), 2)):
        with pytest.raises(ConfigError, match="^volume leaves the float range; use a smaller lam$"):
            volume(q, 1e308, n_max)
    # exp of the exact least-squares intercept, rounded once
    # (test_fit_is_the_exact_intercept_rounded_once)
    assert volume(parse_quiver("E8"), 1e308) == 2.3178384541383725e+297


def test_profile_certifies_affine_entropy():
    prof = entropy_profile(A2, (-2.0, -1.0, 0.0, 1.0, 2.0), 30)
    assert abs(prof.slope - 1.0 / 3.0) < 1e-9
    assert abs(prof.intercept) < 1e-9
    assert prof.residual < 1e-9
    assert prof.c_hat == complex(prof.slope, prof.intercept / math.pi)


def test_profile_grid_guards():
    with pytest.raises(EmptyGrid):
        entropy_profile(A2, ())
    with pytest.raises(ConfigError):
        entropy_profile(A2, (0.0, 1.0))


# ---------------------------------------------- the stored period and the fit

PERIOD_QUIVERS = {
    "A4": "A4", "D6": "D6", "E6": "E6", "E7": "E7", "E8": "E8",
    "E6-nonbipartite": "vertices:6; arrows:1->2,2->3,3->4,4->5,6->3",
}


@pytest.mark.parametrize("text", list(PERIOD_QUIVERS.values()), ids=list(PERIOD_QUIVERS))
def test_stored_period_readers_match_a_fresh_walk(monkeypatch, text):
    # the catalog stores each orbit, and the series G's h levels, at the
    # first (largest) read; every shorter read after it, a prefix below h
    # included, must equal stepping every summand afresh, and so must the
    # levels that mass_growth reads
    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    entropy_series.cache_clear()
    sdlab.entropy._dynkin_levels.cache_clear()
    q = parse_quiver(text)
    g = standard_generator(q)
    h = classify_dynkin(q).coxeter_number
    top = 2 * h + 1
    forward, backward = stepped_levels(g, top), stepped_levels(g, top, inverse=True)
    # S^h = [h - 2], which lets the series keep h levels
    assert forward[h] == tuple((i, s + h - 2) for i, s in forward[0])
    series_levels = stepped_series_levels(q, top)
    seen = []
    real_apply = sdlab.stability.serre_apply
    monkeypatch.setattr(sdlab.stability, "serre_apply",
                        lambda x, n: seen.append((n, real_apply(x, n).summands)) or real_apply(x, n))
    sigma = sdlab.make_stability(q, [1j] * q.n)  # every indecomposable semistable
    for n in (top, *range(1, top + 1)):
        series = entropy_series(q, n)
        assert list(series.levels) == series_levels[:n + 1]
        # over n = 1..top this reads every level, each through a series ending there
        assert_log_f_matches(series, ((j, series_levels[j]) for j in (0, n)))
        assert series.m_minus == tuple(-min(lev) for lev in series_levels[:n + 1])
        assert series.m_plus == tuple(-max(lev) for lev in series_levels[:n + 1])
        assert serre_apply(g, n).summands == forward[n]
        assert serre_apply(g, -n).summands == backward[n]
        seen.clear()
        mass_growth(sigma, (0.5,), n)
        assert {j for j, _ in seen} >= set(range(min(n + 1, h)))
        assert all(summands == forward[j] for j, summands in seen)


def _sampled(q, n_max, t):
    """growth_rate's estimate for entropy_series(q, n_max) at t, with the
    n it sampled and the ys it fitted."""
    series = entropy_series(q, n_max)
    ns = []

    def log_f(n):
        ns.append(n)
        return series.log_f(n, t)

    fit = growth_rate(q, n_max, log_f)
    return fit, ns, [series.log_f(n, t) / n for n in ns]


def _exact_intercept(ns, ys):
    """float() of the exact least-squares intercept of y = a + b x over the
    float inputs x = 1.0 / n, in Fractions: the float `_fit` must give, or
    OverflowError past the float range.  One sample is its own intercept."""
    if len(ns) == 1:
        return ys[0]
    xs, fys = [Fraction(1.0 / n) for n in ns], [Fraction(y) for y in ys]
    sx, sy = sum(xs), sum(fys)
    sxx, sxy = sum(x * x for x in xs), sum(x * y for x, y in zip(xs, fys))
    return float((sxx * sy - sx * sxy) / (len(xs) * sxx - sx * sx))


@pytest.mark.parametrize("text", ESTIMATOR_QUIVERS)
def test_fit_is_the_exact_intercept_rounded_once(text):
    q = parse_quiver(text)
    dyn = classify_dynkin(q)
    h = dyn.coxeter_number if dyn else 6
    for n_max in (*range(1, 2 * h + 2), 30, 60, 120, 240):
        for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
            fit, ns, ys = _sampled(q, n_max, t)
            assert fit == _exact_intercept(ns, ys)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(text=st.sampled_from(("K2", "A4", "E8")), n_max=st.integers(1, 500),
       values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_fit_is_the_exact_intercept_rounded_once_on_drawn_values(text, n_max, values):
    q = parse_quiver(text)
    ns = []

    def log_f(n):
        ns.append(n)
        return values[n % len(values)]

    fit = growth_rate(q, n_max, log_f)
    assert fit == _exact_intercept(ns, [values[n % len(values)] / n for n in ns])


_MAGNITUDES = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-300, -1e-300, 1.7e308, -1.7e308)),
    st.builds(operator.mul, st.sampled_from((1.0, -1.0)), st.floats(1e-300, 1.7e308)),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=st.sampled_from(("K2", "A4", "E8")), n_max=st.integers(1, 500),
       values=st.lists(_MAGNITUDES, min_size=1, max_size=40))
@example(text="K2", n_max=2, values=[1.7e308, -1.7e308])  # 2 y_2 - y_1 = 5.1e308
@example(text="A4", n_max=40, values=[1e-300, -0.0])
def test_fit_rounds_mixed_magnitudes_once_or_raises_config_error(text, n_max, values):
    # ys from 1e-300 to 1.7e308 share one fit: no scaling of a float may
    # overflow, and an intercept past the float range is a ConfigError
    ns = sdlab.entropy._samples(parse_quiver(text), n_max)
    ys = [values[n % len(values)] for n in ns]
    try:
        want = _exact_intercept(ns, ys)
    except OverflowError:
        with pytest.raises(ConfigError, match="^the growth-rate fit leaves the float range"):
            sdlab.entropy._fit(ns, ys)
    else:
        assert sdlab.entropy._fit(ns, ys) == want


@pytest.mark.parametrize("text", ("A4", "E8"))
def test_small_budgets_fail_at_the_same_level_with_or_without_a_stored_period(
        monkeypatch, text):
    # the budget sees levels 0..min(n_max, p - 1), from a cold catalog or
    # from one that already holds the period
    q = parse_quiver(text)
    p = first_return(stepped_levels(standard_generator(q), 30))
    totals = [sum(lev.values()) for lev in stepped_series_levels(q, p - 1)]
    budget = totals[0]  # the first level above G's own total fails
    n = next(j for j, total in enumerate(totals) if total > budget)
    assert 1 < n < p - 1
    message = "hom dimensions reached %d at n=%d (budget %d)" % (totals[n], n, budget)
    for warm in (False, True):
        if not warm:
            monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
        entropy_series.cache_clear()
        assert len(entropy_series(q, n - 1, budget).levels) == n
        for n_max in (n, p - 1, p, 240):
            with pytest.raises(BudgetExceeded) as err:
                entropy_series(q, n_max, budget)
            assert str(err.value) == message
    assert len(entropy_series(q, 240, max(totals)).levels) == 241


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("text", ("K2", "K3", "E8"))
def test_non_finite_t_is_rejected_on_every_quiver(text):
    q = parse_quiver(text)
    for t in NON_FINITE:
        with pytest.raises(ConfigError, match="^t must be finite, got %r$" % t):
            entropy_estimate(q, t)
        with pytest.raises(ConfigError, match="^t must be finite"):
            entropy_profile(q, (0.0, 1.0, t))
    for lam in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="^lam must be finite, got %r$" % lam):
            volume(q, lam)
    if classify_dynkin(q) is not None:
        assert math.nan not in vars(entropy_series(q, 30)).get("estimates", {})
        sigma = gepner_construct(q)
        for t in NON_FINITE:
            with pytest.raises(ConfigError, match="^t must be finite, got %r$" % t):
                mass_growth(sigma, (0.0, t), 30)
