import math
from fractions import Fraction

import pytest

import sdlab.catalog
from sdlab import (
    BudgetExceeded,
    ConfigError,
    EmptyGrid,
    IndecCatalog,
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
    # on the 2-arrow Kronecker quiver the series grows like n e^{nt}
    est0 = entropy_estimate(K2, 0.0, 30)
    assert abs(est0 - 0.048463566676851415) < 1e-12
    assert abs(est0) < 0.05
    est2 = entropy_estimate(K2, 2.0, 30)
    assert abs(est2 - 2.0) < 0.05


def test_budget_guard_fires_on_wild_quiver():
    with pytest.raises(BudgetExceeded) as err:
        entropy_series(K3, 30)
    assert str(err.value) == "hom dimensions reached 1339571480 at n=11 (budget 1000000000)"
    with pytest.raises(BudgetExceeded):
        entropy_estimate(K3, 0.0, 30)


def test_budget_below_one_is_a_config_error():
    for budget in (0, -1):
        with pytest.raises(ConfigError, match="budget must be at least 1"):
            entropy_series(A2, 30, budget)
    with pytest.raises(BudgetExceeded, match="reached 3 at n=0"):
        entropy_series(A2, 30, 2)


ORACLE_QUIVERS = (
    "A4", "D6", "E8", "K2",
    "vertices:3; arrows:1->2,2->3,1->3",
    "vertices:5; arrows:2->1,3->1,4->1,5->1",
    "vertices:4; arrows:1->2,2->3,3->4",
)


@pytest.mark.parametrize("text", ORACLE_QUIVERS)
def test_series_levels_match_pairwise_hom_poincare(text):
    # The pairwise path is the reference, key order included: log_f sums
    # its terms in dict order, so the order fixes the float bits.
    q = parse_quiver(text)
    series = entropy_series(q, 60)
    g = standard_generator(q)
    for n in range(61):
        expect = hom_poincare(g, serre_apply(g, n))
        assert list(series.levels[n].items()) == list(expect.items())
        assert series.m_minus[n] == -min(expect)
        assert series.m_plus[n] == -max(expect)


def test_entropy_chain_reads_no_pairwise_table(monkeypatch):
    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    entropy_series.cache_clear()
    sigma = gepner_construct(parse_quiver("E6"))

    def no_table(self, a, b):
        raise AssertionError("pairwise hom/ext lookup")

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
    sd = sdim_estimate(K2, 30)
    assert sd.exact is None
    assert abs(sd.upper - 29.0 / 30.0) < 1e-12
    assert abs(sd.lower - 29.0 / 30.0) < 1e-12


def test_volume_values():
    assert abs(volume(A2, 8.0, 30) - 2.0) < 1e-9
    assert abs(volume(A2, 1.0, 30) - 1.0) < 1e-9
    assert abs(volume(parse_quiver("A3"), 4.0, 40) - 2.0) < 1e-9
    with pytest.raises(ConfigError):
        volume(A2, 0.0)
    with pytest.raises(ConfigError):
        volume(A2, -2.0)


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
