"""Positive roots: the catalog's Coxeter knitting against the reflection
closure, the certificate that checks the knitting, and the period-read
Serre dimension window."""

import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdlab import IndecCatalog, classify_dynkin, entropy_series, parse_quiver, sdim_estimate
from sdlab.derived import Period
from sdlab.entropy import _tail_max, tail_window
from sdlab.quivers import euler_matrix

from orientations import drawn_orientations

SHAPES = (["A%d" % n for n in range(2, 9)] + ["D%d" % n for n in range(4, 9)]
          + ["E6", "E7", "E8"])


def reflection_closure(q):
    """The positive roots of a Dynkin quiver as the closure of the simple
    roots under raising: s_i(d) = d - (d, e_i) e_i for the symmetrized
    pairing, taken only where (d, e_i) < 0, so no negative root is walked."""
    n = q.n
    e = euler_matrix(q)
    sym = [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]
    simples = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen, frontier = set(simples), list(simples)
    while frontier:
        new = []
        for d in frontier:
            for i in range(n):
                pairing = sum(s * x for s, x in zip(sym[i], d))
                if pairing < 0:
                    r = d[:i] + (d[i] - pairing,) + d[i + 1:]
                    if r not in seen:
                        seen.add(r)
                        new.append(r)
        frontier = new
    return sorted(seen)


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn_orientations(SHAPES))
def test_catalog_dims_are_the_reflection_closure(q):
    assert sorted(IndecCatalog(q).by_dim) == reflection_closure(q)


@pytest.mark.parametrize("name", ["A%d" % n for n in range(1, 13)]
                         + ["D%d" % n for n in range(4, 13)] + ["E6", "E7", "E8"])
def test_root_count_is_rank_times_coxeter_number_over_two(name):
    q = parse_quiver(name)
    dyn = classify_dynkin(q)
    assert dyn.rank * dyn.coxeter_number // 2 == len(reflection_closure(q))


@pytest.mark.parametrize("name", ("A3", "D5", "E8"))
@pytest.mark.parametrize("corrupt", (
    lambda d, first: tuple(2 * x for x in d),  # not a root
    lambda d, first: tuple(-x for x in d),  # a negative root
    lambda d, first: first,  # a root met twice, so one is missing
), ids=("not-a-root", "negative-root", "repeated-root"))
def test_a_corrupted_knitting_fails_the_certificate(monkeypatch, name, corrupt):
    walk = IndecCatalog._walk

    def corrupted(self, proj, inj):
        items = list(walk(self, proj, inj))
        d, *flags = items[-1]
        items[-1] = corrupt(d, items[0][0]), *flags
        return iter(items)

    monkeypatch.setattr(IndecCatalog, "_walk", corrupted)
    with pytest.raises(AssertionError, match="not the positive roots"):
        IndecCatalog(parse_quiver(name))


def _window_scan(support, n_max):
    return max(support[n] / n for n in tail_window(n_max))


@pytest.mark.parametrize("name", ("A4", "D6", "E8"))
def test_sdim_reads_the_same_maximum_as_the_whole_window(name):
    q = parse_quiver(name)
    for n_max in range(1, 201):
        series = entropy_series(q, n_max)
        s = sdim_estimate(q, n_max)
        assert (s.upper, s.lower) == (_window_scan(series.m_minus, n_max),
                                      _window_scan(series.m_plus, n_max))


def test_tail_max_is_the_window_scan_on_a_disconnected_quiver():
    # on A2 + A3 the components return with different shifts, so there is
    # no period and the whole window is read; A2 + A2 has a period
    for text in ("vertices:5; arrows:1->2,3->4,5->4", "vertices:4; arrows:1->2,3->4"):
        q = parse_quiver(text)
        for n_max in range(1, 201):
            series = entropy_series(q, n_max)
            for support in (series.m_minus, series.m_plus):
                assert _tail_max(support, n_max) == _window_scan(support, n_max)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12), st.integers(-20, 20))
def test_tail_max_is_the_window_scan_on_any_period(period, k):
    # the classes rise toward k / p from below as well as fall from above,
    # so both ends of the window count
    for n_max in range(1, 201):
        support = Period(period, k, n_max + 1, operator.add)
        assert _tail_max(support, n_max) == _window_scan(support, n_max)
