from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab import exactmat as xm
from sdlab.quivers import int_mat_mul, int_mat_vec


def _rank_by_fractions(rows, cols):
    # the oracle: plain Gaussian elimination over the rationals
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(cols):
        p = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[rank], work[p] = work[p], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, b.col(j))) for j in range(b.cols)] for row in a.data]


def _identity(n):
    return xm.Mat(n, n, [[int(i == j) for j in range(n)] for i in range(n)])


@st.composite
def int_matrices(draw):
    # plain draws, and products of thin factors, which are rank-deficient
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = st.integers(-9, 9)
    if draw(st.booleans()):
        return xm.Mat(rows, cols, draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                                min_size=rows, max_size=rows)))
    inner = draw(st.integers(0, 3))
    left = xm.Mat(rows, inner, draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                                             min_size=rows, max_size=rows)))
    right = xm.Mat(inner, cols, draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                              min_size=inner, max_size=inner)))
    return xm.Mat(rows, cols, _product(left, right))


def test_mat_shape_validation():
    with pytest.raises(ValueError):
        xm.Mat(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        xm.Mat(1, 2, [])


def test_mat_rejects_non_integers():
    for bad in (Fraction(1, 2), 0.5, "1"):
        with pytest.raises(TypeError):
            xm.Mat(1, 1, [[bad]])


def test_add_and_scale():
    a = _identity(2)
    assert (a + a).data == ((2, 0), (0, 2))
    assert a.scale(-3).data == ((-3, 0), (0, -3))
    with pytest.raises(ValueError):
        a + xm.zeros(2, 3)


def test_transpose_roundtrip_and_empty_shapes():
    a = xm.Mat(2, 3, [[1, 2, 3], [4, 5, 6]])
    assert a.transpose().transpose() == a
    z = xm.zeros(0, 3)
    assert z.transpose().rows == 3 and z.transpose().cols == 0
    assert xm.zeros(2, 0).transpose() == xm.zeros(0, 2)


def test_rref_pivots_and_rank():
    # the fraction-free final form is the reduced echelon form times D
    a = xm.Mat(3, 3, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    rows, pivots, d = xm._eliminate(a)
    assert pivots == [0, 1]
    assert [[Fraction(x, d) for x in r] for r in rows] == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
    assert xm.rank(a) == 2
    assert xm.rank(_identity(4)) == 4
    assert xm.rank(xm.zeros(3, 5)) == 0
    assert xm.rank(xm.zeros(0, 4)) == 0 and xm.rank(xm.zeros(4, 0)) == 0


def test_right_kernel_annihilates():
    a = xm.Mat(2, 3, [[1, 2, 3], [2, 4, 6]])
    k = xm.right_kernel(a)
    assert k.cols == 2
    assert _product(a, k) == [[0, 0], [0, 0]]
    assert xm.right_kernel(_identity(3)).cols == 0
    # a free column of a scaled pivot gets the smallest integer vector
    assert xm.right_kernel(xm.Mat(1, 2, [[4, 6]])) == xm.Mat(2, 1, [[-3], [2]])


def test_left_kernel_annihilates():
    a = xm.Mat(3, 2, [[1, 2], [2, 4], [0, 0]])
    k = xm.left_kernel(a)
    assert k.rows == 2
    assert _product(k, a) == [[0, 0], [0, 0]]


def test_bignum_entries_stay_exact():
    big = 10**30
    a = xm.Mat(2, 2, [[big, big + 1], [big - 1, big]])  # det 1
    assert xm.rank(a) == 2
    a = xm.Mat(2, 3, [[big, big + 1, 1], [2 * big, 2 * big + 2, 2]])
    assert xm.rank(a) == 1
    assert _product(a, xm.right_kernel(a)) == [[0, 0], [0, 0]]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(int_matrices())
def test_rank_matches_rational_elimination(a):
    assert xm.rank(a) == _rank_by_fractions(a.data, a.cols)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(int_matrices())
def test_kernels_are_integral_full_rank_and_annihilate(a):
    r = xm.rank(a)
    right, left = xm.right_kernel(a), xm.left_kernel(a)
    assert (right.rows, right.cols) == (a.cols, a.cols - r)
    assert (left.rows, left.cols) == (a.rows - r, a.rows)
    for k in (right, left):
        assert all(type(x) is int for row in k.data for x in row)
        assert _rank_by_fractions(k.data, k.cols) == min(k.rows, k.cols)
    assert all(x == 0 for row in _product(a, right) for x in row)
    assert all(x == 0 for row in _product(left, a) for x in row)


def test_stacking():
    a = xm.Mat(2, 1, [[1], [2]])
    b = xm.Mat(2, 1, [[3], [4]])
    assert xm.hstack([a, b]).data == ((1, 3), (2, 4))
    assert xm.vstack([a, b]).col(0) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        xm.hstack([])
    with pytest.raises(ValueError):
        xm.hstack([a, xm.zeros(3, 1)])


def test_int_helpers_bignum():
    # the integer helpers live in quivers.py, beside the Coxeter data
    big = 10**30
    assert int_mat_vec([[big, 0], [0, 1]], [2, 5]) == (2 * big, 5)
    assert int_mat_mul([[big]], [[big]]) == [[big * big]]
