from fractions import Fraction

import pytest

from sdlab import exactmat as xm
from sdlab.quivers import int_mat_mul, int_mat_vec


def test_mat_shape_validation():
    with pytest.raises(ValueError):
        xm.Mat(2, 2, [[1, 2], [3]])
    with pytest.raises(ValueError):
        xm.mat([])


def test_matmul_and_apply():
    a = xm.mat([[1, 2], [3, 4]])
    b = xm.mat([[0, 1], [1, 0]])
    assert (a @ b).data == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
    assert a.apply([1, 1]) == (Fraction(3), Fraction(7))
    with pytest.raises(ValueError):
        a.apply([1, 2, 3])


def test_add_sub_scale():
    a = xm.mat([[1, 0], [0, 1]])
    assert (a + a).data[0][0] == 2
    assert (a - a).is_zero()
    assert a.scale(Fraction(1, 2)).data[0][0] == Fraction(1, 2)


def test_transpose_roundtrip_and_empty_shapes():
    a = xm.mat([[1, 2, 3], [4, 5, 6]])
    assert a.transpose().transpose() == a
    z = xm.zeros(0, 3)
    assert z.transpose().rows == 3 and z.transpose().cols == 0
    assert xm.zeros(2, 0).transpose() == xm.zeros(0, 2)


def test_rref_pivots_and_rank():
    a = xm.mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = xm.rref(a)
    assert pivots == (0, 1)
    assert xm.rank(a) == 2
    assert xm.rank(xm.identity(4)) == 4
    assert xm.rank(xm.zeros(3, 5)) == 0


def test_right_kernel_annihilates():
    a = xm.mat([[1, 2, 3], [2, 4, 6]])
    k = xm.right_kernel(a)
    assert k.cols == 2
    for j in range(k.cols):
        assert a.apply(k.col(j)) == (0, 0)
    full = xm.identity(3)
    assert xm.right_kernel(full).cols == 0


def test_left_kernel_annihilates():
    a = xm.mat([[1, 2], [2, 4], [0, 0]])
    k = xm.left_kernel(a)
    assert k.rows == 2
    for row in k.data:
        prod = [sum(r * x for r, x in zip(row, a.col(j))) for j in range(a.cols)]
        assert all(v == 0 for v in prod)


def test_inverse_roundtrip_and_singular():
    a = xm.mat([[2, 1], [1, 1]])
    assert a @ xm.inverse(a) == xm.identity(2)
    with pytest.raises(ValueError):
        xm.inverse(xm.mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        xm.inverse(xm.zeros(2, 3))


def test_stacking():
    a = xm.mat([[1], [2]])
    b = xm.mat([[3], [4]])
    assert xm.hstack([a, b]).data == ((1, 3), (2, 4))
    assert xm.vstack([a, b]).col(0) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        xm.hstack([])
    with pytest.raises(ValueError):
        xm.hstack([a, xm.zeros(3, 1)])


def test_int_conversions():
    a = xm.from_int_rows([[1, -2], [0, 3]])
    assert xm.to_int_rows(a) == [[1, -2], [0, 3]]
    with pytest.raises(ValueError):
        xm.to_int_rows(xm.mat([[Fraction(1, 2)]]))


def test_int_helpers_bignum():
    # the integer helpers live in quivers.py, beside the Coxeter data
    big = 10**30
    assert int_mat_vec([[big, 0], [0, 1]], [2, 5]) == (2 * big, 5)
    assert int_mat_mul([[big]], [[big]]) == [[big * big]]


def test_fraction_exactness_survives_elimination():
    a = xm.mat([[Fraction(1, 3), 1], [1, Fraction(3, 7)]])
    inv = xm.inverse(a)
    assert a @ inv == xm.identity(2)
    assert all(isinstance(x, Fraction) for row in inv.data for x in row)
