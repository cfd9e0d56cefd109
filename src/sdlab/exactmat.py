"""Small exact integer matrix kernel.

The exact representation oracle (`reps.py`) runs over Python ints, so that
hom spaces, reflection functors and kernels are computed without rounding.
Ranks and kernels come from one fraction-free Gauss-Jordan elimination
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968): every entry it writes is a minor of
the input, so every division in it is exact and no rational ever appears.
Matrices are immutable: a shape pair plus a tuple of row tuples.  Zero-row
and zero-column shapes are first-class citizens; reflection functors produce
them constantly (vertices with dimension 0).

Floats never enter this module: a non-integral entry raises TypeError
instead of being truncated.  numpy is used elsewhere for float work.
"""

from __future__ import annotations

import math
from operator import index
from typing import Iterable, Sequence


class Mat:
    """Immutable rows x cols matrix of ints."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable]) -> None:
        self.rows = rows
        self.cols = cols
        d = tuple(tuple(map(index, row)) for row in data)
        if len(d) != rows or any(len(r) != cols for r in d):
            raise ValueError("matrix data does not match shape (%d, %d)" % (rows, cols))
        self.data = d

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return "Mat(%d, %d, %r)" % (self.rows, self.cols, [list(r) for r in self.data])

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return Mat(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def scale(self, c: int) -> "Mat":
        return Mat(self.rows, self.cols, [[c * x for x in r] for r in self.data])

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, zip(*self.data) if self.rows else [[] for _ in range(self.cols)])

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)


def zeros(m: int, n: int) -> Mat:
    return Mat(m, n, [[0] * n for _ in range(m)])


def hstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise ValueError("hstack of nothing")
    m = mats[0].rows
    if any(a.rows != m for a in mats):
        raise ValueError("row mismatch in hstack")
    return Mat(m, sum(a.cols for a in mats), [sum((list(a.data[i]) for a in mats), []) for i in range(m)])


def vstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack of nothing")
    n = mats[0].cols
    if any(a.cols != n for a in mats):
        raise ValueError("column mismatch in vstack")
    rows = []
    for a in mats:
        rows.extend(list(r) for r in a.data)
    return Mat(sum(a.rows for a in mats), n, rows)


def _eliminate(a: Mat) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan form of a: (rows, pivot columns, D).

    Each step with pivot p replaces every other row x by
    (p x - f y) // p_prev, where y is the pivot row, f the row's entry in
    the pivot column and p_prev the previous pivot (1 at first).  Every
    division is exact.  In the final form pivot row i holds D, the last
    pivot, in column pivots[i]; every other pivot-column entry is 0 and
    rows past the pivots are 0.
    """
    rows = [list(r) for r in a.data]
    pivots: list[int] = []
    prev = 1
    for c in range(a.cols):
        r = len(pivots)
        p = next((i for i in range(r, a.rows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        y, piv = rows[r], rows[r][c]
        for i, x in enumerate(rows):
            if i != r:
                f = x[c]
                rows[i] = [(xv * piv - f * yv) // prev for xv, yv in zip(x, y)]
        prev = piv
        pivots.append(c)
    return rows, pivots, prev


def rank(a: Mat) -> int:
    return len(_eliminate(a)[1])


def right_kernel(a: Mat) -> Mat:
    """Columns are integer vectors with coprime entries that form a basis
    of {x : a x = 0}; shape (cols, cols - rank)."""
    n = a.cols
    rows, pivots, d = _eliminate(a)
    basis_cols = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = d
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        g = math.gcd(*v)
        basis_cols.append([x // g for x in v])
    if not basis_cols:
        return zeros(n, 0)
    return Mat(len(basis_cols), n, basis_cols).transpose()


def left_kernel(a: Mat) -> Mat:
    """Rows are integer vectors that form a basis of {y : y a = 0}; shape
    (rows - rank, rows)."""
    return right_kernel(a.transpose()).transpose()
