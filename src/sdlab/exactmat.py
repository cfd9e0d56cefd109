"""Small exact-rational matrix kernel.

The exact representation oracle (`reps.py`) runs over Fraction entries so
that hom spaces, reflection functors and kernels are computed without
rounding.
Matrices are immutable: a shape pair plus a tuple of row tuples.  Zero-row
and zero-column shapes are first-class citizens; reflection functors produce
them constantly (vertices with dimension 0).

Floats never enter this module.  numpy is used elsewhere for float work.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)


class Mat:
    """Immutable rows x cols matrix of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable]) -> None:
        self.rows = rows
        self.cols = cols
        d = tuple(tuple(Fraction(x) for x in row) for row in data)
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

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        ot = other.transpose().data
        return Mat(
            self.rows,
            other.cols,
            [[_dot(r, c) for c in ot] for r in self.data],
        )

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        return Mat(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [[-x for x in r] for r in self.data])

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat(self.rows, self.cols, [[c * x for x in r] for r in self.data])

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, zip(*self.data) if self.rows else [[] for _ in range(self.cols)])

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        vv = [Fraction(x) for x in v]
        return tuple(_dot(r, vv) for r in self.data)


def _dot(a, b) -> Fraction:
    s = Q0
    for x, y in zip(a, b):
        s += x * y
    return s


def mat(rows: Sequence[Sequence]) -> Mat:
    """Literal constructor; rows must be nonempty and rectangular."""
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("use zeros(m, n) for empty shapes")
    return Mat(len(rows), len(rows[0]), rows)


def zeros(m: int, n: int) -> Mat:
    return Mat(m, n, [[Q0] * n for _ in range(m)])


def identity(n: int) -> Mat:
    return Mat(n, n, [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)])


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


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form, returns (R, pivot columns)."""
    m, n = a.rows, a.cols
    rows = [list(r) for r in a.data]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = Q1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Mat(m, n, rows), tuple(pivots)


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def right_kernel(a: Mat) -> Mat:
    """Columns form a basis of {x : a x = 0}; shape (cols, cols - rank)."""
    n = a.cols
    r, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis_cols = []
    for f in free:
        v = [Q0] * n
        v[f] = Q1
        for i, p in enumerate(pivots):
            v[p] = -r.data[i][f]
        basis_cols.append(v)
    if not basis_cols:
        return zeros(n, 0)
    return Mat(n, len(basis_cols), [[basis_cols[k][i] for k in range(len(basis_cols))] for i in range(n)])


def left_kernel(a: Mat) -> Mat:
    """Rows form a basis of {y : y a = 0}; shape (rows - rank, rows)."""
    return right_kernel(a.transpose()).transpose()


def inverse(a: Mat) -> Mat:
    if a.rows != a.cols:
        raise ValueError("inverse of nonsquare matrix")
    n = a.rows
    aug = hstack([a, identity(n)])
    r, pivots = rref(aug)
    if list(pivots[:n]) != list(range(n)):
        raise ValueError("singular matrix")
    return Mat(n, n, [row[n:] for row in r.data])


def from_int_rows(rows: Sequence[Sequence[int]]) -> Mat:
    return mat([[Fraction(x) for x in r] for r in rows])


def to_int_rows(a: Mat) -> list[list[int]]:
    """Exact conversion; raises if any entry is non-integral."""
    out = []
    for r in a.data:
        row = []
        for x in r:
            if x.denominator != 1:
                raise ValueError("non-integer entry %s" % x)
            row.append(int(x))
        out.append(row)
    return out

