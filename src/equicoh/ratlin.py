"""Exact linear algebra over the rationals.

A matrix is a `Matrix`: the tuple of its rows, each a read-only mapping
{column: entry} of the row's nonzero entries (every empty row is one shared
mapping), with its shape; its column index, the same mappings by column, is
built on first use and kept.  `freeze` alone builds one: from the sparse
rows this package's writers fill, or from dense rows where a matrix enters
from outside; `Matrix.dense` gives dense rows back for JSON and witnesses.
Work is per nonzero entry throughout.

Inputs may hold ints and Fractions, integral ones such as Fraction(4, 2)
included; `q` alone also reads 'num/den' strings.  Stored entries (see
`freeze`) are ints or non-integral Fractions; `mat_mul` leaves its products
unnormalized.  All elimination is fraction-free: rows are scaled to integers
and combined by integer cross-multiplication with gcd normalization, so
ranks, kernels and echelon forms are exact.  Reduced row echelon form is
unique, which makes every derived basis (kernels, column spaces, quotient
representatives) deterministic regardless of pivot-selection heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import attrgetter, is_
from types import MappingProxyType

_EMPTY = MappingProxyType({})   # every empty row and column


class ShapeMismatch(ValueError):
    """Matrix shapes do not fit the operation."""


def q(x):
    """Normalize a scalar: ints pass through, 'num/den' strings and Fractions
    are reduced, integral Fractions collapse to int."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, int):
            return x
        if isinstance(x, str):
            x = Fraction(x)
        elif not isinstance(x, Fraction):
            raise TypeError(f"not an exact scalar: {x!r}")
    return int(x) if x.denominator == 1 else x


class Matrix(tuple):
    """An immutable sparse matrix: the tuple of its rows (read-only
    mappings column -> nonzero entry), its `shape` (rows, columns) and
    `cols` (mappings row -> nonzero entry per column, built on first use).
    Built only by `freeze`."""

    def __new__(cls, rows, ncols: int):
        m = tuple.__new__(cls, rows)
        m.shape, m._cols = (len(m), ncols), None
        return m

    def __eq__(self, other):
        return (type(other) is Matrix and self.shape == other.shape
                and tuple.__eq__(self, other))

    def __ne__(self, other):
        return not self == other

    @property
    def cols(self) -> tuple:
        if self._cols is None:
            cols = [{} for _ in range(self.shape[1])]
            for i, row in enumerate(self):
                for j, v in row.items():
                    cols[j][i] = v
            self._cols = tuple(MappingProxyType(c) if c else _EMPTY
                               for c in cols)
        return self._cols

    def dense(self) -> list:
        """Dense rows, zeros as int 0."""
        return [[row.get(j, 0) for j in range(self.shape[1])] for row in self]


def _sparse(row):
    """A read-only row from a sparse row (its zero entries dropped) or from
    a dense row of scalars (through `q`)."""
    if type(row) is MappingProxyType:
        return row
    if type(row) is not dict:
        row = {j: q(x) for j, x in enumerate(row) if x}
    elif not all(row.values()):
        row = {j: x for j, x in row.items() if x}
    return MappingProxyType(row) if row else _EMPTY


def _normal(row):
    """`row` with every entry through `q` (itself when they all are)."""
    vals = row.values()
    if set(map(type, vals)) <= {int} or all(
            type(x) is not Fraction or x.denominator != 1 for x in vals):
        return row
    return MappingProxyType({j: q(x) for j, x in row.items()})


def freeze(m, ncols=None) -> Matrix:
    """The stored form of a matrix.  From a Matrix: itself when its entries
    are ints and non-integral Fractions, else a copy with each through `q`.
    From rows with `ncols` columns (by default the first row's length):
    sparse rows (dicts column -> scalar, adopted as they are, or rows of a
    Matrix) less their zero entries, or dense rows read through `q`."""
    if type(m) is Matrix:
        rows = tuple(map(_normal, m))
        return m if all(map(is_, rows, m)) else Matrix(rows, m.shape[1])
    m = list(m)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    return Matrix(map(_sparse, m), ncols)


def ncols(a) -> int:
    return a.shape[1]


@cache
def zeros(r: int, c: int) -> Matrix:
    return freeze((_EMPTY,) * r, c)


@cache
def identity(n: int) -> Matrix:
    """The n x n identity, built once per size (a Matrix is immutable)."""
    return freeze([{i: 1} for i in range(n)], n)


def mat_mul(a, b) -> Matrix:
    """a b, each entry the sum of its nonzero products in the order of a's
    row, started from int 0 and not normalized."""
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch("shape mismatch")
    out = []
    for arow in a:
        acc = {}
        for k, v in arow.items():
            for j, w in b[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append(acc)
    return freeze(out, b.shape[1])


def mat_add(a, b, sign=1) -> Matrix:
    """a + sign * b (sums not normalized)."""
    if a.shape != b.shape:
        raise ShapeMismatch("sum of matrices of different shapes")
    out = []
    for ra, rb in zip(a, b):
        if rb:
            ra = dict(ra)
            for j, v in rb.items():
                ra[j] = ra.get(j, 0) + sign * v
        out.append(ra)
    return freeze(out, a.shape[1])


def mat_scale(a, s) -> Matrix:
    s = q(s)
    return freeze([{j: q(s * x) for j, x in row.items()} for row in a],
                  a.shape[1])


def is_zero(a) -> bool:
    return not any(a)


def add_kron(out, a, b, row0: int = 0, col0: int = 0, scale=1):
    """Add scale * (a (x) b) into `out`, a list of sparse rows (dicts
    column -> scalar), at offset (row0, col0), on the product layout:
    a[i][j] * b[k][l] lands in row row0 + i * rows(b) + k and column
    col0 + j * cols(b) + l."""
    br, bc = b.shape
    brows = [(k, row.items()) for k, row in enumerate(b) if row]
    for i, arow in enumerate(a):
        r = row0 + i * br
        for j, x in arow.items():
            x *= scale
            c = col0 + j * bc
            for k, terms in brows:
                orow = out[r + k]
                for l, y in terms:
                    orow[c + l] = orow.get(c + l, 0) + x * y


def hstack(*mats) -> Matrix:
    r = len(mats[0])
    if any(len(m) != r for m in mats):
        raise ShapeMismatch("row mismatch in hstack")
    rows = [dict(row) for row in mats[0]]
    off = mats[0].shape[1]
    for m in mats[1:]:
        for row, mrow in zip(rows, m):
            for j, v in mrow.items():
                row[off + j] = v
        off += m.shape[1]
    return freeze(rows, off)


def mat_from_columns(cols, nrows: int) -> Matrix:
    """The nrows-row matrix whose columns are the mappings row -> entry of
    `cols`."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return freeze(rows, len(cols))


def _int_row(row):
    """Clear denominators and content of a sparse row of nonzero ints and
    Fractions; return the dict col -> int, each an int even where the entry
    was an integral Fraction (products from `mat_mul` are not
    normalized)."""
    vals = list(row.values())
    den = lcm(*map(attrgetter("denominator"), vals))
    if den == 1:
        vals = list(map(int, vals))
    else:
        vals = [x.numerator * (den // x.denominator) for x in vals]
    g = gcd(*vals)
    if g > 1:
        vals = [v // g for v in vals]
    return dict(zip(row, vals))


def _combine(r, piv, col):
    """r*piv[col] - r[col]*piv, gcd-normalized: kills column col of r."""
    pv = piv[col]
    rv = r[col]
    new = {}
    for j, v in r.items():
        if j == col:
            continue
        w = v * pv - rv * piv.get(j, 0)
        if w:
            new[j] = w
    for j, v in piv.items():
        if j != col and j not in r:
            w = -rv * v
            if w:
                new[j] = w
    g = gcd(*new.values())
    return {j: v // g for j, v in new.items()} if g > 1 else new


def _sparse_echelon(rows):
    """Sparse fraction-free Gauss-Jordan.  Input: sparse integer dict rows.
    Returns list of (pivot_col, row) sorted by pivot_col, fully reduced
    (each pivot column appears in exactly one row).  Back-substitution is
    per nonzero: from the last row up, each row combines only with the
    reduced rows of the pivot columns it holds, which add none."""
    buckets: dict[int, list[dict]] = {}

    def push(r):
        if r:
            buckets.setdefault(min(r), []).append(r)

    for r in rows:
        push(r)
    pivrows = []
    while buckets:
        col = min(buckets)
        cand = buckets.pop(col)
        cand.sort(key=len)
        piv = cand[0]
        if piv[col] < 0:
            piv = {j: -v for j, v in piv.items()}
        for r in cand[1:]:
            push(_combine(r, piv, col))
        pivrows.append((col, piv))
    # back-substitution.  Later rows have no entries at earlier pivot
    # columns, so pivots keep their sign.
    done = {}
    for col, row in reversed(pivrows):
        for j in sorted(filter(done.__contains__, row)):
            row = _combine(row, done[j], j)
        done[col] = row
    return [*reversed(done.items())]


def filtration_pairs(a, row_levels, col_levels):
    """Persistence pairing of a matrix whose rows and columns carry
    filtration levels.  Columns are reduced in filtration order (decreasing
    level, then index), each only by columns processed before it; the low
    of a column is its nonzero row of lowest level, the larger index on
    ties.  Returns the (row, column) pairs of the distinct lows left."""
    rows = sorted(range(len(row_levels)), key=lambda i: (-row_levels[i], i))
    pos = {i: k for k, i in enumerate(rows)}   # low = largest position
    cols = a.cols
    by_low, pairs = {}, []
    for j in sorted(range(len(col_levels)), key=lambda j: -col_levels[j]):
        col = {pos[i]: v for i, v in _int_row(cols[j]).items()}
        while col:
            low = max(col)
            if low not in by_low:
                by_low[low] = col
                pairs.append((rows[low], j))
                break
            col = _combine(col, by_low[low], low)
    return pairs


def rref(a):
    """Canonical reduced row echelon form.  Returns (R, pivots): R has the
    same shape as `a` with pivot entries 1, pivots is the list of pivot
    column indices in increasing order."""
    rows, pivots = [], []
    for col, row in _sparse_echelon(map(_int_row, a)):
        pv = row[col]
        rows.append({j: v // pv if v % pv == 0 else Fraction(v, pv)
                     for j, v in row.items()})
        pivots.append(col)
    rows += [_EMPTY] * (len(a) - len(rows))
    return freeze(rows, a.shape[1]), pivots


def rank(a) -> int:
    return len(_sparse_echelon(map(_int_row, a)))


def kernel(a) -> Matrix:
    """Canonical kernel basis as a matrix whose columns span ker(a).
    (ncols(a) rows; one column per free variable, in column order.)"""
    n = a.shape[1]
    r, pivots = rref(a)
    pivset = set(pivots)
    free = {f: k for k, f in enumerate(j for j in range(n) if j not in pivset)}
    rows = [None if k is None else {k: 1} for k in map(free.get, range(n))]
    for p, row in zip(pivots, r):
        rows[p] = {free[j]: -v for j, v in row.items() if j != p}
    return freeze(rows, len(free))


def echelon_kernel(a) -> Matrix:
    """The reduced column echelon basis of ker(a), from one elimination:
    the kernel basis of a with its columns reversed, read back with rows and
    columns reversed.  (The basis is unique, so it is
    `column_echelon(kernel(a))`.)"""
    n = a.shape[1]
    ker = kernel(freeze([{n - 1 - j: v for j, v in r.items()} for r in a], n))
    k = ker.shape[1]
    return freeze([{k - 1 - j: v for j, v in row.items()}
                   for row in reversed(ker)], k)


def column_echelon(a):
    """Canonical reduced column echelon basis of the column space.
    Returns (B, pivot_rows): B is nrows x rank, B[pivot_rows[i]][j] = delta_ij."""
    r, pivots = rref(freeze(a.cols, len(a)))
    return mat_from_columns(r[:len(pivots)], len(a)), pivots


def solve(a, b):
    """Solve a @ X = b exactly.  b is a matrix (or column).  Returns the
    particular solution with free variables 0, or None if inconsistent."""
    na = a.shape[1]
    r, pivots = rref(hstack(a, b))
    if pivots and pivots[-1] >= na:
        return None
    rows = [_EMPTY] * na
    for p, row in zip(pivots, r):
        rows[p] = {j - na: v for j, v in row.items() if j >= na}
    return freeze(rows, b.shape[1])


def solve_vec(a, v):
    x = solve(a, freeze([{0: e} for e in v], 1))
    return None if x is None else [row.get(0, 0) for row in x]
