"""Exact linear algebra over the rationals.

Matrices are lists of rows.  Inputs may hold ints and Fractions, integral
Fractions such as Fraction(4, 2) included; `q` alone also reads 'num/den'
strings.  Stored entries (see `freeze`) are ints or non-integral Fractions.
Per-entry work tests the exact type first and visits nonzero entries only,
so a mostly-zero matrix costs what its nonzeros cost.
All elimination is fraction-free: rows are scaled to integers and combined by
integer cross-multiplication with gcd normalization, so ranks, kernels and
echelon forms are exact.  Reduced row echelon form is unique, which makes
every derived basis (kernels, column spaces, quotient representatives)
deterministic regardless of pivot-selection heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import attrgetter


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


def freeze(m):
    """The stored form of a matrix: a tuple of tuples of ints and
    non-integral Fractions, from rows of ints and Fractions (integral ones
    included).  A row of ints only is kept as it is; other rows go through
    `q`.  It is built once and read in place; writing through it raises
    TypeError."""
    return tuple(tuple(row) if set(map(type, row)) <= {int}
                 else tuple(map(q, row)) for row in m)


def _nonzeros(row):
    """(column, entry) for each nonzero entry of `row`, in column order."""
    return zip(compress(count(), row), filter(None, row))


def zeros(r: int, c: int):
    return [[0] * c for _ in range(r)]


def identity(n: int):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def transpose(a):
    """The columns of `a` as lists: the rows of its transpose."""
    return [list(col) for col in zip(*a)]


columns = transpose


def mat_mul(a, b):
    ra = len(a)
    if ra == 0:
        return []
    ca = len(a[0])
    cb = len(b[0]) if b else 0
    if ca != len(b):
        raise ShapeMismatch("shape mismatch")
    out = zeros(ra, cb)
    bnz = [None] * ca    # nonzeros of b's rows, listed when a first reaches one
    for arow, orow in zip(a, out):
        for k, v in _nonzeros(arow):
            terms = bnz[k]
            if terms is None:
                terms = bnz[k] = list(_nonzeros(b[k]))
            for j, w in terms:
                orow[j] += v * w
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    s = q(s)
    return [[q(s * x) if x else 0 for x in row] for row in a]


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if x != y:
                return False
    return True


def is_zero(a):
    return not any(map(any, a))


def add_kron(out, a, b, row0: int = 0, col0: int = 0, scale=1):
    """Add scale * (a (x) b) into the matrix `out` at offset (row0, col0), on
    the product layout: a[i][j] * b[k][l] lands in row row0 + i * rows(b) + k
    and column col0 + j * cols(b) + l.  Only nonzero entries are visited."""
    br = len(b)
    bc = len(b[0]) if br else 0
    bnz = [(k, terms) for k, row in enumerate(b)
           if (terms := list(_nonzeros(row)))]
    if not bnz:
        return
    for i, arow in enumerate(a):
        r = row0 + i * br
        for j, x in _nonzeros(arow):
            x *= scale
            c = col0 + j * bc
            for k, terms in bnz:
                orow = out[r + k]
                for l, y in terms:
                    orow[c + l] += x * y


def hstack(*mats):
    mats = [m for m in mats if m and m[0] is not None]
    if not mats:
        return []
    r = len(mats[0])
    if any(len(m) != r for m in mats):
        raise ShapeMismatch("row mismatch in hstack")
    return [sum((list(m[i]) for m in mats), []) for i in range(r)]


def mat_from_columns(cols, nrows=None):
    """Assemble column vectors into a matrix."""
    if not cols:
        return [[] for _ in range(nrows)] if nrows else []
    n = len(cols[0])
    return [[col[i] for col in cols] for i in range(n)]


def _int_row(row):
    """Clear denominators and content of a row of ints and Fractions; return
    the sparse dict col -> int of its nonzeros, each an int even where the
    entry was an integral Fraction (products from `mat_mul` are not
    normalized).  Only nonzero entries are visited."""
    cols = list(compress(count(), row))
    vals = list(filter(None, row))
    den = lcm(*map(attrgetter("denominator"), vals))
    if den == 1:
        vals = list(map(int, vals))
    else:
        vals = [x.numerator * (den // x.denominator) for x in vals]
    g = gcd(*vals)
    if g > 1:
        vals = [v // g for v in vals]
    return dict(zip(cols, vals))


def _normalize(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


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
    return _normalize(new)


def _sparse_echelon(rows):
    """Sparse fraction-free Gauss-Jordan.  Input: sparse integer dict rows.
    Returns list of (pivot_col, row) sorted by pivot_col, fully reduced
    (each pivot column appears in exactly one row)."""
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
    # back-substitution (rows sorted by pivot col; reduce upward).  Later rows
    # have no entries at earlier pivot columns, so pivots keep their sign.
    for i in range(len(pivrows) - 1, -1, -1):
        col_i, row_i = pivrows[i]
        for k in range(i + 1, len(pivrows)):
            col_k, row_k = pivrows[k]
            if row_i.get(col_k, 0):
                row_i = _combine(row_i, row_k, col_k)
        pivrows[i] = (col_i, row_i)
    return pivrows


def filtration_pairs(a, row_levels, col_levels):
    """Persistence pairing of a matrix whose rows and columns carry
    filtration levels.  Columns are reduced in filtration order (decreasing
    level, then index), each only by columns processed before it; the low
    of a column is its nonzero row of lowest level, the larger index on
    ties.  Returns the (row, column) pairs of the distinct lows left."""
    rows = sorted(range(len(row_levels)), key=lambda i: (-row_levels[i], i))
    pos = {i: k for k, i in enumerate(rows)}   # low = largest position
    cols = transpose(a)
    by_low, pairs = {}, []
    for j in sorted(range(len(col_levels)), key=lambda j: -col_levels[j]):
        col = {pos[i]: v for i, v in _int_row(cols[j]).items()} if rows else {}
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
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivrows = _sparse_echelon([_int_row(row) for row in a])
    out = zeros(nrows, ncols)
    pivots = []
    for i, (col, row) in enumerate(pivrows):
        pv = row[col]
        for j, v in row.items():
            out[i][j] = v // pv if v % pv == 0 else Fraction(v, pv)
        pivots.append(col)
    return out, pivots


def rank(a) -> int:
    return len(_sparse_echelon([_int_row(row) for row in a]))


def kernel(a):
    """Canonical kernel basis as a matrix whose columns span ker(a).
    (ncols(a) rows; one column per free variable, in column order.)"""
    ncols = len(a[0]) if a else 0
    r, pivots = rref(a)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    cols = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            if r[i][f]:
                v[p] = q(-r[i][f])
        cols.append(v)
    return mat_from_columns(cols, nrows=ncols)


def column_echelon(a):
    """Canonical reduced column echelon basis of the column space.
    Returns (B, pivot_rows): B is nrows x rank, B[pivot_rows[i]][j] = delta_ij."""
    nrows = len(a)
    r, pivots = rref(transpose(a))
    b = [[r[j][i] for j in range(len(pivots))] for i in range(nrows)]
    return b, pivots


def solve(a, b):
    """Solve a @ X = b exactly.  b is a matrix (or column).  Returns the
    particular solution with free variables 0, or None if inconsistent."""
    na = len(a[0]) if a else 0
    if a and len(b) != len(a):
        raise ShapeMismatch("shape mismatch in solve")
    aug = hstack(a, b) if a else b
    nb = len(b[0]) if b else 0
    r, pivots = rref(aug)
    for p in pivots:
        if p >= na:
            return None
    x = zeros(na, nb)
    for i, p in enumerate(pivots):
        for j in range(nb):
            x[p][j] = r[i][na + j]
    return x


def solve_vec(a, v):
    x = solve(a, [[e] for e in v])
    if x is None:
        return None
    return [row[0] for row in x]


def in_span(basis, v) -> bool:
    """Is column vector v in the span of the columns of `basis`?"""
    if all(not e for e in v):
        return True
    if not basis or not basis[0]:
        return False
    return solve_vec(basis, v) is not None


def intersect_spans(b1, b2):
    """Canonical basis of span(b1) & span(b2) (columns)."""
    if not b1 or not b2 or not b1[0] or not b2[0]:
        return zeros(len(b1) if b1 else len(b2), 0)
    k1 = len(b1[0])
    ker = kernel(hstack(b1, b2))
    vecs = []
    for col in columns(ker):
        a_part = mat_from_columns([col[:k1]], nrows=k1)
        v = mat_mul(b1, a_part)
        vecs.append([row[0] for row in v])
    if not vecs:
        return zeros(len(b1), 0)
    e, _ = column_echelon(mat_from_columns(vecs, nrows=len(b1)))
    return e


def ncols(a) -> int:
    return len(a[0]) if a else 0
