"""Exact linear algebra over the rationals.

Matrices are lists of rows; entries are ints or Fractions (they mix freely).
All elimination is fraction-free: rows are scaled to integers and combined by
integer cross-multiplication with gcd normalization, so ranks, kernels and
echelon forms are exact.  Reduced row echelon form is unique, which makes
every derived basis (kernels, column spaces, quotient representatives)
deterministic regardless of pivot-selection heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ShapeMismatch(ValueError):
    """Matrix shapes do not fit the operation."""


def q(x):
    """Normalize a scalar: ints pass through, 'num/den' strings and Fractions
    are reduced, integral Fractions collapse to int."""
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"not an exact scalar: {x!r}")


def freeze(m):
    """The stored form of a matrix: a tuple of tuples of normalized scalars.
    It is built once and read in place; writing through it raises TypeError."""
    return tuple(tuple(q(x) for x in row) for row in m)


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
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            v = arow[k]
            if v:
                brow = b[k]
                for j in range(cb):
                    w = brow[j]
                    if w:
                        orow[j] += v * w
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    s = q(s)
    return [[q(s * x) for x in row] for row in a]


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
    bnz = [(k, [(l, y) for l, y in enumerate(row) if y])
           for k, row in enumerate(b)]
    bnz = [(k, terms) for k, terms in bnz if terms]
    if not bnz:
        return
    for i, arow in enumerate(a):
        r = row0 + i * br
        for j, x in enumerate(arow):
            if x:
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
    """Clear denominators and content; return sparse dict col -> int."""
    lcm = 1
    for x in row:
        if isinstance(x, Fraction):
            d = x.denominator
            lcm = lcm * d // gcd(lcm, d)
    d = {}
    for j, x in enumerate(row):
        if x:
            d[j] = int(x * lcm) if lcm != 1 else int(x)
    if d:
        g = 0
        for v in d.values():
            g = gcd(g, v)
        if g > 1:
            d = {j: v // g for j, v in d.items()}
    return d


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
            out[i][j] = q(Fraction(v, pv))
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
