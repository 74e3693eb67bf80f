import random
from fractions import Fraction

import pytest

from equicoh import ratlin as rl
from equicoh.core import preimage


def rand_mat(rng, r, c, lo=-4, hi=4, frac=False):
    """A seeded random matrix in its stored form."""
    return rl.freeze(rand_rows(rng, r, c, lo, hi, frac), c)


def rand_rows(rng, r, c, lo=-4, hi=4, frac=False):
    m = []
    for _ in range(r):
        row = []
        for _ in range(c):
            if frac and rng.random() < 0.3:
                row.append(Fraction(rng.randint(lo, hi), rng.randint(1, 5)))
            else:
                row.append(rng.randint(lo, hi))
        m.append(row)
    return m


def cols(vectors, n):
    """The n-row matrix with the given columns (lists)."""
    return rl.mat_from_columns([dict(enumerate(v)) for v in vectors], n)


def test_rref_known():
    a = rl.freeze([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = rl.rref(a)
    assert pivots == [0, 1]
    r = r.dense()
    assert r[0] == [1, 0, 1]
    assert r[1] == [0, 1, 1]
    assert r[2] == [0, 0, 0]


def test_rref_fractions():
    a = rl.freeze([[Fraction(1, 2), 1], [1, 3]])
    r, pivots = rl.rref(a)
    assert pivots == [0, 1]
    assert r.dense() == [[1, 0], [0, 1]]


def test_kernel_matches_rank_nullity():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 7)
        c = rng.randint(1, 7)
        a = rand_mat(rng, r, c, frac=True)
        ker = rl.kernel(a)
        assert rl.rank(a) + rl.ncols(ker) == c
        if rl.ncols(ker):
            assert rl.is_zero(rl.mat_mul(a, ker))


def test_rref_canonical_under_row_shuffle():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_mat(rng, 5, 6)
        perm = list(range(5))
        rng.shuffle(perm)
        b = rl.freeze([a[i] for i in perm], 6)
        ra, pa = rl.rref(a)
        rb, pb = rl.rref(b)
        assert pa == pb
        assert ra == rb


def test_solve_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        a = rand_mat(rng, r, c, frac=True)
        x = rand_mat(rng, c, 2, frac=True)
        b = rl.mat_mul(a, x)
        y = rl.solve(a, b)
        assert y is not None
        assert rl.mat_mul(a, y) == b


def test_solve_inconsistent():
    a = rl.freeze([[1, 0], [0, 0]])
    b = rl.freeze([[0], [1]])
    assert rl.solve(a, b) is None


def test_column_echelon_idempotent_and_spanning():
    rng = random.Random(17)
    for _ in range(25):
        a = rand_mat(rng, 6, 4, frac=True)
        e, piv = rl.column_echelon(a)
        assert rl.ncols(e) == rl.rank(a)
        # reduced column echelon: pivot rows carry identity
        for j, pr in enumerate(piv):
            for k in range(rl.ncols(e)):
                assert e.dense()[pr][k] == (1 if k == j else 0)
        # e spans the same column space
        assert rl.solve(e, a) is not None
        assert rl.solve(a, e) is not None
        e2, _ = rl.column_echelon(e)
        assert e == e2


def test_span_operations():
    """The intersection of spans is the preimage of the second span under
    the basis of the first (reduced column echelon, as b1 is)."""
    b1 = cols([[1, 0, 0], [0, 1, 0]], 3)
    b2 = cols([[0, 1, 0], [0, 0, 1]], 3)
    inter = preimage(b1, b1, b2)
    assert rl.ncols(inter) == 1
    assert rl.solve_vec(inter, [0, 1, 0]) is not None
    assert rl.rank(rl.hstack(b1, b2)) == 3


def test_intersection_random_consistency():
    rng = random.Random(23)
    for _ in range(20):
        b1 = rand_mat(rng, 5, rng.randint(1, 4))
        b2 = rand_mat(rng, 5, rng.randint(1, 4))
        e1, _ = rl.column_echelon(b1)
        inter = preimage(e1, e1, b2)
        assert rl.column_echelon(inter)[0] == inter
        assert rl.solve(b1, inter) is not None
        assert rl.solve(b2, inter) is not None
        # dim(U+V) = dim U + dim V - dim(U&V), U and V the column spans
        d1 = rl.rank(rl.freeze(b1.cols, len(b1)))
        d2 = rl.rank(rl.freeze(b2.cols, len(b2)))
        assert rl.rank(rl.hstack(b1, b2)) == d1 + d2 - rl.ncols(inter)


def test_q_parsing():
    assert rl.q("3/6") == Fraction(1, 2)
    assert rl.q("4/2") == 2
    assert isinstance(rl.q("4/2"), int)
    assert rl.q(Fraction(6, 3)) == 2
    assert str(rl.q(Fraction(-1, 2))) == "-1/2"


def test_zeros_are_built_once_per_shape():
    """A Matrix is immutable, so one zero matrix serves each shape, as one
    identity serves each size."""
    assert rl.zeros(3, 2) is rl.zeros(3, 2)
    assert rl.zeros(3, 2).shape == (3, 2) and rl.is_zero(rl.zeros(3, 2))
    assert rl.zeros(2, 3) is not rl.zeros(3, 2)
    assert rl.identity(4) is rl.identity(4)


def test_add_kron_matches_the_kronecker_product():
    """add_kron against the definition: entry (i, j) of a times (k, l) of b,
    scaled, added at row row0 + i*rows(b) + k, column col0 + j*cols(b) + l;
    every other entry of the target keeps its value."""
    rng = random.Random(20261018)
    for _ in range(300):
        ra, ca, rb, cb = (rng.randint(0, 4) for _ in range(4))
        a = rand_mat(rng, ra, ca, lo=-2, hi=2, frac=True)
        b = rand_mat(rng, rb, cb, lo=-2, hi=2, frac=True)
        da, db = a.dense(), b.dense()
        row0, col0 = rng.randint(0, 3), rng.randint(0, 3)
        width = col0 + ca * cb + rng.randint(0, 2)
        base = rand_rows(rng, row0 + ra * rb + rng.randint(0, 2), width,
                         frac=True)
        scale = rng.choice([1, -1, Fraction(rng.randint(-5, 5),
                                            rng.randint(1, 5))])
        expect = [row[:] for row in base]
        for i in range(ra):
            for j in range(ca):
                for k in range(rb):
                    for l in range(cb):
                        expect[row0 + i * rb + k][col0 + j * cb + l] += \
                            scale * da[i][j] * db[k][l]
        out = [{j: x for j, x in enumerate(row) if x} for row in base]
        rl.add_kron(out, a, b, row0, col0, scale)
        assert [[row.get(j, 0) for j in range(width)] for row in out] == expect
        assert rl.freeze(out, width) == rl.freeze(expect, width)


# Reference implementations, written from the definitions for the scalar
# contract test below.

def _ref_q(x):
    """ints (bools too) as they are; strings and Fractions reduced, the
    integral ones as ints."""
    if isinstance(x, int):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _ref_mat_mul(a, b, c):
    """Entry (i, j) of a b (c columns) is the sum over k of a[i][k] *
    b[k][j], starting from int 0 and taking the nonzero products in k order,
    not normalized; a sum that cancels to zero is not stored and reads as
    int 0."""
    return [[sum((x * brow[j] for x, brow in zip(row, b) if x and brow[j]),
                 0) or 0 for j in range(c)] for row in a]


def _ref_rref(a, n=None):
    """Gauss-Jordan over Fractions of the rows a (n columns), pivots scaled
    to 1, entries as `q`."""
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for c in range(len(a[0]) if n is None else n):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return [[_ref_q(x) for x in row] for row in m], pivots


def _ref_kernel(a, n):
    """One column per free variable f of the n: x_f = 1, the other free
    ones 0, and each pivot variable solved from its row of the reduced
    form."""
    r, pivots = _ref_rref(a, n)
    cols = []
    for f in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = _ref_q(-r[i][f])
        cols.append(v)
    return [[v[i] for v in cols] for i in range(n)]


def _ref_kron(a, b, scale):
    """a (x) b scaled: entry (i*rows(b) + k, j*cols(b) + l) is
    (a[i][j] * scale) * b[k][l], not normalized, where that is nonzero."""
    return [[(x * scale * y or 0) if x and y else 0
             for x in arow for y in brow] for arow in a for brow in b]


def _ref_column_echelon(a):
    """The first rank rows of the reduced form of the transpose, as
    columns, with the pivots."""
    r, pivots = _ref_rref([list(col) for col in zip(*a)], len(a))
    return [[r[j][i] for j in range(len(pivots))] for i in range(len(a))], \
        pivots


def _ref_solve(a, na, b, nb):
    """Read off the reduced form of [a | b] (na and nb columns): None when
    a pivot lies in b, else each pivot variable's row of the b part, the
    free ones 0."""
    r, pivots = _ref_rref([ra + rb for ra, rb in zip(a, b)], na + nb)
    if any(p >= na for p in pivots):
        return None
    x = [[0] * nb for _ in range(na)]
    for i, p in enumerate(pivots):
        x[p] = r[i][na:]
    return x


def _typed(rows):
    """Dense rows with the type of every entry made visible."""
    return [[(type(x), x) for x in row] for row in rows]


def _contract_scalar(rng):
    """Mostly zeros, as in the program's blocks; otherwise an int, a reduced
    Fraction, an integral Fraction such as Fraction(4, 2), or a bool."""
    if rng.random() < 0.5:
        return 0
    return rng.choice((
        lambda: rng.randint(-3, 3),
        lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                         rng.randint(2, 4)),
        lambda: Fraction(2 * rng.randint(-3, 3), 2),
        lambda: rng.random() < 0.5,
    ))()


def test_scalar_contract_against_the_definitions():
    """Values and entry types of the per-entry paths, read through dense
    rows (zeros are not stored and read as int 0): dense rows are stored
    through `q`; sparse rows are adopted as they are, so products are left
    unnormalized and elimination accepts integral Fractions and bools in
    its input."""
    rng = random.Random(20261018)

    def draw(r, c):
        return [[_contract_scalar(rng) for _ in range(c)] for _ in range(r)]

    def adopted(rows, c):
        """The matrix of `rows` stored without normalizing its entries."""
        return rl.freeze([dict(enumerate(row)) for row in rows], c)

    for x in [_contract_scalar(rng) for _ in range(200)] + ["4/2", "-3/6"]:
        assert (type(rl.q(x)), rl.q(x)) == (type(_ref_q(x)), _ref_q(x))
    with pytest.raises(TypeError):
        rl.q(0.5)
    for _ in range(300):
        r, k, c = (rng.randint(0, 5) for _ in range(3))
        a, b = draw(r, k), draw(k, c)
        stored = rl.freeze(a, k) if not r else rl.freeze(a)
        assert stored.shape == (r, k)
        assert _typed(stored.dense()) == _typed(
            [[_ref_q(x) if x else 0 for x in row] for row in a])
        ma, mb = adopted(a, k), adopted(b, c)
        prod = rl.mat_mul(ma, mb)
        assert _typed(prod.dense()) == _typed(_ref_mat_mul(a, b, c))
        s = rng.choice((0, 2, Fraction(1, 3), Fraction(6, 3), True))
        assert _typed(rl.mat_scale(ma, s).dense()) == _typed(
            [[_ref_q(_ref_q(s) * x) for x in row] for row in a])
        out = [{} for _ in range(r * k)]
        rl.add_kron(out, ma, mb, scale=s)
        assert _typed(rl.freeze(out, k * c).dense()) == _typed(
            _ref_kron(ma.dense(), mb.dense(), s))
        assert _typed(rl.hstack(ma, prod).dense()) == _typed(
            [x + y for x, y in zip(ma.dense(), prod.dense())])
        rhs = adopted(draw(r, c), c)
        for m in (ma, prod, mb):
            dense = m.dense()
            out, pivots = rl.rref(m)
            ref, ref_pivots = _ref_rref(dense, rl.ncols(m))
            assert (_typed(out.dense()), pivots) == (_typed(ref), ref_pivots)
            assert rl.rank(m) == len(ref_pivots)
            ref_kernel = _ref_kernel(dense, rl.ncols(m))
            assert _typed(rl.kernel(m).dense()) == _typed(ref_kernel)
            assert _typed(rl.echelon_kernel(m).dense()) == _typed(
                _ref_column_echelon(ref_kernel)[0])
            ech, ech_pivots = rl.column_echelon(m)
            ref, ref_pivots = _ref_column_echelon(dense)
            assert (_typed(ech.dense()), ech_pivots) == (_typed(ref), ref_pivots)
        for m, y in ((ma, prod), (ma, rhs)):
            x = rl.solve(m, y)
            ref = _ref_solve(m.dense(), rl.ncols(m), y.dense(), rl.ncols(y))
            assert (x is None) == (ref is None)
            if x is not None:
                assert _typed(x.dense()) == _typed(ref)


def test_back_substitution_on_rows_holding_many_pivot_columns():
    """`rref`, `rank` and `kernel` against the definitions, entry types
    included, on seeded near-square matrices of mostly nonzero entries:
    after forward elimination each row holds most of the later pivot
    columns, so back-substitution must clear every one of them."""
    rng = random.Random(20261019)

    def entry():
        if rng.random() < 0.2:   # zeros, bools and integral Fractions too
            return _contract_scalar(rng)
        return rng.choice((rng.randint(1, 4),
                           Fraction(rng.randint(-5, 5) or 1, rng.randint(2, 3))))

    for _ in range(60):
        c = rng.randint(3, 10)
        r = c + rng.randint(-2, 1)
        m = rl.freeze([{j: entry() for j in range(c)} for _ in range(r)], c)
        out, pivots = rl.rref(m)
        ref, ref_pivots = _ref_rref(m.dense(), c)
        assert (_typed(out.dense()), pivots) == (_typed(ref), ref_pivots)
        assert rl.rank(m) == len(ref_pivots)
        assert _typed(rl.kernel(m).dense()) == _typed(_ref_kernel(m.dense(),
                                                                  c))
