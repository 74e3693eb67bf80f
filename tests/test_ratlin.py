import random
from fractions import Fraction

from equicoh import ratlin as rl


def rand_mat(rng, r, c, lo=-4, hi=4, frac=False):
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


def test_rref_known():
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    r, pivots = rl.rref(a)
    assert pivots == [0, 1]
    assert r[0] == [1, 0, 1]
    assert r[1] == [0, 1, 1]
    assert r[2] == [0, 0, 0]


def test_rref_fractions():
    a = [[Fraction(1, 2), 1], [1, 3]]
    r, pivots = rl.rref(a)
    assert pivots == [0, 1]
    assert r == [[1, 0], [0, 1]]


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
        b = [a[i] for i in perm]
        ra, pa = rl.rref(a)
        rb, pb = rl.rref(b)
        assert pa == pb
        assert rl.mat_eq(ra, rb)


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
        assert rl.mat_eq(rl.mat_mul(a, y), b)


def test_solve_inconsistent():
    a = [[1, 0], [0, 0]]
    b = [[0], [1]]
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
                assert e[pr][k] == (1 if k == j else 0)
        # e spans the same column space
        assert rl.solve(e, a) is not None
        assert rl.solve(a, e) is not None
        e2, _ = rl.column_echelon(e)
        assert rl.mat_eq(e, e2)


def test_span_operations():
    b1 = rl.mat_from_columns([[1, 0, 0], [0, 1, 0]], nrows=3)
    b2 = rl.mat_from_columns([[0, 1, 0], [0, 0, 1]], nrows=3)
    inter = rl.intersect_spans(b1, b2)
    assert rl.ncols(inter) == 1
    assert rl.in_span(inter, [0, 1, 0])
    assert rl.rank(rl.hstack(b1, b2)) == 3


def test_intersection_random_consistency():
    rng = random.Random(23)
    for _ in range(20):
        b1 = rand_mat(rng, 5, rng.randint(1, 4))
        b2 = rand_mat(rng, 5, rng.randint(1, 4))
        inter = rl.intersect_spans(b1, b2)
        assert rl.solve(b1, inter) is not None
        assert rl.solve(b2, inter) is not None
        # dim(U+V) = dim U + dim V - dim(U&V)
        d1 = rl.rank(rl.transpose(b1))
        d2 = rl.rank(rl.transpose(b2))
        assert rl.rank(rl.hstack(b1, b2)) == d1 + d2 - rl.ncols(inter)


def test_q_parsing():
    assert rl.q("3/6") == Fraction(1, 2)
    assert rl.q("4/2") == 2
    assert isinstance(rl.q("4/2"), int)
    assert rl.q(Fraction(6, 3)) == 2
    assert str(rl.q(Fraction(-1, 2))) == "-1/2"


def test_add_kron_matches_the_kronecker_product():
    """add_kron against the definition: entry (i, j) of a times (k, l) of b,
    scaled, added at row row0 + i*rows(b) + k, column col0 + j*cols(b) + l;
    every other entry of the target keeps its value."""
    rng = random.Random(20261018)
    for _ in range(300):
        ra, ca, rb, cb = (rng.randint(0, 4) for _ in range(4))
        a = rl.freeze(rand_mat(rng, ra, ca, lo=-2, hi=2, frac=True))
        b = rl.freeze(rand_mat(rng, rb, cb, lo=-2, hi=2, frac=True))
        row0, col0 = rng.randint(0, 3), rng.randint(0, 3)
        base = rand_mat(rng, row0 + ra * rb + rng.randint(0, 2),
                        col0 + ca * cb + rng.randint(0, 2), frac=True)
        scale = rng.choice([1, -1, Fraction(rng.randint(-5, 5),
                                            rng.randint(1, 5))])
        expect = [row[:] for row in base]
        for i in range(ra):
            for j in range(ca):
                for k in range(rb):
                    for l in range(cb):
                        expect[row0 + i * rb + k][col0 + j * cb + l] += \
                            scale * a[i][j] * b[k][l]
        out = [row[:] for row in base]
        rl.add_kron(out, a, b, row0, col0, scale)
        assert out == expect
        assert rl.freeze(out) == rl.freeze(expect)
