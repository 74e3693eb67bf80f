import random
from fractions import Fraction

import pytest

from equicoh import gdiff, lie, spectral
from equicoh import ratlin as rl
from equicoh.core import (CochainComplex, DifferentialNotSquareZero, GradedSpace,
                          InconsistentResult, LinearMap, NotContained,
                          Subspace, cohomology, map_kernel, preimage,
                          restrict_map, subquotient)


def _rows(m):
    """A stored matrix as a tuple of dense rows."""
    return tuple(map(tuple, m.dense()))


def _cols(vectors, n):
    """The n-row matrix with the given columns (lists)."""
    return rl.mat_from_columns([dict(enumerate(v)) for v in vectors], n)


def small_complex():
    # 0 -> Q^2 -> Q^2 -> Q -> 0 with d0 = e1* , d1 = projection to e2
    sp = GradedSpace.from_dims({0: 2, 1: 2, 2: 1})
    d = LinearMap.from_blocks(sp, sp, 1, {
        0: [[1, 0], [0, 0]],
        1: [[0, 1]],
    })
    return CochainComplex.build(sp, d)


def test_cohomology_small():
    c = small_complex()
    h = cohomology(c)
    assert [h.dim(n) for n in range(3)] == [1, 0, 0]
    # representative of H^0 is the canonical kernel vector (0,1)
    assert _rows(h.reps[0]) == ((0,), (1,))


def test_d_square_zero_enforced():
    sp = GradedSpace.from_dims({0: 1, 1: 1, 2: 1})
    d = LinearMap.from_blocks(sp, sp, 1, {0: [[1]], 1: [[1]]})
    with pytest.raises(DifferentialNotSquareZero):
        CochainComplex.build(sp, d)


def test_cohomology_invariant_under_basis_permutation():
    rng = random.Random(5)
    c = small_complex()
    base = cohomology(c).dims
    for _ in range(10):
        perms = {}
        mats = {}
        for n in c.space.degrees():
            p = list(range(c.space.dim(n)))
            rng.shuffle(p)
            perms[n] = p
            m = [None] * len(p)
            for i, pi in enumerate(p):
                m[pi] = {i: 1}
            mats[n] = rl.freeze(m, len(p))
        blocks = {}
        for n in c.space.degrees():
            if c.space.dim(n + 1):
                inv = rl.solve(mats[n + 1], rl.identity(c.space.dim(n + 1)))
                blocks[n] = rl.mat_mul(rl.mat_mul(inv, c.d.block(n)), mats[n])
        d2 = LinearMap.from_blocks(c.space, c.space, 1, blocks)
        assert cohomology(CochainComplex.build(c.space, d2)).dims == base


def test_subquotient_and_projection():
    sp = GradedSpace.from_dims({0: 3})
    z = Subspace.from_spans(sp, {0: _cols([[1, 0, 0], [0, 1, 0]], 3)})
    b = Subspace.from_spans(sp, {0: _cols([[1, 0, 0]], 3)})
    sq = subquotient(z, dict(b.basis))
    assert sq.dim(0) == 1
    # [e1 + e2] = [e2]
    assert sq.project(0, rl.freeze([[1], [1], [0]])).dense() == [[1]]
    assert sq.project(0, rl.freeze([[1], [0], [0]])).dense() == [[0]]


def test_subquotient_not_contained():
    sp = GradedSpace.from_dims({0: 2})
    z = Subspace.from_spans(sp, {0: _cols([[1, 0]], 2)})
    b = Subspace.from_spans(sp, {0: _cols([[0, 1]], 2)})
    with pytest.raises(NotContained):
        subquotient(z, dict(b.basis))


def _typed(m):
    """Entries with their types: 1 and Fraction(1) are told apart."""
    rows = m.dense() if isinstance(m, rl.Matrix) else m
    return [[(type(x), x) for x in row] for row in rows]


def _rand_vec(rng, n):
    return [rl.q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(n)]


def _combination(rng, cols, n):
    """A random rational combination of the columns (zero if none)."""
    vec = [0] * n
    for col in cols:
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        vec = [rl.q(v + c * x) for v, x in zip(vec, col)]
    return vec


def _span(sp, cols):
    return Subspace.from_spans(sp, {0: _cols(cols, sp.dim(0))})


def test_coordinates_read_off_bases_agree_with_a_solve():
    """contains, project and restrict_map read coordinates off the unit rows
    of stored bases; a solve of the same systems gives the same values of
    the same types, and NotContained exactly when the solve has none."""
    rng = random.Random(20261018)
    for _ in range(60):
        n = rng.randint(1, 6)
        sp = GradedSpace.from_dims({0: n})
        zcols = [_rand_vec(rng, n) for _ in range(rng.randint(0, n))]
        z = _span(sp, zcols)
        b = _span(sp, [_combination(rng, zcols, n)
                            for _ in range(rng.randint(0, len(zcols)))])
        zm = z.matrix(0)

        # contains: a subspace of z, and an arbitrary one
        for w in (b, _span(sp, [_rand_vec(rng, n)
                                     for _ in range(rng.randint(1, 2))])):
            assert z.contains(w) == (rl.solve(zm, w.matrix(0)) is not None)

        # project: the reference solves against [b | reps]
        sq = subquotient(z, dict(b.basis))
        aug = rl.hstack(b.matrix(0), sq.reps.get(0, rl.zeros(n, 0)))
        for vec in (_combination(rng, zcols, n), _rand_vec(rng, n)):
            if not rl.ncols(aug):
                expected = [] if not any(vec) else None
            else:
                sol = rl.solve_vec(aug, vec)
                expected = None if sol is None else sol[rl.ncols(b.matrix(0)):]
            col = rl.freeze([[x] for x in vec])
            if expected is None:
                with pytest.raises(NotContained):
                    sq.project(0, col)
            else:
                assert _typed(sq.project(0, col)) == \
                    _typed([[x] for x in expected])

        # restrict_map: an operator into z, and an arbitrary one
        k = z.dim(0)
        if not k:
            continue
        small = GradedSpace.from_dims({0: k})
        incl = LinearMap.from_blocks(small, sp, 0, {0: zm})
        into_z = rl.mat_mul(zm, rl.freeze([_rand_vec(rng, n)
                                           for _ in range(k)]))
        for m in (into_z, [_rand_vec(rng, n) for _ in range(n)]):
            op = LinearMap.from_blocks(sp, sp, 0, {0: m})
            sol = rl.solve(zm, rl.mat_mul(op.block(0), zm))
            if sol is None:
                with pytest.raises(NotContained):
                    restrict_map(op, incl, "op")
            else:
                got = restrict_map(op, incl, "op").block(0)
                assert _typed(got) == _typed(rl.freeze(sol))


def test_project_of_a_matrix_is_the_project_of_each_column():
    """Seeded property: projecting several columns at once gives, entry for
    entry and type for type, the one-column projections side by side, and
    NotContained as soon as any one column leaves z."""
    rng = random.Random(20261019)
    for _ in range(60):
        n = rng.randint(1, 6)
        sp = GradedSpace.from_dims({0: n})
        zcols = [_rand_vec(rng, n) for _ in range(rng.randint(0, n))]
        z = _span(sp, zcols)
        bcols = [_combination(rng, zcols, n) for _ in range(rng.randint(0, 2))]
        sq = subquotient(z, dict(_span(sp, bcols).basis))
        vecs = [_combination(rng, zcols, n) for _ in range(rng.randint(1, 4))]
        each = [sq.project(0, rl.freeze([[x] for x in vec])) for vec in vecs]
        got = sq.project(0, _cols(vecs, n))
        assert _typed(got) == _typed(rl.hstack(*each))
        outside = _rand_vec(rng, n)
        if rl.solve(z.matrix(0), rl.freeze([[x] for x in outside])) is None:
            at = rng.randint(0, len(vecs))
            with pytest.raises(NotContained):
                sq.project(0, _cols(vecs[:at] + [outside] + vecs[at:], n))


def test_restrict_map_refuses_a_basis_without_unit_rows():
    # injective, but no row is the unit row of the first column
    sp = GradedSpace.from_dims({0: 2})
    incl = LinearMap.from_blocks(sp, sp, 0, {0: [[1, 1], [0, 1]]})
    with pytest.raises(InconsistentResult):
        restrict_map(LinearMap.from_blocks(sp, sp, 0, {0: rl.identity(2)}),
                     incl, "op")


def _sparse_span(rng, rows, k):
    """k random sparse rational columns of length `rows`: some zero, some
    repeating an earlier column up to a factor, the rest with few
    nonzeros."""
    cols = []
    for _ in range(k):
        kind = rng.random()
        if kind < 0.15:
            col = [0] * rows
        elif kind < 0.35 and cols:
            f = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
            col = [rl.q(f * x) for x in rng.choice(cols)]
        else:
            col = [rl.q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                   if rng.random() < 0.4 else 0 for _ in range(rows)]
        cols.append(col)
    return _cols(cols, rows)


def _random_subspace(rng, sp):
    """from_spans on random sparse spans in a random set of degrees (some
    absent, some given only zero columns)."""
    spans = {n: _sparse_span(rng, sp.dim(n), rng.randint(0, sp.dim(n) + 2))
             for n in sp.degrees() if rng.random() < 0.8}
    return Subspace.from_spans(sp, spans)


def _ref_intersect_spans(b1, b2):
    """span(b1) & span(b2) by kernel-then-reduce: b1 times the top rows of
    the kernel basis of [b1 | b2], brought to reduced column echelon form."""
    if not rl.ncols(b1) or not rl.ncols(b2):
        return rl.zeros(len(b1), 0)
    ker = rl.kernel(rl.hstack(b1, b2))
    if not rl.ncols(ker):
        return rl.zeros(len(b1), 0)
    e, _ = rl.column_echelon(rl.mat_mul(b1, rl.freeze(ker[:rl.ncols(b1)],
                                                      rl.ncols(ker))))
    return e


def _ref_preimage(b, m, t):
    """{b x : m x in span t} by kernel-then-reduce: b times the top rows of
    the kernel basis of [m | -t], brought to reduced column echelon form."""
    aug = rl.hstack(m, rl.mat_scale(t, -1)) if rl.ncols(t) else m
    ker = rl.kernel(aug)
    coeffs = rl.freeze(ker[:rl.ncols(b)], rl.ncols(ker))
    return rl.column_echelon(rl.mat_mul(b, coeffs))[0]


def _ref_z_subspace(fc, r, p, n):
    """Z_r(p, n) by kernel-then-reduce, uncached."""
    if p < 0:
        r, p = r + p, 0
    space = fc.complex.space
    out = fc.level(p).part(n)
    target = fc.level(p + r).matrix(n + 1)
    if r >= 0 and out.dim(n) and rl.ncols(target) < space.dim(n + 1):
        b = out.matrix(n)
        mb = rl.mat_mul(fc.complex.d.block(n), b)
        if not rl.is_zero(mb):
            aug = rl.hstack(mb, rl.mat_scale(target, -1)) \
                if rl.ncols(target) else mb
            ker = rl.kernel(aug)
            coeffs = rl.freeze(ker[:rl.ncols(b)], rl.ncols(ker))
            out = Subspace.from_spans(space, {n: rl.mat_mul(b, coeffs)})
    return out


def _in_contract(m):
    """Every stored entry is an int or a non-integral Fraction."""
    return all(type(x) is int and x or type(x) is Fraction and x.denominator > 1
               for row in m for x in row.values())


def _same(got, ref):
    assert got.ambient == ref.ambient
    assert [n for n, _ in got.basis] == [n for n, _ in ref.basis]
    for (_, g), (_, r) in zip(got.basis, ref.basis):
        assert g.shape == r.shape and _typed(g) == _typed(r)
        assert _in_contract(g)


def test_stored_bases_are_the_bases_from_spans_gives():
    """full, part, intersect, map_kernel and the levels of
    symdegree_filtration store bases without reducing them again; each must
    equal the basis from_spans gives on the span it stands for (the
    kernel-then-reduce one for intersect and map_kernel), entry types
    included."""
    rng = random.Random(20261101)
    for _ in range(60):
        sp = GradedSpace.from_dims({n: rng.randint(0, 5) for n in range(-1, 4)})
        degs = sp.degrees()
        _same(Subspace.full(sp), Subspace.from_spans(
            sp, {n: rl.identity(sp.dim(n)) for n in degs}))
        a, b = _random_subspace(rng, sp), _random_subspace(rng, sp)
        for n in degs + [7]:
            _same(a.part(n), Subspace.from_spans(sp, {n: a.matrix(n)}))
        both = {n for n, _ in a.basis} & {n for n, _ in b.basis}
        _same(a.intersect(b), Subspace.from_spans(sp, {
            n: _ref_intersect_spans(a.matrix(n), b.matrix(n)) for n in both}))
        shift = rng.choice([-1, 0, 1])
        f = LinearMap.from_blocks(sp, sp, shift, {
            n: _sparse_span(rng, sp.dim(n + shift), sp.dim(n))
            for n in degs if sp.dim(n + shift)})
        _same(map_kernel(f), Subspace.from_spans(sp, {
            n: rl.kernel(f.block(n)) for n in degs}))
    g = lie.su2()
    for rep in (lie.trivial_rep(g), lie.sym_power_rep(g, 2)):
        ce = gdiff.ce_gdiff(lie.ce_complex(g, rep))
        for cap in (1, 2, 3):
            fc = spectral.symdegree_filtration(gdiff.cartan_model(ce, cap))
            space = fc.complex.space
            for level in fc.levels:
                _same(level, Subspace.from_spans(space, {
                    n: level.matrix(n) for n in space.degrees()}))


def _kernel_inputs(rng):
    """Seeded sparse matrices, their products with others (entries such as
    Fraction(2, 1) that `mat_mul` leaves unnormalized), and zero, full-rank,
    row-less and column-less ones."""
    fixed = [rl.zeros(3, 4), rl.zeros(0, 5), rl.zeros(4, 0), rl.zeros(0, 0),
             rl.identity(4), rl.freeze([[1, 2, 3], [0, 1, 4]]),
             rl.freeze([[Fraction(1, 2), 1], [1, 2]])]
    out = []
    for _ in range(120):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        a = _sparse_span(rng, r, c)
        out += [a, rl.mat_mul(a, _sparse_span(rng, c, rng.randint(0, 6)))]
    return fixed + out


def _has_integral_fraction(m):
    return any(type(x) is Fraction and x.denominator == 1
               for row in m for x in row.values())


def test_one_elimination_per_kernel_equals_kernel_then_reduce():
    """echelon_kernel against column_echelon(kernel(a)); preimage,
    Subspace.intersect and _z_subspace against the kernel-then-reduce
    routines they replace; every stored basis in the scalar contract."""
    rng = random.Random(20261019)
    inputs = _kernel_inputs(rng)
    assert any(map(_has_integral_fraction, inputs))
    for a in inputs:
        got = rl.echelon_kernel(a)
        ref = rl.column_echelon(rl.kernel(a))[0]
        assert got.shape == ref.shape == (rl.ncols(a), rl.ncols(ref))
        assert _typed(got) == _typed(ref) and _in_contract(got)
    # b in reduced column echelon form (possibly without columns); m random,
    # a product with integral Fractions, or zero; t random, empty, or
    # holding the columns of m (every x qualifies)
    for _ in range(300):
        n, k, rows, s = (rng.randint(0, 5) for _ in range(4))
        b = rl.column_echelon(_sparse_span(rng, n, k))[0]
        k = rl.ncols(b)
        m = rng.choice([
            lambda: _sparse_span(rng, rows, k),
            lambda: rl.mat_mul(_sparse_span(rng, rows, n), b),
            lambda: rl.zeros(rows, k)])()
        t = rng.choice([
            lambda: _sparse_span(rng, rows, s),
            lambda: rl.zeros(rows, 0),
            lambda: rl.hstack(m, _sparse_span(rng, rows, s))])()
        got = preimage(b, m, t)
        assert _typed(got) == _typed(_ref_preimage(b, m, t))
        assert _in_contract(got)
    for _ in range(40):
        sp = GradedSpace.from_dims({n: rng.randint(0, 5) for n in range(3)})
        a = _random_subspace(rng, sp)
        prods = Subspace.from_spans(sp, {
            n: rl.mat_mul(a.matrix(n), _sparse_span(rng, a.dim(n), 3))
            for n in sp.degrees()})
        for other in (a, Subspace.full(sp), Subspace.zero(sp), prods,
                      _random_subspace(rng, sp)):
            both = {n for n, _ in a.basis} & {n for n, _ in other.basis}
            _same(a.intersect(other), Subspace.from_spans(sp, {
                n: _ref_intersect_spans(a.matrix(n), other.matrix(n))
                for n in both}))
    g = lie.su2()
    ce = gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))
    weil = gdiff.weil_algebra(g, 1).gdiff
    big, _ = gdiff.tensor_product(ce, weil, check=False)
    for fc in (spectral.contraction_filtration(ce),
               spectral.contraction_filtration(big),
               spectral.symdegree_filtration(gdiff.cartan_model(ce, 2))):
        cache = {}
        for r in range(-1, fc.top + 3):
            for p in range(-2, fc.top + 2):
                for n in fc.complex.space.degrees():
                    _same(spectral._z_subspace(fc, cache, r, p, n),
                          _ref_z_subspace(fc, r, p, n))


def _ref_subquotient(z, spans):
    """z / span(spans) with the denominator reduced first: b from
    from_spans, then one rref of [b | z] per degree with k = ncols(b).
    Returns (dims, reps, projectors); NotContained as subquotient."""
    b = Subspace.from_spans(z.ambient, spans)
    dims, reps, projs = {}, {}, {}
    for n in sorted({n for n, _ in z.basis} | {n for n, _ in b.basis}):
        zb, bb = z.matrix(n), b.matrix(n)
        k = rl.ncols(bb)
        r, pivots = rl.rref(rl.hstack(bb, zb))
        chosen = [p - k for p in pivots if p >= k]
        if k + len(chosen) != rl.ncols(zb):
            raise NotContained(f"denominator escapes numerator at degree {n}")
        dims[n] = len(chosen)
        projs[n] = rl.freeze([{j - k: v for j, v in row.items()}
                              for row in r[k:k + len(chosen)]], rl.ncols(zb))
        if chosen:
            reps[n] = rl.mat_from_columns([zb.cols[j] for j in chosen],
                                          len(zb))
    return dims, reps, projs


def _subquotient_parts(z, spans):
    sq = subquotient(z, spans)
    return sq.dims, sq.reps, sq._proj


def _outcome(fn, *args):
    """dims, and shape and typed entries of each representative matrix and
    projector; or the NotContained message, which names the degree."""
    try:
        dims, reps, projs = fn(*args)
    except NotContained as exc:
        return str(exc)
    return dims, *({n: (m.shape, _typed(m)) for n, m in mats.items()}
                   for mats in (reps, projs))


def _spanning_columns(rng, z, n):
    """Columns spanning a denominator at degree n: products of z's basis
    with sparse coefficients (dependent, repeated and zero columns, and
    integral Fractions from `mat_mul`), such a product next to itself, zero
    columns, or random columns, which may leave z."""
    zb = z.matrix(n)
    prod = rl.mat_mul(zb, _sparse_span(rng, rl.ncols(zb),
                                       rng.randint(0, rl.ncols(zb) + 3)))
    return rng.choice([prod, prod, rl.hstack(prod, prod),
                       rl.zeros(len(zb), rng.randint(0, 3)),
                       _sparse_span(rng, len(zb), rng.randint(1, 3))])


def test_subquotient_of_spanning_columns_equals_reduce_first():
    """Seeded: subquotient(z, spans) gives the dims, representatives,
    projectors and entry types of the reduce-first reference, and
    NotContained at the same degree; the spans come dependent, repeated,
    zero, with integral Fractions, in degrees where z is empty or outside
    the ambient space, or not at all."""
    rng = random.Random(20261102)
    seen = set()
    for _ in range(150):
        sp = GradedSpace.from_dims({n: rng.randint(0, 5)
                                    for n in range(-1, 3)})
        z = _random_subspace(rng, sp)
        spans = {n: _spanning_columns(rng, z, n)
                 for n in sp.degrees() + [7] if rng.random() < 0.7}
        for given in (spans, {}):
            got = _outcome(_subquotient_parts, z, given)
            assert got == _outcome(_ref_subquotient, z, given)
            seen.add("refused" if isinstance(got, str) else "formed")
        for n, m in spans.items():
            if rl.rank(m) < rl.ncols(m):
                seen.add("dependent")
            if not z.dim(n) and rl.ncols(m):
                seen.add("outside z")
            if _has_integral_fraction(m):
                seen.add("integral Fraction")
    assert seen == {"refused", "formed", "dependent", "outside z",
                    "integral Fraction"}


def test_map_kernel_image_subspaces():
    c = small_complex()
    k = map_kernel(c.d)
    i = Subspace.from_spans(c.space, {n + 1: m for n, m in c.d.blocks})
    assert k.dim(0) == 1 and k.dim(1) == 1 and k.dim(2) == 1
    assert i.dim(1) == 1 and i.dim(2) == 1
    assert k.contains(i)


def _stored_matrices():
    c = small_complex()
    g = lie.su2()
    return {
        "block": c.d.block(0),
        "absent block": LinearMap.zero(c.space, c.space, 0).block(0),
        "matrix": map_kernel(c.d).matrix(1),
        "op": lie.adjoint_rep(g).op(0),
        "basis_matrix": lie.build_subalgebra(g, [[0, 0, 1]]).basis,
    }


@pytest.mark.parametrize("name", sorted(_stored_matrices()))
def test_stored_matrix_is_read_in_place_and_cannot_be_written(name):
    m = _stored_matrices()[name]
    with pytest.raises(TypeError):
        m[0][0] = 7
    with pytest.raises(TypeError):
        m[0] = m[0]


def test_stored_matrix_does_not_alias_the_given_lists():
    sp = GradedSpace.from_dims({0: 2})
    given = [[1, 0], [0, 1]]
    m = LinearMap.from_blocks(sp, sp, 0, {0: given})
    s = Subspace.from_spans(sp, {0: given})
    g = lie.su2()
    ops = [g.ad(i).dense() for i in range(g.dim)]
    op0 = tuple(tuple(row) for row in ops[0])
    rep = lie.build_representation(g, ops, g.dim)
    given[0][0] = 5
    ops[0][0][0] = 5
    assert _rows(m.block(0)) == ((1, 0), (0, 1))
    assert _rows(s.matrix(0)) == ((1, 0), (0, 1))
    assert _rows(rep.op(0)) == op0


def test_absent_block_has_target_by_source_shape():
    src = GradedSpace.from_dims({0: 3})
    tgt = GradedSpace.from_dims({1: 2})
    assert _rows(LinearMap.zero(src, tgt, 1).block(0)) == ((0, 0, 0), (0, 0, 0))
    assert _rows(LinearMap.zero(tgt, src, -1).block(1)) == ((0, 0), (0, 0), (0, 0))
    assert _rows(Subspace.zero(src).matrix(0)) == ((), (), ())


def test_compose_and_add_refuse_other_dimensions_per_degree():
    """Spaces compare by their dimensions per degree: an equal total
    dimension is not enough, and two spaces built apart with the same
    dimensions are one."""
    p = GradedSpace.from_dims({0: 1, 1: 2})
    q = GradedSpace.from_dims({0: 2, 1: 1})
    assert p.total_dim() == q.total_dim() and p != q
    on_p = LinearMap.from_blocks(p, p, 0, {0: rl.identity(1),
                                           1: rl.identity(2)})
    on_q = LinearMap.from_blocks(q, q, 0, {0: rl.identity(2),
                                           1: rl.identity(1)})
    p_to_q = LinearMap.from_blocks(p, q, 1, {0: [[1]]})
    for refused in (lambda: on_p.compose(on_q), lambda: on_q.compose(on_p),
                    lambda: on_p.compose(p_to_q), lambda: on_p.add(on_q),
                    lambda: on_q.add(on_p),
                    lambda: p_to_q.add(LinearMap.zero(p, p, 1))):
        with pytest.raises(rl.ShapeMismatch):
            refused()
    again = GradedSpace.from_dims({1: 2, 0: 1, 2: 0})
    assert again == p
    on_again = LinearMap.from_blocks(again, again, 0, {0: rl.identity(1),
                                                       1: rl.identity(2)})
    assert on_p.compose(on_again).blocks == on_p.add(on_again).scale(
        Fraction(1, 2)).blocks
