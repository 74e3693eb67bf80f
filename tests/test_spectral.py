"""Spectral sequences of filtered complexes: filtration validation, page
arithmetic, the symmetric-degree filtration of Cartan models, and the
contraction filtration of G-differential complexes, and the pages read off
the filtration-ordered pairing against the per-cell page loop."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from equicoh import core, gdiff, lie, poisson as po, ratlin as rl, spectral


def su2_model(sym_cap=2):
    g = lie.su2()
    a = gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))
    return a, gdiff.cartan_model(a, sym_cap)


def small_complex():
    space = core.GradedSpace.from_dims({0: 1, 1: 2, 2: 1})
    d = core.LinearMap.from_blocks(space, space, 1, {0: [[1], [0]], 1: [[0, 1]]})
    return core.CochainComplex.build(space, d)


def test_build_filtered_rejects_partial_level_zero():
    cx = small_complex()
    half = core.Subspace.from_spans(cx.space, {0: [[1]], 1: [[1], [0]]})
    with pytest.raises(spectral.NotSubcomplex) as exc:
        spectral.build_filtered(cx, [half])
    assert "level 0" in str(exc.value)


def test_build_filtered_rejects_non_nested_levels():
    cx = small_complex()
    full = core.Subspace.full(cx.space)
    small = core.Subspace.from_spans(cx.space, {2: [[1]]})
    bigger = core.Subspace.from_spans(cx.space, {1: [[0], [1]], 2: [[1]]})
    with pytest.raises(spectral.NotSubcomplex) as exc:
        spectral.build_filtered(cx, [full, small, bigger])
    assert "level 2 escapes" in str(exc.value)


def test_build_filtered_rejects_non_d_stable_level():
    g = lie.su2()
    cx = lie.ce_complex(g, lie.trivial_rep(g)).complex
    full = core.Subspace.full(cx.space)
    # the line through the first generator is not closed under d
    line = core.Subspace.from_spans(cx.space, {1: [[1], [0], [0]]})
    with pytest.raises(spectral.NotSubcomplex) as exc:
        spectral.build_filtered(cx, [full, line])
    assert "not d-stable at degree 1" in str(exc.value)


def test_unchecked_levels_that_are_no_filtration_are_refused():
    """Unchecked levels are trusted, but pages still refuse a level 0 that d
    leaves, and levels whose echelon pivots do not nest."""
    g = lie.su2()
    cx = lie.ce_complex(g, lie.trivial_rep(g)).complex
    full = core.Subspace.full(cx.space)
    line = core.Subspace.from_spans(cx.space, {1: [[1], [0], [0]]})
    unchecked = spectral.FilteredComplex(cx, (line,))
    with pytest.raises(spectral.NotSubcomplex, match="no basis at degree 2"):
        spectral.pages(unchecked)
    unchecked = spectral.FilteredComplex(cx, (full, line, full))
    with pytest.raises(spectral.PageMismatch, match="page 0 cell"):
        spectral.pages(unchecked)


def test_one_step_filtration_gives_total_cohomology():
    g = lie.su2()
    cx = lie.ce_complex(g, lie.trivial_rep(g)).complex
    fc = spectral.build_filtered(cx, [core.Subspace.full(cx.space)])
    pgs = spectral.pages(fc)
    h = core.cohomology(cx)
    final = pgs[-1]
    assert final.stable
    assert final.cells == {(0, 0): 1, (0, 3): 1}
    assert all(final.antidiagonal(n) == h.dim(n) for n in range(4))
    # page report shape
    assert pgs[1].to_json() == {"r": 1, "cells": [[0, 0, 1], [0, 3, 1]],
                                "stable": False}


def test_one_level_final_page_cells():
    g = lie.su2()
    cx = lie.ce_complex(g, lie.trivial_rep(g)).complex
    fc = spectral.build_filtered(cx, [core.Subspace.full(cx.space)])
    pgs = spectral.pages(fc)
    assert pgs[-1].cells == {(0, 0): 1, (0, 3): 1}


def test_negative_r_max_is_refused():
    fc = spectral.symdegree_filtration(su2_model(1)[1])
    with pytest.raises(ValueError, match="r_max"):
        spectral.pages(fc, r_max=-1)


def test_r_max_truncates_and_is_not_stable():
    _, model = su2_model(2)
    fc = spectral.symdegree_filtration(model)
    pgs = spectral.pages(fc, r_max=2)
    assert len(pgs) == 3 and pgs[-1].r == 2
    assert not pgs[-1].stable


def test_symdegree_su2_pages_and_transgression():
    a, model = su2_model(2)
    fc = spectral.symdegree_filtration(model)
    pgs = spectral.pages(fc)

    # first page = second page = H^q(A) x invariant polynomials (even p)
    h = core.cohomology(a.complex)
    assert [h.dim(n) for n in range(4)] == [1, 0, 0, 1]
    inv_poly = [sum(lie.invariants(lie.sym_power_rep(lie.su2(), j))
                    .dims().values()) for j in range(3)]
    assert inv_poly == [1, 0, 1]
    expected = {}
    for q in range(4):
        for j in range(3):
            dim = h.dim(q) * inv_poly[j]
            if dim:
                expected[(2 * j, q)] = dim
    assert pgs[1].cells == expected
    assert pgs[2].cells == expected
    assert all((p % 2 == 0) for (p, q) in pgs[1].cells)

    # nothing moves until the transgression on page 4 kills both middle cells
    assert not pgs[1].diffs and not pgs[2].diffs and not pgs[3].diffs
    assert set(pgs[4].diffs) == {(0, 3)}
    mat = pgs[4].diffs[(0, 3)]
    assert mat.shape == (1, 1) and mat.dense()[0][0] != 0
    assert pgs[5].cells == {(0, 0): 1, (4, 3): 1}

    final = pgs[-1]
    assert final.stable
    # inside the validity band the limit is the equivariant cohomology
    eq = gdiff.equivariant_cohomology(a, 2)
    assert [final.antidiagonal(n) for n in range(5)] == eq.dims_list()
    assert eq.dims_list() == [1, 0, 0, 0, 0]

    # the second-page differential formula holds on representatives
    assert spectral.verify_cartan_d2(model, pgs[2])["ok"]


def test_symdegree_refined_by_repeated_level_same_limit():
    a, model = su2_model(1)
    fc = spectral.symdegree_filtration(model)
    doubled = (fc.levels[0],) + fc.levels
    fc2 = spectral.build_filtered(fc.complex, doubled)
    p1 = spectral.pages(fc)[-1]
    p2 = spectral.pages(fc2)[-1]
    assert p1.stable and p2.stable
    top = max(fc.complex.space.degrees())
    assert [p1.antidiagonal(n) for n in range(top + 1)] == \
        [p2.antidiagonal(n) for n in range(top + 1)]


def test_symdegree_torus_first_page_dims_and_d2_matrix():
    t = lie.abelian(2)
    a = gdiff.ce_gdiff(lie.ce_complex(t, lie.trivial_rep(t)))
    model = gdiff.cartan_model(a, 2)
    fc = spectral.symdegree_filtration(model)
    pgs = spectral.pages(fc)

    # H(torus) = [1,2,1]; all polynomials are invariant: dim S^j = j + 1
    h = core.cohomology(a.complex)
    assert [h.dim(n) for n in range(3)] == [1, 2, 1]
    expected = {(2 * j, q): h.dim(q) * (j + 1)
                for j in range(3) for q in range(3) if h.dim(q)}
    assert pgs[1].cells == expected
    assert pgs[2].cells == expected

    # page-2 differential on the (0,1) cell: [a] -> sum_j [i_j a] u_j.
    # Representatives of (0,1) are the two generator 1-forms and the target
    # cell is spanned by the two coordinate generators, so the matrix is the
    # identity.
    assert pgs[2].diffs[(0, 1)].dense() == [[1, 0], [0, 1]]
    assert spectral.verify_cartan_d2(model, pgs[2])["ok"]

    final = pgs[-1]
    assert final.stable
    eq = gdiff.equivariant_cohomology(a, 2)
    assert [final.antidiagonal(n) for n in range(5)] == eq.dims_list()
    assert eq.dims_list() == [1, 0, 0, 0, 0]


def test_cartan_d2_check_names_each_failing_representative(monkeypatch):
    # twice the twist disagrees with d_2 on every representative whose
    # class d_2 moves, and on no other
    model = _torus_model()
    pgs = spectral.pages(spectral.symdegree_filtration(model))
    real = spectral._twist_on_invariants
    monkeypatch.setattr(spectral, "_twist_on_invariants",
                        lambda m: real(m).scale(2))
    report = spectral.verify_cartan_d2(model, pgs[2])
    assert not report["ok"]
    assert [(tuple(f["cell"]), f["rep"]) for f in report["failures"]] == [
        ((0, 1), 0), ((0, 1), 1), ((0, 2), 0), ((2, 1), 0), ((2, 1), 1),
        ((2, 1), 2), ((2, 1), 3), ((2, 2), 0), ((2, 2), 1)]


def test_symdegree_torus_d2_operator_identity_by_hand():
    # independent check of the contraction-pairing formula on the invariant
    # complex of the 2-torus model: d applied to a degree-1 representative
    # a = v1 l1 + v2 l2 must equal v1 u1 + v2 u2, and to l1 ^ l2 must equal
    # l2 u1 - l1 u2 (first-slot contraction).
    t = lie.abelian(2)
    a = gdiff.ce_gdiff(lie.ce_complex(t, lie.trivial_rep(t)))
    model = gdiff.cartan_model(a, 2)
    d = model.complex.d
    mons1 = list(model.mons[1])
    u1, u2 = mons1.index((1, 0)), mons1.index((0, 1))

    # degree 1 invariants = the two 1-forms; degree 2 = [l1^l2, u1, u2]
    fine2 = model.fine[2]
    assert [(n, m, k) for (n, m, k, _, _) in fine2] == [(2, 0, 1), (0, 1, 2)]
    for v1, v2 in ((1, 0), (0, 1), (3, -2)):
        out = d.apply(1, [v1, v2])
        expected = [0, 0, 0]
        expected[1 + u1] = v1
        expected[1 + u2] = v2
        assert out == expected

    # degree 3 invariants: only the block of 1-forms times linear monomials,
    # laid out as (form index) * 2 + (monomial index)
    fine3 = model.fine[3]
    assert [(n, m, k) for (n, m, k, _, _) in fine3] == [(1, 1, 4)]
    out = d.apply(2, [1, 0, 0])          # the top form l1 ^ l2
    expected = [0] * 4
    expected[1 * 2 + u1] = 1             # + l2 u1
    expected[0 * 2 + u2] = -1            # - l1 u2
    assert out == expected


def test_symdegree_point_circle_collapses_at_first_page():
    g = lie.abelian(1)
    space = core.GradedSpace.from_dims({0: 1})
    pt = core.CochainComplex.build(space, core.LinearMap.zero(space, space, 1))
    c = dataclasses.replace(gdiff.trivial_action_gdiff(g, pt), unit=(1,))
    model = gdiff.cartan_model(c, 2)
    fc = spectral.symdegree_filtration(model)
    pgs = spectral.pages(fc)
    expected = {(0, 0): 1, (2, 0): 1, (4, 0): 1}
    for pg in pgs[1:]:
        assert pg.cells == expected
        assert not pg.diffs
    assert pgs[-1].stable


def test_symdegree_su2_nontrivial_coefficients():
    g = lie.su2()
    a = gdiff.ce_gdiff(lie.ce_complex(g, lie.sym_power_rep(g, 2)))
    model = gdiff.cartan_model(a, 2)
    fc = spectral.symdegree_filtration(model)
    pgs = spectral.pages(fc)

    h = core.cohomology(a.complex)
    assert [h.dim(n) for n in range(4)] == [1, 0, 0, 1]
    expected = {(0, 0): 1, (0, 3): 1, (4, 0): 1, (4, 3): 1}
    assert pgs[1].cells == expected
    assert pgs[2].cells == expected
    assert spectral.verify_cartan_d2(model, pgs[2])["ok"]
    final = pgs[-1]
    assert final.stable
    eq = gdiff.equivariant_cohomology(a, 2)
    assert [final.antidiagonal(n) for n in range(5)] == eq.dims_list()


def test_contraction_filtration_su2_collapses_to_lie_cohomology():
    g = lie.su2()
    c = gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))
    fc = spectral.contraction_filtration(c)
    pgs = spectral.pages(fc)

    basic, _ = gdiff.basic_subcomplex(c)
    assert [basic.space.dim(n) for n in range(4)] == [1, 0, 0, 0]
    hg = lie.lie_cohomology(g, lie.trivial_rep(g))
    expected = {(0, q): hg.dims.get(q, 0) for q in range(4) if hg.dims.get(q, 0)}
    assert pgs[1].cells == expected
    assert pgs[2].cells == expected
    for pg in pgs[1:]:
        assert not pg.diffs
    final = pgs[-1]
    assert final.stable
    assert [final.antidiagonal(n) for n in range(4)] == [1, 0, 0, 1]


def test_contraction_filtration_weil_tensor_band():
    g = lie.su2()
    a = gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))
    w = gdiff.weil_algebra(g, 2)
    big, _ = gdiff.tensor_product(a, w.gdiff, check=False)
    fc = spectral.contraction_filtration(big)
    pgs = spectral.pages(fc)

    # first page: H^q(g) x basic cochain dims, all p
    basic, _ = gdiff.basic_subcomplex(big)
    hg = lie.lie_cohomology(g, lie.trivial_rep(g))
    expected1 = {}
    for p in range(12):
        for q in range(4):
            dim = hg.dims.get(q, 0) * basic.space.dim(p)
            if dim:
                expected1[(p, q)] = dim
    assert pgs[1].cells == expected1

    # second page inside the band: H^q(g) x equivariant dims of the factor
    eq = gdiff.equivariant_cohomology(a, 2)
    assert eq.dims_list() == [1, 0, 0, 0, 0]
    for p in range(5):
        for q in range(4):
            assert pgs[2].dim(p, q) == hg.dims.get(q, 0) * eq.dim(p)

    # the limit, inside the band, is the cohomology of the free factor
    final = pgs[-1]
    assert final.stable
    assert [final.antidiagonal(n) for n in range(5)] == [1, 0, 0, 1, 0]


def test_contraction_filtration_zero_contractions_degenerates():
    g = lie.su2()
    cx = small_complex()
    c = gdiff.trivial_action_gdiff(g, cx)
    fc = spectral.contraction_filtration(c)
    pgs = spectral.pages(fc)
    # zero contractions give the filtration by degree: the first page is the
    # cochain spaces along q = 0 with d_1 = d, the second page the cohomology
    assert pgs[1].cells == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    h = core.cohomology(cx)
    assert pgs[2].cells == {(p, 0): h.dim(p) for p in range(3) if h.dim(p)}
    assert pgs[-1].stable


def test_contraction_levels_equal_the_reduced_stacked_kernels(monkeypatch):
    """Building the levels reduces no span (a degree where every k-fold
    product vanishes gets the identity from its one elimination), and each
    level equals the level built by reducing the free-column kernel of the
    stacked k-fold products in every degree with 0 < k <= dim g."""
    reduced = []
    echelon = rl.column_echelon
    monkeypatch.setattr(rl, "column_echelon",
                        lambda m: reduced.append(m) or echelon(m))
    g = lie.su2()
    a = gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))
    big, _ = gdiff.tensor_product(a, gdiff.weil_algebra(g, 1).gdiff,
                                  check=False)
    stored = 0
    for c in (a, big, gdiff.trivial_action_gdiff(g, small_complex())):
        space, r = c.space, c.algebra.dim
        degs = space.degrees()
        products = {k: [] for k in range(1, r + 1)}
        for k in products:
            for combo in itertools.combinations(range(r), k):
                op = c.contractions[combo[0]]
                for b in combo[1:]:
                    op = c.contractions[b].compose(op)
                products[k].append(op)
        reduced.clear()
        fc = spectral.contraction_filtration(c)
        assert not reduced
        assert len(fc.levels) == max(degs) + 2
        for p, level in enumerate(fc.levels):
            spans = {n: rl.kernel(rl.freeze(
                [row for op in products[n - p + 1] for row in op.block(n)],
                space.dim(n))) for n in degs if 0 < n - p + 1 <= r}
            whole = tuple((n, rl.identity(space.dim(n)))
                          for n in degs if n - p + 1 > r)
            assert level == core.Subspace(
                space, core.Subspace.from_spans(space, spans).basis + whole)
            stored += sum(all(rl.is_zero(op.block(n))
                              for op in products[n - p + 1]) for n in spans)
    assert stored


# ---------------------------------------------------------------------------
# The pairing against the per-cell page loop


def _reference_pages(fc):
    """(cells, reps, diffs, stable) per page from the per-cell loop: every
    cell of the support is formed as a subquotient on every page, and d_r
    is projected one representative at a time."""
    space = fc.complex.space
    degs = space.degrees()
    stop_r = fc.top + 2
    support = [(p, n) for n in degs for p in range(fc.top + 2)
               if fc.level(p).dim(n) > fc.level(p + 1).dim(n)]
    cache, out = {}, []
    for r in range(stop_r + 1):
        cells, reps, diffs, sq = {}, {}, {}, {}
        for (p, n) in support:
            znum = spectral._z_subspace(fc, cache, r, p, n)
            if not znum.dim(n):
                continue
            den = spectral._z_subspace(fc, cache, r - 1, p + 1, n)
            b2 = spectral._z_subspace(fc, cache, r - 1, p - r + 1,
                                      n - 1).matrix(n - 1)
            if rl.ncols(b2):
                img = rl.mat_mul(fc.complex.d.block(n - 1), b2)
                den = core.Subspace.from_spans(
                    space, {n: rl.hstack(den.matrix(n), img)})
            cell = core.subquotient(znum, dict(den.basis))
            if cell.dim(n):
                cells[(p, n - p)] = cell.dim(n)
                reps[(p, n - p)] = cell.reps[n]
                sq[(p, n - p)] = cell
        for (p, q) in cells:
            tgt = (p + r, q - r + 1)
            if tgt in cells:
                rep = reps[(p, q)]
                mat = rl.hstack(*[
                    sq[tgt].project(p + q + 1, rl.freeze(
                        [[x] for x in fc.complex.d.apply(
                            p + q, [col.get(i, 0) for i in range(len(rep))])]))
                    for col in rep.cols])
                if not rl.is_zero(mat):
                    diffs[(p, q)] = mat
        stable = bool(r >= stop_r and out and out[-1][0] == cells
                      and not diffs and not out[-1][2])
        out.append((cells, reps, diffs, stable))
    return out


def _typed(mats):
    return {k: [[(type(x), x) for x in row] for row in m.dense()]
            for k, m in mats.items()}


def _assert_pages_match_reference(fc):
    pgs = spectral.pages(fc)
    ref = _reference_pages(fc)
    assert len(pgs) == len(ref)
    for pg, (cells, reps, diffs, stable) in zip(pgs, ref):
        assert list(pg.cells.items()) == list(cells.items())
        assert _typed(pg.reps) == _typed(reps)
        assert list(pg.diffs) == list(diffs)
        assert _typed(pg.diffs) == _typed(diffs)
        assert pg.stable == stable
    return pgs


def _doubled_su2():
    fc = spectral.symdegree_filtration(su2_model(1)[1])
    return spectral.build_filtered(fc.complex, (fc.levels[0],) + fc.levels)


def _ce_weil_su2():
    g = lie.su2()
    a = gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))
    big, _ = gdiff.tensor_product(a, gdiff.weil_algebra(g, 1).gdiff,
                                  check=False)
    return spectral.contraction_filtration(big)


def _su2_dual_momentum():
    g = lie.su2()
    mu = [po.function(3, {tuple(int(t == j) for t in range(3)): Fraction(1)})
          for j in range(3)]
    md = po.momentum_setup(po.linear_poisson(g), g, mu=mu, submersive=True)
    return spectral.contraction_filtration(
        po.momentum_gdiff(md, slice_degree=2)[0])


def _torus_model():
    t = lie.abelian(2)
    return gdiff.cartan_model(gdiff.ce_gdiff(lie.ce_complex(
        t, lie.trivial_rep(t))), 2)


FILTRATIONS = {
    "su2-symdegree": lambda: spectral.symdegree_filtration(su2_model(2)[1]),
    "torus-symdegree": lambda: spectral.symdegree_filtration(_torus_model()),
    "su2-doubled-level": _doubled_su2,
    "product-line": lambda: spectral.contraction_filtration(
        po.build_product_line_model([0, 1, 2, 3, 4],
                                    [t * (t - 1) for t in range(5)]).gdiff),
    "su2-dual-momentum": _su2_dual_momentum,
    "ce-su2-weil-1": _ce_weil_su2,
}


@pytest.mark.parametrize("name", sorted(FILTRATIONS))
def test_pairing_pages_equal_the_per_cell_loop(name):
    _assert_pages_match_reference(FILTRATIONS[name]())


def _random_filtered(rng):
    """g J g^-1 in general position.  J is a sum of elementary pairs
    x -> y with level(y) >= level(x) on a basis with random levels, g is
    invertible and preserves the coordinate levels, and a random invertible
    h moves everything, levels included, off the coordinate axes.  Returns
    the filtered complex, the levels per degree and the pairs (n, x, y)."""
    dims = {n: rng.randint(1, 4) for n in range(4)}
    top = rng.randint(1, 4)
    level = {n: [rng.randint(0, top) for _ in range(dims[n])] for n in dims}
    used = {n: set() for n in dims}
    pairs = []
    for n in range(3):
        for x in rng.sample(range(dims[n]), dims[n]):
            ys = [y for y in range(dims[n + 1]) if y not in used[n + 1]
                  and level[n + 1][y] >= level[n][x]]
            if x not in used[n] and ys and rng.random() < 0.8:
                y = rng.choice(ys)
                used[n].add(x)
                used[n + 1].add(y)
                pairs.append((n, x, y))

    def frac():
        return rl.q(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))

    def invertible(n, keeps_levels):
        while True:
            m = rl.freeze([[1 if i == j else frac() if not keeps_levels
                            or (level[n][i], i) > (level[n][j], j) else 0
                            for j in range(dims[n])] for i in range(dims[n])])
            if rl.rank(m) == dims[n]:
                return m, rl.solve(m, rl.identity(dims[n]))

    move = {n: invertible(n, False) for n in dims}
    conj = {}
    for n in dims:
        g, g_inv = invertible(n, True)
        conj[n] = (rl.mat_mul(move[n][0], g),
                   rl.mat_mul(g_inv, move[n][1]))
    blocks = {}
    for n in range(3):
        j = [{} for _ in range(dims[n + 1])]
        for (m, x, y) in pairs:
            if m == n:
                j[y][x] = 1
        blocks[n] = rl.mat_mul(rl.mat_mul(conj[n + 1][0],
                                          rl.freeze(j, dims[n])), conj[n][1])
    space = core.GradedSpace.from_dims(dims)
    cx = core.CochainComplex.build(
        space, core.LinearMap.from_blocks(space, space, 1, blocks))
    levels = [core.Subspace.from_spans(space, {
        n: rl.mat_from_columns([col for col, lv in zip(
            move[n][0].cols, level[n]) if lv >= p], dims[n])
        for n in dims}) for p in range(top + 1)]
    return spectral.build_filtered(cx, levels), level, pairs


def test_random_pages_follow_the_pairs_they_were_built_from():
    """Seeded property: on complexes built from known elementary pairs, the
    pages equal the per-cell loop's, E_r counts the elements that are
    unpaired or paired with gap >= r, and rank d_r counts the pairs with
    gap r leaving each cell."""
    rng = random.Random(20261020)
    for _ in range(40):
        fc, level, pairs = _random_filtered(rng)
        pgs = _assert_pages_match_reference(fc)
        gap = {}
        for (n, x, y) in pairs:
            gap[(n, x)] = gap[(n + 1, y)] = level[n + 1][y] - level[n][x]
        for pg in pgs:
            cells = {}
            for n, lv in level.items():
                for i, p in enumerate(lv):
                    if gap.get((n, i), pg.r) >= pg.r:
                        cells[(p, n - p)] = cells.get((p, n - p), 0) + 1
            assert pg.cells == cells
            ranks = {}
            for (n, x, y) in pairs:
                if level[n + 1][y] - level[n][x] == pg.r:
                    key = (level[n][x], n - level[n][x])
                    ranks[key] = ranks.get(key, 0) + 1
            assert {k: rl.rank(m) for k, m in pg.diffs.items()} == ranks


def test_a_cell_the_pairing_gets_wrong_is_a_page_mismatch(monkeypatch):
    """A materialised cell whose dimension differs from the pairing's, and a
    cell the pairing skips although it is nonzero, both raise."""
    fc = spectral.symdegree_filtration(_torus_model())
    real = spectral._pairing_gaps

    def unpaired(fc, degs):
        return {k: [float("inf")] * len(v) for k, v in real(fc, degs).items()}

    monkeypatch.setattr(spectral, "_pairing_gaps", unpaired)
    with pytest.raises(spectral.PageMismatch, match="the pairing gives"):
        spectral.pages(fc)

    def all_gap_zero(fc, degs):
        return {k: [0] * len(v) for k, v in real(fc, degs).items()}

    monkeypatch.setattr(spectral, "_pairing_gaps", all_gap_zero)
    with pytest.raises(spectral.PageMismatch, match="homology of page 0"):
        spectral.pages(fc)
