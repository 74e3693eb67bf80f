"""G-differential complexes: axioms, Weil algebras, Cartan models,
the twisted embedding into the basic subcomplex, connections."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from equicoh import (bases, cli, core, gdiff, lie, poisson as po, ratlin as rl,
                     spectral)

from test_cli import payload_table, table_dict
from test_guards import top_twisted_ce_su2


def su2_ce():
    g = lie.su2()
    return g, gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))


def restricted_ce(g, sub):
    """CE(g) with its wedge product under the action of the subalgebra
    `sub` alone: the contractions and Lie derivatives restricted to it by
    `Subalgebra.restrict`."""
    ce = lie.ce_complex(g, lie.trivial_rep(g))
    return gdiff.build_gdiff(sub.algebra, ce.complex,
                             sub.restrict(ce.algebra, ce.contractions),
                             sub.restrict(ce.algebra, ce.lie_ops),
                             product=gdiff.wedge_product_table(g.dim),
                             unit=[1])


def test_ce_gdiff_axioms_pass():
    for g in (lie.su2(), lie.heisenberg(), lie.abelian(2)):
        c = gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))
        report = gdiff.check_gdiff_axioms(c)
        assert report.ok
        assert c.product is not None and c.unit is not None


def test_axiom_checker_catches_scaled_contraction():
    g, a = su2_ce()
    bad = list(a.contractions)
    bad[1] = bad[1].scale(2)
    with pytest.raises(gdiff.AxiomFailure) as exc:
        gdiff.build_gdiff(g, a.complex, bad, a.lie_ops,
                          product=a.product, unit=a.unit)
    report = exc.value.args[0]
    axioms = {f["axiom"] for f in report.failures}
    assert "iii" in axioms or "ii'" in axioms
    witness = report.failures[0]
    assert "degree" in witness and "basis_index" in witness


def test_weil_acyclic_and_basic_su2():
    g = lie.su2()
    for cap in (1, 2, 3):
        w = gdiff.weil_algebra(g, cap)
        h = core.cohomology(w.gdiff.complex)
        assert h.dim(0) == 1
        for n in range(1, 2 * cap + 1):
            assert h.dim(n) == 0
        basic, _ = gdiff.basic_subcomplex(w.gdiff)
        # invariant polynomials of su(2): powers of the quadratic Casimir
        expected = [1 if (n % 4 == 0 and n // 2 <= cap) else 0
                    for n in range(2 * cap + 1)]
        assert [basic.space.dim(n) for n in range(2 * cap + 1)] == expected
        assert basic.d.is_zero()


def test_weil_acyclic_and_basic_torus():
    t = lie.abelian(2)
    for cap in (1, 2):
        w = gdiff.weil_algebra(t, cap)
        h = core.cohomology(w.gdiff.complex)
        assert [h.dim(n) for n in range(2 * cap + 1)] == \
            [1] + [0] * (2 * cap)
        basic, _ = gdiff.basic_subcomplex(w.gdiff)
        dims = [basic.space.dim(n) for n in range(2 * cap + 1)]
        assert dims == [m // 2 + 1 if m % 2 == 0 else 0
                        for m in range(2 * cap + 1)]
        assert basic.d.is_zero()


def test_weil_product_axioms():
    w = gdiff.weil_algebra(lie.su2(), 2)
    report = gdiff.check_gdiff_axioms(w.gdiff)
    assert report.ok


def test_leibniz_rules_hold_on_every_pair():
    """The axioms, and the full Leibniz check with no pair sampled, on the
    benchmark's Weil algebras (78,400 pairs for su2) and on further Weil and
    Chevalley-Eilenberg algebras."""
    h, sl2 = lie.heisenberg(), lie.sl2()
    weil = {"su2-4": (lie.su2(), 4), "abelian2-4": (lie.abelian(2), 4),
            "heisenberg-2": (h, 2), "sl2-2": (sl2, 2)}
    subjects = {f"weil-{name}": gdiff.weil_algebra(g, cap).gdiff
                for name, (g, cap) in weil.items()}
    for g in (h, sl2):
        subjects[f"ce-{g.name}"] = gdiff.ce_gdiff(
            lie.ce_complex(g, lie.trivial_rep(g)))
    assert _pair_count(subjects["weil-su2-4"]) == 78400
    for name, c in subjects.items():
        assert gdiff.check_gdiff_axioms(c).ok, name
        assert gdiff._check_leibniz(c) == [], name


def _product(table, dims):
    """The product of a table {(da, db): {(ia, ib): ((k, coeff), ...)}} on
    a space of dimensions `dims`, through the conversion of a payload's
    table."""
    return cli.product_from_table(payload_table(table), dims)


def _one_pair_defect():
    """Q + V^1 (dim 400) + Q w^2 + Q z^3 under the zero action of abelian(1),
    with dw = z, a unit and the one product v_3 v_7 = w: 162,409 basis pairs,
    and d breaks the Leibniz rule at the pair (v_3, v_7) alone."""
    dims = {0: 1, 1: 400, 2: 1, 3: 1}
    space = core.GradedSpace.from_dims(dims)
    d = core.LinearMap.from_blocks(space, space, 1, {2: rl.identity(1)})
    table = {(0, n): {(0, i): ((i, 1),) for i in range(k)}
             for n, k in dims.items()}
    table.update({(n, 0): {(i, 0): ((i, 1),) for i in range(k)}
                  for n, k in dims.items() if n})
    table[(1, 1)] = {(3, 7): ((0, 1),)}
    return dataclasses.replace(gdiff.trivial_action_gdiff(
        lie.abelian(1), core.CochainComplex.build(space, d)),
        product=_product(table, dims), unit=(1,))


def test_one_pair_leibniz_defect_is_reported():
    """Every basis pair is checked: a defect at one pair of many is the
    witness."""
    c = _one_pair_defect()
    assert _pair_count(c) == 162409
    report = gdiff.check_gdiff_axioms(c)
    assert report.failures == ({"axiom": "d-Leibniz", "generators": [],
                                "degree": 1, "basis_index": 3,
                                "other": [1, 7]},)


def test_equivariant_point_is_invariant_polynomials():
    g = lie.su2()
    space = core.GradedSpace.from_dims({0: 1})
    pt = core.CochainComplex.build(space, core.LinearMap.zero(space, space, 1))
    c = dataclasses.replace(gdiff.trivial_action_gdiff(g, pt), unit=(1,))
    eq = gdiff.equivariant_cohomology(c, 2)
    assert eq.dims_list() == [1, 0, 0, 0, 1]
    assert eq.band == 4


def test_equivariant_su2_on_itself_is_trivial():
    _, a = su2_ce()
    eq = gdiff.equivariant_cohomology(a, 2)
    assert eq.dims_list() == [1, 0, 0, 0, 0]


def test_equivariant_torus_on_itself_is_trivial():
    t = lie.abelian(2)
    a = gdiff.ce_gdiff(lie.ce_complex(t, lie.trivial_rep(t)))
    eq = gdiff.equivariant_cohomology(a, 2)
    assert eq.dims_list() == [1, 0, 0, 0, 0]


def test_equivariant_circle_in_su2_gives_sphere():
    g = lie.su2()
    ak = restricted_ce(g, lie.build_subalgebra(g, [[0, 0, 1]]))
    assert ak.algebra.dim == 1
    eq = gdiff.equivariant_cohomology(ak, 2)
    assert eq.dims_list() == [1, 0, 1, 0, 0]


def _free_torus(g):
    """Lambda of the dual of abelian(2), with its wedge product and unit,
    under the zero action of g."""
    t = lie.abelian(2)
    lam2 = lie.ce_complex(t, lie.trivial_rep(t)).complex
    return dataclasses.replace(gdiff.trivial_action_gdiff(g, lam2),
                               product=gdiff.wedge_product_table(2),
                               unit=(1,))


def test_acting_subalgebra_of_another_algebra_is_refused():
    """A subalgebra of abelian(3) has as many coordinates as su(2) has
    operators, and still is no subalgebra of su(2)."""
    line = lie.build_subalgebra(lie.abelian(3), [[0, 0, 1]])
    with pytest.raises(ValueError, match="subalgebra of another algebra"):
        restricted_ce(lie.su2(), line)


def test_trivial_factor_keeps_low_degrees_nonzero():
    g, a = su2_ce()
    big, _ = gdiff.tensor_product(a, _free_torus(g))
    h = core.cohomology(big.complex)
    assert [h.dim(n) for n in range(6)] == [1, 2, 1, 1, 2, 1]
    eq = gdiff.equivariant_cohomology(big, 2)
    assert eq.dims_list() == [1, 2, 1, 0, 0]


def test_twisted_inclusion_su2():
    g, a = su2_ce()
    for cap in (1, 2):
        w = gdiff.weil_algebra(g, cap)
        model = gdiff.cartan_model(a, cap)
        tw = gdiff.cartan_weil_inclusion(model, w)   # verifies internally
        basic, _ = gdiff.basic_subcomplex(tw.tensor)
        top = 2 * cap + 2
        assert [basic.space.dim(n) for n in range(top)] == \
            [model.complex.space.dim(n) for n in range(top)]
        hb = core.cohomology(basic)
        hc = core.cohomology(model.complex)
        assert [hb.dim(n) for n in range(2 * cap + 1)] == \
            [hc.dim(n) for n in range(2 * cap + 1)]


def test_twisted_inclusion_rejects_wrong_sign(monkeypatch):
    g, a = su2_ce()
    w = gdiff.weil_algebra(g, 1)
    model = gdiff.cartan_model(a, 1)
    monkeypatch.setattr(gdiff, "MQ_SIGN", (1, 0, 0))
    with pytest.raises(gdiff.AxiomFailure):
        gdiff.cartan_weil_inclusion(model, w)


def test_twisted_inclusion_nontrivial_coefficients():
    g = lie.su2()
    a = gdiff.ce_gdiff(lie.ce_complex(g, lie.sym_power_rep(g, 2)))
    w = gdiff.weil_algebra(g, 1)
    model = gdiff.cartan_model(a, 1)
    tw = gdiff.cartan_weil_inclusion(model, w)
    basic, _ = gdiff.basic_subcomplex(tw.tensor)
    hb = core.cohomology(basic)
    hc = core.cohomology(model.complex)
    assert [hb.dim(n) for n in range(3)] == [hc.dim(n) for n in range(3)]


def test_maurer_cartan_connection_is_flat():
    g, a = su2_ce()
    conn = gdiff.locally_free_connection(a)
    assert conn.exists
    assert conn.theta == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    um = gdiff.weil_universal_map(gdiff.weil_algebra(g, 2), a, conn.theta)
    assert um.curvature == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_no_connection_for_trivial_action():
    assert not gdiff.locally_free_connection(_free_torus(lie.su2())).exists


def test_circle_connection_in_su2():
    g = lie.su2()
    ak = restricted_ce(g, lie.build_subalgebra(g, [[0, 0, 1]]))
    conn = gdiff.locally_free_connection(ak)
    assert conn.exists and conn.theta == ((0, 0, 1),)


@pytest.mark.parametrize("g", [lie.su2(), lie.heisenberg(), lie.abelian(2)],
                         ids=["su2", "heisenberg", "abelian2"])
def test_universal_map_of_the_weil_connection_is_the_identity(g):
    """W's own connection, Theta_k = lambda^k, has curvature f_k, so the
    universal map into W is the identity: each lambda_I u^E, read off the
    offsets, goes to itself, products with several factors of both kinds
    included."""
    for cap in (1, 2):
        w = gdiff.weil_algebra(g, cap)
        wsp = w.gdiff.space
        theta = [[int(j == k) for j in range(wsp.dim(1))] for k in range(g.dim)]
        phi = gdiff.weil_universal_map(w, w.gdiff, theta).map
        for n in wsp.degrees():
            assert phi.block(n) == rl.identity(wsp.dim(n)), (cap, n)


def test_universal_map_rejects_non_connection():
    g, a = su2_ce()
    w = gdiff.weil_algebra(g, 1)
    bad_theta = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    with pytest.raises(gdiff.ConnectionInvalid):
        gdiff.weil_universal_map(w, a, bad_theta)


def test_universal_map_needs_product():
    g = lie.su2()
    a = gdiff.ce_gdiff(lie.ce_complex(g, lie.sym_power_rep(g, 2)))
    w = gdiff.weil_algebra(g, 1)
    with pytest.raises(gdiff.NotMultiplicative):
        gdiff.weil_universal_map(w, a, [[1, 0, 0]] * 3)


def test_tensor_rejects_mismatched_algebras():
    _, a = su2_ce()
    h = lie.heisenberg()
    b = gdiff.ce_gdiff(lie.ce_complex(h, lie.trivial_rep(h)))
    with pytest.raises(gdiff.MismatchedAlgebra):
        gdiff.tensor_product(a, b)


def test_short_exact_sequence_euler_characteristic():
    g = lie.su2()
    w = gdiff.weil_algebra(g, 2)
    wsp = w.gdiff.space
    spans = {}
    for deg in wsp.degrees():
        # the products of positive symmetric degree
        cols = [{off + j: 1}
                for (_, m), (off, dim_e, dim_s) in w.offsets[deg].items()
                if m >= 1 for j in range(dim_e * dim_s)]
        spans[deg] = rl.mat_from_columns(cols, wsp.dim(deg))
    subsp = core.Subspace.from_spans(wsp, spans)
    b = gdiff.sub_gdiff(w.gdiff, subsp)
    c, _ = gdiff.quotient_gdiff(w.gdiff, subsp)
    # the quotient is the exterior algebra of the dual
    assert [c.space.dim(n) for n in range(4)] == [1, 3, 3, 1]
    eq_b = gdiff.equivariant_cohomology(b, 1)
    eq_a = gdiff.equivariant_cohomology(w.gdiff, 1)
    eq_c = gdiff.equivariant_cohomology(c, 1)
    degs = sorted(set(eq_a.model.complex.space.degrees())
                  | set(eq_b.model.complex.space.degrees())
                  | set(eq_c.model.complex.space.degrees()))
    for n in degs:
        assert (eq_b.model.complex.space.dim(n) + eq_c.model.complex.space.dim(n)
                == eq_a.model.complex.space.dim(n))
    chi = sum((-1) ** n * (eq_b.cohomology.dim(n) - eq_a.cohomology.dim(n)
                           + eq_c.cohomology.dim(n)) for n in degs)
    assert chi == 0


def test_twisted_inclusion_injective_each_degree():
    g, a = su2_ce()
    w = gdiff.weil_algebra(g, 1)
    model = gdiff.cartan_model(a, 1)
    tw = gdiff.cartan_weil_inclusion(model, w)
    assert not tw.inclusion.is_zero()
    for deg in model.complex.space.degrees():
        if model.complex.space.dim(deg):
            blk = tw.inclusion.block(deg)
            assert rl.rank(blk) == model.complex.space.dim(deg)


def test_low_degree_descriptions_su2():
    g, a = su2_ce()
    data = gdiff.low_degree_data(a)
    assert data["h0_model"] == data["h0_kernel"] == 1
    assert data["kernel_invariant"]
    assert data["closed_invariant_is_horizontal"]
    assert data["h1_model"] == data["h1_direct"] == 0


def test_low_degree_descriptions_product():
    g, a = su2_ce()
    big, _ = gdiff.tensor_product(a, _free_torus(g))
    data = gdiff.low_degree_data(big)
    assert data["h0_model"] == data["h0_kernel"] == 1
    assert data["kernel_invariant"]
    assert data["closed_invariant_is_horizontal"]
    assert data["h1_model"] == data["h1_direct"] == 2


def test_forgetful_map_iso_degree_one_epi_degree_two():
    g, a = su2_ce()
    big, _ = gdiff.tensor_product(a, _free_torus(g))
    fm = gdiff.forgetful_matrices(gdiff.equivariant_cohomology(big, 2))
    h = core.cohomology(big.complex)
    # degree 1: bijective, degree 2: surjective onto ordinary cohomology
    assert rl.ncols(fm[1]) == len(fm[1]) == 2 and rl.rank(fm[1]) == 2
    assert rl.rank(fm[2]) == h.dim(2) == 1
    assert rl.rank(fm[0]) == 1


def _read_cartan(reader, a, top):
    """What `reader` gives on the Cartan model of a at symmetric cap 2,
    bounded at `top` (its last degree top - 1), or on the full build when
    top is None."""
    if reader == "forgetful_matrices":
        through = None if top is None else top - 1
        return gdiff.forgetful_matrices(
            gdiff.equivariant_cohomology(a, 2, through))
    tw = gdiff.cartan_weil_inclusion(gdiff.cartan_model(a, 2, top),
                                     gdiff.weil_algebra(a.algebra, 2))
    return dict(tw.inclusion.blocks)


@pytest.mark.parametrize("top", range(1, 7))
@pytest.mark.parametrize("reader", ["forgetful_matrices",
                                    "cartan_weil_inclusion"])
def test_a_bounded_model_reads_as_the_full_build_below_its_top(reader, top):
    """On CE(su2) at cap 2 (last degree 7), each reader of a model bounded
    at `top` gives the full build's answer through top - 1: the forgetful
    matrices there, and the Cartan-to-Weil inclusion, whose chain check
    reads d_G out of degree top - 1 off the exit."""
    _, a = su2_ce()
    full = _read_cartan(reader, a, None)
    got = _read_cartan(reader, a, top)
    assert got == {n: m for n, m in full.items() if n < top}


@pytest.mark.parametrize("top", [1, 4, 7, 8, None])
def test_the_spectral_readers_refuse_a_bounded_model(top):
    """The symmetric-degree filtration and the second-page check read the
    invariant complex alone, so they refuse a model of CE(su2) at cap 2
    bounded below its last degree 7: at top 4, whose exit carries d_G out
    of degree 3, and at tops 1 and 7, whose exits are zero (d_G(1 (x) 1) =
    0, and degree 8 is empty) but which leave out the invariants above top
    - 1.  They accept a build laid out past degree 7 (top 8 or the
    default), and the second-page check refuses any page but the second."""
    _, a = su2_ce()
    model = gdiff.cartan_model(a, 2, top)
    pgs = spectral.pages(spectral.symdegree_filtration(
        gdiff.cartan_model(a, 2)))
    assert model.exit.is_zero() == (top != 4)
    if top is None or top > 7:
        spectral.symdegree_filtration(model)
        assert spectral.verify_cartan_d2(model, pgs[2])["ok"]
        with pytest.raises(ValueError, match="requires the r = 2 page"):
            spectral.verify_cartan_d2(model, pgs[3])
        return
    for read in (spectral.symdegree_filtration,
                 lambda m: spectral.verify_cartan_d2(m, pgs[2])):
        with pytest.raises(ValueError, match="bounded below its last degree 7"):
            read(model)


def _blocks_digest(*items):
    """SHA-256 of the dimensions of graded spaces, of the source and target
    dimensions, shifts and stored blocks of linear maps (each as a tuple of
    dense rows), and of the repr of any other item."""
    h = hashlib.sha256()
    for m in items:
        if isinstance(m, core.LinearMap):
            m = (m.source.dims(), m.target.dims(), m.shift,
                 tuple((n, tuple(map(tuple, b.dense()))) for n, b in m.blocks))
        elif isinstance(m, core.GradedSpace):
            m = m.dims()
        h.update(repr(m).encode())
    return h.hexdigest()


def _pos_from_offsets(offsets):
    """pos[n][(a, i, b, j)]: the position of x_i (x) y_j of the product
    X_a (x) Y_b in degree n, offset + i * dim Y_b + j, read off
    `core.product_space` offsets."""
    return {n: {(a, i, b, j): off + i * ny + j
                for (a, b), (off, nx, ny) in offs.items()
                for i in range(nx) for j in range(ny)}
            for n, offs in offsets.items()}


def _ce_operators(ce):
    return (ce.complex.d,) + tuple(ce.contractions) + tuple(ce.lie_ops)


def _bounded_cohomology(c, sym_cap):
    """The H dims and dense representatives, degree by degree through the
    band 2 sym_cap, of the bounded build that the reports read."""
    through = 2 * sym_cap
    h = gdiff.equivariant_cohomology(c, sym_cap, through)
    reps = h.cohomology.reps
    return tuple((n, h.dim(n), tuple(map(tuple, reps[n].dense()))
                  if n in reps else ()) for n in range(through + 1))


def _pinned_builders():
    """Name -> the maps whose stored blocks are pinned."""
    g = lie.su2()
    h = lie.heisenberg()
    torus = cli._rotation_momentum(2)
    torus_plane = po.momentum_gdiff(torus, slice_degree=2)[0]
    model_torus = gdiff.cartan_model(torus_plane, 2)
    model_h = gdiff.cartan_model(
        gdiff.ce_gdiff(lie.ce_complex(h, lie.adjoint_rep(h))), 2)
    ce_s2 = lie.ce_complex(g, lie.sym_power_rep(g, 2))
    ce_ad = lie.ce_complex(g, lie.adjoint_rep(g))
    ce_sl2 = lie.ce_complex(lie.sl2(), lie.coadjoint_rep(lie.sl2()))
    _, a = su2_ce()
    w1 = gdiff.weil_algebra(g, 1)
    tensor, offsets = gdiff.tensor_product(a, w1.gdiff, check=False)
    model = gdiff.cartan_model(a, 2)
    model_s2 = gdiff.cartan_model(gdiff.ce_gdiff(ce_s2), 1)
    return {
        "ce-su2-sym2": lambda: _ce_operators(ce_s2),
        "ce-su2-adjoint": lambda: _ce_operators(ce_ad),
        "ce-sl2-coadjoint": lambda: _ce_operators(ce_sl2),
        "tensor-ce-su2-weil1": lambda: (
            (tensor.d,) + tensor.contractions + tensor.lie_ops
            + (_pos_from_offsets(offsets),)),
        "cartan-su2-2": lambda: (model.complex.d, model.inclusion,
                                 model.model_space, model.fine, model.mons),
        "cartan-su2-sym2-1": lambda: (
            model_s2.complex.d, model_s2.inclusion, model_s2.model_space,
            model_s2.fine, model_s2.mons),
        "twist-on-invariants-su2-2": lambda: (
            spectral._twist_on_invariants(model),),
        "cartan-weil-inclusion-su2-2": lambda: (gdiff.cartan_weil_inclusion(
            model, gdiff.weil_algebra(g, 2)).inclusion,),
        "cartan-weil-inclusion-su2-sym2-1": lambda: (
            gdiff.cartan_weil_inclusion(model_s2, w1).inclusion,),
        "cartan-torus2-slice2-2": lambda: (
            model_torus.complex.d, model_torus.inclusion,
            model_torus.model_space, model_torus.fine, model_torus.mons),
        "cartan-heisenberg-adjoint-2": lambda: (
            model_h.complex.d, model_h.inclusion, model_h.model_space,
            model_h.fine, model_h.mons),
        "bounded-poiss1-slice3-2": lambda: (_bounded_cohomology(
            po.momentum_gdiff(cli._su2_momentum(), slice_degree=3)[0], 2),),
        "bounded-torus2-slices0,2-2": lambda: tuple(
            _bounded_cohomology(po.momentum_gdiff(torus, slice_degree=s)[0], 2)
            for s in (0, 2)),
    }


def test_builder_blocks_are_pinned():
    """Every stored block of the product-basis builders, value for value,
    with the dimensions and basis order of their spaces."""
    digests = {name: _blocks_digest(*maps())
               for name, maps in _pinned_builders().items()}
    assert digests == BUILDER_DIGESTS


# The bases are canonical, so any change of these digests is a change of
# behaviour.
BUILDER_DIGESTS = {
    "ce-su2-sym2":
        "4df93d857524887609938d1b39b39abaf5ec5c85d8fde58d556f88006cd0d661",
    "ce-su2-adjoint":
        "26587bf0a081e9bc56f039f22feedbfd27fba74fbe8e8f5d3506326dacf6fbfd",
    "ce-sl2-coadjoint":
        "dd8597b2afcdc745813cfc79e73512455bba8194bd9052e5a0f6d522728d97b8",
    "tensor-ce-su2-weil1":
        "3fb19c432b2202c76e0c0477a15eb9c10c981d83b876f0ff6272e9bf09d19f69",
    "cartan-su2-2":
        "98042453afb893119e170f47e9d0301f615ea7202f37f4804659084c2f653b57",
    "cartan-su2-sym2-1":
        "30188b3a8fdb53926dea1fac2e5819ea37359cda6fc1dc7bf44b817856815982",
    "twist-on-invariants-su2-2":
        "37ba1a54990cb18cb7325b1ff86100cf6a2a7b4668d5d2308cb497b23970308c",
    "cartan-weil-inclusion-su2-2":
        "eb008a383ccda218193cafe69a58d8e5263b81deb6d78bc1c8659958d04f0740",
    "cartan-weil-inclusion-su2-sym2-1":
        "6fc331208a9b8d4a0bcc505f49f9d8624d458a96a44d2f26df1da998d4d461b3",
    "cartan-torus2-slice2-2":
        "05621d8c0b4e1f84d0f26c930caf40276a2aea0558344de55b3259e3b0a22787",
    "cartan-heisenberg-adjoint-2":
        "3e5aeb283e1fdc1e940dc70d4978023d90a1446adabb0df8c9fe3083917323c7",
    "bounded-poiss1-slice3-2":
        "c4bf44a89ceb40c4bc902c2543d8234fa13752973a0cbac5ba2750c8608adbe0",
    "bounded-torus2-slices0,2-2":
        "9ac177b8a86d121cc60cbb5b2bc529cbd7d4f1f8876d8320283edef47a67ec04",
}


# ---------------------------------------------------------------------------
# The Leibniz check on seeded one-entry mutations


def _leibniz_subjects():
    """Name -> a G-differential algebra whose operators and product the
    Leibniz tests mutate."""
    h = lie.heisenberg()
    return {
        "weil-su2-2": gdiff.weil_algebra(lie.su2(), 2).gdiff,
        "weil-abelian2-2":
            gdiff.weil_algebra(lie.abelian(2), 2).gdiff,
        "ce-su2": su2_ce()[1],
        "ce-heisenberg": gdiff.ce_gdiff(lie.ce_complex(h, lie.trivial_rep(h))),
    }


def _mutate_op(op, rng):
    """op with one seeded entry of one block moved by a nonzero rational."""
    sp = op.source
    degs = [n for n in sp.degrees() if op.target.dim(n + op.shift)]
    n = rng.choice(degs)
    blk = op.block(n).dense()
    blk[rng.randrange(len(blk))][rng.randrange(len(blk[0]))] += \
        rng.choice((1, -1, 2, Fraction(1, 2)))
    blocks = dict(op.blocks)
    blocks[n] = blk
    return core.LinearMap.from_blocks(sp, op.target, op.shift, blocks)


def _mutate_product(c, rng):
    """The product of c with one seeded term added to one basis pair, in the
    payload's table form and through the CLI's conversion."""
    sp = c.space
    keys = sorted(k for k in c.product.table if sp.dim(k[0] + k[1]))
    da, db = rng.choice(keys)
    pair = (rng.randrange(sp.dim(da)), rng.randrange(sp.dim(db)))
    table = table_dict(c)
    table[(da, db)][pair] = table[(da, db)].get(pair, ()) + (
        (rng.randrange(sp.dim(da + db)), rng.choice((1, -1, Fraction(1, 3)))),)
    return _product(table, sp.dims())


def _mutant(c, family, x, rng):
    """c with one entry of d ("d"), i_x ("i"), L_x ("L") or of the product
    table ("product") moved."""
    if family == "d":
        return dataclasses.replace(
            c, complex=core.CochainComplex(c.space, _mutate_op(c.d, rng)))
    if family == "product":
        return dataclasses.replace(
            c, product=_mutate_product(c, rng))
    field = "contractions" if family == "i" else "lie_ops"
    ops = list(getattr(c, field))
    ops[x] = _mutate_op(ops[x], rng)
    return dataclasses.replace(c, **{field: tuple(ops)})


def _pinned_mutants():
    """(subject, family, generator, mutant): one mutation of d, of each i_x,
    of each L_x and of the product, per subject."""
    out = []
    for s, (name, c) in enumerate(_leibniz_subjects().items()):
        rng = random.Random(9611002 + s)
        fams = ([("d", None)]
                + [(f, x) for x in range(c.algebra.dim) for f in ("i", "L")]
                + [("product", None)])
        for family, x in fams:
            out.append((name, family, x, _mutant(c, family, x, rng)))
    return out


def _pair_count(c):
    return c.space.total_dim() ** 2


def _pinned_reports():
    return {f"{name}/{family}{'' if x is None else x}":
            gdiff.check_gdiff_axioms(m).to_json()
            for name, family, x, m in _pinned_mutants()}


def test_leibniz_witnesses_are_pinned():
    """The axiom report of every pinned mutation, Leibniz witness included,
    as recorded before the check became blockwise."""
    full = _pinned_reports()
    assert all(full[k]["failures"] for k in full)
    assert _json_digest(full) == LEIBNIZ_FULL_DIGEST


def test_pinned_reports_move_one_associativity_witness():
    """The pinned reports are those of the check that sampled associativity
    on 200 triples (SAMPLED_DIGEST) but for one witness: on the product
    mutant of W(abelian(2), 2) the sample met a failing triple with left
    factor of degree 3 first, and the check through the generating set
    reports the first failing triple with a generator on the left."""
    full = _pinned_reports()
    failures = full["weil-abelian2-2/product"]["failures"]
    assert [f["axiom"] for f in failures] == ["d-Leibniz", "associativity"]
    assert failures[1] == {"axiom": "associativity", "generators": [],
                           "degree": 1, "basis_index": 0,
                           "other": [4, 1, 1, 1]}
    failures[1].update(degree=3, basis_index=1, other=[2, 0, 1, 1])
    assert _json_digest(full) == SAMPLED_DIGEST


def _json_digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True,
                                     default=str).encode()).hexdigest()


# Recorded with the check through a generating set; the Leibniz witnesses
# are those of the per-pair check that the blockwise one replaced.
LEIBNIZ_FULL_DIGEST = \
    "84ebdc95d6c16291c8f52d0c6cb9c759c13d8a413362f30ae9cbaa4804446b35"
# The same reports, recorded when associativity was sampled.
SAMPLED_DIGEST = \
    "ec5e132b6cbb107ead7d91af908836025ef7bb7b6af0101a92c3291d33451ac3"


def _apply(op, deg, vec):
    """op applied to the sparse vector vec of degree deg, read off the
    dense block."""
    out = {}
    blk = op.block(deg).dense()
    for i, cv in vec.items():
        for t in range(len(blk)):
            if blk[t][i]:
                out[t] = out.get(t, 0) + cv * blk[t][i]
    return {k: v for k, v in out.items() if v}


def _terms(c, da, ia, db, ib):
    """The terms (k, coeff) of e_ia e_ib: column ia * dim A^db + ib of the
    product's block (da, db)."""
    m = c.product.table.get((da, db))
    return m.cols[ia * c.space.dim(db) + ib].items() if m else ()


def _mult(c, da, va, db, vb):
    out = {}
    for ia, ca in va.items():
        for ib, cb in vb.items():
            for k, coeff in _terms(c, da, ia, db, ib):
                out[k] = out.get(k, 0) + ca * cb * coeff
    return {k: v for k, v in out.items() if v}


def _plus(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def _reference_leibniz(c):
    """The Leibniz check one basis pair at a time: each product e_a e_b is
    pushed through d, i_x and L_x and compared with the derivation rule, on
    every pair in degree order, stopping at the first failure."""
    sp = c.space
    rules = [("d-Leibniz", [], c.d, -1)]
    for x in range(c.algebra.dim):
        rules += [("i-Leibniz", [x], c.contractions[x], -1),
                  ("L-Leibniz", [x], c.lie_ops[x], 1)]
    degs = sp.degrees()
    for da, ia in [(da, ia) for da in degs for ia in range(sp.dim(da))]:
        ea = {ia: 1}
        for db, ib in [(db, ib) for db in degs for ib in range(sp.dim(db))]:
            eb = {ib: 1}
            ab = _mult(c, da, ea, db, eb)
            for axiom, gens, op, odd_sign in rules:
                s = op.shift
                sign = odd_sign ** da
                lhs = _apply(op, da + db, ab)
                rhs = _plus(_mult(c, da + s, _apply(op, da, ea), db, eb),
                            _mult(c, da, ea, db + s, _apply(op, db, eb)),
                            sign)
                if lhs != rhs:
                    return [{"axiom": axiom, "generators": gens,
                             "degree": da, "basis_index": ia,
                             "other": [db, ib]}]
    return []


def _minus(a, b):
    return a.add(b.scale(-1))


def commutator(a, b):
    return _minus(a.compose(b), b.compose(a))


def _first_defect(m):
    """None for the zero map, else its lowest nonzero block's degree and
    that block's smallest nonzero column."""
    if m.is_zero():
        return None
    n, blk = m.blocks[0]
    return {"degree": n, "basis_index": min(min(row) for row in blk if row)}


def _reference_operator_axioms(c):
    """The failures of the operator axioms, each identity formed as a
    LinearMap and reported at its first nonzero block and column."""
    r, d, i, lie_ops = c.algebra.dim, c.d, c.contractions, c.lie_ops
    out = []

    def defect(axiom, gens, m):
        if not m.is_zero():
            out.append({"axiom": axiom, "generators": gens,
                        **_first_defect(m)})

    defect("d^2=0", [], d.compose(d))
    for a in range(r):
        for b in range(a, r):
            defect("i", [a, b], core.anticommutator(i[a], i[b]))
    for a in range(r):
        defect("iii", [a], _minus(core.anticommutator(d, i[a]), lie_ops[a]))
        defect("[L,d]=0", [a], commutator(lie_ops[a], d))
    basis = rl.identity(r).dense()
    for a in range(r):
        for b in range(r):
            if a != b:
                br = c.algebra.bracket(basis[a], basis[b])
                defect("ii'", [a, b], _minus(core.linear_combination(i, br),
                                             commutator(lie_ops[a], i[b])))
                defect("L-bracket", [a, b],
                       _minus(core.linear_combination(lie_ops, br),
                              commutator(lie_ops[a], lie_ops[b])))
    return out


def test_leibniz_check_agrees_with_the_per_pair_reference():
    """Seeded property: on random one- and two-entry mutations of d, i_x,
    L_x and the product of small algebras, the blockwise check gives the
    per-pair reference's report, and the operator axioms alone (the
    complex without its product) give the reports of the identities formed
    as maps."""
    sl2 = lie.sl2()
    subjects = [
        gdiff.weil_algebra(lie.su2(), 1).gdiff,
        gdiff.weil_algebra(lie.abelian(2), 2).gdiff,
        gdiff.weil_algebra(lie.heisenberg(), 1).gdiff,
        su2_ce()[1],
        gdiff.ce_gdiff(lie.ce_complex(sl2, lie.trivial_rep(sl2))),
    ]
    rng = random.Random(20261018)
    failing = 0
    for _ in range(50):
        m = rng.choice(subjects)
        for _ in range(rng.choice((1, 1, 2))):
            family = rng.choice(("d", "i", "L", "product"))
            m = _mutant(m, family, rng.randrange(m.algebra.dim), rng)
        report = gdiff._check_leibniz(m)
        assert report == _reference_leibniz(m)
        failing += bool(report)
        report = gdiff.check_gdiff_axioms(dataclasses.replace(m, product=None))
        assert list(report.failures) == _reference_operator_axioms(m)
    assert failing == 50


# ---------------------------------------------------------------------------
# The checks through a generating set


def _algebra(dims, products, unit=(1,)):
    """The algebra with dims[n] basis elements in degree n, d = 0, the zero
    action of abelian(1), the given unit and the products {(da, db): {(ia,
    ib): k}}, each e_ia e_ib = e_k; with a unit of one coordinate, its
    products with every basis element are added."""
    table = {key: {pair: ((k, 1),) for pair, k in pairs.items()}
             for key, pairs in products.items()}
    if unit == (1,):
        for n, k in dims.items():
            table.setdefault((0, n), {}).update(
                {(0, i): ((i, 1),) for i in range(k)})
            table.setdefault((n, 0), {}).update(
                {(i, 0): ((i, 1),) for i in range(k)})
    space = core.GradedSpace.from_dims(dims)
    return dataclasses.replace(gdiff.trivial_action_gdiff(
        lie.abelian(1), core.CochainComplex.build(
            space, core.LinearMap.zero(space, space, 1))),
        product=_product(table, dims), unit=unit)


def test_generators_of_weil_algebras_are_the_lambdas_and_the_fs():
    for cap in (1, 2, 3):
        w = gdiff.weil_algebra(lie.su2(), cap)
        assert gdiff._generators(w.gdiff) == {0: [0], 1: [0, 1, 2],
                                              2: [0, 1, 2]}
        # the lambda^k are W^1, and the f_k the product S^1 that opens W^2
        assert w.offsets[1] == {(1, 0): (0, 3, 1)}
        assert w.offsets[2][(0, 1)] == (0, 1, 3)
        assert sorted(w.mons[1]) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


@pytest.mark.parametrize("g", [lie.su2(), lie.heisenberg()],
                         ids=["su2", "heisenberg"])
def test_generators_of_an_exterior_algebra_are_its_degree_one(g):
    c = gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))
    assert gdiff._generators(c) == {0: [0], 1: [0, 1, 2]}


def test_generators_of_a_tensor_product_are_those_of_its_factors():
    g, a = su2_ce()
    w = gdiff.weil_algebra(g, 2).gdiff
    t, offsets = gdiff.tensor_product(a, w)
    pos = _pos_from_offsets(offsets)
    expected = {}
    for first, c in ((True, a), (False, w)):
        for n, idx in gdiff._generators(c).items():
            expected.setdefault(n, set()).update(
                pos[n][(n, j, 0, 0) if first else (0, 0, n, j)] for j in idx)
    assert {n: set(idx) for n, idx in gdiff._generators(t).items()} == \
        expected
    assert expected == {0: {0}, 1: set(range(6)), 2: {0, 1, 2}}


def test_generators_with_a_negative_degree_are_the_whole_basis():
    """Products land in lower degrees, so degree order proves nothing: the
    square of the degree-1 element is no generator by the rule of
    nonnegative degrees, and is one here."""
    c = _algebra({-1: 1, 0: 1, 1: 1, 2: 1}, {(1, 1): {(0, 0): 0}})
    assert gdiff._generators(c) == {-1: [0], 0: [0], 1: [0], 2: [0]}
    assert gdiff.check_gdiff_axioms(c).ok


def test_product_left_associativity_defect_fails_at_a_generator():
    """a, b, c, e in degree 1 with ab = w, bc = v, wc = av = p and pe = t:
    the defect is put at (w, c, e), whose left factor w = ab is a product,
    (wc)e = t and w(ce) = 0.  No generator sees it as a left factor, and
    (a, b, c) associates; the lemma still forces a failing triple with a
    generator on the left, here (a, bc, e)."""
    c = _algebra({0: 1, 1: 4, 2: 2, 3: 1, 4: 1},
                 {(1, 1): {(0, 1): 0, (1, 2): 1}, (2, 1): {(0, 2): 0},
                  (1, 2): {(0, 1): 0}, (3, 1): {(0, 3): 0}})
    assert gdiff._generators(c) == {0: [0], 1: [0, 1, 2, 3], 4: [0]}
    triples = _failing_triples(c)
    assert (2, 0, 1, 2, 1, 3) in triples
    assert (1, 0, 1, 1, 1, 2) not in triples
    assert gdiff.check_gdiff_axioms(c).failures == (
        {"axiom": "associativity", "generators": [], "degree": 1,
         "basis_index": 0, "other": [2, 1, 1, 3]},)


def test_a_differential_that_moves_the_unit_is_no_derivation():
    """d 1 = xi on Lambda(1) under the zero action: every identity holds,
    and so does the Leibniz rule on every pair with xi on the left (xi xi =
    0).  Only the unit sees the defect, and associativity and the Leibniz
    rules through the generating set skip it."""
    c = _algebra({0: 1, 1: 1}, {})
    d = core.LinearMap.from_blocks(c.space, c.space, 1, {0: [[1]]})
    c = dataclasses.replace(c, complex=core.CochainComplex.build(c.space, d))
    assert gdiff.check_gdiff_axioms(c).failures == (
        {"axiom": "d-Leibniz", "generators": [], "degree": 0,
         "basis_index": 0, "other": [0, 0]},)


def test_generators_generate_and_complement_the_products():
    """In each degree n > 0 of algebras in the standard and in random bases,
    the generators and the products of lower positive degrees span A^n,
    and the generators are as many as the products leave out: with left
    factor a generator or with any left factor alike."""
    rng = random.Random(20261021)
    bases = [gdiff.weil_algebra(lie.su2(), 2).gdiff,
             gdiff.weil_algebra(lie.abelian(2), 2).gdiff,
             gdiff.ce_gdiff(lie.ce_complex(lie.sl2(),
                                           lie.trivial_rep(lie.sl2())))]
    for c in bases + [_rebased(c, rng) for c in bases]:
        sp, gens = c.space, gdiff._generators(c)
        assert gens[0] == list(range(sp.dim(0)))
        spans = {0: [{j: 1} for j in gens[0]]}   # degree -> generated rows
        for n in sp.degrees()[1:]:
            rows = [_mult(c, i, u, n - i, w)
                    for i in range(1, n) for u in spans.get(i, ())
                    for w in spans.get(n - i, ())]
            left = [_mult(c, i, {x: 1}, n - i, {j: 1})
                    for i in range(1, n) for x in gens.get(i, ())
                    for j in range(sp.dim(n - i))]
            ours = gens.get(n, [])
            assert len(ours) == sp.dim(n) - rl.rank(rl.freeze(rows, sp.dim(n)))
            assert len(ours) == sp.dim(n) - rl.rank(rl.freeze(left, sp.dim(n)))
            basis, pivots = rl.rref(rl.freeze(rows + [{j: 1} for j in ours],
                                             sp.dim(n)))
            assert len(pivots) == sp.dim(n)
            spans[n] = [dict(row) for row in basis[:len(pivots)]]


def _failing_triples(c):
    """Every basis triple (dx, ix, dy, iy, dz, iz), in degree order, with
    (xy)z != x(yz), from the products of all basis pairs."""
    sp = c.space
    basis = [(n, j) for n in sp.degrees() for j in range(sp.dim(n))]
    pp = {(x, y): _mult(c, x[0], {x[1]: 1}, y[0], {y[1]: 1})
          for x in basis for y in basis}
    out = []
    for x in basis:
        for y in basis:
            for z in basis:
                lhs, rhs = {}, {}
                for side, pairs in ((lhs, [((x[0] + y[0], k), z, v)
                                           for k, v in pp[x, y].items()]),
                                    (rhs, [(x, (y[0] + z[0], k), v)
                                           for k, v in pp[y, z].items()])):
                    for u, w, v in pairs:
                        for k, cv in pp.get((u, w), {}).items():
                            side[k] = side.get(k, 0) + v * cv
                if {k: v for k, v in lhs.items() if v} != \
                        {k: v for k, v in rhs.items() if v}:
                    out.append((*x, *y, *z))
    return out


def _reference_unit(c):
    """The unit on every basis element, by products of coordinate
    vectors."""
    sp, unit = c.space, dict(enumerate(c.unit))
    for n in sp.degrees():
        for i in range(sp.dim(n)):
            if (_mult(c, 0, unit, n, {i: 1}) != {i: 1}
                    or _mult(c, n, {i: 1}, 0, unit) != {i: 1}):
                return [{"axiom": "unit", "generators": [], "degree": n,
                         "basis_index": i}]
    return []


def _reference_report(c):
    """The full passes by their references: the operator identities formed
    as maps, the Leibniz rules one pair at a time, the unit by products of
    coordinate vectors and, when it holds, associativity on every triple,
    witnessed by the first failing one with a generator on the left."""
    failures = _reference_operator_axioms(c) + _reference_leibniz(c)
    unit = _reference_unit(c) if c.unit is not None else []
    if unit:
        return failures + unit
    gens = gdiff._generators(c)
    triples = _failing_triples(c)
    first = [t for t in triples if t[1] in gens.get(t[0], ())]
    assert bool(first) == bool(triples)
    if first:
        dx, ix, dy, iy, dz, iz = first[0]
        failures.append({"axiom": "associativity", "generators": [],
                         "degree": dx, "basis_index": ix,
                         "other": [dy, iy, dz, iz]})
    return failures


def _rebased(c, rng):
    """c in the basis e'_j = e_j + sum_{i<j} p_ij e_i of each degree, the
    p_ij seeded small integers: its products have several terms."""
    sp = c.space
    fwd = {n: rl.freeze([{j: 1 if i == j else rng.choice((0, 1, -1, 2))
                          for j in range(i, sp.dim(n))}
                         for i in range(sp.dim(n))], sp.dim(n))
           for n in sp.degrees()}
    back = {n: rl.solve(m, rl.identity(sp.dim(n))) for n, m in fwd.items()}

    def conj(op):
        return core.LinearMap.from_blocks(sp, sp, op.shift, {
            n: rl.mat_mul(back[n + op.shift], rl.mat_mul(m, fwd[n]))
            for n, m in op.blocks})

    table = {}
    for da, db in c.product.table:
        pairs = table.setdefault((da, db), {})
        for a in range(sp.dim(da)):
            for b in range(sp.dim(db)):
                ab = _mult(c, da, dict(fwd[da].cols[a]), db,
                           dict(fwd[db].cols[b]))
                new = {}
                for k, v in ab.items():
                    for t, w in back[da + db].cols[k].items():
                        new[t] = new.get(t, 0) + w * v
                pairs[(a, b)] = tuple((t, v) for t, v in new.items() if v)
    unit = tuple(sum(back[0][t].get(k, 0) * v for k, v in enumerate(c.unit))
                 for t in range(sp.dim(0)))
    return dataclasses.replace(
        c, complex=core.CochainComplex(sp, conj(c.d)),
        contractions=tuple(map(conj, c.contractions)),
        lie_ops=tuple(map(conj, c.lie_ops)),
        product=_product(table, sp.dims()), unit=unit)


def _two_idempotents():
    """Q^2 (x) Lambda(1): idempotents e, f in degree 0 with unit e + f,
    and e xi, f xi in degree 1."""
    block = {(0, 0): 0, (1, 1): 1}
    return _algebra({0: 2, 1: 2}, {(0, 0): block, (0, 1): block,
                                   (1, 0): block}, unit=(1, 1))


def _per_pair_table(c1, c2, pos):
    """The product table of c1 (x) c2 from every pair of product basis
    elements, two factor-table lookups per pair, with the Koszul sign."""
    comps = {deg: sorted(labs, key=labs.get) for deg, labs in pos.items()}
    table = {}
    for da in sorted(comps):
        for db in sorted(comps):
            if da + db not in comps:
                continue
            pairs = {}
            for ia, (a1, i1, a2, i2) in enumerate(comps[da]):
                for ib, (b1, j1, b2, j2) in enumerate(comps[db]):
                    t1 = tuple(_terms(c1, a1, i1, b1, j1))
                    t2 = tuple(_terms(c2, a2, i2, b2, j2))
                    if not t1 or not t2:
                        continue
                    sgn = -1 if (a2 % 2) and (b1 % 2) else 1
                    pairs[(ia, ib)] = tuple(
                        (pos[da + db][(a1 + b1, k1, a2 + b2, k2)],
                         sgn * co1 * co2) for k1, co1 in t1 for k2, co2 in t2)
            if pairs:
                table[(da, db)] = pairs
    return table


def _tensor_factors():
    """Pairs of factors: builders' tables, a rebased Weil algebra whose
    entries have several terms beside an algebra whose unit has two
    coordinates, a table with an entry of no terms, and a factor with
    degree -1, so that degree 0 of the product starts with A^-1 (x) B^1
    and the unit sits at a nonzero offset."""
    g, h, t = lie.su2(), lie.heisenberg(), lie.abelian(2)
    ce = {alg.name: gdiff.ce_gdiff(lie.ce_complex(alg, lie.trivial_rep(alg)))
          for alg in (g, h, t)}
    table = table_dict(ce["su2"])
    table[(1, 1)][(0, 1)] = ()
    return {
        "ce-su2-weil-su2-1": (ce["su2"],
                              gdiff.weil_algebra(g, 1).gdiff),
        "weil-heisenberg-1-ce-heisenberg": (
            gdiff.weil_algebra(h, 1).gdiff, ce["heisenberg"]),
        "weil-abelian2-1-weil-abelian2-2": (
            gdiff.weil_algebra(t, 1).gdiff,
            gdiff.weil_algebra(t, 2).gdiff),
        "two-idempotents-rebased-weil-abelian1-2": (
            _two_idempotents(),
            _rebased(gdiff.weil_algebra(lie.abelian(1), 2).gdiff,
                     random.Random(9611023))),
        "ce-su2-empty-entry-weil-su2-1": (
            dataclasses.replace(ce["su2"], product=_product(
                table, ce["su2"].space.dims())),
            gdiff.weil_algebra(g, 1).gdiff),
        "negative-degree-two-idempotents": (
            _algebra({-1: 1, 0: 1, 1: 1, 2: 1}, {(1, 1): {(0, 0): 0}}),
            _two_idempotents()),
    }


@pytest.mark.parametrize("name", sorted(_tensor_factors()))
def test_tensor_product_table_is_the_per_pair_table(name):
    """The blocks built from the nonzero entries of the factor blocks are
    those every basis pair gives, keys in the same order and every entry
    equal, and the unit is the Kronecker product of the factor units."""
    c1, c2 = _tensor_factors()[name]
    tensor, offsets = gdiff.tensor_product(c1, c2, check=False)
    pos = _pos_from_offsets(offsets)
    ref = _product(_per_pair_table(c1, c2, pos), tensor.space.dims())
    assert list(tensor.product.table.items()) == list(ref.table.items())
    unit = [0] * tensor.space.dim(0)
    for i1, v1 in enumerate(c1.unit):
        for i2, v2 in enumerate(c2.unit):
            unit[pos[0][(0, i1, 0, i2)]] = v1 * v2
    assert tensor.unit == tuple(unit)


def test_unit_check_agrees_with_products_by_the_unit():
    """Seeded property: on one-entry product mutations, among them entries
    of the blocks (0, n) and (n, 0), of two algebras whose unit has one
    coordinate and of Q^2 (two idempotents) tensor Lambda(1), whose unit has
    two, the unit check gives the witness of `Product.mult`."""
    subjects = [su2_ce()[1], gdiff.weil_algebra(lie.abelian(1), 2).gdiff,
                _two_idempotents()]
    rng = random.Random(20261020)
    failing = 0
    for _ in range(60):
        m = rng.choice(subjects)
        m = _mutant(m, "product", 0, rng)
        assert gdiff._check_unit(m) == _reference_unit(m)
        failing += bool(_reference_unit(m))
    assert 0 < failing < 60


def test_generating_set_checks_agree_with_the_full_references():
    """Seeded property: on small algebras, on the same in random bases
    (products of several terms) and on one- and two-entry mutations of d,
    i_x, L_x and the product of either, the report is the full
    references': no axiom holds through the generating set and fails on
    some column, pair or triple, and associativity fails on some triple
    only when it fails on one with a generator on the left."""
    bases = [su2_ce()[1],
             gdiff.ce_gdiff(lie.ce_complex(lie.heisenberg(),
                                           lie.trivial_rep(lie.heisenberg()))),
             gdiff.weil_algebra(lie.abelian(1), 2).gdiff,
             gdiff.weil_algebra(lie.abelian(2), 1).gdiff,
             gdiff.weil_algebra(lie.su2(), 1).gdiff, _two_idempotents()]
    rng = random.Random(9611022)
    subjects = bases + [_rebased(c, rng) for c in bases]
    cases = list(subjects)
    for _ in range(60):
        m = rng.choice(subjects)
        for _ in range(rng.choice((1, 1, 2))):
            family = rng.choice(("d", "i", "L", "product"))
            m = _mutant(m, family, rng.randrange(m.algebra.dim), rng)
        cases.append(m)
    verdicts = []
    for m in cases:
        report = gdiff.check_gdiff_axioms(m)
        assert list(report.failures) == _reference_report(m)
        verdicts.append(report.ok)
    assert verdicts[:len(subjects)] == [True] * len(subjects)
    assert not any(verdicts[len(subjects):])
    assert any(len(terms) > 1 for c in subjects[len(bases):]
               for pairs in table_dict(c).values()
               for terms in pairs.values())


# ---------------------------------------------------------------------------
# The G-map checks on seeded one-entry mutations, against the identities
# formed as maps


def _unchecked(run):
    """What run() returns with `gdiff._first_failure` finding nothing: the
    map a G-map builder forms before its check."""
    real = gdiff._first_failure
    gdiff._first_failure = lambda columns, terms: None
    try:
        return run()
    finally:
        gdiff._first_failure = real


def _outcome(run):
    """("ok", None), or the name and witness of the exception run() raises
    (an AxiomFailure gives its list of failures)."""
    try:
        run()
    except (gdiff.ConnectionInvalid, gdiff.AxiomFailure) as exc:
        witness = exc.args[0]
        if isinstance(witness, gdiff.AxiomReport):
            witness = list(witness.failures)
        return type(exc).__name__, witness
    return "ok", None


def _reference_universal_check(w, target, phi):
    """The checks of the universal map phi: W -> target, each identity
    formed as a map, the chain property on the columns of symmetric degree
    below the cap only (a projection onto them composed on the right)."""
    wg, wsp = w.gdiff, w.gdiff.space
    for b in range(wg.algebra.dim):
        for identity, ops, wops in (
                ("contraction", target.contractions, wg.contractions),
                ("lie-derivative", target.lie_ops, wg.lie_ops)):
            m = _first_defect(_minus(ops[b].compose(phi),
                                     phi.compose(wops[b])))
            if m:
                return "ConnectionInvalid", {"identity": identity,
                                             "generator": b, **m}
    labels = _former_weil_labels(wg.algebra.dim, w.sym_cap)
    below = core.LinearMap.from_blocks(wsp, wsp, 0, {
        n: rl.freeze([{j: 1} if sum(expo) < w.sym_cap else {}
                      for j, (_, expo) in enumerate(labels[n])], wsp.dim(n))
        for n in wsp.degrees()})
    m = _first_defect(_minus(target.d.compose(phi),
                             phi.compose(wg.d)).compose(below))
    if m:
        return "ConnectionInvalid", {"identity": "chain", **m}
    return "ok", None


def _reference_inclusion_check(model, w, inc):
    """The checks of the inclusion inc of the Cartan model into A (x) W,
    each identity formed as a map."""
    tensor, _ = gdiff.tensor_product(model.base, w.gdiff, check=False)
    failures = []
    chain = _first_defect(_minus(tensor.d.compose(inc),
                                 inc.compose(model.complex.d)))
    if chain:
        failures.append({"axiom": "chain", **chain})
    for b in range(model.base.algebra.dim):
        for axiom, ops in (("basic-contraction", tensor.contractions),
                           ("basic-lie", tensor.lie_ops)):
            m = _first_defect(ops[b].compose(inc))
            if m:
                failures.append({"axiom": axiom, "generators": [b], **m})
    for deg in model.complex.space.degrees():
        if rl.rank(inc.block(deg)) != model.complex.space.dim(deg):
            failures.append({"axiom": "injective", "degree": deg,
                             "basis_index": 0})
    return ("AxiomFailure", failures) if failures else ("ok", None)


def _mutate_theta(theta, rng):
    """theta with one seeded entry moved by a nonzero rational."""
    out = [list(v) for v in theta]
    k = rng.randrange(len(out))
    out[k][rng.randrange(len(out[k]))] += rng.choice((1, -1, 2,
                                                      Fraction(1, 2)))
    return out


def test_gmap_checks_agree_with_the_identities_formed_as_maps(monkeypatch):
    """Seeded property: on one-entry mutations of the connection, of the
    target's d, i_x and L_x (i_x and L_x of A for the inclusion into
    A (x) W), and of the sign convention MQ_SIGN, the
    universal map from the Weil algebra and the Cartan-to-Weil inclusion
    raise the exception, with the witness, that the identities formed as
    maps give: lowest nonzero block, smallest column; for the chain
    property of the universal map only the columns below the cap count."""
    g = lie.su2()
    _, a = su2_ce()
    circle = restricted_ce(g, lie.build_subalgebra(g, [[0, 0, 1]]))
    w2 = gdiff.weil_algebra(g, 2)
    # (Weil algebra, target, connection on the target)
    maps = [(gdiff.weil_algebra(g, cap), target, theta)
            for cap in (1, 2)
            for target, theta in ((a, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
                                  (w2.gdiff, gdiff.locally_free_connection(
                                      w2.gdiff).theta))]
    maps.append((gdiff.weil_algebra(circle.algebra, 2), circle, ((0, 0, 1),)))
    rng = random.Random(9611002)
    seen = set()
    for w, target, theta in maps:
        for _ in range(8):
            family = rng.choice(("theta", "d", "i", "L"))
            t, th = target, theta
            if family == "theta":
                th = _mutate_theta(theta, rng)
            else:
                t = _mutant(target, family, rng.randrange(g.dim)
                            if target.algebra.dim == g.dim else 0, rng)
            got = _outcome(lambda: gdiff.weil_universal_map(w, t, th))
            phi = _unchecked(lambda: gdiff.weil_universal_map(w, t, th)).map
            assert got == _reference_universal_check(w, t, phi)
            seen.add(got[1]["identity"] if got[1] else "ok")
    assert seen == {"ok", "contraction", "lie-derivative", "chain"}

    models = {cap: (gdiff.cartan_model(a, cap), gdiff.weil_algebra(g, cap))
              for cap in (1, 2)}
    # each one-entry change of MQ_SIGN = (1, 1, 0) at caps 1 and 2, and
    # moved entries of A's i_x and L_x at cap 1 (a moved d would not square
    # to zero on A (x) W)
    cases = [(cap, sign) for cap in (1, 2)
             for sign in ((-1, 1, 0), (1, 0, 0), (1, 1, 1))] + [(1, None)] * 8
    failing = 0
    for cap, sign in cases:
        m, w = models[cap]
        if sign is None:
            m = dataclasses.replace(m, base=_mutant(
                a, rng.choice(("i", "L")), rng.randrange(g.dim), rng))
        else:
            monkeypatch.setattr(gdiff, "MQ_SIGN", sign)
        got = _outcome(lambda: gdiff.cartan_weil_inclusion(m, w))
        inc = _unchecked(lambda: gdiff.cartan_weil_inclusion(m, w))
        assert got == _reference_inclusion_check(m, w, inc.inclusion)
        failing += got[0] != "ok"
        monkeypatch.undo()
    assert failing >= 12


# ---------------------------------------------------------------------------
# The product-basis builders against their former per-builder layouts.  Each
# `_ref_*` keeps the loop that built the object before `core.product_space`
# and `core.kron_map` decided every product layout.  The `_former_*_labels`
# rebuild the labels that the spaces carried then, in basis order; the
# positions they give are the expected ones.


def _former_ce_labels(n, dim):
    """Exterior degree k -> the labels (a, I) of C(g; V), dim g = n and dim
    V = dim."""
    return {k: [(a, idx) for idx in bases.ext_basis(n, k) for a in range(dim)]
            for k in range(n + 1)}


def _former_weil_labels(n, sym_cap):
    """Degree -> the labels (I, E) of lambda_I u^E in W(g, sym_cap),
    dim g = n."""
    comps = {}
    for k in range(n + 1):
        for m in range(sym_cap + 1):
            for idx in bases.ext_basis(n, k):
                for expo in bases.sym_basis(n, m):
                    comps.setdefault(k + 2 * m, []).append((idx, expo))
    for deg in comps:
        comps[deg].sort(key=lambda t: (len(t[0]), t[0], t[1]))
    return comps


def _former_tensor_labels(sp1, sp2):
    """Degree -> the labels (d1, i1, d2, i2) of the tensor product space,
    degrees as first met over (d1, d2)."""
    comps = {}
    for d1 in sp1.degrees():
        for d2 in sp2.degrees():
            comps.setdefault(d1 + d2, []).extend(
                (d1, i1, d2, i2)
                for i1 in range(sp1.dim(d1)) for i2 in range(sp2.dim(d2)))
    return {deg: sorted(labs) for deg, labs in comps.items()}


def _former_cartan_labels(sp, mons, top):
    """Degree -> the labels (n, m, ai, mi) of the full Cartan model space of
    a complex on `sp` through degree top."""
    labels = {}
    for deg in range(top + 1):
        labs = [(n, m, ai, mi) for m in range(len(mons))
                if (n := deg - 2 * m) in sp.degrees()
                for ai in range(sp.dim(n)) for mi in range(len(mons[m]))]
        if labs:
            labels[deg] = labs
    return labels


def _dims(labels):
    return core.GradedSpace.from_dims({n: len(labs)
                                       for n, labs in labels.items()})


def _ref_ce_complex(g, rep):
    n = g.dim
    ext = [bases.ext_basis(n, k) for k in range(n + 1)]
    space = _dims(_former_ce_labels(n, rep.space_dim))
    wedge, d_ext, contr, coad = lie._exterior_operators(g)
    one = rl.identity(rep.space_dim)
    ext_one = [rl.identity(len(e)) for e in ext]

    def kron_sum(shift, terms):
        blocks = {}
        for k in range(max(0, -shift), min(n, n - shift) + 1):
            out = [{} for _ in range(space.dim(k + shift))]
            for fam, v in terms:
                rl.add_kron(out, fam[k], v)
            blocks[k] = rl.freeze(out, space.dim(k))
        return core.LinearMap.from_blocks(space, space, shift, blocks)

    d = kron_sum(1, [(wedge[b], rep.op(b)) for b in range(n)] + [(d_ext, one)])
    contractions = tuple(kron_sum(-1, [(contr[b], one)]) for b in range(n))
    lie_ops = tuple(kron_sum(0, [(ext_one, rep.op(b)), (coad[b], one)])
                    for b in range(n))
    return lie.CEComplex(g, rep, core.CochainComplex.build(space, d),
                         contractions, lie_ops)


def _monomial_product(comps: dict, m_max: int) -> gdiff.Product:
    """Product table of the monomials lambda_idx u^expo listed per degree as
    comps[deg] = [(idx, expo), ...]: wedge on the exterior part, symmetric
    products above degree m_max truncated."""
    pos = {deg: {lab: i for i, lab in enumerate(labs)}
           for deg, labs in comps.items()}
    table = {}
    degs = sorted(comps)
    for da in degs:
        for db in degs:
            if da + db not in comps:
                continue
            pairs = {}
            for ia, (idx_a, ea) in enumerate(comps[da]):
                for ib, (idx_b, eb) in enumerate(comps[db]):
                    if sum(ea) + sum(eb) > m_max:
                        continue
                    mg = bases.wedge_merge(idx_a, idx_b)
                    if mg is None:
                        continue
                    s, new = mg
                    lab = (new, bases.sym_mul(ea, eb))
                    pairs[(ia, ib)] = ((pos[da + db][lab], s),)
            if pairs:
                table[(da, db)] = pairs
    return _product(table, {deg: len(labs) for deg, labs in comps.items()})


def _ref_weil_algebra(g, sym_cap):
    """The G-differential complex of W(g, sym_cap)."""
    n = g.dim
    comps = _former_weil_labels(n, sym_cap)
    space = _dims(comps)
    pos = {deg: {lab: i for i, lab in enumerate(comps[deg])} for deg in comps}
    ces = [_ref_ce_complex(g, lie.build_representation(
        g, [lie.sym_derivation(g.coad(a), bases.sym_basis(n, m))
            for a in range(n)], len(bases.sym_basis(n, m))))
        for m in range(sym_cap + 1)]
    where = {}
    for m, ce in enumerate(ces):
        mons = bases.sym_basis(n, m)
        for k in ce.space.degrees():
            where[(k, m)] = [pos[k + 2 * m][(idx, mons[a])] for a, idx in
                             _former_ce_labels(n, len(mons))[k]]

    def lift(ops, shift):
        blocks = {}
        for m, op in enumerate(ops):
            for k, blk in op.blocks:
                deg = k + 2 * m
                if deg not in blocks:
                    blocks[deg] = [{} for _ in comps[deg + shift]]
                rows, cols = where[(k + shift, m)], where[(k, m)]
                for i, row in enumerate(blk):
                    for j, v in row.items():
                        blocks[deg][rows[i]][cols[j]] = v
        return blocks

    def frozen(blocks):
        return {deg: rl.freeze(rows, len(comps[deg]))
                for deg, rows in blocks.items()}

    dblocks = lift([ce.complex.d for ce in ces], 1)
    for deg, labs in comps.items():
        for col, (idx, expo) in enumerate(labs):
            if sum(expo) == sym_cap:
                continue
            for p_i, t in enumerate(idx):
                if deg not in dblocks:
                    dblocks[deg] = [{} for _ in comps[deg + 1]]
                new_e = list(expo)
                new_e[t] += 1
                row = dblocks[deg][
                    pos[deg + 1][(idx[:p_i] + idx[p_i + 1:], tuple(new_e))]]
                row[col] = row.get(col, 0) - (-1 if p_i % 2 else 1)
    d = core.LinearMap.from_blocks(space, space, 1, frozen(dblocks))
    contractions = [core.LinearMap.from_blocks(
        space, space, -1, frozen(lift([ce.contractions[b] for ce in ces], -1)))
        for b in range(n)]
    lie_ops = [core.LinearMap.from_blocks(
        space, space, 0, frozen(lift([ce.lie_ops[b] for ce in ces], 0)))
        for b in range(n)]
    unit = [0] * len(comps[0])
    unit[pos[0][((), tuple([0] * n))]] = 1
    return gdiff.GDiffComplex(g, core.CochainComplex.build(space, d),
                              tuple(contractions), tuple(lie_ops),
                              _monomial_product(comps, sym_cap), tuple(unit))


def _ref_tensor_product(c1, c2):
    sp1, sp2 = c1.space, c2.space
    comps = _former_tensor_labels(sp1, sp2)
    space = _dims(comps)
    pos = {deg: {lab: i for i, lab in enumerate(comps[deg])} for deg in comps}
    one1, one2 = ({n: rl.identity(sp.dim(n)) for n in sp.degrees()}
                  for sp in (sp1, sp2))

    def build_op(op1, op2, shift, koszul):
        blocks = {}
        for deg in comps:
            tgt = pos.get(deg + shift)
            if tgt is None:
                continue
            blk = [{} for _ in tgt]
            for d1 in sp1.degrees():
                d2 = deg - d1
                col0 = pos[deg].get((d1, 0, d2, 0))
                if col0 is None:
                    continue
                row0 = tgt.get((d1 + shift, 0, d2, 0))
                if row0 is not None:
                    rl.add_kron(blk, op1.block(d1), one2[d2], row0, col0)
                row0 = tgt.get((d1, 0, d2 + shift, 0))
                if row0 is not None:
                    rl.add_kron(blk, one1[d1], op2.block(d2), row0, col0,
                                koszul(d1))
            blocks[deg] = rl.freeze(blk, len(comps[deg]))
        return core.LinearMap.from_blocks(space, space, shift, blocks)

    parity = lambda d1: -1 if d1 % 2 else 1
    d = build_op(c1.d, c2.d, 1, parity)
    contractions = tuple(build_op(c1.contractions[b], c2.contractions[b], -1,
                                  parity) for b in range(c1.algebra.dim))
    lie_ops = tuple(build_op(c1.lie_ops[b], c2.lie_ops[b], 0, lambda d1: 1)
                    for b in range(c1.algebra.dim))
    return space, pos, d, contractions, lie_ops


def _ref_cartan_twist(c, model_space, fine, mons):
    r = c.algebra.dim
    mult = {}
    for m in mons:
        if m + 1 not in mons:
            continue
        index = {e: i for i, e in enumerate(mons[m + 1])}
        for j in range(r):
            u = [{} for _ in mons[m + 1]]
            for mi, e in enumerate(mons[m]):
                u[index[bases.sym_mul(e, bases.unit_exp(r, j))]][mi] = 1
            mult[(m, j)] = rl.freeze(u, len(mons[m]))
    blocks = {}
    for deg, entries in fine.items():
        if deg + 1 not in fine:
            continue
        tgt = {(n, m): off for (n, m, _, off, _) in fine[deg + 1]}
        blk = blocks[deg] = [{} for _ in range(model_space.dim(deg + 1))]
        for (n, m, _, off, _) in entries:
            row0 = tgt.get((n - 1, m + 1))
            if row0 is not None:
                for j in range(r):
                    rl.add_kron(blk, c.contractions[j].block(n),
                                mult[(m, j)], row0, off)
    return blocks


def _ref_cartan_model(c, sym_cap):
    """(model space, fine, mons, inclusion, invariant d, full twist)."""
    g, r, sp = c.algebra, c.algebra.dim, c.space
    mons = {m: bases.sym_basis(r, m) for m in range(sym_cap + 1)}
    ls_mats = {m: [lie.sym_derivation(g.coad(b), mons[m]) for b in range(r)]
               for m in mons}
    ones = {m: rl.identity(len(mons[m])) for m in mons}
    a_ones = {n: rl.identity(sp.dim(n)) for n in sp.degrees()}
    adegs = sp.degrees()
    labels, fine, inv_dims, incl_blocks = {}, {}, {}, {}
    for deg in range((max(adegs) if adegs else 0) + 2 * sym_cap + 1):
        labs, entries, kernels = [], [], []
        for m in range(sym_cap + 1):
            n = deg - 2 * m
            if n not in adegs:
                continue
            size = sp.dim(n) * len(mons[m])
            stack = [{} for _ in range(r * size)]
            for b in range(r):
                rl.add_kron(stack, c.lie_ops[b].block(n), ones[m], b * size)
                rl.add_kron(stack, a_ones[n], ls_mats[m][b], b * size)
            kernels.append(rl.kernel(rl.freeze(stack, size)))
            entries.append((n, m, rl.ncols(kernels[-1]), len(labs), size))
            labs.extend(("c", n, m, ai, mi) for ai in range(sp.dim(n))
                        for mi in range(len(mons[m])))
        if not labs:
            continue
        labels[deg] = labs
        fine[deg] = tuple(entries)
        total_inv = sum(k for (_, _, k, _, _) in entries)
        if total_inv == 0:
            continue
        inv_dims[deg] = total_inv
        rows, colpos = [], 0
        for (_, _, k, _, _), kernel in zip(entries, kernels):
            rows += [{colpos + j: v for j, v in row.items()} for row in kernel]
            colpos += k
        incl_blocks[deg] = rl.freeze(rows, total_inv)
    model_space = _dims(labels)
    inv_space = core.GradedSpace.from_dims(inv_dims)
    inclusion = core.LinearMap.from_blocks(inv_space, model_space, 0,
                                           incl_blocks)
    twist = core.LinearMap.from_blocks(model_space, model_space, 1, {
        deg: rl.freeze(rows, model_space.dim(deg)) for deg, rows in
        _ref_cartan_twist(c, model_space, fine, mons).items()})
    dblocks = _ref_cartan_twist(c, model_space, fine, mons)
    for deg, blk in dblocks.items():
        tgt = {(n, m): off for (n, m, _, off, _) in fine[deg + 1]}
        for (n, m, _, off, _) in fine[deg]:
            row0 = tgt.get((n + 1, m))
            if row0 is not None:
                rl.add_kron(blk, c.d.block(n), ones[m], row0, off)
    d_full = core.LinearMap.from_blocks(
        model_space, model_space, 1,
        {deg: rl.freeze(blk, model_space.dim(deg))
         for deg, blk in dblocks.items()})
    d_inv = core.restrict_map(d_full, inclusion, "leaves the invariants")
    return model_space, fine, mons, inclusion, d_inv, twist


def _stored(x):
    """x as nested tuples of reprs, which show each scalar's type and each
    dict's key order; a matrix is its shape and its stored rows, each read
    by column (no result reads the order in which a row's entries were
    added), and a graded space its dimensions; a dict of matrices (the
    blocks of a product) is its keys in order, each with its matrix."""
    if isinstance(x, rl.Matrix):
        return x.shape, repr([sorted(row.items()) for row in x])
    if isinstance(x, core.GradedSpace):
        return "GradedSpace", repr(x.dims())
    if isinstance(x, dict) and any(isinstance(v, rl.Matrix)
                                   for v in x.values()):
        return tuple((repr(k), _stored(v)) for k, v in x.items())
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(
            _stored(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(map(_stored, x))
    return repr(x)


_REF_ALGEBRAS = {"abelian0": lambda: lie.abelian(0),
                 "abelian1": lambda: lie.abelian(1),
                 "abelian2": lambda: lie.abelian(2),
                 "abelian3": lambda: lie.abelian(3),
                 "heisenberg": lie.heisenberg, "sl2": lie.sl2, "su2": lie.su2}
_REF_REPS = {"trivial": lie.trivial_rep,
             "sym2": lambda g: lie.sym_power_rep(g, 2),
             "adjoint": lie.adjoint_rep, "coadjoint": lie.coadjoint_rep}


def _gapped(g):
    """A complex on degrees 0, 2 and 3 under the zero action of g: its
    tensor degrees are first met out of order, and over abelian(0) its
    Cartan degree 2 holds a zero-size product beside a nonzero one."""
    space = core.GradedSpace.from_dims({0: 1, 2: 1, 3: 2})
    return gdiff.trivial_action_gdiff(g, core.CochainComplex.build(
        space, core.LinearMap.zero(space, space, 1)))


@pytest.mark.parametrize("alg", sorted(_REF_ALGEBRAS))
def test_builders_match_their_former_layouts(alg):
    """Dimensions, every stored block with its entry types, the tensor
    positions with their key order, `fine`, `mons`, the product tables and
    the units of the rebuilt builders equal those of the former loops, on
    every algebra, coefficient (and the gapped complex) and symmetric cap
    0-3, tensor products through cap 2."""
    g = _REF_ALGEBRAS[alg]()
    complexes = {"gapped": _gapped(g)}
    for rep_name, rep in _REF_REPS.items():
        ce = lie.ce_complex(g, rep(g))
        assert _stored(ce) == _stored(_ref_ce_complex(g, ce.rep)), rep_name
        complexes[rep_name] = gdiff.ce_gdiff(ce)
    weils = {}
    for cap in range(4):
        weils[cap] = gdiff.weil_algebra(g, cap)
        assert _stored(weils[cap].gdiff) == \
            _stored(_ref_weil_algebra(g, cap)), cap
    for name, a in complexes.items():
        for cap in range(4):
            model = gdiff.cartan_model(a, cap)
            twist = gdiff.cartan_twist(a, model.model_space, model.offsets,
                                       model.mons)
            assert _stored((model.model_space, model.fine, model.mons,
                            model.inclusion, model.complex.d, twist)) == \
                _stored(_ref_cartan_model(a, cap)), (name, cap)
        for cap in range(3):
            w = weils[cap].gdiff
            for c1, c2 in ((a, w), (w, a)) if name == "gapped" else ((a, w),):
                tensor, offsets = gdiff.tensor_product(c1, c2, check=False)
                assert _stored((tensor.space, _pos_from_offsets(offsets),
                                tensor.d,
                                tensor.contractions, tensor.lie_ops)) == \
                    _stored(_ref_tensor_product(c1, c2)), (name, cap)


def _assert_tiled(space, offsets, parts):
    """The offsets of degree n list the products of parts[n], (a, b, dim
    X_a, dim Y_b), zero-size ones included, in the order given, each
    starting where the one before it ends, and fill space.dim(n).  Returns
    how many of the products have size zero."""
    assert set(offsets) == set(parts)
    assert set(space.degrees()) == {n for n, products in parts.items()
                                    if any(x * y for *_, x, y in products)}
    zero = 0
    for n, products in parts.items():
        assert list(offsets[n]) == [(a, b) for a, b, _, _ in products], n
        at = 0
        for a, b, dim_x, dim_y in products:
            assert offsets[n][(a, b)] == (at, dim_x, dim_y), (n, a, b)
            at += dim_x * dim_y
            zero += not dim_x * dim_y
        assert at == space.dim(n), n
    return zero


def _labels_by_offsets(offsets, xs, ys):
    """Degree -> the labels (x, y) of the basis, x_i (x) y_j of the product
    (a, b) placed at its offset + i * dim Y_b + j, x_i = xs(a)[i] and y_j =
    ys(b)[j]; empty degrees left out."""
    out = {}
    for n, offs in offsets.items():
        labs = [None] * sum(dim_x * dim_y for _, dim_x, dim_y in offs.values())
        for (a, b), (off, _, dim_y) in offs.items():
            for i, x in enumerate(xs(a)):
                for j, y in enumerate(ys(b)):
                    labs[off + i * dim_y + j] = (x, y)
        if labs:
            out[n] = labs
    return out


def _tensor_parts(sp1, sp2):
    parts = {}
    for d1 in sp1.degrees():
        for d2 in sp2.degrees():
            parts.setdefault(d1 + d2, []).append(
                (d1, d2, sp1.dim(d1), sp2.dim(d2)))
    return parts


def _assert_tensor_tiled(c1, c2):
    """The tensor product's offsets tile it, and the positions they give
    are those of the former labels, key order included."""
    tensor, offsets = gdiff.tensor_product(c1, c2, check=False)
    _assert_tiled(tensor.space, offsets, _tensor_parts(c1.space, c2.space))
    pos = _pos_from_offsets(offsets)
    former = _former_tensor_labels(c1.space, c2.space)
    assert list(pos) == list(former)
    assert {n: list(p.items()) for n, p in pos.items()} == \
        {n: [(lab, i) for i, lab in enumerate(labs)]
         for n, labs in former.items()}
    return offsets


def _assert_inclusion_positions(model, w, offsets):
    """The positions `cartan_weil_inclusion` reads to send a_i (x) u^E of
    A^n (x) S^m in the model space to a_i (x) u^E of A^n (x) W^2m, from the
    offsets of the model, of W and of A (x) W (`offsets`), equal those the
    former labels gave."""
    r, sp = model.base.algebra.dim, model.base.space
    weil = _former_weil_labels(r, w.sym_cap)
    former_w = {expo: weil[2 * sum(expo)].index(((), expo))
                for m in model.mons for expo in model.mons[m]}
    tensor = {n: {lab: i for i, lab in enumerate(labs)}
              for n, labs in _former_tensor_labels(sp, w.gdiff.space).items()}
    top = max(model.model_space.degrees(), default=0)
    got, expected = {}, {}
    for deg, labs in _former_cartan_labels(sp, model.mons, top).items():
        for col, (n, m, i, j) in enumerate(labs):
            expo = model.mons[m][j]
            expected[deg, col] = tensor[deg][(n, i, 2 * m, former_w[expo])]
            off, _, dim_s = model.offsets[deg][(n, m)]
            w_off = w.offsets[2 * m][(0, m)][0]
            t_off, _, dim_w = offsets[deg][(n, 2 * m)]
            got[deg, off + i * dim_s + j] = (
                t_off + i * dim_w + w_off + list(w.mons[m]).index(expo))
    assert got == expected


@pytest.mark.parametrize("alg", sorted(_REF_ALGEBRAS))
def test_offsets_tile_every_product_space(alg):
    """In every degree of the CE complexes, the Weil algebras (caps 0-3),
    tensor products and Cartan models (caps 0-3, through every degree and
    through degrees 0 and 3), the `core.product_space` offsets are
    contiguous in the order given, zero-size products included, and fill
    the degree; the positions that `weil_universal_map` and
    `cartan_weil_inclusion` read off them are those of the former labels."""
    g = _REF_ALGEBRAS[alg]()
    n = g.dim
    ext = lambda k: bases.ext_basis(n, k)
    complexes, zero = {"gapped": _gapped(g)}, 0
    for rep_name in ("trivial", "sym2", "adjoint"):
        ce = lie.ce_complex(g, _REF_REPS[rep_name](g))
        dim = ce.rep.space_dim
        space, offsets = core.product_space(
            {k: [(k, 0, len(ext(k)), dim)] for k in range(n + 1)})
        assert space == ce.space
        zero += _assert_tiled(space, offsets, {
            k: [(k, 0, len(ext(k)), dim)] for k in range(n + 1)})
        former = _former_ce_labels(n, dim)
        assert _labels_by_offsets(offsets, ext, lambda _: range(dim)) == {
            k: [(idx, a) for a, idx in labs]
            for k, labs in former.items() if labs}
        complexes[rep_name] = gdiff.ce_gdiff(ce)
    weils = {}
    for cap in range(4):
        w = weils[cap] = gdiff.weil_algebra(g, cap)
        parts = {}
        for k in range(n + 1):
            for m in range(cap + 1):
                parts.setdefault(k + 2 * m, []).append(
                    (k, m, len(ext(k)), len(bases.sym_basis(n, m))))
        zero += _assert_tiled(w.gdiff.space, w.offsets, parts)
        assert _labels_by_offsets(w.offsets, ext, w.mons.__getitem__) == \
            _former_weil_labels(n, cap)
    for name, a in complexes.items():
        sp = a.space
        for cap in range(4):
            mons = {m: bases.sym_basis(n, m) for m in range(cap + 1)}
            for top in (3, 0, None):
                model = gdiff.cartan_model(a, cap, top)
                last = (max(sp.degrees(), default=0) + 2 * cap + 1
                        if top is None else top)
                zero += _assert_tiled(model.model_space, model.offsets, {
                    deg: [(deg - 2 * m, m, sp.dim(deg - 2 * m), len(mons[m]))
                          for m in mons if deg - 2 * m in sp.degrees()]
                    for deg in range(last + 1)})
            offsets = _assert_tensor_tiled(a, weils[cap].gdiff)
            # the model through every degree, built last
            _assert_inclusion_positions(model, weils[cap], offsets)
        if name == "gapped":
            _assert_tensor_tiled(weils[2].gdiff, a)
    # zero-size products: S^m of abelian(0) for m > 0
    assert bool(zero) == (alg == "abelian0")


@pytest.mark.parametrize("name", sorted(_tensor_factors()))
def test_offsets_tile_the_tensor_products_of_the_table_cases(name):
    """The tensor products of the product-table test, the negative-degree
    factor among them, are tiled by their offsets as the former labels
    placed them."""
    _assert_tensor_tiled(*_tensor_factors()[name])


def _stacked_invariant_basis(pairs, size):
    """The former invariant basis of a Cartan fine component: `rl.kernel`
    of the operators x (x) 1 + 1 (x) y stacked."""
    stack = [{} for _ in range(len(pairs) * size)]
    for b, (x, y) in enumerate(pairs):
        rl.add_kron(stack, x, rl.identity(len(y)), b * size)
        rl.add_kron(stack, rl.identity(len(x)), y, b * size)
    return rl.kernel(rl.freeze(stack, size))


def _random_square(rng, n, frac):
    """A seeded n x n matrix: strictly upper triangular (nilpotent, so the
    Kronecker sums of two share a kernel) or dense, with int or Fraction
    entries."""
    upper = rng.random() < 0.7
    rows = []
    for i in range(n):
        row = {}
        for j in range(i + 1 if upper else 0, n):
            if rng.random() < 0.5:
                v = rng.randint(-3, 3)
                row[j] = Fraction(v, rng.randint(1, 3)) if frac else v
        rows.append(row)
    return rl.freeze(rows, n)


def _structured_invariance_pairs():
    """(name, pairs (L_b on A^n, L_b on S^m), size) of every fine component
    of the Cartan models of su(2) and the Heisenberg algebra on CE with
    trivial, adjoint and S^2 coefficients, symmetric degrees 0-2."""
    cases = []
    for alg in ("su2", "heisenberg"):
        g = _REF_ALGEBRAS[alg]()
        for rep_name in ("trivial", "adjoint", "sym2"):
            a = gdiff.ce_gdiff(lie.ce_complex(g, _REF_REPS[rep_name](g)))
            for m in range(3):
                mons = bases.sym_basis(g.dim, m)
                for n in a.space.degrees():
                    pairs = [(a.lie_ops[b].block(n),
                              lie.sym_derivation(g.coad(b), mons))
                             for b in range(g.dim)]
                    cases.append(((alg, rep_name, n, m), pairs,
                                  a.space.dim(n) * len(mons)))
    return cases


@pytest.mark.parametrize("sym_cap, through", [(1, 3), (2, 3), (2, 4)])
def test_a_bounded_build_refuses_what_the_full_build_refuses(sym_cap,
                                                            through):
    """A d_G that leaves the invariants first out of degree 3 raises the
    same NotContained in a bounded build, whose exit check reads it in the
    full model space when 3 is the last degree, as in the full build."""
    bad = top_twisted_ce_su2()
    messages = []
    for top in (through, None):
        with pytest.raises(core.NotContained) as exc:
            gdiff.equivariant_cohomology(bad, sym_cap, top)
        messages.append(str(exc.value))
    assert messages == ["the Cartan differential leaves the invariants "
                        "at degree 3"] * 2


def test_invariants_one_operator_at_a_time_match_the_stacked_kernel():
    """The invariant basis of a fine component, cut one operator at a time,
    equals `rl.kernel` of the stacked operators, entry types included: on
    seeded random Kronecker sums with int and Fraction entries (no
    operator, one, and several; size-0 and empty-kernel components among
    them) and on the invariance operators of su(2) and the Heisenberg
    algebra."""
    rng = random.Random(20261019)
    cases = [(("empty kernel",), [(rl.identity(3), rl.zeros(1, 1)),
                                  (rl.zeros(3, 3), rl.zeros(1, 1))], 3),
             (("size 0",), [(rl.zeros(0, 0), rl.zeros(2, 2))] * 2, 0),
             (("no operator",), [], 4)]
    for t in range(300):
        dim_a, dim_s = rng.randint(0, 4), rng.randint(0, 4)
        frac = rng.random() < 0.5
        pairs = [(_random_square(rng, dim_a, frac),
                  _random_square(rng, dim_s, frac))
                 for _ in range(rng.randint(0, 4))]
        cases.append(((t, dim_a, dim_s), pairs, dim_a * dim_s))
    cases += _structured_invariance_pairs()
    seen = set()
    for name, pairs, size in cases:
        got = gdiff._invariant_basis(iter(pairs), size)
        ref = _stacked_invariant_basis(pairs, size)
        assert _stored(got) == _stored(ref), name
        first = _stacked_invariant_basis(pairs[:1], size)
        seen.add((min(len(pairs), 2), size > 0, rl.ncols(ref) > 0,
                  rl.ncols(ref) < rl.ncols(first)))
    # (operators, capped at 2; size > 0; kernel nonzero; a later operator
    # cuts the kernel of the first): each shape of case is met
    assert {(0, True, True, False), (1, True, True, False),
            (2, True, False, False), (2, True, True, True),
            (2, False, False, False)} <= seen
