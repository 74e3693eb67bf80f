"""Momentum data and the equivariant side of the Poisson calculus: setup
validation with witnesses, the fiber-tangent subcomplex and the Lie
operators on the contraction kernel, equivariant cohomology with subgroup
restriction, the low-degree descriptions, the contraction-depth spectral
sequence, and the sharp comparison between form and multivector models."""

import dataclasses
from fractions import Fraction

import pytest

from equicoh import gdiff, lie, poisson as po, ratlin as rl
from equicoh.core import CochainComplex, LinearMap, joint_kernel
from equicoh.poly import PolyForm, PolyMultivector


def coord(ambient, j):
    return po.function(ambient, {tuple(1 if t == j else 0
                                       for t in range(ambient)): Fraction(1)})


def su2_momentum(submersive=True):
    g = lie.su2()
    p = po.linear_poisson(g)
    mu = [coord(3, j) for j in range(3)]
    return g, p, po.momentum_setup(p, g, mu=mu, submersive=submersive)


def circle_q2():
    sp = po.symplectic_poisson(1)
    mu = po.function(2, {(2, 0): Fraction(-1, 2), (0, 2): Fraction(-1, 2)})
    return sp, po.momentum_setup(sp, lie.abelian(1), mu=[mu])


def two_plane_torus():
    """The rotations of the two coordinate planes of Q^4."""
    sp = po.symplectic_poisson(2)
    mu = [po.function(4, {(2, 0, 0, 0): Fraction(-1, 2),
                          (0, 2, 0, 0): Fraction(-1, 2)}),
          po.function(4, {(0, 0, 2, 0): Fraction(-1, 2),
                          (0, 0, 0, 2): Fraction(-1, 2)})]
    return po.momentum_setup(sp, lie.abelian(2), mu=mu)


# ---------------------------------------------------------------------------
# Setup and validation


def test_setup_lifts_and_anchors():
    g, p, md = su2_momentum()
    for j in range(3):
        expected = po.exterior_d(coord(3, j)).scale(-1)
        assert md.one_forms[j].sub(expected).is_zero()
        assert md.fields[j].sub(po.pi_sharp(p, md.one_forms[j])).is_zero()


def test_anchor_fields_reverse_brackets_and_preserve_the_structure():
    g, p, md = su2_momentum()
    assert po.schouten(md.fields[0], md.fields[1]).add(md.fields[2]).is_zero()
    for v in md.fields:
        assert po.d_pi(p, v).is_zero()


def test_setup_requires_mu_or_forms():
    sp = po.symplectic_poisson(1)
    with pytest.raises(ValueError):
        po.momentum_setup(sp, lie.abelian(1))


def test_quadratic_components_fail_the_reversal_check():
    g = lie.su2()
    p = po.linear_poisson(g)
    squares = [po.function(3, {tuple(2 if t == j else 0
                                     for t in range(3)): Fraction(1)})
               for j in range(3)]
    with pytest.raises(po.NotAntiHomomorphism) as exc:
        po.momentum_setup(p, g, mu=squares)
    assert "generators (0, 1)" in str(exc.value)


def test_wrong_declared_field_is_caught():
    sp = po.symplectic_poisson(1)
    mu = po.function(2, {(2, 0): Fraction(-1, 2), (0, 2): Fraction(-1, 2)})
    wrong = PolyMultivector(2, 1, {((0,), (0, 0)): Fraction(1)})
    with pytest.raises(po.MomentMismatch) as exc:
        po.momentum_setup(sp, lie.abelian(1), mu=[mu], action_fields=[wrong])
    assert "generator 0" in str(exc.value)


def test_exact_lifts_with_nonzero_cobracket_are_inconsistent():
    g, p, _ = su2_momentum()
    forms = [po.exterior_d(coord(3, j)).scale(-1) for j in range(3)]
    delta = ({(1, 2): Fraction(1)}, {}, {})
    bial = lie.Bialgebra(g, delta)
    with pytest.raises(po.DDeltaViolation) as exc:
        po.momentum_setup(p, g, one_forms=forms, cobracket=bial)
    assert "generator 0" in str(exc.value)


def test_nontrivial_cobracket_needs_explicit_forms():
    g, p, _ = su2_momentum()
    delta = ({(1, 2): Fraction(1)}, {}, {})
    bial = lie.Bialgebra(g, delta)
    with pytest.raises(ValueError):
        po.momentum_setup(p, g, mu=[coord(3, j) for j in range(3)],
                          cobracket=bial)


def poisson_group_q4(sign=1):
    """The abelian plane acting on symplectic Q^4 by the lifts x2 dx0 + dx2
    and dx0, with the cobracket delta(e_0) = sign * e_0 ^ e_1: a Poisson
    action of a Poisson group for sign 1."""
    p = po.symplectic_poisson(2)
    g = lie.abelian(2)
    bial = lie.build_bialgebra(g, [[0, [[0, 1, sign]]]])
    lifts = [PolyForm(4, 1, {((0,), (0, 0, 1, 0)): 1,
                             ((2,), (0, 0, 0, 0)): 1}),
             PolyForm(4, 1, {((0,), (0, 0, 0, 0)): 1})]
    return p, g, bial, lifts


def test_poisson_group_action_is_accepted():
    p, g, bial, lifts = poisson_group_q4()
    md = po.momentum_setup(p, g, one_forms=lifts, cobracket=bial)
    # L_v0 pi = [v0, pi] is the nonzero extension v0 ^ v1, while
    # d_pi(v0) = [pi, v0] is its negative
    lie_derivative = po.schouten(md.fields[0], p.bivector)
    assert not lie_derivative.is_zero()
    assert lie_derivative.sub(po.wedge(md.fields[0], md.fields[1])).is_zero()
    assert lie_derivative.add(po.d_pi(p, md.fields[0])).is_zero()
    assert po.schouten(md.fields[1], p.bivector).is_zero()


def test_negated_anchor_breaks_the_poisson_action(monkeypatch):
    sharp_rows = po._sharp_rows
    monkeypatch.setattr(po, "_sharp_rows",
                        lambda p: tuple(v.scale(-1) for v in sharp_rows(p)))
    p, g, bial, lifts = poisson_group_q4()
    with pytest.raises(po.PoissonActionViolation) as exc:
        po.momentum_setup(p, g, one_forms=lifts, cobracket=bial)
    assert "generator 0" in str(exc.value)


def test_negated_cobracket_breaks_the_lifts():
    p, g, bial, lifts = poisson_group_q4(-1)
    with pytest.raises(po.DDeltaViolation) as exc:
        po.momentum_setup(p, g, one_forms=lifts, cobracket=bial)
    assert "generator 0" in str(exc.value)


# ---------------------------------------------------------------------------
# The induced G-differential structure


def test_momentum_gdiff_slice_dims_and_axioms():
    _, _, md = su2_momentum()
    c, model = po.momentum_gdiff(md, slice_degree=2)
    assert [model.space.dim(q) for q in range(4)] == [6, 18, 18, 6]
    rep = gdiff.check_gdiff_axioms(c)
    assert rep.ok


def test_momentum_gdiff_contractions_negate_the_lifts():
    _, p, md = su2_momentum()
    c, model = po.momentum_gdiff(md, slice_degree=1)
    w = model.element(1, 0)
    expected = po.contract(md.one_forms[0].scale(-1), w)
    col = model.index[(1, model.basis[1][0])]
    column = c.contractions[0].block(1).cols[col]
    assert dict(column) == model.to_vector(expected)


# ---------------------------------------------------------------------------
# Fiber-tangent subcomplex


def test_tangent_space_on_even_slices_is_the_casimir_line():
    _, _, md = su2_momentum()
    for s, expected in [(0, (1,)), (2, (1, 0, 0, 0)), (3, (0, 0, 0, 0))]:
        rep = po.mu_tangent_complex(md, *po.momentum_gdiff(md, slice_degree=s))
        assert rep.dims[:len(expected)] == expected
        assert rep.cohomology_dims[:len(expected)] == expected


def test_zero_action_makes_everything_tangent():
    sp = po.symplectic_poisson(1)
    md = po.momentum_setup(sp, lie.abelian(1), mu=[po.function(2, {})])
    rep = po.mu_tangent_complex(md, *po.momentum_gdiff(md, slice_degree=2))
    model = po.poisson_complex(sp, slice_degree=2)
    assert rep.dims == tuple(model.space.dim(q) for q in range(3))


@pytest.mark.parametrize("momentum, s, horizontal, tangent", [
    (lambda: su2_momentum()[2], 2, {0: 6}, (1, 0, 0, 0)),
    (lambda: circle_q2()[1], 3, {0: 4, 1: 2}, (0, 0, 0))],
    ids=["su2-slice-2", "circle-slice-3"])
def test_lie_operators_are_minus_the_field_derivatives_when_horizontal(
        momentum, s, horizontal, tangent):
    """`mu_tangent_complex` raises unless each Lie operator is minus the Lie
    derivative along its action field on the horizontal multivectors; here
    they are not all invariant, so the identity compares nonzero columns."""
    md = momentum()
    c, model = po.momentum_gdiff(md, slice_degree=s)
    assert joint_kernel(model.space, c.contractions).dims() == horizontal
    assert po.mu_tangent_complex(md, c, model).dims == tangent


# ---------------------------------------------------------------------------
# Equivariant cohomology and subgroup restriction


def test_equivariant_dims_match_invariants_in_degree_zero():
    _, _, md = su2_momentum()
    for s in range(5):
        rep = po.equivariant_poisson_cohomology(md, sym_cap=2, slice_degree=s)
        inv = 1 if s % 2 == 0 else 0
        assert rep.cohomology.dim(0) == inv
        assert rep.invariant_function_dim == inv
        for n in range(1, rep.cohomology.band + 1):
            assert rep.cohomology.dim(n) == 0


def test_circle_restriction_factorizes():
    g, _, md = su2_momentum()
    circle = lie.build_subalgebra(g, [[0, 0, 1]])
    for s in range(4):
        rep = po.equivariant_poisson_cohomology(md, sym_cap=2, slice_degree=s,
                                                sub=circle)
        inv = 1 if s % 2 == 0 else 0
        dims = [rep.cohomology.dim(n) for n in range(4)]
        assert dims == [inv, 0, inv, 0]


def test_subalgebra_of_another_algebra_is_refused():
    _, _, md = su2_momentum()
    line = lie.build_subalgebra(lie.abelian(3), [[0, 0, 1]])
    with pytest.raises(ValueError, match="subalgebra of another algebra"):
        po.momentum_gdiff(md, slice_degree=1, sub=line)


def test_low_degree_sides_agree():
    _, _, md = su2_momentum()
    for s in [0, 2, 3]:
        out = po.poisson_low_degree(md, slice_degree=s)
        assert out["h1_lie_vanishes"] is True
        assert out["h0_model"] == out["h0_direct"]
        assert out["h1_model"] == out["h1_direct"]


def test_low_degree_sides_agree_for_the_circle_action():
    _, md = circle_q2()
    for s in [0, 1, 2]:
        out = po.poisson_low_degree(md, slice_degree=s)
        assert out["h0_model"] == out["h0_direct"]
        assert out["h1_model"] == out["h1_direct"]


# ---------------------------------------------------------------------------
# The contraction-depth spectral sequence


def test_momentum_spectral_sequence_collapses_for_the_dual_slices():
    _, _, md = su2_momentum()
    ss = po.momentum_spectral_sequence(md, slice_degree=2)
    assert ss.e1_matches is True
    assert ss.e2_matches is True
    cells1 = {k: v for k, v in ss.pages[1].cells.items() if v}
    assert cells1 == {(0, 0): 1, (0, 3): 1}
    assert ss.predicted_e1 == cells1
    assert ss.predicted_e2 == cells1
    data = ss.to_json()
    assert data["first_differential_page"] == 0
    assert data["e1_matches"] is True


def test_circle_spectral_sequence_reports_no_predictions():
    _, md = circle_q2()
    ss = po.momentum_spectral_sequence(md, slice_degree=2)
    assert ss.predicted_e1 is None and ss.e1_matches is None
    # antidiagonal limits agree with the direct slice cohomology
    model = po.poisson_complex(po.symplectic_poisson(1), slice_degree=2)
    from equicoh.core import cohomology
    h = cohomology(model.complex)
    final = ss.pages[-1]
    for n in range(3):
        assert final.antidiagonal(n) == h.dim(n)


# ---------------------------------------------------------------------------
# Form models and the sharp comparison


def test_de_rham_model_needs_linear_fields():
    quad = PolyMultivector(2, 1, {((1,), (2, 0)): Fraction(1)})
    with pytest.raises(po.UnsupportedRegime):
        po.de_rham_gdiff(lie.abelian(1), [quad], slice_degree=2)


def test_de_rham_model_needs_one_field_per_generator():
    rot = PolyMultivector(2, 1, {((1,), (1, 0)): Fraction(1),
                                 ((0,), (0, 1)): Fraction(-1)})
    with pytest.raises(po.MomentMismatch):
        po.de_rham_gdiff(lie.abelian(2), [rot], slice_degree=2)


def test_de_rham_model_axioms_and_dims():
    rot = PolyMultivector(2, 1, {((1,), (1, 0)): Fraction(1),
                                 ((0,), (0, 1)): Fraction(-1)})
    c, model = po.de_rham_gdiff(lie.abelian(1), [rot], slice_degree=2)
    assert [model.space.dim(q) for q in range(3)] == [3, 4, 1]
    rep = gdiff.check_gdiff_axioms(c)
    assert rep.ok


def test_sharp_intertwines_the_circle_models():
    _, md = circle_q2()
    for s in range(4):
        rep = po.sharp_comparison(md, slice_degree=s, sym_cap=2)
        assert rep["d_intertwines"] is True
        assert rep["contraction_intertwines"] is True
        assert rep["invertible"] is True
        assert rep["tangent_matches_basic_image"] is True
        assert rep["equivariant_dims_agree"] is True
        if s > 0:
            assert rep["d_sign"] == -1


def test_sharp_comparison_torus_on_four_coordinates():
    rep = po.sharp_comparison(two_plane_torus(), slice_degree=2, sym_cap=1)
    assert rep["d_intertwines"] and rep["contraction_intertwines"]
    assert rep["invertible"] and rep["tangent_matches_basic_image"]
    assert rep["equivariant_dims_agree"] is True


def _mutated_momentum_gdiff(monkeypatch, mutate):
    """Make `momentum_gdiff` hand out mutate(c) in place of c."""
    real = po.momentum_gdiff

    def mutated(*args, **kwargs):
        c, model = real(*args, **kwargs)
        return mutate(c), model
    monkeypatch.setattr(po, "momentum_gdiff", mutated)


def _scaled_d(scales):
    """The multivector differential with its k-th stored block times
    scales[k]."""
    def mutate(c):
        d = LinearMap.from_blocks(c.space, c.space, 1, {
            n: rl.mat_scale(m, k) for (n, m), k in zip(c.d.blocks, scales)})
        return dataclasses.replace(c, complex=CochainComplex(c.space, d))
    return mutate


# On the two-plane torus, slice 2, d_x has two blocks and phi d_o = -d_x phi.
@pytest.mark.parametrize("scales, d_sign, d_intertwines", [
    ((-1, -1), 1, True),
    # the sign d_sign holds in the first degree, and both fail in the second
    ((1, -1), -1, False),
    ((-1, 1), 1, False),
    ((1, 0), -1, False),
    # both signs fail in the first degree
    ((2, 1), None, False),
    ((0, 1), None, False)])
def test_sharp_comparison_sees_a_scaled_differential(
        monkeypatch, scales, d_sign, d_intertwines):
    md = two_plane_torus()
    _mutated_momentum_gdiff(monkeypatch, _scaled_d(scales))
    rep = po.sharp_comparison(md, slice_degree=2)
    assert rep["d_sign"] == d_sign
    assert rep["d_intertwines"] is d_intertwines
    assert rep["contraction_intertwines"] is True


def test_sharp_comparison_sees_a_perturbed_contraction(monkeypatch):
    def mutate(c):
        (n, m), *rest = c.contractions[1].blocks
        bumped = m.dense()
        bumped[0][0] += 1
        i_1 = LinearMap.from_blocks(c.space, c.space, -1,
                                    {**dict(rest), n: bumped})
        return dataclasses.replace(
            c, contractions=(c.contractions[0], i_1))
    md = two_plane_torus()
    _mutated_momentum_gdiff(monkeypatch, mutate)
    rep = po.sharp_comparison(md, slice_degree=2)
    assert rep["contraction_intertwines"] is False
    assert rep["d_sign"] == -1 and rep["d_intertwines"] is True


def test_each_call_builds_its_momentum_complex_once(monkeypatch):
    calls = []
    build = po.momentum_gdiff

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(po, "momentum_gdiff", counted)
    po.sharp_comparison(circle_q2()[1], slice_degree=2)
    assert len(calls) == 1
    calls.clear()
    ss = po.momentum_spectral_sequence(su2_momentum()[2], slice_degree=1)
    assert ss.e1_matches is not None   # the fiber-tangent prediction ran
    assert len(calls) == 1


def test_circle_equivariant_slice_zero_is_polynomial_in_the_generator():
    _, md = circle_q2()
    rep = po.equivariant_poisson_cohomology(md, sym_cap=2, slice_degree=0)
    assert [rep.cohomology.dim(n) for n in range(5)] == [1, 0, 1, 0, 1]
