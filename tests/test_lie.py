from math import comb

import pytest

from equicoh import ratlin as rl
from equicoh.core import anticommutator, cohomology
from equicoh.lie import (CocycleViolation, DualJacobiViolation,
                         FactorizationMismatch, JacobiViolation,
                         RepresentationInvalid, abelian, adjoint_rep,
                         build_bialgebra, build_lie_algebra,
                         build_representation, build_subalgebra, ce_complex,
                         coadjoint_rep, coboundary_bialgebra, heisenberg,
                         invariants, lie_cohomology, relative_subcomplex, sl2,
                         su2, sym_power_rep, sym_range_rep, trivial_rep)


def commutator(a, b):
    return a.compose(b).add(b.compose(a).scale(-1))


def test_jacobi_enforced():
    with pytest.raises(JacobiViolation) as e:
        # [e0,e1]=e0 and [e1,e2]=e1 leave a nonzero cyclic sum
        build_lie_algebra(3, [[0, 1, [[0, 1]]], [1, 2, [[1, 1]]]])
    (triple, defect) = e.value.args[0]
    assert triple == (0, 1, 2)
    assert any(defect)


def test_su2_bracket():
    g = su2()
    assert g.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    assert g.bracket([0, 1, 0], [0, 0, 1]) == [1, 0, 0]
    assert g.bracket([0, 0, 1], [1, 0, 0]) == [0, 1, 0]


def test_representation_validation():
    g = su2()
    adjoint_rep(g)
    coadjoint_rep(g)
    bad = [rl.identity(2)] * 3
    with pytest.raises(RepresentationInvalid):
        build_representation(g, bad, 2)


def test_ce_d_squared_zero_and_cartan_identity():
    for g in (su2(), heisenberg(), sl2()):
        for rep in (trivial_rep(g), adjoint_rep(g), sym_power_rep(g, 2)):
            ce = ce_complex(g, rep)
            d = ce.complex.d
            for b in range(g.dim):
                i_b = ce.contractions[b]
                l_b = ce.lie_ops[b]
                # Cartan: L = d i + i d
                assert anticommutator(d, i_b) == l_b
                # [L, d] = 0
                assert commutator(l_b, d).is_zero()
                # i_b i_b = 0
                assert i_b.compose(i_b).is_zero()


def test_ce_equivariance_bracket_relations():
    g = su2()
    ce = ce_complex(g, adjoint_rep(g))
    basis = rl.identity(3).dense()
    for a in range(3):
        for b in range(3):
            br = g.bracket(basis[a], basis[b])
            # L_[a,b] = [L_a, L_b]
            lhs = None
            for k, coeff in enumerate(br):
                if coeff:
                    t = ce.lie_ops[k].scale(coeff)
                    lhs = t if lhs is None else lhs.add(t)
            rhs = commutator(ce.lie_ops[a], ce.lie_ops[b])
            if lhs is None:
                assert rhs.is_zero()
            else:
                assert lhs == rhs
            # i_[a,b] = [L_a, i_b]
            lhs2 = None
            for k, coeff in enumerate(br):
                if coeff:
                    t = ce.contractions[k].scale(coeff)
                    lhs2 = t if lhs2 is None else lhs2.add(t)
            rhs2 = commutator(ce.lie_ops[a], ce.contractions[b])
            if lhs2 is None:
                assert rhs2.is_zero()
            else:
                assert lhs2 == rhs2


def test_su2_cohomology():
    h = lie_cohomology(su2())
    assert [h.dims.get(n, 0) for n in range(4)] == [1, 0, 0, 1]


def test_heisenberg_cohomology():
    h = lie_cohomology(heisenberg())
    assert [h.dims.get(n, 0) for n in range(4)] == [1, 2, 2, 1]


def test_abelian_cohomology_binomials():
    for n in range(1, 5):
        h = lie_cohomology(abelian(n))
        assert [h.dims.get(k, 0) for k in range(n + 1)] == \
            [comb(n, k) for k in range(n + 1)]


def test_zero_lie_algebra_keeps_the_space_dimension():
    # With no generators there is no operator to read the dimension from.
    g = abelian(0)
    assert lie_cohomology(g).dims == {0: 1}
    assert build_representation(g, [rl.zeros(2, 2)] * g.dim, 2).space_dim == 2


def test_su2_coadjoint_slices_whitehead():
    g = su2()
    for j in range(0, 5):
        rep = sym_power_rep(g, j)
        h = lie_cohomology(g, rep, factorized=True)
        inv = 1 if j % 2 == 0 else 0
        assert [h.dims.get(n, 0) for n in range(4)] == [inv, 0, 0, inv]
        assert h.predicted_dims == {0: inv, 1: 0, 2: 0, 3: inv}


def test_invariants_poly_deg2():
    g = su2()
    rep = sym_range_rep(g, 2)
    inv = invariants(rep)
    # span{1, x^2+y^2+z^2}
    assert inv.dim(0) == 2


def test_relative_su2_circle():
    g = su2()
    k = build_subalgebra(g, [[0, 0, 1]])
    ce = ce_complex(g, trivial_rep(g))
    small, _ = relative_subcomplex(ce, k)
    h = cohomology(small)
    assert [h.dims.get(n, 0) for n in range(4)] == [1, 0, 1, 0]


def test_relative_su2_full():
    g = su2()
    k = build_subalgebra(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ce = ce_complex(g, trivial_rep(g))
    small, _ = relative_subcomplex(ce, k)
    h = cohomology(small)
    assert [h.dims.get(n, 0) for n in range(4)] == [1, 0, 0, 0]


def test_relative_to_a_subalgebra_of_another_algebra_is_refused():
    """The operators of su(2) are not an action of abelian(2), so its
    subalgebra cannot pick from them."""
    line = build_subalgebra(abelian(2), [[1, 0]])
    with pytest.raises(ValueError, match="subalgebra of another algebra"):
        relative_subcomplex(ce_complex(su2()), line)


def test_dependent_generators_are_refused_as_for_a_subalgebra():
    """A repeated or dependent column would count one direction twice; the
    one subalgebra builder refuses it."""
    g = su2()
    assert build_subalgebra(g, [[0, 0, 1]]).algebra.dim == 1
    for cols in ([[1, 0, 0], [1, 0, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
        with pytest.raises(ValueError, match="dependent"):
            build_subalgebra(g, cols)


def test_relative_with_coefficients():
    g = su2()
    k = build_subalgebra(g, [[0, 0, 1]])
    h = lie_cohomology(g, sym_power_rep(g, 2), k=k, factorized=True)
    # H(g,k) (x) V^g = [1,0,1,0] x 1
    assert [h.dims.get(n, 0) for n in range(4)] == [1, 0, 1, 0]


def test_factorization_guard_requires_compact():
    g = heisenberg()
    with pytest.raises(ValueError):
        lie_cohomology(g, factorized=True)


def test_bialgebra_su2_coboundary():
    g = su2()
    bi = coboundary_bialgebra(g, {(0, 1): 1})
    # delta(e2) = 0 for r = e0 ^ e1
    assert bi.delta_of(2) == {}
    dual = bi.dual_algebra()
    assert dual.dim == 3


def test_bialgebra_cocycle_violation():
    g = su2()
    with pytest.raises(CocycleViolation):
        build_bialgebra(g, [[0, [[0, 1, 1]]]])


def test_bialgebra_dual_jacobi_violation():
    # abelian g: cocycle condition is vacuous, dual Jacobi is not
    g = abelian(3)
    with pytest.raises(DualJacobiViolation):
        build_bialgebra(g, [[0, [[0, 1, 1]]], [1, [[1, 2, 1]]]])
