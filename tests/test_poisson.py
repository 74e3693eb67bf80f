"""Polynomial Poisson calculus: the odd bracket on multivector fields,
certification of structures, the differential and the anchor map, the
bracket calculus on functions and one-forms, the identity suite with its
convention-flip regression fixtures, truncated cohomology in every
coefficient regime, and the sampled product-line models."""

import hashlib
import json
import random
from fractions import Fraction
from functools import reduce

import pytest

from equicoh import lie, poisson as po, poly, spectral
from equicoh.poly import PolyForm, PolyMultivector


def mono(ambient, exps, coeff=1):
    return po.function(ambient, {tuple(exps): Fraction(coeff)})


def field(ambient, i, exps=None, coeff=1):
    e = tuple(exps) if exps is not None else (0,) * ambient
    return PolyMultivector(ambient, 1, {((i,), e): Fraction(coeff)})


# ---------------------------------------------------------------------------
# The odd bracket


def test_bracket_of_constant_bivector_with_constant_field_vanishes():
    a = PolyMultivector(2, 2, {((0, 1), (0, 0)): Fraction(1)})
    b = field(2, 0)
    assert po.schouten(a, b).is_zero()


def test_bracket_of_two_linear_fields_is_their_commutator():
    # [x d1, y d0] = x d0 - y d1
    a = field(2, 1, (1, 0))
    b = field(2, 0, (0, 1))
    expected = field(2, 0, (1, 0)).add(field(2, 1, (0, 1), -1))
    assert po.schouten(a, b).sub(expected).is_zero()


def test_bracket_on_functions_has_no_output():
    f = mono(2, (2, 0))
    g = mono(2, (1, 1))
    assert po.schouten(f, g).is_zero()


def test_bracket_graded_antisymmetry_on_fixed_inputs():
    a = PolyMultivector(3, 2, {((0, 1), (0, 0, 1)): Fraction(1)})
    b = field(3, 2, (1, 0, 0))
    # [a, b] = -(-1)^((2-1)(1-1)) [b, a] = -[b, a]
    assert po.schouten(a, b).add(po.schouten(b, a)).is_zero()


def test_jacobiator_vanishes_on_fields():
    a = field(2, 0, (1, 1))
    b = field(2, 1, (2, 0))
    c = field(2, 0, (0, 1))
    assert po.schouten_jacobiator(a, b, c).is_zero()


# ---------------------------------------------------------------------------
# Structures and certification


def test_cyclic_linear_bivector_is_certified():
    # z d0^d1 + x d1^d2 + y d2^d0, written on the ordered index pairs
    w = PolyMultivector(3, 2, {
        ((0, 1), (0, 0, 1)): Fraction(1),
        ((1, 2), (1, 0, 0)): Fraction(1),
        ((0, 2), (0, 1, 0)): Fraction(-1),
    })
    p = po.poisson_structure(w)
    assert p.certified
    assert p.regime == "linear"
    assert p.jacobiator.is_zero()


def test_cyclic_bivector_equals_the_su2_linear_structure():
    w = PolyMultivector(3, 2, {
        ((0, 1), (0, 0, 1)): Fraction(1),
        ((1, 2), (1, 0, 0)): Fraction(1),
        ((0, 2), (0, 1, 0)): Fraction(-1),
    })
    assert po.linear_poisson(lie.su2()).bivector.sub(w).is_zero()


def test_linear_structure_remembers_its_algebra():
    g = lie.su2()
    assert po.linear_poisson(g).algebra is g
    assert po.symplectic_poisson(1).algebra is None


def test_non_jacobi_bivector_is_rejected():
    w = PolyMultivector(3, 2, {
        ((0, 1), (1, 0, 0)): Fraction(1),
        ((1, 2), (0, 1, 0)): Fraction(1),
    })
    p = po.poisson_structure(w)
    assert not p.certified
    assert not p.jacobiator.is_zero()
    with pytest.raises(po.UncertifiedPoisson):
        po.d_pi(p, field(3, 0))
    with pytest.raises(po.UncertifiedPoisson):
        po.poisson_complex(p, truncation=2)


def test_regime_detection():
    assert po.zero_poisson(3).regime == "constant"
    assert po.symplectic_poisson(2).regime == "constant"
    assert po.linear_poisson(lie.su2()).regime == "linear"
    quad = po.poisson_structure(PolyMultivector(
        2, 2, {((0, 1), (2, 0)): Fraction(1)}))
    assert quad.regime == "general-no-constant"
    mixed = po.poisson_structure(PolyMultivector(
        2, 2, {((0, 1), (0, 0)): Fraction(1), ((0, 1), (2, 0)): Fraction(1)}))
    assert mixed.regime == "general"


def test_diagonal_entry_rejected():
    with pytest.raises(ValueError):
        po.constant_poisson(2, {(1, 1): 1})


# ---------------------------------------------------------------------------
# Differential and anchor


def test_differential_of_coordinate_is_constant_field_up_to_sign():
    sp = po.symplectic_poisson(1)
    w = po.d_pi(sp, mono(2, (1, 0)))
    e1 = field(2, 1)
    assert w.sub(e1).is_zero() or w.add(e1).is_zero()


def test_differential_squares_to_zero_on_samples():
    p = po.linear_poisson(lie.su2())
    for w in [mono(3, (2, 0, 1)), field(3, 0, (0, 2, 0)),
              PolyMultivector(3, 2, {((1, 2), (1, 1, 0)): Fraction(1)})]:
        assert po.d_pi(p, po.d_pi(p, w)).is_zero()


def test_differential_preserves_coefficient_slices_for_linear_structures():
    p = po.linear_poisson(lie.su2())
    w = field(3, 1, (0, 2, 0))  # coefficient degree 2
    out = po.d_pi(p, w)
    assert {sum(e) for (_, e), _ in out.coeffs} <= {2}


def test_sharp_on_basis_forms():
    sp = po.symplectic_poisson(1)
    assert po.pi_sharp(sp, po.basis_form(2, 0)).sub(field(2, 1)).is_zero()
    assert po.pi_sharp(sp, po.basis_form(2, 1)).add(field(2, 0)).is_zero()


def test_sharp_is_multiplicative_over_functions():
    sp = po.symplectic_poisson(1)
    beta = PolyForm(2, 1, {((0,), (1, 1)): Fraction(3)})  # 3 x y dx
    expected = PolyMultivector(2, 1, {((1,), (1, 1)): Fraction(3)})
    assert po.pi_sharp(sp, beta).sub(expected).is_zero()


def test_sharp_on_wedge_of_basis_forms():
    sp = po.symplectic_poisson(1)
    beta = PolyForm(2, 2, {((0, 1), (0, 0)): Fraction(1)})  # dx ^ dy
    expected = PolyMultivector(2, 2, {((0, 1), (0, 0)): Fraction(1)})
    # sharp(dx) ^ sharp(dy) = e1 ^ (-e0) = e0 ^ e1
    assert po.pi_sharp(sp, beta).sub(expected).is_zero()


# ---------------------------------------------------------------------------
# Brackets of functions and one-forms


def test_function_bracket_symplectic():
    sp = po.symplectic_poisson(1)
    out = po.poisson_bracket(sp, mono(2, (1, 0)), mono(2, (0, 1)))
    assert out.sub(mono(2, (0, 0))).is_zero()


def test_function_bracket_su2_cyclic():
    p = po.linear_poisson(lie.su2())
    out = po.poisson_bracket(p, mono(3, (1, 0, 0)), mono(3, (0, 1, 0)))
    assert out.sub(mono(3, (0, 0, 1))).is_zero()


def test_function_bracket_jacobi():
    p = po.linear_poisson(lie.su2())
    f, g, h = mono(3, (1, 0, 1)), mono(3, (0, 2, 0)), mono(3, (1, 1, 0))
    acc = po.poisson_bracket(p, f, po.poisson_bracket(p, g, h))
    acc = acc.add(po.poisson_bracket(p, g, po.poisson_bracket(p, h, f)))
    acc = acc.add(po.poisson_bracket(p, h, po.poisson_bracket(p, f, g)))
    assert acc.is_zero()


def test_coordinate_differentials_commute_for_constant_structures():
    sp = po.symplectic_poisson(1)
    out = po.form_bracket(sp, po.basis_form(2, 0), po.basis_form(2, 1))
    assert out.is_zero()


def test_form_bracket_of_exact_forms_is_exact():
    sp = po.symplectic_poisson(1)
    f, g = mono(2, (2, 0)), mono(2, (1, 1))
    lhs = po.form_bracket(sp, po.exterior_d(po.as_form(f)),
                          po.exterior_d(po.as_form(g)))
    rhs = po.exterior_d(po.as_form(po.poisson_bracket(sp, f, g)))
    assert lhs.sub(rhs).is_zero()


def test_form_bracket_jacobi_su2():
    p = po.linear_poisson(lie.su2())
    al = PolyForm(3, 1, {((0,), (0, 1, 0)): Fraction(1)})
    be = PolyForm(3, 1, {((1,), (0, 0, 1)): Fraction(1)})
    ga = PolyForm(3, 1, {((2,), (1, 0, 0)): Fraction(2)})
    acc = po.form_bracket(p, al, po.form_bracket(p, be, ga))
    acc = acc.add(po.form_bracket(p, be, po.form_bracket(p, ga, al)))
    acc = acc.add(po.form_bracket(p, ga, po.form_bracket(p, al, be)))
    assert acc.is_zero()


def test_the_form_calculus_refuses_mismatched_inputs():
    """The form bracket, the module action on forms, the anchor and the
    anchor fold of tensors refuse inputs of another ambient, in any
    position, and the form bracket refuses multivectors: the streams of
    terms behind them would not fail on their own."""
    structures = {2: po.symplectic_poisson(1), 3: po.linear_poisson(lie.su2())}

    def form(n, degree):
        return PolyForm(n, degree, {(tuple(range(degree)), (1,) * n): 2})

    for np, na, nb in [(3, 2, 3), (3, 3, 2), (2, 3, 3), (2, 2, 3),
                       (2, 3, 2), (3, 2, 2)]:
        with pytest.raises(po.AmbientMismatch):
            po.form_bracket(structures[np], form(na, 1), form(nb, 1))
    p = structures[3]
    for alpha, beta in [(field(3, 0), form(3, 1)), (form(3, 1), field(3, 1)),
                        (field(3, 0), field(3, 1))]:
        with pytest.raises(TypeError):
            po.form_bracket(p, alpha, beta)
    for degree in range(3):
        with pytest.raises(po.AmbientMismatch):
            po.form_lie_derivative(p, form(2, 1), form(3, degree))
        with pytest.raises(po.AmbientMismatch):
            po.form_lie_derivative(p, form(3, 1), form(2, degree))
        with pytest.raises(po.AmbientMismatch):
            po.pi_sharp(p, form(2, degree))
    # dx_0 (x) e_1 with exponents of ambient 3, folded at each ambient, and
    # with exponents of ambient 2 folded at ambient 3; index tuples out of
    # the ambient or out of order
    for ambient, key in [(2, ((0,), (1,), (1, 0, 0))),
                         (3, ((0,), (1,), (1, 0, 0))),
                         (3, ((0,), (1,), (1, 0))), (2, ((5,), (1,), (1, 0))),
                         (2, ((0,), (5,), (1, 0)))]:
        with pytest.raises(po.AmbientMismatch):
            po.sharp_tensor_fold(structures[2], {key: 1}, ambient, 2)
    with pytest.raises(ValueError):
        po.sharp_tensor_fold(structures[2], {((1, 0), (), (0, 0)): 1}, 2, 2)


# ---------------------------------------------------------------------------
# Lie derivatives


def test_derivative_along_exact_form_is_the_function_bracket():
    sp = po.symplectic_poisson(1)
    f, g = mono(2, (2, 0)), mono(2, (1, 1))
    out = po.lie_derivative_form(sp, po.exterior_d(po.as_form(f)), g)
    assert out.sub(po.poisson_bracket(sp, f, g)).is_zero()


def test_derivative_along_closed_form_is_geometric():
    p = po.linear_poisson(lie.su2())
    al = po.exterior_d(po.as_form(mono(3, (1, 1, 0))))  # exact, hence closed
    w = PolyMultivector(3, 2, {((0, 2), (0, 1, 0)): Fraction(1)})
    lhs = po.lie_derivative_form(p, al, w)
    rhs = po.schouten(po.pi_sharp(p, al), w)
    assert lhs.sub(rhs).is_zero()


def test_zero_structure_kills_every_derivative():
    z = po.zero_poisson(2)
    al = PolyForm(2, 1, {((0,), (1, 0)): Fraction(1)})
    w = PolyMultivector(2, 2, {((0, 1), (1, 1)): Fraction(1)})
    assert po.lie_derivative_form(z, al, w).is_zero()
    assert po.d_pi(z, w).is_zero()
    assert po.pi_sharp(z, al).is_zero()


def test_spec_name_is_the_multivector_derivative():
    assert po.lie_derivative_form is po.lie_derivative_multivector


# ---------------------------------------------------------------------------
# Identity suite


def test_identity_names_are_stable():
    names = po.identity_names()
    assert len(names) == 18
    for needed in ["schouten-jacobi", "schouten-leibniz", "cartan-module-law",
                   "slot-contraction", "slot-wedge", "dual",
                   "sharp-intertwines", "module-leibniz",
                   "lie-derivative-variants", "sharp-differential"]:
        assert needed in names


def test_identity_suite_passes_on_three_structures():
    for p in [po.zero_poisson(3), po.symplectic_poisson(1),
              po.linear_poisson(lie.su2())]:
        rep = po.verify_all(p, samples=8, seed=3)
        bad = [n for n, r in rep.items() if not r.ok]
        assert bad == [], f"{p.regime}: {bad}"


def test_unknown_identity_is_rejected():
    with pytest.raises(po.UnknownIdentity):
        po.verify_identity(po.zero_poisson(2), "no-such-identity")


def test_identity_report_serializes():
    r = po.verify_identity(po.symplectic_poisson(1), "dual", samples=4, seed=0)
    data = r.to_json()
    assert data["identity"] == "dual"
    assert data["ok"] is True
    assert data["checked"] == 4


_star, _sharp_rows, _d_pi = po._star, po._sharp_rows, po.d_pi

#: Each shipped sign convention, by name, with the function that carries it
#: and that function with the convention flipped.
_FLIPS = {
    # the left odd derivative in the graded bracket
    "_STAR_LEFT": ("_star", lambda a, b: po._derivatives(
        po._slots(a, from_tail=False), b)),
    # the transposed anchor on one-forms
    "_SHARP_TRANSPOSE": ("_sharp_rows", lambda p: tuple(
        v.scale(-1) for v in _sharp_rows(p))),
    # d(w) = -[pi, w]
    "_DIFF_NEGATE": ("d_pi", lambda p, w: _d_pi(p, w).scale(-1)),
}


def _flip(monkeypatch, knob):
    monkeypatch.setattr(po, *_FLIPS[knob])


@pytest.mark.parametrize("knob", list(_FLIPS))
def test_convention_flips_break_the_module_law(monkeypatch, knob):
    """Each sign convention is pinned by the suite: flipping any one of the
    three internal choices makes the module law fail with explicit
    witnesses on both model structures."""
    _flip(monkeypatch, knob)
    for build in [lambda: po.symplectic_poisson(1),
                  lambda: po.linear_poisson(lie.su2())]:
        p = build()  # re-certify under the flipped convention
        rep = po.verify_identity(p, "cartan-module-law", samples=12, seed=1)
        assert not rep.ok
        assert rep.witnesses
        assert "difference" in rep.witnesses[0]
        assert "inputs" in rep.witnesses[0]


def test_anchor_is_built_once_per_structure_and_only_when_read(monkeypatch):
    """The anchor rows and the wedges of rows that pi_sharp reads are built
    on first use and kept per structure, not per bivector: a structure that
    compares equal still builds its own."""
    built = []
    rows = po._sharp_rows
    monkeypatch.setattr(po, "_sharp_rows",
                        lambda p: built.append(p) or rows(p))
    p = po.linear_poisson(lie.su2())
    po.d_pi(p, field(3, 0, (1, 0, 0)))
    assert po.pi_sharp(p, po.as_form(mono(3, (1, 0, 2), 5))) == \
        mono(3, (1, 0, 2), 5)
    assert built == []
    assert "anchor_wedges" not in vars(p)
    po.verify_all(p, samples=2, seed=0)
    assert "anchor_wedges" in vars(p)
    again = po.linear_poisson(lie.su2())
    po.pi_sharp(again, PolyForm(3, 1, {((0,), (0, 0, 1)): Fraction(1)}))
    assert [id(q) for q in built] == [id(p), id(again)]
    assert again == p
    assert set(again.anchor_wedges) == {(0,)}
    # A two-form adds the wedge over (0, 1); a second read reuses it.
    two = PolyForm(3, 2, {((0, 1), (0, 1, 0)): Fraction(1, 2)})
    first = po.pi_sharp(again, two)
    kept = dict(again.anchor_wedges)
    assert set(kept) == {(0,), (0, 1)}
    assert po.pi_sharp(again, two) == first
    assert all(again.anchor_wedges[s] is w for s, w in kept.items())
    assert len(built) == 2
    # A structure built under the transposed anchor, equal to `again` as a
    # value, reads its own rows and wedges.
    with monkeypatch.context() as m:
        _flip(m, "_SHARP_TRANSPOSE")
        flipped = po.linear_poisson(lie.su2())
        assert flipped == again
        assert po.pi_sharp(flipped, two) == first
        one = PolyForm(3, 1, {((0,), (0, 0, 0)): Fraction(1)})
        assert po.pi_sharp(flipped, one) == po.pi_sharp(again, one).scale(-1)
    assert flipped.anchor_wedges is not again.anchor_wedges
    assert flipped.anchor_wedges[(0,)] == kept[(0,)].scale(-1)
    assert flipped.anchor_wedges[(0, 1)] == kept[(0, 1)]


#: SHA-256 of the full `verify_all` JSON (samples 12, seed 1) on the three
#: structures of `_FLIP_STRUCTURES` under each flipped convention: every
#: witness string, its terms' order included, is pinned.
_FLIP_DIGESTS = {
    "_STAR_LEFT":
        "41e3e9605478dbb1e2d9458e6ecc99b2cf25d12f679507ff7bd0c706fcd6b5a6",
    "_SHARP_TRANSPOSE":
        "8d5e666bee92cdeb7dfb3433f1be9f3ad78ac85fe4fc058ab6b1cef1fa3166ad",
    "_DIFF_NEGATE":
        "8134b6c4f290685c44966da21ebe11db09f0dfb61c8bee3b490d4f296b8068a4",
}
_FLIP_STRUCTURES = [("symplectic-1", lambda: po.symplectic_poisson(1)),
                    ("symplectic-2", lambda: po.symplectic_poisson(2)),
                    ("su2-dual", lambda: po.linear_poisson(lie.su2()))]


def test_convention_flips_break_many_identities(monkeypatch):
    _flip(monkeypatch, "_SHARP_TRANSPOSE")
    p = po.symplectic_poisson(1)
    rep = po.verify_all(p, samples=12, seed=1)
    bad = [n for n, r in rep.items() if not r.ok]
    assert len(bad) >= 7
    monkeypatch.undo()
    for knob, digest in _FLIP_DIGESTS.items():
        with monkeypatch.context() as m:
            _flip(m, knob)
            report = {name: [r.to_json() for r in
                             po.verify_all(build(), samples=12,
                                           seed=1).values()]
                      for name, build in _FLIP_STRUCTURES}
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, knob


def test_a_tensor_witness_prints_its_coefficients_as_fractions(monkeypatch):
    """A failing slot-wedge identity prints its tensor difference by repr
    with every coefficient a Fraction, integral ones included; the report's
    bytes are pinned."""
    lwedge = po.tensor_lwedge
    monkeypatch.setattr(po, "tensor_lwedge",
                        lambda a, t: po.tensor_scale(lwedge(a, t), 2))
    rep = po.verify_identity(po.linear_poisson(lie.su2()), "slot-wedge",
                             samples=12, seed=1).to_json()
    assert not rep["ok"]
    assert "Fraction(27, 1)" in rep["witnesses"][0]["difference"]
    text = json.dumps(rep, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e63f363dfd15f66330cdd5004b395925d88dd42d3d9145630ea429d6e0294a2f")


# ---------------------------------------------------------------------------
# The composite operations against their former compositions
#
# pi_sharp keeps one wedge of anchor rows per index tuple, the form Lie
# derivative brackets with the dx_i its argument has, and `sub` and the
# one-form bracket hand all their terms to one constructor.  The references
# below compose them from whole objects, one operation at a time: the
# anchor rows read from `_sharp_rows` on every call (so the flips act on
# them) and wedged one by one onto each term, the bracket taken with every
# coordinate differential, and every sum made of `.add` and `.scale(-1)`.


def _ref_sub(x, y):
    return x.add(y.scale(-1))


def _ref_pi_sharp(p, alpha):
    if alpha.degree == 0:
        return PolyMultivector(alpha.ambient, 0, alpha.coeffs)
    rows = po._sharp_rows(p)
    total = po.zero_multivector(p.ambient, alpha.degree)
    for (s, e), c in alpha.coeffs:
        total = total.add(reduce(po.wedge, (rows[j] for j in s),
                                 PolyMultivector(p.ambient, 0, {((), e): c})))
    return total


def _ref_form_bracket(p, alpha, beta):
    lead = po.exterior_d(po.pairing(po.wedge(alpha, beta), p.bivector))
    mid = po.contract_form(_ref_pi_sharp(p, alpha), po.exterior_d(beta))
    tail = po.contract_form(_ref_pi_sharp(p, beta), po.exterior_d(alpha))
    return _ref_sub(lead.add(mid), tail)


def _ref_form_lie_derivative(p, alpha, beta):
    n = beta.ambient
    xi = _ref_pi_sharp(p, alpha)
    if beta.degree == 0:
        return po.as_form(po.apply_vector_field(
            xi, PolyMultivector(n, 0, beta.coeffs)))
    gen = [_ref_form_bracket(p, alpha, po.basis_form(n, i)) for i in range(n)]
    zero = (0,) * n
    total = po.zero_form(n, beta.degree)
    for (s, e), c in beta.coeffs:
        f = PolyMultivector(n, 0, {((), e): c})
        total = total.add(po.wedge(
            po.as_form(po.apply_vector_field(xi, f)),
            PolyForm(n, beta.degree, {(s, zero): 1})))
        for t in range(len(s)):
            left = PolyForm(n, t, {(s[:t], zero): 1})
            right = PolyForm(n, len(s) - t - 1, {(s[t + 1:], zero): 1})
            piece = po.wedge(po.wedge(left, gen[s[t]]), right)
            total = total.add(po.wedge(po.as_form(f), piece))
    return total


def _ref_sharp_tensor_fold(p, t, ambient, mv_degree):
    zero = (0,) * ambient
    total = po.zero_multivector(ambient, mv_degree)
    for (fi, mi, e), c in t.items():
        total = total.add(po.wedge(
            _ref_pi_sharp(p, PolyForm(ambient, len(fi), {(fi, e): c})),
            PolyMultivector(ambient, len(mi), {(mi, zero): 1})))
    return total


def _draw(kind, rng, n, degree, terms=3):
    """A seeded object with int and non-integral Fraction coefficients and
    exponents up to 2 on each axis; keys may repeat."""
    return kind(n, degree, [
        ((tuple(sorted(rng.sample(range(n), degree))),
          tuple(rng.randrange(3) for _ in range(n))),
         rng.choice([-3, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]))
        for _ in range(terms)])


def _same(got, ref):
    """Equal objects, coefficient by coefficient and type by type."""
    assert type(got) is type(ref)
    assert (got.ambient, got.degree) == (ref.ambient, ref.degree)
    assert got.coeffs == ref.coeffs
    assert [type(c) for _, c in got.coeffs] == [type(c) for _, c in ref.coeffs]


#: The structures of the poisson-identities bench workload, and a certified
#: bivector with quadratic and cubic coefficients (pi = g e_0 ^ e_1 on Q^3
#: satisfies Jacobi for every g).
_CALCULUS_STRUCTURES = [
    ("linear-su2", lambda: po.linear_poisson(lie.su2())),
    ("linear-heisenberg", lambda: po.linear_poisson(lie.heisenberg())),
    ("symplectic-2", lambda: po.symplectic_poisson(2)),
    ("symplectic-3", lambda: po.symplectic_poisson(3)),
    ("non-linear", lambda: po.poisson_structure(PolyMultivector(3, 2, {
        ((0, 1), (2, 0, 1)): 1, ((0, 1), (0, 0, 2)): Fraction(1, 2)}))),
]


@pytest.mark.parametrize("knob", [None] + list(_FLIPS))
def test_composite_operations_match_their_former_compositions(monkeypatch,
                                                              knob):
    """pi_sharp, form_bracket, form_lie_derivative, sharp_tensor_fold (on
    form parts of degree 1 and 0) and `sub` give the coefficients, and
    coefficient types, of the references above, on every calculus
    structure, under the shipped conventions and under each flip.  Every
    structure is built first under the shipped conventions and then again
    under the knob, so wedges kept for an equal structure would be read."""
    rng = random.Random(f"composites:{knob}")
    for _, build in _CALCULUS_STRUCTURES:
        shipped = build()
        for i in range(shipped.ambient):
            po.pi_sharp(shipped, po.basis_form(shipped.ambient, i))
    if knob is not None:
        _flip(monkeypatch, knob)
    for name, build in _CALCULUS_STRUCTURES:
        p = build()
        assert p.certified, name
        n = p.ambient
        for _ in range(6):
            alpha, beta = (_draw(PolyForm, rng, n, 1) for _ in range(2))
            q = rng.randrange(min(n, 3) + 1)
            gamma, gamma2 = (_draw(PolyForm, rng, n, q) for _ in range(2))
            _same(gamma.sub(gamma2), _ref_sub(gamma, gamma2))
            _same(po.pi_sharp(p, gamma), _ref_pi_sharp(p, gamma))
            _same(po.form_bracket(p, alpha, beta),
                  _ref_form_bracket(p, alpha, beta))
            _same(po.form_lie_derivative(p, alpha, gamma),
                  _ref_form_lie_derivative(p, alpha, gamma))
            w = _draw(PolyMultivector, rng, n, rng.randrange(1, min(n, 3) + 1))
            t = po.tilde_i(w, po.exterior_d(alpha))
            _same(po.sharp_tensor_fold(p, t, n, w.degree),
                  _ref_sharp_tensor_fold(p, t, n, w.degree))
            # form parts of degree 0, whose anchor is the identity
            t = po.tilde_i(w, alpha)
            _same(po.sharp_tensor_fold(p, t, n, w.degree - 1),
                  _ref_sharp_tensor_fold(p, t, n, w.degree - 1))


def test_each_composite_operation_constructs_its_result_once(monkeypatch):
    """The terms of the form bracket, the module action on forms, the anchor
    fold and the multiplicative extension over a two-vector go straight to
    the constructor of the result: the bracket builds the function
    <alpha ^ beta, pi> (its wedge and pairing) besides, and the module
    action on dx_0 ^ dx_1 the anchor field and, per axis, dx_i and its
    bracket with alpha.  Counted on a structure whose anchor wedges are
    kept already."""
    p = po.linear_poisson(lie.su2())
    alpha = PolyForm(3, 1, {((0,), (0, 1, 0)): 1, ((2,), (1, 0, 0)): 2})
    beta = PolyForm(3, 1, {((1,), (0, 0, 1)): Fraction(1, 2)})
    two = PolyForm(3, 2, {((0, 1), (1, 0, 1)): 3})
    w = PolyMultivector(3, 2, {((0, 2), (1, 0, 0)): 1})
    t = po.tilde_i(w, po.exterior_d(alpha))
    fields = [po.pi_sharp(p, po.basis_form(3, j)) for j in range(3)]
    po.form_lie_derivative(p, alpha, two)
    po.sharp_tensor_fold(p, t, 3, 2)
    made = []
    init = poly._Graded.__init__
    monkeypatch.setattr(poly._Graded, "__init__",
                        lambda self, *a: made.append(a) or init(self, *a))
    for run, count in [(lambda: po.form_bracket(p, alpha, beta), 3),
                       (lambda: po.form_lie_derivative(p, alpha, two), 10),
                       (lambda: po.sharp_tensor_fold(p, t, 3, 2), 1),
                       (lambda: po._aext(fields, {(0, 1): 1, (1, 2): 2}), 1)]:
        made.clear()
        run()
        assert len(made) == count


def test_the_anchor_is_multiplicative():
    """pi_sharp(alpha ^ beta) = pi_sharp(alpha) ^ pi_sharp(beta) for forms
    of degree at most 2, and pi_sharp is the identity on functions: the
    property that lets pi_sharp keep one wedge of anchor rows per index
    tuple.  150 pairs over the calculus structures."""
    rng = random.Random("anchor-multiplicative")
    for name, build in _CALCULUS_STRUCTURES:
        p = build()
        n = p.ambient
        for _ in range(30):
            alpha, beta = (_draw(PolyForm, rng, n, rng.randrange(3))
                           for _ in range(2))
            lhs = po.pi_sharp(p, po.wedge(alpha, beta))
            rhs = po.wedge(po.pi_sharp(p, alpha), po.pi_sharp(p, beta))
            assert lhs == rhs, (name, alpha, beta)
            f = _draw(PolyForm, rng, n, 0)
            assert po.pi_sharp(p, f) == PolyMultivector(n, 0, f.coeffs)


# ---------------------------------------------------------------------------
# Truncated complexes and cohomology


def test_symplectic_plane_total_truncation_dims():
    sp = po.symplectic_poisson(1)
    h = po.poisson_cohomology(sp, truncation=2)
    assert h.dims_list(2) == [1, 0, 0]
    assert h.slices[0][:3] == [1, 0, 0]
    assert h.slices[1][:3] == [0, 0, 0]
    assert h.slices[2][:3] == [0, 0, 0]


def test_zero_structure_cohomology_is_the_whole_space():
    z = po.zero_poisson(2)
    h = po.poisson_cohomology(z, truncation=2)
    expected = [0, 0, 0]
    for k in range(3):
        model = po.poisson_complex(z, slice_degree=k)
        for q in range(3):
            expected[q] += model.space.dim(q)
    assert h.dims_list(2) == expected


def test_su2_dual_cohomology_and_factorized_prediction():
    p = po.linear_poisson(lie.su2())
    h = po.poisson_cohomology(p, truncation=4)
    assert h.dims_list(3) == [3, 0, 0, 3]
    assert h.matches is True
    for k in range(5):
        expected = [1, 0, 0, 1] if k % 2 == 0 else [0, 0, 0, 0]
        assert h.slices[k] == expected
        assert h.predicted[k] == expected
    assert h.to_json()["matches"] is True


def test_no_prediction_without_compact_type():
    heis = lie.build_lie_algebra(3, [[0, 1, [[2, 1]]]], name="heis3")
    p = po.linear_poisson(heis)
    h = po.poisson_cohomology(p, truncation=2)
    assert h.predicted is None and h.matches is None


def test_su2_dual_slice_two_dims():
    p = po.linear_poisson(lie.su2())
    model = po.poisson_complex(p, slice_degree=2)
    assert [model.space.dim(q) for q in range(4)] == [6, 18, 18, 6]


def test_linear_slice_matches_lie_complex_exactly():
    out = po.poisson_to_lie_matrices(lie.su2(), 2)
    assert set(out) == set(range(4))
    for q, (left, right) in out.items():
        assert left == right


def test_linear_slice_matches_lie_complex_degree_zero_and_three():
    for k in (0, 3):
        for q, (left, right) in po.poisson_to_lie_matrices(lie.su2(),
                                                           k).items():
            assert left == right


def test_mixed_regime_is_refused():
    mixed = po.poisson_structure(PolyMultivector(
        2, 2, {((0, 1), (0, 0)): Fraction(1), ((0, 1), (2, 0)): Fraction(1)}))
    assert mixed.certified  # any bivector on the plane self-commutes
    with pytest.raises(po.UnsupportedRegime):
        po.poisson_complex(mixed, truncation=3)


def test_capped_quotient_for_higher_coefficients():
    quad = po.poisson_structure(PolyMultivector(
        2, 2, {((0, 1), (2, 0)): Fraction(1)}))
    model = po.poisson_complex(quad, truncation=4)
    assert model.band is not None
    assert model.band == 3
    h = po.poisson_cohomology(quad, truncation=4)
    assert h.band == 3
    assert h.regime == "general-no-constant"


def test_truncation_or_slice_required_for_constant():
    with pytest.raises(ValueError):
        po.poisson_complex(po.symplectic_poisson(1))


# ---------------------------------------------------------------------------
# Product-line models


def test_product_line_rejects_duplicate_roots():
    with pytest.raises(po.DuplicateRoots):
        po.build_product_line_model([0, 1, 1], [1, 1, 1])


def test_product_line_needs_matching_lengths():
    with pytest.raises(ValueError):
        po.build_product_line_model([0, 1], [1])


def test_product_line_generic_derivative():
    # five roots, derivative values of t(t-1) at 0..4
    roots = [0, 1, 2, 3, 4]
    vals = [t * (t - 1) for t in roots]
    m = po.build_product_line_model(roots, vals)
    rep = po.product_line_report(m)
    assert rep["final_dims"] == [5, 2, 2, 5]
    assert rep["direct_dims"] == [5, 2, 2, 5]
    page = rep["page_differential"]
    assert page["page"] == 2
    assert page["matrix"].dense() == [[vals[i] if i == j else 0
                                       for j in range(5)] for i in range(5)]


def test_product_line_unit_derivative():
    m = po.build_product_line_model([0, 1, 2, 3, 4], [1] * 5)
    rep = po.product_line_report(m)
    assert rep["final_dims"] == [5, 0, 0, 5]
    assert rep["direct_dims"] == [5, 0, 0, 5]


def test_product_line_zero_derivative():
    m = po.build_product_line_model([0, 1, 2, 3, 4], [0] * 5)
    rep = po.product_line_report(m)
    assert rep["final_dims"] == [5, 5, 5, 5]
    assert rep["direct_dims"] == [5, 5, 5, 5]
    assert rep["page_differential"] is None


def test_product_line_feeds_the_spectral_runner():
    vals = [t * (t - 1) for t in range(5)]
    m = po.build_product_line_model(range(5), vals)
    pgs = spectral.pages(spectral.contraction_filtration(m.gdiff))
    assert next(pg.r for pg in pgs if pg.diffs) == 2
    final = pgs[-1]
    assert [final.antidiagonal(n) for n in range(4)] == [5, 2, 2, 5]
