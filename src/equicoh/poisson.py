"""Exact Poisson calculus and Poisson cohomology for polynomial bivectors.

The graded bracket on multivector fields is computed in odd coordinates: a
q-vector is a polynomial in the coordinate functions and odd generators
(one odd generator per coordinate direction), and

    [A, B] = sum_j (A <-d/d.odd_j) ^ (dB/dx_j)
             - (-1)^((a-1)(b-1)) sum_j (B <-d/d.odd_j) ^ (dA/dx_j)

where `<-d/d.odd_j` is the right derivative (signs counted from the tail of
the index tuple).  On vector fields this reduces to the ordinary Lie
bracket, e.g. [x d/dy, y d/dx] = x d/dx - y d/dy.

A bivector with vanishing self-bracket defines a differential d(w) = [pi, w]
raising multivector degree by one, an anchor map from forms to multivector
fields (beta(anchor(alpha)) = <alpha ^ beta, pi> on one-forms, extended
multiplicatively), a bracket on one-forms, and Lie-derivative module
structures on both forms and multivectors.  None of the individual signs
here are free: the registry behind `verify_identity` checks the complete
calculus (bracket variants, Cartan formulas, module laws, duality, the
anchor's intertwining properties), and the shipped combination of signs is
the unique one under which every registered identity holds.  The anchor
of a structure (the images of the dx_i), and the wedge of its images over
each index tuple that the anchor of a form reads, are built when first
read and kept with the structure.  The anchor, the bracket of one-forms,
the module action on forms and the anchor fold of tensors send their terms
(`_sharp` yields the anchor's) straight to the constructor of the result.

Cohomology is computed on finite polynomial models, all cut by one rule.
A basis key of exterior degree q and coefficient degree m has the weight
m + tilt * q, and a model is the set of keys whose weight lies in a window
[lo, hi]: a slice s is [s, s], a truncation T is [0, T].  The tilt is
chosen so that the differential keeps the weight where it can:

  * constant coefficients (tilt 1): the differential lowers coefficient
    degree by one and raises multivector degree by one, so every window
    is an exact subcomplex (slices are the antidiagonals);
  * linear coefficients (tilt 0): the differential preserves coefficient
    degree, so every window is exact (and the slice of degree k is, in
    exact matrix terms, the cochain complex of the underlying Lie algebra
    with degree-k polynomial coefficients);
  * higher-degree coefficients without constant part (tilt 0): the
    differential raises the weight, so the window [0, T] is a capped
    quotient complex, whose low coefficient degrees (the reported validity
    `band`) agree with the untruncated answer;
  * mixed constant and higher parts: unsupported.

Polynomial differential forms under the exterior differential use tilt 1,
as constant bivectors do.  Contracting with a term of coefficient degree
e moves the weight by e - tilt, so a contraction (with lifted forms or
action fields) keeps a model exact unless that shift is above 0, or below
0 with lo > 0; `_check_ops_stay` refuses the others.

The momentum machinery packages a Lie algebra action given by lifted
one-forms (with anchor images as the action fields), validates the
compatibility laws with explicit basis witnesses, and feeds the resulting
equivariant structure to the generic machinery: equivariant cohomology via
the polynomial Cartan model, and the spectral sequence of the
contraction-depth filtration.

The invariance statement (on horizontal multivectors the action of a
lifted form is minus the Lie derivative along its field) is checked by
`mu_tangent_complex`, on every submersive spectral sequence and every sharp
comparison.  Two checks of the paper have no caller here:
`poisson_to_lie_matrices` (the Poisson complex of the linear structure on g*
is the Lie algebra complex of g with polynomial coefficients) and
`poisson_low_degree` (in degrees 0 and 1, equivariant Poisson cohomology is
the invariant Casimirs, and the horizontal Poisson vector fields modulo
Hamiltonian fields of invariant functions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import add
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

from . import bases, lie, ratlin as rl
from . import gdiff as gd
from . import spectral
from .core import (CochainComplex, GradedSpace, LinearMap, Subspace,
                   anticommutator, cohomology, joint_kernel,
                   restrict_complex, stacked_kernel)
from .poly import (AmbientMismatch, DegreeMismatch, PolyForm, PolyMultivector,
                   _checked_key, _d, _derivatives, _products, _slots,
                   apply_vector_field, as_form, as_multivector, basis_form,
                   contract, contract_form, exterior_d, function, pairing,
                   tensor_add, tensor_fold_functions, tensor_is_zero,
                   tensor_lwedge, tensor_scale, tilde_i, wedge, zero_form,
                   zero_multivector)


class UncertifiedPoisson(Exception):
    """Operation needs a vanishing self-bracket; carries a witness term."""


class UnknownIdentity(Exception):
    pass


class UnsupportedRegime(Exception):
    pass


class MomentMismatch(Exception):
    """Anchor of a lifted one-form disagrees with the declared field."""


class NotAntiHomomorphism(Exception):
    """Lifted one-forms fail bracket compatibility on a basis pair."""


class PoissonActionViolation(Exception):
    """The Lie derivative of the bivector along an action field disagrees
    with the cobracket."""


class DDeltaViolation(Exception):
    """Exterior differential of a lifted form disagrees with the cobracket."""


class DuplicateRoots(Exception):
    pass


class BasicMismatch(Exception):
    """Fiber-tangent multivectors differ from the basic subcomplex."""


# ---------------------------------------------------------------------------
# The graded bracket


def _sign(k: int) -> int:
    """(-1)^k as an int, for negative k too (where ** gives a float)."""
    return -1 if k % 2 else 1


def _star(a: PolyMultivector, b: PolyMultivector):
    """The terms of sum_j (a <-d/d.odd_j) ^ (db/dx_j)."""
    return _derivatives(_slots(a, from_tail=True), b)


def schouten(a: PolyMultivector, b: PolyMultivector) -> PolyMultivector:
    """Graded bracket of multivector fields (degree a + b - 1)."""
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"ambient {a.ambient} vs {b.ambient}")
    deg = a.degree + b.degree - 1
    if deg < 0:
        return zero_multivector(a.ambient, 0)
    swap = -_sign((a.degree - 1) * (b.degree - 1))
    return PolyMultivector(a.ambient, deg, chain(
        _star(a, b), ((k, swap * c) for k, c in _star(b, a))))


def schouten_jacobiator(a: PolyMultivector, b: PolyMultivector,
                        c: PolyMultivector) -> PolyMultivector:
    """Graded Jacobi defect; zero exactly when the identity holds."""
    da, db, dc = a.degree, b.degree, c.degree
    s1 = _sign((da - 1) * (dc - 1))
    s2 = _sign((db - 1) * (da - 1))
    s3 = _sign((dc - 1) * (db - 1))
    out = schouten(a, schouten(b, c)).scale(s1)
    out = out.add(schouten(b, schouten(c, a)).scale(s2))
    return out.add(schouten(c, schouten(a, b)).scale(s3))


# ---------------------------------------------------------------------------
# Poisson structures


@dataclass(frozen=True)
class PoissonStructure:
    """A polynomial bivector with its certification and coefficient regime.

    `certified` records whether the self-bracket vanishes identically (checked
    exactly, with no truncation); `jacobiator` keeps the defect as a witness.
    `regime` is one of "constant", "linear", "general-no-constant",
    "general"."""

    bivector: PolyMultivector
    regime: str
    certified: bool
    jacobiator: PolyMultivector
    #: For structures built from a Lie algebra (linear coefficients on the
    #: dual), the algebra itself; lets cohomology routines report the
    #: factorized prediction for compact-type inputs.
    algebra: Optional[lie.LieAlgebra] = None

    @property
    def ambient(self) -> int:
        return self.bivector.ambient

    def max_coeff_degree(self) -> int:
        return self.bivector.coefficient_degree()

    @cached_property
    def anchor_rows(self) -> tuple:
        """Row i: the anchor image of dx_i, built on first use and kept;
        not a compared field."""
        return _sharp_rows(self)

    @cached_property
    def anchor_wedges(self) -> dict:
        """{index tuple s: the wedge of the anchor rows j in s, in the order
        of s}, each built from `anchor_rows` on first use and kept; not a
        compared field."""
        return {}


def _detect_regime(w: PolyMultivector) -> str:
    degs = {sum(e) for (_, e), _ in w.coeffs}
    if not degs or degs == {0}:
        return "constant"
    if degs == {1}:
        return "linear"
    if 0 not in degs:
        return "general-no-constant"
    return "general"


def poisson_structure(bivector: PolyMultivector,
                      algebra: Optional[lie.LieAlgebra] = None
                      ) -> PoissonStructure:
    if bivector.degree != 2:
        raise DegreeMismatch("a Poisson structure is a bivector")
    jac = schouten(bivector, bivector)
    return PoissonStructure(bivector, _detect_regime(bivector),
                            jac.is_zero(), jac, algebra)


def zero_poisson(ambient: int) -> PoissonStructure:
    return poisson_structure(zero_multivector(ambient, 2))


def constant_poisson(ambient: int, entries: Mapping) -> PoissonStructure:
    """Bivector sum entries[(i, j)] * e_i ^ e_j with constant coefficients."""
    zero = (0,) * ambient
    if any(i == j for i, j in entries):
        raise ValueError("diagonal entry in an antisymmetric bivector")
    return poisson_structure(PolyMultivector(ambient, 2, (
        (((i, j), zero), rl.q(c)) if i < j else (((j, i), zero), -rl.q(c))
        for (i, j), c in entries.items())))


def symplectic_poisson(planes: int) -> PoissonStructure:
    """e_0 ^ e_1 + e_2 ^ e_3 + ... on Q^(2 * planes)."""
    n = 2 * planes
    return constant_poisson(n, {(2 * t, 2 * t + 1): 1 for t in range(planes)})


def linear_poisson(g: lie.LieAlgebra) -> PoissonStructure:
    """The linear bivector on the dual of a Lie algebra: the component along
    e_i ^ e_j is sum_m c^m_{ij} x_m, so {x_i, x_j} = sum_m c^m_{ij} x_m."""
    n = g.dim
    return poisson_structure(PolyMultivector(n, 2, (
        (((i, j), bases.unit_exp(n, m)), cm)
        for i in range(n) for j in range(i + 1, n)
        for m, cm in enumerate(g.c[i][j]) if cm)), algebra=g)


# ---------------------------------------------------------------------------
# The calculus attached to a certified structure


def _require_certified(p: PoissonStructure):
    if not p.certified:
        raise UncertifiedPoisson(
            "self-bracket does not vanish; defect " + repr(p.jacobiator))


def d_pi(p: PoissonStructure, w: PolyMultivector) -> PolyMultivector:
    """The degree +1 differential [pi, .] on multivector fields."""
    _require_certified(p)
    return schouten(p.bivector, w)


def _sharp_rows(p: PoissonStructure) -> tuple:
    """Row i: the anchor image of dx_i, as a polynomial vector field."""
    rows = [[] for _ in range(p.ambient)]
    for ((i, j), e), c in p.bivector.coeffs:
        rows[i].append((((j,), e), c))
        rows[j].append((((i,), e), -c))
    return tuple(PolyMultivector(p.ambient, 1, r) for r in rows)


def _sharp(p: PoissonStructure, terms):
    """The terms of the anchor of the given form terms: c x^e dx_s goes to
    c x^e times the wedge of the anchor rows j in s (1 for s empty), which
    the structure keeps per s (`anchor_wedges`)."""
    wedges = p.anchor_wedges
    for (s, e), c in terms:
        if s not in wedges:
            wedges[s] = reduce(wedge, (p.anchor_rows[j] for j in s),
                               function(p.ambient, {(0,) * p.ambient: 1}))
        for (idx, ew), cw in wedges[s].coeffs:
            yield (idx, tuple(map(add, e, ew))), c * cw


def pi_sharp(p: PoissonStructure, alpha: PolyForm) -> PolyMultivector:
    """Anchor from forms to multivector fields: beta(pi_sharp(alpha)) =
    <alpha ^ beta, pi> on one-forms, extended multiplicatively (and the
    identity on degree zero, which reads no anchor row).  The terms of
    `_sharp` go to one constructor."""
    if alpha.ambient != p.ambient:
        raise AmbientMismatch(f"ambient {alpha.ambient} vs {p.ambient}")
    if alpha.degree == 0:
        return as_multivector(alpha)
    return PolyMultivector(p.ambient, alpha.degree, _sharp(p, alpha.coeffs))


def poisson_bracket(p: PoissonStructure, f: PolyMultivector,
                    g: PolyMultivector) -> PolyMultivector:
    """{f, g} = <df ^ dg, pi> on polynomial functions."""
    return pairing(wedge(exterior_d(f), exterior_d(g)), p.bivector)


def form_bracket(p: PoissonStructure, alpha: PolyForm,
                 beta: PolyForm) -> PolyForm:
    """The bracket of one-forms:
    {alpha, beta} = d<alpha ^ beta, pi> + i_{#alpha} d(beta) - i_{#beta} d(alpha),
    one constructor for the three; the wedge and pairing that build the
    function <alpha ^ beta, pi> refuse inputs of another kind or ambient."""
    if alpha.degree != 1 or beta.degree != 1:
        raise DegreeMismatch("the form bracket takes two one-forms")
    lead = pairing(wedge(alpha, beta), p.bivector)
    return PolyForm(p.ambient, 1, chain(
        _d(lead),
        _products(_sharp(p, alpha.coeffs), _d(beta), bases.remove_slots),
        ((k, -c) for k, c in _products(_sharp(p, beta.coeffs), _d(alpha),
                                       bases.remove_slots))))


def field_lie_derivative_form(v: PolyMultivector, beta: PolyForm) -> PolyForm:
    """Ordinary Lie derivative of a form along a polynomial vector field."""
    if beta.degree == 0:
        return contract_form(v, exterior_d(beta))
    return contract_form(v, exterior_d(beta)).add(
        exterior_d(contract_form(v, beta)))


def lie_derivative_multivector(p: PoissonStructure, alpha: PolyForm,
                               w: PolyMultivector) -> PolyMultivector:
    """Module action of a one-form on multivector fields, via the Cartan
    formula i_alpha d(w) + d(i_alpha w)."""
    if alpha.degree != 1:
        raise DegreeMismatch("the module action is indexed by one-forms")
    if w.degree == 0:
        return contract(alpha, d_pi(p, w))
    return contract(alpha, d_pi(p, w)).add(d_pi(p, contract(alpha, w)))


#: The conventional name reads "Lie derivative along a one-form"; the
#: operator acts on multivector fields.
lie_derivative_form = lie_derivative_multivector


def form_lie_derivative(p: PoissonStructure, alpha: PolyForm,
                        beta: Union[PolyForm, PolyMultivector]) -> PolyForm:
    """Module action of a one-form on forms: on functions it applies the
    anchor field, on coordinate differentials it is the one-form bracket,
    and it extends as a degree-0 derivation.  The bracket is taken with the
    dx_i of the axes i that occur in beta's index tuples only; the slot t
    of dx_s becomes (-1)^t {alpha, dx_(s_t)} ^ dx_(s without s_t)."""
    if alpha.degree != 1:
        raise DegreeMismatch("the module action is indexed by one-forms")
    if isinstance(beta, PolyMultivector):
        beta = as_form(beta)
    if beta.ambient != p.ambient:
        raise AmbientMismatch(f"ambient {beta.ambient} vs {p.ambient}")
    n = beta.ambient
    gen = {i: form_bracket(p, alpha, basis_form(n, i)).coeffs
           for i in {i for (s, _), _ in beta.coeffs for i in s}}
    return PolyForm(n, beta.degree, chain(
        _derivatives(_slots(pi_sharp(p, alpha)), beta), chain.from_iterable(
            _products(gen[axis], (term,), bases.wedge_merge)
            for axis, term in _slots(beta))))


def sharp_tensor_fold(p: PoissonStructure, t: dict, ambient: int,
                      mv_degree: int) -> PolyMultivector:
    """Collapse a (form (x) multivector) tensor through the anchor:
    beta (x) v  ->  pi_sharp(beta) ^ v.  Each key of the tensor is checked
    as the keys of a form and a multivector are."""
    if ambient != p.ambient:
        raise AmbientMismatch(f"ambient {ambient} vs {p.ambient}")
    zero = (0,) * ambient
    for fi, mi, e in t:
        _checked_key(ambient, len(fi), (fi, e))
        _checked_key(ambient, len(mi), (mi, zero))
    return PolyMultivector(ambient, mv_degree, chain.from_iterable(
        _products(_sharp(p, (((fi, e), c),)), (((mi, zero), 1),),
                  bases.wedge_merge)
        for (fi, mi, e), c in t.items()))


# ---------------------------------------------------------------------------
# The identity registry


def _rand_poly(rng, n, cdeg):
    e = [0] * n
    for _ in range(rng.randrange(cdeg + 1)):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _rand_coeff(rng):
    return rng.choice([-3, -2, -1, 1, 1, 2, 3])


def _rand(kind, rng, n, degree, terms=2):
    acc = {}
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(n), degree)))
        acc[(idx, _rand_poly(rng, n, 2))] = _rand_coeff(rng)
    return kind(n, degree, acc)


def _witness(diff, **inputs):
    if hasattr(diff, "is_zero"):
        if diff.is_zero():
            return None
        text = repr(diff)
    elif tensor_is_zero(diff):
        return None
    else:
        # A tensor prints its coefficients by repr: each as a Fraction,
        # integral or not, so that the witness reads the same for every
        # coefficient.
        text = repr({k: Fraction(c) for k, c in diff.items()})
    return {"difference": text,
            "inputs": {k: repr(v) for k, v in inputs.items()}}


def _id_schouten_antisymmetry(p, rng):
    n = p.ambient
    a = _rand(PolyMultivector, rng, n, rng.randrange(1, min(n, 3) + 1))
    b = _rand(PolyMultivector, rng, n, rng.randrange(0, min(n, 3) + 1))
    s = _sign((a.degree - 1) * (b.degree - 1))
    diff = schouten(a, b).add(schouten(b, a).scale(s))
    return _witness(diff, a=a, b=b)


def _id_schouten_jacobi(p, rng):
    n = p.ambient
    a = _rand(PolyMultivector, rng, n, rng.randrange(1, 3), terms=1)
    b = _rand(PolyMultivector, rng, n, rng.randrange(1, 3), terms=1)
    c = _rand(PolyMultivector, rng, n, rng.randrange(0, 3), terms=1)
    return _witness(schouten_jacobiator(a, b, c), a=a, b=b, c=c)


def _id_schouten_leibniz(p, rng):
    n = p.ambient
    a = _rand(PolyMultivector, rng, n, rng.randrange(1, 3), terms=1)
    b = _rand(PolyMultivector, rng, n, rng.randrange(0, 2), terms=1)
    c = _rand(PolyMultivector, rng, n, rng.randrange(0, 2), terms=1)
    lhs = schouten(a, wedge(b, c))
    s = _sign((a.degree - 1) * b.degree)
    rhs = wedge(schouten(a, b), c).add(wedge(b, schouten(a, c)).scale(s))
    return _witness(lhs.sub(rhs), a=a, b=b, c=c)


def _id_bracket_variants(p, rng):
    n = p.ambient
    alpha = _rand(PolyForm, rng, n, 1)
    beta = _rand(PolyForm, rng, n, 1)
    lhs = form_bracket(p, alpha, beta)
    rhs = field_lie_derivative_form(pi_sharp(p, alpha), beta).sub(
        contract_form(pi_sharp(p, beta), exterior_d(alpha)))
    return _witness(lhs.sub(rhs), alpha=alpha, beta=beta)


def _id_bracket_exact(p, rng):
    n = p.ambient
    f = function(n, {_rand_poly(rng, n, 3): _rand_coeff(rng)})
    g = function(n, {_rand_poly(rng, n, 3): _rand_coeff(rng)})
    lhs = form_bracket(p, exterior_d(f), exterior_d(g))
    rhs = exterior_d(poisson_bracket(p, f, g))
    return _witness(lhs.sub(rhs), f=f, g=g)


def _id_bracket_jacobi(p, rng):
    n = p.ambient
    al = _rand(PolyForm, rng, n, 1, terms=1)
    be = _rand(PolyForm, rng, n, 1, terms=1)
    ga = _rand(PolyForm, rng, n, 1, terms=1)
    lhs = form_bracket(p, al, form_bracket(p, be, ga))
    rhs = form_bracket(p, form_bracket(p, al, be), ga).add(
        form_bracket(p, be, form_bracket(p, al, ga)))
    return _witness(lhs.sub(rhs), alpha=al, beta=be, gamma=ga)


def _id_cartan_module_law(p, rng):
    n = p.ambient
    al = _rand(PolyForm, rng, n, 1, terms=1)
    be = _rand(PolyForm, rng, n, 1, terms=1)
    w = _rand(PolyMultivector, rng, n, rng.randrange(0, min(n, 2) + 1), terms=1)
    lhs = lie_derivative_multivector(p, form_bracket(p, al, be), w)
    rhs = lie_derivative_multivector(p, al,
                                     lie_derivative_multivector(p, be, w))
    rhs = rhs.sub(lie_derivative_multivector(
        p, be, lie_derivative_multivector(p, al, w)))
    return _witness(lhs.sub(rhs), alpha=al, beta=be, w=w)


def _id_lie_derivative_variants(p, rng):
    n = p.ambient
    al = _rand(PolyForm, rng, n, 1, terms=1)
    w = _rand(PolyMultivector, rng, n, rng.randrange(1, min(n, 3) + 1), terms=1)
    lhs = lie_derivative_multivector(p, al, w)
    rhs = schouten(pi_sharp(p, al), w).add(
        sharp_tensor_fold(p, tilde_i(w, exterior_d(al)), n, w.degree))
    return _witness(lhs.sub(rhs), alpha=al, w=w)


def _id_vector_field_formula(p, rng):
    n = p.ambient
    al = _rand(PolyForm, rng, n, 1)
    v = _rand(PolyMultivector, rng, n, 1)
    lhs = lie_derivative_multivector(p, al, v)
    rhs = schouten(pi_sharp(p, al), v).add(
        pi_sharp(p, contract_form(v, exterior_d(al))))
    return _witness(lhs.sub(rhs), alpha=al, v=v)


def _id_function_action(p, rng):
    n = p.ambient
    al = _rand(PolyForm, rng, n, 1)
    f = function(n, {_rand_poly(rng, n, 3): _rand_coeff(rng)})
    d1 = _witness(lie_derivative_multivector(p, al, f).sub(
        apply_vector_field(pi_sharp(p, al), f)), alpha=al, f=f)
    if d1 is not None:
        return d1
    g = function(n, {_rand_poly(rng, n, 3): _rand_coeff(rng)})
    d2 = lie_derivative_multivector(p, exterior_d(f), g).sub(
        poisson_bracket(p, f, g))
    return _witness(d2, f=f, g=g)


def _id_contraction_bracket(p, rng):
    n = p.ambient
    al = _rand(PolyForm, rng, n, 1, terms=1)
    be = _rand(PolyForm, rng, n, 1, terms=1)
    w = _rand(PolyMultivector, rng, n, rng.randrange(1, min(n, 3) + 1), terms=1)
    lhs = contract(form_bracket(p, al, be), w)
    rhs = lie_derivative_multivector(p, al, contract(be, w)).sub(
        contract(be, lie_derivative_multivector(p, al, w)))
    return _witness(lhs.sub(rhs), alpha=al, beta=be, w=w)


def _id_module_leibniz(p, rng):
    n = p.ambient
    al = _rand(PolyForm, rng, n, 1, terms=1)
    w1 = _rand(PolyMultivector, rng, n, rng.randrange(0, 2), terms=1)
    w2 = _rand(PolyMultivector, rng, n, rng.randrange(0, 2), terms=1)
    lhs = lie_derivative_multivector(p, al, wedge(w1, w2))
    rhs = wedge(lie_derivative_multivector(p, al, w1), w2).add(
        wedge(w1, lie_derivative_multivector(p, al, w2)))
    return _witness(lhs.sub(rhs), alpha=al, w1=w1, w2=w2)


def _id_slot_contraction(p, rng):
    n = p.ambient
    al = _rand(PolyForm, rng, n, 1)
    w = _rand(PolyMultivector, rng, n, rng.randrange(1, min(n, 3) + 1))
    try:
        folded = tensor_fold_functions(tilde_i(w, al), n, w.degree - 1)
    except DegreeMismatch:
        return {"difference": "tensor form part has positive degree",
                "inputs": {"alpha": repr(al), "w": repr(w)}}
    return _witness(folded.sub(contract(al, w)), alpha=al, w=w)


def _id_slot_wedge(p, rng):
    n = p.ambient
    k = rng.randrange(1, 3)
    l = rng.randrange(1, 3)
    a1 = _rand(PolyForm, rng, n, k, terms=1)
    a2 = _rand(PolyForm, rng, n, l, terms=1)
    w = _rand(PolyMultivector, rng, n, rng.randrange(1, min(n, 3) + 1), terms=1)
    lhs = tilde_i(w, wedge(a1, a2))
    rhs = tensor_add(
        tensor_scale(tensor_lwedge(a2, tilde_i(w, a1)), _sign((k - 1) * l)),
        tensor_scale(tensor_lwedge(a1, tilde_i(w, a2)), _sign(k)))
    return _witness(tensor_add(lhs, tensor_scale(rhs, -1)), a1=a1, a2=a2, w=w)


def _id_dual(p, rng):
    n = p.ambient
    q = rng.randrange(1, min(n, 2) + 1)
    al = _rand(PolyForm, rng, n, 1, terms=1)
    be = _rand(PolyForm, rng, n, q, terms=1)
    w = _rand(PolyMultivector, rng, n, q, terms=1)
    lhs = apply_vector_field(pi_sharp(p, al), pairing(be, w))
    rhs = pairing(form_lie_derivative(p, al, be), w).add(
        pairing(be, lie_derivative_multivector(p, al, w)))
    return _witness(lhs.sub(rhs), alpha=al, beta=be, w=w)


def _id_sharp_intertwines(p, rng):
    n = p.ambient
    al = _rand(PolyForm, rng, n, 1)
    be = _rand(PolyForm, rng, n, 1)
    lhs = pi_sharp(p, field_lie_derivative_form(pi_sharp(p, al), be))
    rhs = lie_derivative_multivector(p, al, pi_sharp(p, be))
    return _witness(lhs.sub(rhs), alpha=al, beta=be)


def _id_form_module_closed(p, rng):
    n = p.ambient
    f = function(n, {_rand_poly(rng, n, 3): _rand_coeff(rng)})
    al = exterior_d(f)
    be = _rand(PolyForm, rng, n, rng.randrange(0, min(n, 2) + 1))
    lhs = form_lie_derivative(p, al, be)
    rhs = field_lie_derivative_form(pi_sharp(p, al), be)
    return _witness(lhs.sub(rhs), f=f, beta=be)


def _id_sharp_differential(p, rng):
    n = p.ambient
    be = _rand(PolyForm, rng, n, rng.randrange(0, min(n, 2) + 1))
    lhs = pi_sharp(p, exterior_d(be))
    rhs = d_pi(p, pi_sharp(p, be)).scale(-1)
    return _witness(lhs.sub(rhs), beta=be)


_IDENTITIES = {
    "schouten-antisymmetry": _id_schouten_antisymmetry,
    "schouten-jacobi": _id_schouten_jacobi,
    "schouten-leibniz": _id_schouten_leibniz,
    "bracket-variants": _id_bracket_variants,
    "bracket-exact": _id_bracket_exact,
    "bracket-jacobi": _id_bracket_jacobi,
    "cartan-module-law": _id_cartan_module_law,
    "lie-derivative-variants": _id_lie_derivative_variants,
    "vector-field-formula": _id_vector_field_formula,
    "function-action": _id_function_action,
    "contraction-bracket": _id_contraction_bracket,
    "module-leibniz": _id_module_leibniz,
    "slot-contraction": _id_slot_contraction,
    "slot-wedge": _id_slot_wedge,
    "dual": _id_dual,
    "sharp-intertwines": _id_sharp_intertwines,
    "form-module-closed": _id_form_module_closed,
    "sharp-differential": _id_sharp_differential,
}


@dataclass(frozen=True)
class IdentityReport:
    name: str
    ok: bool
    checked: int
    witnesses: tuple

    def to_json(self) -> dict:
        return {"identity": self.name, "ok": self.ok, "checked": self.checked,
                "witnesses": list(self.witnesses)}


def identity_names() -> tuple:
    return tuple(sorted(_IDENTITIES))


def verify_identity(p: PoissonStructure, name: str, samples: int = 40,
                    seed: int = 0) -> IdentityReport:
    """Check one registered identity of the calculus on pseudo-random
    bounded-degree inputs; failures carry explicit witnesses."""
    if name not in _IDENTITIES:
        raise UnknownIdentity(
            f"unknown identity {name!r}; known: {', '.join(identity_names())}")
    fn = _IDENTITIES[name]
    rng = random.Random(f"{seed}:{name}:{p.ambient}")
    witnesses = []
    for _ in range(samples):
        w = fn(p, rng)
        if w is not None and len(witnesses) < 3:
            witnesses.append(w)
    return IdentityReport(name, not witnesses, samples, tuple(witnesses))


def verify_all(p: PoissonStructure, samples: int = 40, seed: int = 0) -> dict:
    return {name: verify_identity(p, name, samples, seed)
            for name in identity_names()}


# ---------------------------------------------------------------------------
# Finite truncations and cohomology


@dataclass(frozen=True)
class PolyModel:
    """A finite-dimensional model of the polynomial multivector fields (or
    forms), with its basis bookkeeping and the induced differential.

    The basis is the keys whose weight, coefficient degree plus `tilt`
    times exterior degree, lies in [lo, hi] (module docstring).
    `basis[q]` lists keys (index tuple, exponent tuple) in the order of the
    coordinates; `kind` is PolyMultivector or PolyForm.  `band` is None
    for an exact subcomplex; for a capped quotient it is the largest
    coefficient degree the cohomology is valid for."""

    ambient: int
    kind: type
    tilt: int
    lo: int
    hi: int
    basis: dict
    index: dict
    space: GradedSpace
    complex: Optional[CochainComplex]
    band: Optional[int]

    def element(self, q: int, position: int):
        key = self.basis[q][position]
        return self.kind(self.ambient, q, {key: 1})

    def to_vector(self, w) -> dict:
        """The coordinates {basis index: coefficient} of w; on a capped
        quotient the terms above the cap are dropped."""
        vec = {}
        for key, c in w.coeffs:
            pos = self.index.get((w.degree, key))
            if pos is None:
                if self.band is not None:
                    continue
                raise ValueError(f"term {key} escapes the truncated basis")
            vec[pos] = c
        return vec


def build_poly_model(ambient: int, kind: type, tilt: int, lo: int, hi: int,
                     differential: Callable,
                     band: Optional[int]) -> PolyModel:
    """The model of the keys whose weight m + tilt * q lies in [lo, hi],
    with the induced differential.  Keys are ordered index-tuple-major
    (lexicographic), then by coefficient degree, then by the symmetric
    monomial order."""
    basis = {}
    for q in range(ambient + 1):
        keys = tuple((j, e) for j in bases.ext_basis(ambient, q)
                     for m in range(max(lo - tilt * q, 0), hi - tilt * q + 1)
                     for e in bases.sym_basis(ambient, m))
        if keys:
            basis[q] = keys
    index = {(q, k): i for q, ks in basis.items() for i, k in enumerate(ks)}
    space = GradedSpace.from_dims({q: len(ks) for q, ks in basis.items()})
    model = PolyModel(ambient, kind, tilt, lo, hi, basis, index, space, None,
                      band)
    # The differential is read off the model's own basis: its complex is
    # set once, here.
    object.__setattr__(model, "complex", CochainComplex.build(
        space, operator_matrix(model, differential, 1)))
    return model


def operator_matrix(model: PolyModel, fn: Callable, shift: int) -> LinearMap:
    """Matrix of a degree-homogeneous operator on the model's basis; on a
    capped quotient the terms above the cap are dropped."""
    blocks = {}
    for q in sorted(model.basis):
        tgt = model.space.dim(q + shift)
        if tgt == 0:
            continue
        cols = [model.to_vector(fn(model.element(q, i)))
                for i in range(len(model.basis[q]))]
        blocks[q] = rl.mat_from_columns(cols, tgt)
    return LinearMap.from_blocks(model.space, model.space, shift, blocks)


def poisson_complex(p: PoissonStructure, truncation: Optional[int] = None,
                    slice_degree: Optional[int] = None) -> PolyModel:
    """The multivector model of the window [s, s] for `slice_degree` s, or
    else [0, T] for `truncation` T, with the regime's tilt (module
    docstring): 1 for constant coefficients, 0 otherwise.  Without a
    constant part and above linear coefficients only truncations are
    allowed, and the model is a capped quotient with a band."""
    _require_certified(p)
    if p.regime == "general":
        raise UnsupportedRegime(
            "bivector mixes constant and higher-degree coefficients; no "
            "exact finite truncation is available")
    capped = p.regime == "general-no-constant"
    if capped and slice_degree is not None:
        raise ValueError("slices are only exact for constant or linear "
                         "coefficient regimes")
    if slice_degree is None and truncation is None:
        raise ValueError("a truncation bound is required")
    lo, hi = ((0, truncation) if slice_degree is None
              else (slice_degree, slice_degree))
    return build_poly_model(
        p.ambient, PolyMultivector, int(p.regime == "constant"), lo, hi,
        lambda w: d_pi(p, w),
        hi - (p.max_coeff_degree() - 1) if capped else None)


@dataclass(frozen=True)
class PoissonCohomology:
    dims: tuple
    regime: str
    band: Optional[int]
    slices: Optional[dict]
    #: For linear structures on the dual of a compact-type algebra: the
    #: per-slice product prediction (trivial-coefficient cohomology of the
    #: algebra times the invariant dimension of the degree-k coefficient
    #: module), and whether the computed slices agree with it.
    predicted: Optional[dict] = None
    matches: Optional[bool] = None

    def dims_list(self, up_to: Optional[int] = None) -> list:
        out = list(self.dims)
        if up_to is not None:
            out = out[:up_to + 1] + [0] * (up_to + 1 - len(out))
        return out

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "regime": self.regime,
                "band": self.band,
                "slices": ({str(k): v for k, v in self.slices.items()}
                           if self.slices is not None else None),
                "predicted": ({str(k): v for k, v in self.predicted.items()}
                              if self.predicted is not None else None),
                "matches": self.matches}


def poisson_cohomology(p: PoissonStructure, truncation: int,
                       slice_degree: Optional[int] = None) -> PoissonCohomology:
    """Cohomology dims of the truncated complex.  Constant and linear
    regimes are assembled slice by slice (each slice exact); `slices` then
    maps the slice degree to its dim list."""
    _require_certified(p)
    n = p.ambient
    if p.regime in ("constant", "linear"):
        slice_list = ([slice_degree] if slice_degree is not None
                      else list(range(truncation + 1)))
        per = {}
        total = [0] * (n + 1)
        for k in slice_list:
            model = poisson_complex(p, slice_degree=k)
            h = cohomology(model.complex)
            dims = [h.dim(q) for q in range(n + 1)]
            per[k] = dims
            total = [a + b for a, b in zip(total, dims)]
        predicted = matches = None
        g = p.algebra
        if p.regime == "linear" and g is not None and g.compact_type:
            h_triv = lie.lie_cohomology(g)
            predicted = {}
            for k in slice_list:
                inv = lie.invariants(lie.sym_power_rep(g, k)).dim(0)
                predicted[k] = [h_triv.dims.get(q, 0) * inv
                                for q in range(n + 1)]
            matches = (per == predicted)
        return PoissonCohomology(tuple(total), p.regime, None, per,
                                 predicted, matches)
    model = poisson_complex(p, truncation=truncation,
                            slice_degree=slice_degree)
    h = cohomology(model.complex)
    dims = tuple(h.dim(q) for q in range(n + 1))
    return PoissonCohomology(dims, p.regime, model.band, None)


def poisson_to_lie_matrices(g: lie.LieAlgebra, k: int) -> dict:
    """Exact matrix comparison, degree by degree, between the slice of
    coefficient degree k of the linear structure on the dual of g and the
    cochain complex of g with coefficients in degree-k polynomials.  Under
    the basis identification (index tuple, exponent tuple) <-> (generator
    wedge, monomial) the two differentials are equal on the nose."""
    p = linear_poisson(g)
    model = poisson_complex(p, slice_degree=k)
    ce = lie.ce_complex(g, lie.sym_power_rep(g, k))
    out = {}
    for q in range(g.dim + 1):
        if model.space.dim(q) != ce.complex.space.dim(q):
            raise ValueError(f"basis mismatch at degree {q}")
        out[q] = (model.complex.d.block(q), ce.complex.d.block(q))
    return out


# ---------------------------------------------------------------------------
# Momentum data and the equivariant machinery


@dataclass(frozen=True)
class MomentumData:
    """A Lie algebra action presented through lifted one-forms.

    `one_forms[j]` is the lifted one-form attached to the j-th generator;
    `fields[j]` is its anchor image (the action vector field).  `cobracket`
    is None for a trivial cobracket.  `mu` optionally keeps the components
    of the underlying map to the dual of the algebra; `submersive` marks
    bundled examples where that map has full rank everywhere, enabling the
    page-level predictions of the momentum spectral sequence."""

    algebra: lie.LieAlgebra
    pi: PoissonStructure
    one_forms: tuple
    fields: tuple
    cobracket: Optional[lie.Bialgebra]
    mu: Optional[tuple]
    submersive: bool = False


def _aext(family: Sequence, coeffs: Mapping) -> object:
    """Extend a generator-indexed family of forms or of fields
    multiplicatively over a two-vector of the algebra given as
    {(p, q): coeff}."""
    return type(family[0])(family[0].ambient, 2, (
        (key, c * v) for (a, b), c in coeffs.items()
        for key, v in _products(family[a].coeffs, family[b].coeffs,
                                bases.wedge_merge)))


def momentum_setup(p: PoissonStructure, algebra: lie.LieAlgebra,
                   mu: Optional[Sequence] = None,
                   one_forms: Optional[Sequence] = None,
                   cobracket: Optional[lie.Bialgebra] = None,
                   action_fields: Optional[Sequence] = None,
                   submersive: bool = False) -> MomentumData:
    """Assemble and validate momentum data.

    With a trivial cobracket the lifted one-forms are the negated
    differentials of the components of `mu`; otherwise they must be
    supplied.  Validation (all exact, witnesses on failure):

      * declared action fields match the anchor images (MomentMismatch);
      * lifted forms reverse brackets: lift([a, b]) = -{lift(a), lift(b)}
        (NotAntiHomomorphism);
      * d(lift(a)) equals the multiplicative extension of the lift over the
        cobracket of a (DDeltaViolation);
      * the Lie derivative L_v pi = [v, pi] along each action field
        equals the extension of the action over the cobracket, the
        Poisson-action condition of Lu and Weinstein
        (PoissonActionViolation)."""
    _require_certified(p)
    n = p.ambient
    r = algebra.dim
    if one_forms is None:
        if cobracket is not None and any(cobracket.delta_of(i)
                                         for i in range(r)):
            raise ValueError("lifted one-forms are required when the "
                             "cobracket is nontrivial")
        if mu is None:
            raise ValueError("either mu or the lifted one-forms are required")
        one_forms = [exterior_d(mu[j]).scale(-1) for j in range(r)]
    one_forms = tuple(one_forms)
    fields = tuple(pi_sharp(p, a) for a in one_forms)
    if action_fields is not None:
        for j in range(r):
            diff = fields[j].sub(action_fields[j])
            if not diff.is_zero():
                raise MomentMismatch(
                    f"generator {j}: anchor image {fields[j]!r} differs "
                    f"from the declared field {action_fields[j]!r}")
    for a in range(r):
        for b in range(a + 1, r):
            br = algebra.c[a][b]
            lhs = zero_form(n, 1)
            for m in range(r):
                if br[m]:
                    lhs = lhs.add(one_forms[m].scale(br[m]))
            rhs = form_bracket(p, one_forms[a], one_forms[b]).scale(-1)
            if not lhs.sub(rhs).is_zero():
                raise NotAntiHomomorphism(
                    f"generators ({a}, {b}): lift of the bracket is "
                    f"{lhs!r}, negated bracket of lifts is {rhs!r}")
    for j in range(r):
        delta = cobracket.delta_of(j) if cobracket is not None else {}
        dform = exterior_d(one_forms[j])
        ext = _aext(one_forms, delta)
        if not dform.sub(ext).is_zero():
            raise DDeltaViolation(
                f"generator {j}: d(lift) = {dform!r} but the cobracket "
                f"extension is {ext!r}")
        lfield = schouten(fields[j], p.bivector)
        extf = _aext(fields, delta)
        if not lfield.sub(extf).is_zero():
            raise PoissonActionViolation(
                f"generator {j}: the Lie derivative of the bivector along "
                f"the action field is {lfield!r} but the cobracket "
                f"extension is {extf!r}")
    return MomentumData(algebra, p, one_forms, fields,
                        cobracket, tuple(mu) if mu is not None else None,
                        submersive)


def _check_ops_stay(model: PolyModel, operands: Sequence) -> None:
    """Refuse contractions with `operands` (forms or vector fields) that
    would leave the model: a term of coefficient degree e moves the weight
    by e - tilt, which must not be above 0, nor below 0 when lo > 0.  This
    guards exactness instead of silently projecting."""
    if model.band is not None:
        raise UnsupportedRegime(
            "equivariant structure on a capped quotient truncation is not "
            "exact; use a slice or total-degree truncation")
    for a in operands:
        for (_, e), _ in a.coeffs:
            shift = sum(e) - model.tilt
            if shift > 0 or (shift < 0 and model.lo > 0):
                raise UnsupportedRegime(
                    f"contracting with a term of coefficient degree "
                    f"{sum(e)} moves the weight by {shift}, out of the "
                    f"window [{model.lo}, {model.hi}] of tilt {model.tilt}")


def momentum_gdiff(md: MomentumData, truncation: Optional[int] = None,
                   slice_degree: Optional[int] = None,
                   sub: Optional[lie.Subalgebra] = None
                   ) -> Tuple[gd.GDiffComplex, PolyModel]:
    """The truncated multivector complex as a complex with contractions and
    Lie operators for the (sub)algebra action.  The contraction along a
    generator is the interior product with the *negated* lifted one-form:
    the lifts reverse brackets, so negating them turns the package into a
    genuine action satisfying the standard operator axioms.

    With `sub`, a subalgebra k of md.algebra from `lie.build_subalgebra`,
    only k acts, with its own structure constants: the lifted form of a
    basis vector v of k is sum_j v_j lift(e_j) (`Subalgebra.restrict`), so
    for a unit vector e_i it is the lift of e_i."""
    algebra, forms = ((md.algebra, md.one_forms) if sub is None
                      else (sub.algebra,
                            sub.restrict(md.algebra, md.one_forms)))
    model = poisson_complex(md.pi, truncation=truncation,
                            slice_degree=slice_degree)
    _check_ops_stay(model, forms)
    return _with_contractions(
        algebra, model,
        [lambda w, neg=a.scale(-1): contract(neg, w) for a in forms])


def _with_contractions(algebra: lie.LieAlgebra, model: PolyModel,
                       fns: Sequence) -> tuple:
    """(GDiffComplex, model): the model's complex with one contraction per
    generator, fns[j] on basis elements, and the Lie operators d i + i d."""
    contractions = [operator_matrix(model, fn, -1) for fn in fns]
    lie_ops = [anticommutator(model.complex.d, i_op) for i_op in contractions]
    return gd.build_gdiff(algebra, model.complex, contractions,
                          lie_ops), model


@dataclass(frozen=True)
class TangentReport:
    """Invariant fiber-tangent multivectors: killed by the contraction with
    every lifted one-form and by the ordinary Lie derivative along every
    action field.  Carries the induced complex and its cohomology dims."""

    subspace: Subspace
    complex: CochainComplex
    dims: tuple
    cohomology_dims: tuple


def _geometric_lie_ops(md: MomentumData, model: PolyModel) -> list:
    return [operator_matrix(model, lambda w, v=v: schouten(v, w), 0)
            for v in md.fields]


def mu_tangent_complex(md: MomentumData, c: gd.GDiffComplex,
                       model: PolyModel) -> TangentReport:
    """The subcomplex of invariant multivectors killed by every lifted
    one-form, in the complex (c, model) that `momentum_gdiff` built from md.

    It is the basic subcomplex, the joint kernel of the contractions i_j and
    of the Lie operators L_j = d i_j + i_j d, because on horizontal
    multivectors each L_j is minus the Lie derivative along the action
    field v_j:

        L_j w + [v_j, w] = 0   whenever i_k w = 0 for every k.

    `gdiff._first_failure` checks that identity on the basis of the joint
    kernel of the contractions; a failure, or a generator with no Lie
    derivative along its field, raises BasicMismatch naming the generator
    (and the degree and basis index of the failing column).  Closure under
    the differential is verified exactly."""
    geom = _geometric_lie_ops(md, model)
    if len(geom) != len(c.lie_ops):
        raise BasicMismatch(f"generator {len(geom)} has no Lie derivative "
                            f"along its action field")
    hor = joint_kernel(model.space, c.contractions)
    inc = LinearMap.from_blocks(GradedSpace.from_dims(hor.dims()),
                                model.space, 0, dict(hor.basis))
    columns = gd._columns(inc.source)
    for j, (lie_op, field_op) in enumerate(zip(c.lie_ops, geom)):
        if witness := gd._first_failure(columns, [(1, lie_op, inc),
                                                  (1, field_op, inc)]):
            raise BasicMismatch(
                f"generator {j}: on horizontal multivectors the Lie operator "
                f"is not minus the Lie derivative along the action field, at "
                f"degree {witness['degree']}, basis index "
                f"{witness['basis_index']}")
    tangent = joint_kernel(model.space,
                           list(c.contractions) + list(c.lie_ops))
    small, _ = restrict_complex(model.complex, tangent)
    h = cohomology(small)
    n = md.pi.ambient
    return TangentReport(tangent, small,
                         tuple(tangent.dim(q) for q in range(n + 1)),
                         tuple(h.dim(q) for q in range(n + 1)))


def de_rham_gdiff(algebra: lie.LieAlgebra, fields: Sequence,
                  slice_degree: int) -> Tuple[gd.GDiffComplex, PolyModel]:
    """Truncated polynomial differential forms as a G-differential complex
    with the action of `algebra`: the exterior differential, contraction
    with each action field, and the anticommutator Lie derivatives; the
    axioms are checked.

    The model is the window [s, s] of tilt 1 for `slice_degree` s: the
    forms whose form degree plus coefficient degree is s, which the
    exterior differential (form degree +1, coefficient degree -1) keeps.
    Each field must keep it too, by the weight rule of `_check_ops_stay`;
    fields with homogeneous linear coefficients always do."""
    if len(fields) != algebra.dim:
        raise MomentMismatch("one action field per generator is required")
    if not fields:
        raise ValueError("at least ambient information is required")
    model = build_poly_model(fields[0].ambient, PolyForm, 1, slice_degree,
                             slice_degree, exterior_d, None)
    _check_ops_stay(model, fields)
    return _with_contractions(
        algebra, model, [lambda w, v=v: contract_form(v, w) for v in fields])


def sharp_comparison(md: MomentumData, slice_degree: int,
                     sym_cap: Optional[int] = None) -> dict:
    """Compare the truncated form complex (exterior differential,
    contraction with the action fields) against the multivector complex of
    the bivector through the sharp map, slice by slice.

    Sharp is one map phi from forms to multivectors, and
    `gdiff._first_failure` checks on every basis form, in degree order,

        phi d_o = s d_x phi   for s = 1 and for s = -1,
        phi i_o = i_x phi     for each generator.

    Returns:
      * `d_sign`: the s whose identity first fails in the later degree (an
        identity that holds fails at infinity); None when both first fail
        in the same degree, which includes both holding (every block pair
        vanishes); `d_intertwines`: whether one of the two holds;
      * `contraction_intertwines`: phi commutes on the nose with the
        contraction along every generator;
      * `invertible`: every sharp block is square of full rank, making the
        two slices isomorphic complexes (after twisting by s per degree);
      * `tangent_matches_basic_image`: the invariant fiber-tangent
        multivectors coincide with the sharp image of the basic forms;
      * with `sym_cap`: equivariant cohomology dims of both sides through
        the band 2 sym_cap, and whether they agree."""
    p = md.pi
    _require_certified(p)
    c_x, model_x = momentum_gdiff(md, slice_degree=slice_degree)
    c_o, model_o = de_rham_gdiff(md.algebra, list(md.fields),
                                 slice_degree=slice_degree)
    phi = LinearMap.from_blocks(model_o.space, model_x.space, 0, {
        q: rl.mat_from_columns(
            [model_x.to_vector(pi_sharp(p, model_o.element(q, i)))
             for i in range(len(model_o.basis[q]))], model_x.space.dim(q))
        for q in model_o.basis})
    columns = gd._columns(model_o.space)

    def d_fails_at(s):
        w = gd._first_failure(columns, [(1, phi, c_o.d), (-s, c_x.d, phi)])
        return w["degree"] if w else float("inf")
    fails = {s: d_fails_at(s) for s in (1, -1)}
    d_sign = None if fails[1] == fails[-1] else max(fails, key=fails.get)
    inter = not any(gd._first_failure(columns, [(1, phi, i_o), (-1, i_x, phi)])
                    for i_o, i_x in zip(c_o.contractions, c_x.contractions))
    invertible = all(
        model_o.space.dim(q) == model_x.space.dim(q)
        and rl.rank(phi.block(q)) == model_o.space.dim(q)
        for q in sorted(model_o.basis))
    tangent = mu_tangent_complex(md, c_x, model_x)
    basic_o = joint_kernel(
        model_o.space, list(c_o.contractions) + list(c_o.lie_ops))
    spans = {}
    for q in model_o.space.degrees():
        b = basic_o.matrix(q)
        if rl.ncols(b):
            spans[q] = rl.mat_mul(phi.block(q), b)
    image = Subspace.from_spans(model_x.space, spans)
    out = {
        "d_sign": d_sign,
        "d_intertwines": float("inf") in fails.values(),
        "contraction_intertwines": inter,
        "invertible": invertible,
        "tangent_matches_basic_image": tangent.subspace.equals(image),
    }
    if sym_cap is not None:
        h_o = gd.equivariant_cohomology(c_o, sym_cap, 2 * sym_cap)
        h_x = gd.equivariant_cohomology(c_x, sym_cap, 2 * sym_cap)
        top = min(h_o.band, h_x.band)
        out["equivariant_form_dims"] = [h_o.dim(t) for t in range(top + 1)]
        out["equivariant_multivector_dims"] = [h_x.dim(t)
                                               for t in range(top + 1)]
        out["equivariant_dims_agree"] = (
            out["equivariant_form_dims"] == out["equivariant_multivector_dims"])
    return out


@dataclass(frozen=True)
class EquivariantPoissonReport:
    cohomology: object      # gdiff.EquivariantCohomology
    invariant_function_dim: int


def equivariant_poisson_cohomology(md: MomentumData, sym_cap: int,
                                   truncation: Optional[int] = None,
                                   slice_degree: Optional[int] = None,
                                   sub: Optional[lie.Subalgebra] = None
                                   ) -> EquivariantPoissonReport:
    """Equivariant cohomology, through the band 2 sym_cap, of the truncated
    multivector complex for the action packaged in the momentum data, via
    the polynomial Cartan model; with `sub` (a `lie.Subalgebra` of
    md.algebra), for the action of that subalgebra alone, as in
    `momentum_gdiff`.  Also reports the invariant-function dimension (joint
    kernel of the Lie operators among the degree-0 cocycles)."""
    c, model = momentum_gdiff(md, truncation, slice_degree, sub=sub)
    h = gd.equivariant_cohomology(c, sym_cap, 2 * sym_cap)
    inv = stacked_kernel([op.block(0) for op in (*c.lie_ops, c.d)],
                         model.space.dim(0))
    return EquivariantPoissonReport(h, rl.ncols(inv))


def poisson_low_degree(md: MomentumData, sym_cap: int,
                       slice_degree: int) -> dict:
    """Both sides of the low-degree description of equivariant cohomology
    for the action (`gdiff.low_degree_data`): degree 0 from closed functions,
    all of them invariant, and degree 1 (valid when the algebra has no
    degree-1 cohomology) as closed one-fields killed by every lifted form,
    modulo differentials of invariant functions."""
    c, _ = momentum_gdiff(md, slice_degree=slice_degree)
    low = gd.low_degree_data(c, gd.cartan_model(c, sym_cap))
    return {"h1_lie_vanishes": lie.lie_cohomology(md.algebra).dims.get(1, 0) == 0,
            "h0_model": low["h0_model"], "h0_direct": low["h0_kernel"],
            "h1_model": low["h1_model"], "h1_direct": low["h1_direct"]}


@dataclass(frozen=True)
class MomentumSpectral:
    pages: tuple
    first_differential_page: Optional[int]
    predicted_e1: Optional[dict]
    predicted_e2: Optional[dict]
    e1_matches: Optional[bool]
    e2_matches: Optional[bool]

    def to_json(self) -> dict:
        out = {"pages": [p.to_json() for p in self.pages],
               "first_differential_page": self.first_differential_page}
        if self.predicted_e1 is not None:
            out["predicted_e1"] = sorted(
                [p, q, d] for (p, q), d in self.predicted_e1.items() if d)
            out["predicted_e2"] = sorted(
                [p, q, d] for (p, q), d in self.predicted_e2.items() if d)
            out["e1_matches"] = self.e1_matches
            out["e2_matches"] = self.e2_matches
        return out


def momentum_spectral_sequence(md: MomentumData,
                               truncation: Optional[int] = None,
                               slice_degree: Optional[int] = None,
                               r_max: Optional[int] = None
                               ) -> MomentumSpectral:
    """Spectral sequence of the contraction-depth filtration on the
    truncated multivector complex.  For bundled submersive examples the
    first and second pages are compared against the product of the algebra
    cohomology with the fiber-tangent complex (dimensions, cell by cell)."""
    c, model = momentum_gdiff(md, truncation, slice_degree)
    pgs = spectral.pages(spectral.contraction_filtration(c), r_max)
    first = next((pg.r for pg in pgs if pg.diffs), None)
    pe1 = pe2 = None
    m1 = m2 = None
    if md.submersive:
        tang = mu_tangent_complex(md, c, model)
        hq = lie.lie_cohomology(md.algebra)
        pe1, pe2 = {}, {}
        for pp in range(md.pi.ambient + 1):
            for qq in range(md.algebra.dim + 1):
                d1 = hq.dims.get(qq, 0) * tang.dims[pp] \
                    if pp < len(tang.dims) else 0
                d2 = hq.dims.get(qq, 0) * tang.cohomology_dims[pp] \
                    if pp < len(tang.cohomology_dims) else 0
                if d1:
                    pe1[(pp, qq)] = d1
                if d2:
                    pe2[(pp, qq)] = d2
        if len(pgs) > 1:
            m1 = {k: v for k, v in pgs[1].cells.items() if v} == pe1
        if len(pgs) > 2:
            m2 = {k: v for k, v in pgs[2].cells.items() if v} == pe2
    return MomentumSpectral(tuple(pgs), first, pe1, pe2, m1, m2)


# ---------------------------------------------------------------------------
# The four-line sample-ring model


@dataclass(frozen=True)
class ProductLineModel:
    """Cohomology model for a circle factor times a line with a potential:
    four lines of functions sampled at the roots of the potential's critical
    set, one circle generator u, one vertical generator, with the sole
    differential multiplying by the derivative values."""

    roots: tuple
    fprime_values: tuple
    gdiff: gd.GDiffComplex

    def direct_cohomology(self) -> list:
        h = cohomology(self.gdiff.complex)
        return [h.dim(n) for n in range(4)]


def build_product_line_model(roots: Sequence,
                             fprime_values: Sequence) -> ProductLineModel:
    roots = tuple(Fraction(r) for r in roots)
    if len(set(roots)) != len(roots):
        raise DuplicateRoots(f"roots {roots} contain repeats")
    values = tuple(Fraction(v) for v in fprime_values)
    if len(values) != len(roots):
        raise ValueError("need one derivative value per root")
    m = len(roots)
    space = GradedSpace.from_dims({0: m, 1: m, 2: m, 3: m})
    dblocks = {1: rl.freeze([{i: values[i]} for i in range(m)], m)}
    d = LinearMap.from_blocks(space, space, 1, dblocks)
    cx = CochainComplex.build(space, d)
    iblocks = {1: rl.identity(m), 3: rl.identity(m)}
    i_op = LinearMap.from_blocks(space, space, -1, iblocks)
    l_op = LinearMap.zero(space, space, 0)
    algebra = lie.abelian(1)
    c = gd.build_gdiff(algebra, cx, [i_op], [l_op])
    return ProductLineModel(roots, values, c)


def product_line_report(model: ProductLineModel) -> dict:
    """Pages of the contraction-depth filtration, the page differential that
    multiplies by the derivative values, and the final dims."""
    pgs = spectral.pages(spectral.contraction_filtration(model.gdiff))
    d2 = None
    for pg in pgs:
        if (0, 1) in pg.diffs:
            d2 = {"page": pg.r, "matrix": pg.diffs[(0, 1)]}
            break
    final = pgs[-1]
    final_dims = [final.antidiagonal(n) for n in range(4)]
    return {"pages": [pg.to_json() for pg in pgs],
            "page_differential": d2,
            "final_dims": final_dims,
            "direct_dims": model.direct_cohomology()}
