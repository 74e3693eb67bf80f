"""Exact polynomial multivector fields and differential forms on Q^n.

Both kinds of objects are finite sums of terms  c * x^E * basis_I  where
x^E is a monomial in the coordinates, I is a strictly increasing tuple of
axis indices, and basis_I is dx_{i1} ^ ... ^ dx_{ik} for forms or
the corresponding wedge of coordinate vector fields for multivectors.
Coefficients are exact rationals throughout.

Fixed normalizations (all other sign rules in this file follow from them):

  * the pairing of a k-form with a k-vector satisfies
    <dx_I, e_J> = delta_{I,J} on strictly increasing index tuples;
  * the interior product of a form into a multivector is the adjoint
    <beta, i_alpha w> = <alpha ^ beta, w>, and the interior product of a
    multivector into a form is the adjoint <i_v beta, w> = <beta, v ^ w>.
    On basis terms both reduce to the same rule: contracting basis_S out
    of basis_J gives sign(S, J\\S) * basis_{J\\S} when S is a subset of J
    (where the sign sorts the concatenation (S, J\\S) into J) and zero
    otherwise.

Degree-0 objects of either kind represent polynomial functions; `as_form`
and `as_multivector` convert between the two interpretations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple, Union

from .bases import remove_slot, remove_slots, wedge_merge


class AmbientMismatch(Exception):
    pass


class DegreeMismatch(Exception):
    pass


Expo = Tuple[int, ...]
Idx = Tuple[int, ...]
Key = Tuple[Idx, Expo]


def _validate_terms(ambient: int, degree: int, terms) -> tuple:
    acc = {}
    items = terms.items() if isinstance(terms, Mapping) else terms
    for (idx, expo), coeff in items:
        idx = tuple(int(i) for i in idx)
        expo = tuple(int(e) for e in expo)
        if len(idx) != degree:
            raise DegreeMismatch(
                f"index tuple {idx} has length {len(idx)}, degree is {degree}")
        if any(i < 0 or i >= ambient for i in idx):
            raise AmbientMismatch(f"index tuple {idx} escapes ambient {ambient}")
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"index tuple {idx} must be strictly increasing")
        if len(expo) != ambient:
            raise AmbientMismatch(
                f"exponent vector {expo} has length {len(expo)}, ambient is {ambient}")
        if any(e < 0 for e in expo):
            raise ValueError(f"negative exponent in {expo}")
        c = Fraction(coeff)
        if c:
            key = (idx, expo)
            acc[key] = acc.get(key, Fraction(0)) + c
    return tuple(sorted((k, v) for k, v in acc.items() if v))


class _Graded:
    """Shared arithmetic for multivectors and forms."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def terms(self):
        return iter(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_degree(self) -> int:
        """Largest total degree of a polynomial coefficient (0 if zero)."""
        return max((sum(e) for (_, e), _ in self.coeffs), default=0)

    def add(self, other):
        self._same_shape(other)
        acc = self.as_dict()
        for k, v in other.coeffs:
            acc[k] = acc.get(k, Fraction(0)) + v
        return type(self)(self.ambient, self.degree, acc)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        c = Fraction(c)
        return type(self)(self.ambient, self.degree,
                          {k: c * v for k, v in self.coeffs})

    def _same_shape(self, other):
        if type(self) is not type(other):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.ambient != other.ambient:
            raise AmbientMismatch(
                f"ambient {self.ambient} vs {other.ambient}")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    def __repr__(self):
        kind = "X" if isinstance(self, PolyMultivector) else "W"
        if not self.coeffs:
            return f"{kind}^{self.degree}(0)"
        bits = []
        for (idx, expo), c in self.coeffs[:6]:
            mono = "".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                           for i, e in enumerate(expo) if e)
            base = ("d" if isinstance(self, PolyForm) else "e") + \
                "".join(str(i) for i in idx)
            bits.append(f"{c}*{mono or '1'}*{base if idx else '1'}")
        tail = " + ..." if len(self.coeffs) > 6 else ""
        return f"{kind}^{self.degree}(" + " + ".join(bits) + tail + ")"


@dataclass(frozen=True, repr=False)
class PolyMultivector(_Graded):
    """Polynomial multivector field of fixed exterior degree on Q^ambient."""

    ambient: int
    degree: int
    coeffs: tuple

    def __init__(self, ambient: int, degree: int, terms=()):
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "coeffs",
                           _validate_terms(self.ambient, self.degree, terms))


@dataclass(frozen=True, repr=False)
class PolyForm(_Graded):
    """Polynomial differential form of fixed exterior degree on Q^ambient."""

    ambient: int
    degree: int
    coeffs: tuple

    def __init__(self, ambient: int, degree: int, terms=()):
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "coeffs",
                           _validate_terms(self.ambient, self.degree, terms))


# ---------------------------------------------------------------------------
# Constructors


def zero_multivector(ambient: int, degree: int) -> PolyMultivector:
    return PolyMultivector(ambient, degree)


def zero_form(ambient: int, degree: int) -> PolyForm:
    return PolyForm(ambient, degree)


def function(ambient: int, poly: Mapping[Expo, Fraction]) -> PolyMultivector:
    """A polynomial (degree-0 multivector) from {exponent tuple: coeff}."""
    return PolyMultivector(ambient, 0, {((), e): c for e, c in poly.items()})


def constant(ambient: int, c) -> PolyMultivector:
    return function(ambient, {(0,) * ambient: Fraction(c)})


def coordinate(ambient: int, i: int) -> PolyMultivector:
    e = [0] * ambient
    e[i] = 1
    return function(ambient, {tuple(e): Fraction(1)})


def basis_vector(ambient: int, i: int) -> PolyMultivector:
    return PolyMultivector(ambient, 1, {((i,), (0,) * ambient): Fraction(1)})


def basis_form(ambient: int, i: int) -> PolyForm:
    return PolyForm(ambient, 1, {((i,), (0,) * ambient): Fraction(1)})


def as_form(f: PolyMultivector) -> PolyForm:
    if f.degree != 0:
        raise DegreeMismatch("only degree-0 objects convert between kinds")
    return PolyForm(f.ambient, 0, dict(f.coeffs))


def as_multivector(f: PolyForm) -> PolyMultivector:
    if f.degree != 0:
        raise DegreeMismatch("only degree-0 objects convert between kinds")
    return PolyMultivector(f.ambient, 0, dict(f.coeffs))


# ---------------------------------------------------------------------------
# Polynomial-coefficient helpers (plain {expo: Fraction} dicts)


def poly_of(x: Union[PolyMultivector, PolyForm]) -> dict:
    if x.degree != 0:
        raise DegreeMismatch("not a polynomial: degree is nonzero")
    return {e: c for ((_, e), c) in x.coeffs}


def scale_by_function(f, x):
    """Multiply a multivector or form by a polynomial function."""
    if f.ambient != x.ambient:
        raise AmbientMismatch(f"ambient {f.ambient} vs {x.ambient}")
    p = poly_of(f)
    out = {}
    for (idx, e), c in x.coeffs:
        for ef, cf in p.items():
            key = (idx, tuple(a + b for a, b in zip(e, ef)))
            out[key] = out.get(key, Fraction(0)) + c * cf
    return type(x)(x.ambient, x.degree, out)


# ---------------------------------------------------------------------------
# Wedge products and the exterior differential


def wedge(x, y):
    """Exterior product of two multivectors or two forms."""
    if type(x) is not type(y):
        raise TypeError("wedge requires two objects of the same kind")
    if x.ambient != y.ambient:
        raise AmbientMismatch(f"ambient {x.ambient} vs {y.ambient}")
    out = {}
    for (i1, e1), c1 in x.coeffs:
        for (i2, e2), c2 in y.coeffs:
            m = wedge_merge(i1, i2)
            if m is None:
                continue
            sign, idx = m
            key = (idx, tuple(a + b for a, b in zip(e1, e2)))
            out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return type(x)(x.ambient, x.degree + y.degree, out)


def exterior_d(x: Union[PolyForm, PolyMultivector]) -> PolyForm:
    """d(f dx_I) = sum_i (df/dx_i) dx_i ^ dx_I.  Accepts forms of any degree
    and polynomial functions given as degree-0 multivectors."""
    if isinstance(x, PolyMultivector):
        x = as_form(x)
    out = {}
    n = x.ambient
    for (idx, expo), c in x.coeffs:
        for i in range(n):
            if expo[i] == 0:
                continue
            m = wedge_merge((i,), idx)
            if m is None:
                continue
            sign, nidx = m
            ne = list(expo)
            ne[i] -= 1
            key = (nidx, tuple(ne))
            out[key] = out.get(key, Fraction(0)) + sign * c * expo[i]
    return PolyForm(x.ambient, x.degree + 1, out)


# ---------------------------------------------------------------------------
# Pairing and interior products


def pairing(beta: PolyForm, w: PolyMultivector) -> PolyMultivector:
    """<f dx_I, g e_J> = f g delta_{I,J}; returns a polynomial function."""
    if not isinstance(beta, PolyForm) or not isinstance(w, PolyMultivector):
        raise TypeError("pairing takes (form, multivector)")
    if beta.ambient != w.ambient:
        raise AmbientMismatch(f"ambient {beta.ambient} vs {w.ambient}")
    if beta.degree != w.degree:
        raise DegreeMismatch(
            f"pairing needs equal degrees, got {beta.degree} and {w.degree}")
    out = {}
    lookup = {}
    for (idx, e), c in w.coeffs:
        lookup.setdefault(idx, []).append((e, c))
    for (idx, e1), c1 in beta.coeffs:
        for e2, c2 in lookup.get(idx, ()):
            key = ((), tuple(a + b for a, b in zip(e1, e2)))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return PolyMultivector(w.ambient, 0, out)


def _contract_terms(x, y) -> dict:
    """Terms of the basis-wise contraction of x's index tuples out of y's."""
    out = {}
    for (s, e1), c1 in x.coeffs:
        for (j, e2), c2 in y.coeffs:
            m = remove_slots(s, j)
            if m is None:
                continue
            sign, rest = m
            key = (rest, tuple(a + b for a, b in zip(e1, e2)))
            out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return out


def contract(alpha: PolyForm, w: PolyMultivector) -> PolyMultivector:
    """Interior product of a form into a multivector:
    <beta, contract(alpha, w)> = <alpha ^ beta, w>.  Zero when the form
    degree exceeds the multivector degree."""
    if not isinstance(alpha, PolyForm) or not isinstance(w, PolyMultivector):
        raise TypeError("contract takes (form, multivector)")
    if alpha.ambient != w.ambient:
        raise AmbientMismatch(f"ambient {alpha.ambient} vs {w.ambient}")
    deg = max(w.degree - alpha.degree, 0)
    if alpha.degree > w.degree:
        return zero_multivector(w.ambient, 0)
    return PolyMultivector(w.ambient, deg, _contract_terms(alpha, w))


def contract_form(v: PolyMultivector, beta: PolyForm) -> PolyForm:
    """Interior product of a multivector into a form:
    <contract_form(v, beta), w> = <beta, v ^ w>."""
    if not isinstance(v, PolyMultivector) or not isinstance(beta, PolyForm):
        raise TypeError("contract_form takes (multivector, form)")
    if v.ambient != beta.ambient:
        raise AmbientMismatch(f"ambient {v.ambient} vs {beta.ambient}")
    if v.degree > beta.degree:
        return zero_form(beta.ambient, 0)
    return PolyForm(beta.ambient, beta.degree - v.degree,
                    _contract_terms(v, beta))


# ---------------------------------------------------------------------------
# The slot-sum operator w (x) beta -> sum_j +- (i_{v_j} beta) (x) (w / v_j)
#
# Tensors over the function ring are stored as
#     {(form index tuple, multivector index tuple, exponent tuple): coeff}
# with all polynomial coefficients collected in the shared exponent slot.


def tensor_from_pair(beta: PolyForm, w: PolyMultivector) -> dict:
    out = {}
    for (fi, fe), cf in beta.coeffs:
        for (mi, me), cm in w.coeffs:
            key = (fi, mi, tuple(a + b for a, b in zip(fe, me)))
            out[key] = out.get(key, Fraction(0)) + cf * cm
    return out


def tensor_add(t1: dict, t2: dict) -> dict:
    out = dict(t1)
    for k, v in t2.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def tensor_scale(t: dict, c) -> dict:
    c = Fraction(c)
    return {k: c * v for k, v in t.items() if c * v}


def tensor_is_zero(t: dict) -> bool:
    return not any(t.values())


def tensor_lwedge(alpha: PolyForm, t: dict) -> dict:
    """alpha ^ (beta (x) v) = (alpha ^ beta) (x) v, term by term."""
    out = {}
    for (ai, ae), ca in alpha.coeffs:
        for (fi, mi, e), c in t.items():
            m = wedge_merge(ai, fi)
            if m is None:
                continue
            sign, nfi = m
            key = (nfi, mi, tuple(a + b for a, b in zip(ae, e)))
            out[key] = out.get(key, Fraction(0)) + sign * ca * c
    return {k: v for k, v in out.items() if v}


def tilde_i(w: PolyMultivector, beta: PolyForm) -> dict:
    """Sum over the slots of w: for w = v_1 ^ ... ^ v_q,
    sum_j (-1)^(j-1) (i_{v_j} beta) (x) (v_1 ^ ... v_j-hat ... ^ v_q),
    extended bilinearly over polynomial coefficients.  Returns a tensor."""
    if w.ambient != beta.ambient:
        raise AmbientMismatch(f"ambient {w.ambient} vs {beta.ambient}")
    out = {}
    for (j, e), c in w.coeffs:
        for t, axis in enumerate(j):
            rest = j[:t] + j[t + 1:]
            slot_sign = (-1) ** t
            for (fi, fe), cf in beta.coeffs:
                m = remove_slot(axis, fi)
                if m is None:
                    continue
                sign, nfi = m
                key = (nfi, rest, tuple(a + b for a, b in zip(e, fe)))
                val = slot_sign * sign * c * cf
                out[key] = out.get(key, Fraction(0)) + val
    return {k: v for k, v in out.items() if v}


def tensor_fold_functions(t: dict, ambient: int, mv_degree: int) -> PolyMultivector:
    """Collapse a tensor whose form part is degree 0 into a multivector."""
    out = {}
    for (fi, mi, e), c in t.items():
        if fi != ():
            raise DegreeMismatch("tensor form part has positive degree")
        out[(mi, e)] = out.get((mi, e), Fraction(0)) + c
    return PolyMultivector(ambient, mv_degree, out)


def apply_vector_field(v: PolyMultivector, f: PolyMultivector) -> PolyMultivector:
    """Derivative of a polynomial f along a polynomial vector field v."""
    if v.degree != 1 or f.degree != 0:
        raise DegreeMismatch("apply_vector_field takes (vector field, function)")
    if v.ambient != f.ambient:
        raise AmbientMismatch(f"ambient {v.ambient} vs {f.ambient}")
    out = {}
    for ((i,), ev), cv in v.coeffs:
        for ((_, ef), cf) in f.coeffs:
            if ef[i] == 0:
                continue
            ne = list(ef)
            ne[i] -= 1
            e = tuple(a + b for a, b in zip(ev, ne))
            out[((), e)] = out.get(((), e), Fraction(0)) + cv * cf * ef[i]
    return PolyMultivector(f.ambient, 0, out)
