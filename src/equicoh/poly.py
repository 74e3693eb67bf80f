"""Exact polynomial multivector fields and differential forms on Q^n.

Both kinds of objects are finite sums of terms  c * x^E * basis_I  where
x^E is a monomial in the coordinates, I is a strictly increasing tuple of
axis indices, and basis_I is dx_{i1} ^ ... ^ dx_{ik} for forms or
the corresponding wedge of coordinate vector fields for multivectors.
Coefficients are exact rationals stored as `ratlin` stores a matrix entry: an
int, or a Fraction that is not integral.  Incoming coefficients go through
`ratlin.q` (so a float is refused), and sums that come out integral are
stored as ints, so arithmetic on integer coefficients stays in ints.

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

Every operation yields its terms ((index tuple, exponent tuple), coefficient),
repeated keys allowed, straight to the constructor of its result; the
constructor alone checks, sums and sorts them.  A sum or difference of
objects chains their terms, negated where subtracted, into one constructor
call, without building the negated object.  The bilinear operations share
one loop over pairs of terms (`_products`), and the exterior differential
(`_d`), the derivative along a vector field and the graded bracket of
`poisson` share one loop over partial derivatives (`_derivatives`); `poisson`
feeds these term loops into its own constructors.  The tensors of the
slot-sum operator are summed the same way, by `_tensor`.

The checks on a key depend only on the ambient dimension, the degree and the
key itself, so a module-level memo maps each (ambient, degree, raw key) it
has checked to the key with int entries: a key seen before is looked up,
every new key is checked in full, and a key that cannot be hashed (a list
index tuple, say) is checked on every use.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add
from types import GeneratorType
from typing import Mapping, Tuple, Union

from .bases import remove_slot, remove_slots, wedge_merge
from .ratlin import q


class AmbientMismatch(Exception):
    pass


class DegreeMismatch(Exception):
    pass


Expo = Tuple[int, ...]
Idx = Tuple[int, ...]
Key = Tuple[Idx, Expo]


def _checked_key(ambient: int, degree: int, key) -> Key:
    """The key (index tuple, exponent tuple) with int entries, after every
    check on it."""
    raw = idx, expo = tuple(map(tuple, key))
    idx, expo = tuple(map(int, idx)), tuple(map(int, expo))
    if (idx, expo) != raw:
        raise ValueError(f"key {raw} has an entry that is not an integer")
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
    return idx, expo


#: (ambient, degree) -> {raw key: `_checked_key` of it}
_CHECKED: dict = {}

#: Term collections read as sequences of terms without the `abc.Mapping`
#: check, which costs a Python-level call on every construction; a dict is
#: read as a mapping at once, and any other type gets the full check.
_TERM_SEQUENCES = frozenset({tuple, list, GeneratorType, chain})


def _validate_terms(ambient: int, degree: int, terms) -> tuple:
    """Check every term, sum the coefficients of repeated keys and sort."""
    checked = _CHECKED.get((ambient, degree))
    if checked is None:
        checked = _CHECKED[ambient, degree] = {}
    kind = type(terms)
    if kind is dict or (kind not in _TERM_SEQUENCES
                        and isinstance(terms, abc.Mapping)):
        terms = terms.items()
    acc = {}
    for raw, coeff in terms:
        try:
            key = checked[raw]
        except KeyError:
            key = checked[raw] = _checked_key(ambient, degree, raw)
        except TypeError:   # unhashable, such as a list index tuple
            key = _checked_key(ambient, degree, raw)
        c = q(coeff)
        if c:
            acc[key] = acc.get(key, 0) + c
    return tuple(sorted([(k, q(v)) for k, v in acc.items() if v]))


@dataclass(frozen=True, repr=False)
class _Graded:
    """The one body of multivectors and forms; the two subclasses are kind
    tags (they keep the kinds apart in `==`, `repr` and `_same_shape`)."""

    ambient: int
    degree: int
    coeffs: tuple

    def __init__(self, ambient: int, degree: int, terms=()):
        object.__setattr__(self, "ambient", int(ambient))
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "coeffs",
                           _validate_terms(self.ambient, self.degree, terms))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_degree(self) -> int:
        """Largest total degree of a polynomial coefficient (0 if zero)."""
        return max((sum(e) for (_, e), _ in self.coeffs), default=0)

    def add(self, other):
        self._same_shape(other)
        return type(self)(self.ambient, self.degree,
                          self.coeffs + other.coeffs)

    def sub(self, other):
        self._same_shape(other)
        return type(self)(self.ambient, self.degree, chain(
            self.coeffs, ((k, -v) for k, v in other.coeffs)))

    def scale(self, c):
        c = q(c)
        return type(self)(self.ambient, self.degree,
                          ((k, c * v) for k, v in self.coeffs))

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


class PolyMultivector(_Graded):
    """Polynomial multivector field of fixed exterior degree on Q^ambient."""


class PolyForm(_Graded):
    """Polynomial differential form of fixed exterior degree on Q^ambient."""


# ---------------------------------------------------------------------------
# Constructors


def zero_multivector(ambient: int, degree: int) -> PolyMultivector:
    return PolyMultivector(ambient, degree)


def zero_form(ambient: int, degree: int) -> PolyForm:
    return PolyForm(ambient, degree)


def function(ambient: int, poly: Mapping[Expo, Fraction]) -> PolyMultivector:
    """A polynomial (degree-0 multivector) from {exponent tuple: coeff}."""
    return PolyMultivector(ambient, 0, {((), e): c for e, c in poly.items()})


def basis_form(ambient: int, i: int) -> PolyForm:
    return PolyForm(ambient, 1, {((i,), (0,) * ambient): 1})


def as_form(f: PolyMultivector) -> PolyForm:
    if f.degree != 0:
        raise DegreeMismatch("only degree-0 objects convert between kinds")
    return PolyForm(f.ambient, 0, f.coeffs)


def as_multivector(f: PolyForm) -> PolyMultivector:
    if f.degree != 0:
        raise DegreeMismatch("only degree-0 objects convert between kinds")
    return PolyMultivector(f.ambient, 0, f.coeffs)


# ---------------------------------------------------------------------------
# The term loops every operation below is made of


def _products(xs, ys, merge):
    """The terms sign * c1 * c2 at (index, e1 + e2) over the pairs of terms
    ((i1, e1), c1) of xs and ((i2, e2), c2) of ys for which merge(i1, i2)
    gives (sign, index); the pairs it maps to None drop out."""
    ys = tuple(ys)
    for (i1, e1), c1 in xs:
        for (i2, e2), c2 in ys:
            m = merge(i1, i2)
            if m is not None:
                yield (m[1], tuple(map(add, e1, e2))), m[0] * c1 * c2


def _slots(x, from_tail: bool = False):
    """(axis, ((rest, e), +-c)) for each term c x^e basis_I of x and each
    axis of I: the odd derivative along that axis, with basis_rest the
    remaining slots and the sign counted from the head of I, or from its
    tail."""
    for (idx, e), c in x.coeffs:
        for t, axis in enumerate(idx):
            odd = (len(idx) - 1 - t if from_tail else t) % 2
            yield axis, ((idx[:t] + idx[t + 1:], e), -c if odd else c)


def _derivatives(xs, y):
    """The terms of sum term ^ (dy/dx_axis) over the (axis, term) of xs,
    wedged by index tuples."""
    partials = [[] for _ in range(y.ambient)]
    for (idx, e), c in y.coeffs:
        for i, k in enumerate(e):
            if k:
                lowered = e[:i] + (k - 1,) + e[i + 1:]
                partials[i].append(((idx, lowered), k * c))
    for axis, term in xs:
        yield from _products((term,), partials[axis], wedge_merge)


def _d(x):
    """The terms of d(x) for x read as a form (`exterior_d`)."""
    n = x.ambient
    return _derivatives(((i, (((i,), (0,) * n), 1)) for i in range(n)), x)


# ---------------------------------------------------------------------------
# Wedge products and the exterior differential


def wedge(x, y):
    """Exterior product of two multivectors or two forms; a degree-0 factor
    multiplies by a polynomial function."""
    if type(x) is not type(y):
        raise TypeError("wedge requires two objects of the same kind")
    if x.ambient != y.ambient:
        raise AmbientMismatch(f"ambient {x.ambient} vs {y.ambient}")
    return type(x)(x.ambient, x.degree + y.degree,
                   _products(x.coeffs, y.coeffs, wedge_merge))


def exterior_d(x: Union[PolyForm, PolyMultivector]) -> PolyForm:
    """d(f dx_I) = sum_i (df/dx_i) dx_i ^ dx_I.  Accepts forms of any degree
    and polynomial functions given as degree-0 multivectors."""
    if isinstance(x, PolyMultivector):
        x = as_form(x)
    return PolyForm(x.ambient, x.degree + 1, _d(x))


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
    return PolyMultivector(w.ambient, 0, _products(
        beta.coeffs, w.coeffs, lambda i, j: (1, ()) if i == j else None))


def contract(alpha: PolyForm, w: PolyMultivector) -> PolyMultivector:
    """Interior product of a form into a multivector:
    <beta, contract(alpha, w)> = <alpha ^ beta, w>.  Zero when the form
    degree exceeds the multivector degree."""
    if not isinstance(alpha, PolyForm) or not isinstance(w, PolyMultivector):
        raise TypeError("contract takes (form, multivector)")
    if alpha.ambient != w.ambient:
        raise AmbientMismatch(f"ambient {alpha.ambient} vs {w.ambient}")
    if alpha.degree > w.degree:
        return zero_multivector(w.ambient, 0)
    return PolyMultivector(w.ambient, w.degree - alpha.degree,
                           _products(alpha.coeffs, w.coeffs, remove_slots))


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
                    _products(v.coeffs, beta.coeffs, remove_slots))


# ---------------------------------------------------------------------------
# The slot-sum operator w (x) beta -> sum_j +- (i_{v_j} beta) (x) (w / v_j)
#
# Tensors over the function ring are stored as
#     {(form index tuple, multivector index tuple, exponent tuple): coeff}
# with all polynomial coefficients collected in the shared exponent slot.
# In the term loops a tensor term reads
#     (((form index tuple, multivector index tuple), exponent tuple), coeff).


def _tensor(terms) -> dict:
    """The tensor of the given terms: repeats summed, zeros dropped, keys in
    the order they first appear, coefficients stored as `_Graded` stores
    them."""
    out = {}
    for ((fi, mi), e), c in terms:
        out[fi, mi, e] = out.get((fi, mi, e), 0) + c
    return {k: q(v) for k, v in out.items() if v}


def _tensor_terms(t: dict):
    return ((((fi, mi), e), c) for (fi, mi, e), c in t.items())


def tensor_add(t1: dict, t2: dict) -> dict:
    return _tensor(chain(_tensor_terms(t1), _tensor_terms(t2)))


def tensor_scale(t: dict, c) -> dict:
    c = q(c)
    return _tensor((k, c * v) for k, v in _tensor_terms(t))


def tensor_is_zero(t: dict) -> bool:
    return not any(t.values())


def tensor_lwedge(alpha: PolyForm, t: dict) -> dict:
    """alpha ^ (beta (x) v) = (alpha ^ beta) (x) v, term by term."""
    def merge(ai, index):
        m = wedge_merge(ai, index[0])
        return None if m is None else (m[0], (m[1], index[1]))
    return _tensor(_products(alpha.coeffs, _tensor_terms(t), merge))


def tilde_i(w: PolyMultivector, beta: PolyForm) -> dict:
    """Sum over the slots of w: for w = v_1 ^ ... ^ v_q,
    sum_j (-1)^(j-1) (i_{v_j} beta) (x) (v_1 ^ ... v_j-hat ... ^ v_q),
    extended bilinearly over polynomial coefficients.  Returns a tensor."""
    if w.ambient != beta.ambient:
        raise AmbientMismatch(f"ambient {w.ambient} vs {beta.ambient}")

    def merge(slot, fi):
        m = remove_slot(slot[0], fi)
        return None if m is None else (m[0], (m[1], slot[1]))
    slots = ((((axis, rest), e), c) for axis, ((rest, e), c) in _slots(w))
    return _tensor(_products(slots, beta.coeffs, merge))


def tensor_fold_functions(t: dict, ambient: int, mv_degree: int) -> PolyMultivector:
    """Collapse a tensor whose form part is degree 0 into a multivector."""
    if any(fi != () for fi, _, _ in t):
        raise DegreeMismatch("tensor form part has positive degree")
    return PolyMultivector(ambient, mv_degree,
                           (((mi, e), c) for (_, mi, e), c in t.items()))


def apply_vector_field(v: PolyMultivector, f: PolyMultivector) -> PolyMultivector:
    """Derivative of a polynomial f along a polynomial vector field v."""
    if v.degree != 1 or f.degree != 0:
        raise DegreeMismatch("apply_vector_field takes (vector field, function)")
    if v.ambient != f.ambient:
        raise AmbientMismatch(f"ambient {v.ambient} vs {f.ambient}")
    return PolyMultivector(f.ambient, 0, _derivatives(_slots(v), f))
