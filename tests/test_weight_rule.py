"""One truncation rule for polynomial models: the window [lo, hi] on the
weight (coefficient degree + tilt * exterior degree) gives the same bases
(keys in order), dimensions, differentials and bands as the five truncation
modes it replaced, and `_check_ops_stay` refuses the same operators as their
per-mode rules, except one edge that the window computes: slice 0 of a
tilt-1 model with a constant-coefficient operator, whose model holds only
the constants, where every contraction vanishes."""

from fractions import Fraction

import pytest

from equicoh import bases, lie, poisson as po, ratlin as rl
from equicoh.core import GradedSpace
from equicoh.poly import PolyForm, PolyMultivector, exterior_d


# ---------------------------------------------------------------------------
# The mode rules, as they were before the weight rule


def _ref_coeff_degrees_for(mode, bound, q):
    if mode == "slice-coeff":
        return range(bound, bound + 1)
    if mode == "cap" or mode == "coeff-upto":
        return range(0, bound + 1)
    if mode == "total":
        return range(0, bound - q + 1) if bound >= q else range(0)
    if mode == "total-slice":
        m = bound - q
        return range(m, m + 1) if m >= 0 else range(0)
    raise ValueError(f"unknown truncation mode {mode}")


def _ref_check_ops_stay(mode, exact, forms):
    if not exact:
        raise po.UnsupportedRegime("capped quotient")
    for a in forms:
        for (s, e), _ in a.coeffs:
            if mode == "total-slice" and sum(e) != 1:
                raise po.UnsupportedRegime("total-slice")
            if mode == "total" and sum(e) > 1:
                raise po.UnsupportedRegime("total")
            if mode in ("slice-coeff", "coeff-upto") and sum(e) != 0:
                raise po.UnsupportedRegime("coefficient degree")


def _ref_de_rham_fields(fields):
    for v in fields:
        degs = {sum(e) for (_, e), _ in v.coeffs}
        if degs - {1}:
            raise po.UnsupportedRegime("de Rham fields")


def _ref_model(ambient, kind, mode, bound, differential, exact):
    """(basis, space, d blocks) of the mode truncation, built directly."""
    basis = {}
    for q in range(ambient + 1):
        keys = [(j, e) for j in bases.ext_basis(ambient, q)
                for m in _ref_coeff_degrees_for(mode, bound, q)
                for e in bases.sym_basis(ambient, m)]
        if keys:
            basis[q] = tuple(keys)
    space = GradedSpace.from_dims({q: len(ks) for q, ks in basis.items()})
    blocks = {}
    for q, keys in basis.items():
        target = {k: i for i, k in enumerate(basis.get(q + 1, ()))}
        if not target:
            continue
        cols = []
        for key in keys:
            col = {}
            for k, c in differential(kind(ambient, q, {key: 1})).coeffs:
                if k in target:
                    col[target[k]] = c
                elif exact:
                    raise ValueError(f"term {k} escapes the truncated basis")
            cols.append(col)
        blocks[q] = rl.mat_from_columns(cols, len(target))
    return basis, space, blocks


def _entries(m):
    """The nonzero entries of a matrix with their types."""
    return sorted((i, j, type(v), v) for i, row in enumerate(rl.freeze(m))
                  for j, v in row.items())


def _assert_same_model(model, ref, band):
    basis, space, blocks = ref
    assert model.basis == basis
    assert list(model.basis) == list(basis)
    assert model.space == space
    assert model.band == band
    for q in model.space.degrees():
        expected = _entries(blocks[q]) if q in blocks else []
        assert _entries(model.complex.d.block(q)) == expected, q


# ---------------------------------------------------------------------------
# The grid: six structures, slices 0-3 and truncations 0-3


def _quad():
    return po.poisson_structure(PolyMultivector(
        2, 2, {((0, 1), (2, 0)): Fraction(1)}))


STRUCTURES = {
    "su2": lambda: po.linear_poisson(lie.su2()),
    "heisenberg": lambda: po.linear_poisson(lie.heisenberg()),
    "symplectic-1": lambda: po.symplectic_poisson(1),
    "symplectic-2": lambda: po.symplectic_poisson(2),
    "quadratic": _quad,
    "zero-3": lambda: po.zero_poisson(3),
}

# regime -> (slice mode or None, truncation mode, exact)
MODES = {"linear": ("slice-coeff", "coeff-upto", True),
         "constant": ("total-slice", "total", True),
         "general-no-constant": (None, "cap", False)}


def _models(p):
    """(label, model, mode, bound, exact, band) over the grid; slices of a
    capped regime are refused."""
    slice_mode, trunc_mode, exact = MODES[p.regime]
    for k in range(4):
        if slice_mode is None:
            with pytest.raises(ValueError):
                po.poisson_complex(p, slice_degree=k)
        else:
            yield (f"slice {k}", po.poisson_complex(p, slice_degree=k),
                   slice_mode, k, True, None)
        band = None if exact else k - (p.max_coeff_degree() - 1)
        yield (f"truncation {k}", po.poisson_complex(p, truncation=k),
               trunc_mode, k, exact, band)


def _lifted(n, e):
    """x_0^e dx_0 on Q^n."""
    return PolyForm(n, 1, {((0,), (e,) + (0,) * (n - 1)): 1})


def _refuses(fn) -> bool:
    try:
        fn()
    except po.UnsupportedRegime:
        return True
    return False


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_window_models_match_the_mode_truncations(name):
    p = STRUCTURES[name]()
    diff = lambda w: po.d_pi(p, w)
    tilt = int(p.regime == "constant")
    for label, model, mode, bound, exact, band in _models(p):
        ref = _ref_model(p.ambient, PolyMultivector, mode, bound, diff, exact)
        _assert_same_model(model, ref, band)
        assert model.tilt == tilt
        assert (model.lo, model.hi) == ((bound, bound) if "slice" in label
                                        else (0, bound))


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_lifted_forms_refused_as_by_the_mode_rules(name):
    p = STRUCTURES[name]()
    differ = []
    for label, model, mode, bound, exact, band in _models(p):
        for e in range(3):
            forms = [_lifted(p.ambient, e)]
            new = _refuses(lambda: po._check_ops_stay(model, forms))
            old = _refuses(lambda: _ref_check_ops_stay(mode, exact, forms))
            if new != old:
                differ.append((label, e, old))
    edge = [("slice 0", 0, True)] if p.regime == "constant" else []
    assert differ == edge
    if edge:
        # the edge model is the window [0, 0], the constants
        window = po.poisson_complex(p, truncation=0)
        edge_model = po.poisson_complex(p, slice_degree=0)
        assert edge_model.basis == window.basis == {
            0: (((), (0,) * p.ambient),)}


@pytest.mark.parametrize("slice_degree", range(4))
def test_de_rham_models_and_field_refusals_match(slice_degree):
    differ = []
    for e in range(3):
        v = PolyMultivector(2, 1, {((1,), (e, 0)): 1})
        old = _refuses(lambda: _ref_de_rham_fields([v]))
        try:
            c, model = po.de_rham_gdiff(lie.abelian(1), [v], slice_degree)
        except po.UnsupportedRegime:
            new = True
        else:
            new = False
            ref = _ref_model(2, PolyForm, "total-slice", slice_degree,
                             exterior_d, True)
            _assert_same_model(model, ref, None)
        if new != old:
            differ.append((e, old))
            # the constants: the contraction vanishes, as in the window
            assert model.basis == {0: (((), (0, 0)),)}
            assert rl.is_zero(c.contractions[0].block(0))
    assert differ == ([(0, True)] if slice_degree == 0 else [])
