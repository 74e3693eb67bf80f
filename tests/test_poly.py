import random
from fractions import Fraction as F
from types import MappingProxyType, SimpleNamespace

import pytest

from equicoh import poly
from equicoh.bases import remove_slot, remove_slots, wedge_merge


def V(n, i):
    return poly.PolyMultivector(n, 1, {((i,), (0,) * n): F(1)})


def D(n, i):
    return poly.basis_form(n, i)


def X(n, i):
    return poly.function(n, {tuple(int(t == i) for t in range(n)): F(1)})


def one(n):
    return poly.function(n, {(0,) * n: F(1)})


def test_construction_normalizes_and_drops_zeros():
    w = poly.PolyMultivector(2, 1, [(((0,), (0, 0)), F(1)),
                                    (((0,), (0, 0)), F(-1))])
    assert w.is_zero()
    with pytest.raises(ValueError):
        poly.PolyMultivector(2, 2, {((1, 0), (0, 0)): F(1)})
    with pytest.raises(poly.AmbientMismatch):
        poly.PolyMultivector(2, 1, {((5,), (0, 0)): F(1)})
    with pytest.raises(poly.DegreeMismatch):
        poly.PolyMultivector(2, 1, {((0, 1), (0, 0)): F(1)})


def test_wedge_signs_and_nilpotence():
    n = 3
    a, b = D(n, 0), D(n, 1)
    assert poly.wedge(a, b) == poly.wedge(b, a).scale(-1)
    assert poly.wedge(a, a).is_zero()
    ab = poly.wedge(a, b)
    c = D(n, 2)
    assert poly.wedge(ab, c) == poly.wedge(a, poly.wedge(b, c))
    with pytest.raises(TypeError):
        poly.wedge(a, V(n, 0))
    with pytest.raises(poly.AmbientMismatch):
        poly.wedge(a, D(2, 0))


def test_exterior_d_products_and_square_zero():
    n = 2
    x, y = X(n, 0), X(n, 1)
    xy = poly.wedge(x, y)
    dxy = poly.exterior_d(xy)
    expect = poly.wedge(poly.as_form(y), D(n, 0)).add(
        poly.wedge(poly.as_form(x), D(n, 1)))
    assert dxy == expect
    # d(x^2 dy) = 2x dx^dy
    form = poly.wedge(poly.as_form(poly.wedge(x, x)), D(n, 1))
    dd = poly.exterior_d(form)
    expect2 = poly.wedge(poly.as_form(x),
                         poly.wedge(D(n, 0), D(n, 1))).scale(2)
    assert dd == expect2
    assert poly.exterior_d(dd).is_zero()
    mixed = poly.wedge(poly.as_form(poly.wedge(y, y)), D(n, 0)).add(
        poly.wedge(poly.as_form(xy), D(n, 1)))
    assert poly.exterior_d(poly.exterior_d(mixed)).is_zero()


def test_pairing_identity_and_degree_guard():
    n = 3
    top_f = poly.wedge(poly.wedge(D(n, 0), D(n, 1)), D(n, 2))
    top_v = poly.wedge(poly.wedge(V(n, 0), V(n, 1)), V(n, 2))
    assert poly.pairing(top_f, top_v) == one(n)
    f, g = X(n, 0), X(n, 1)
    lhs = poly.pairing(poly.wedge(poly.as_form(f), D(n, 0)),
                       poly.wedge(g, V(n, 0)))
    assert lhs == poly.function(n, {(1, 1, 0): F(1)})
    with pytest.raises(poly.DegreeMismatch):
        poly.pairing(D(n, 0), top_v)


def _basis_forms(n, k):
    from itertools import combinations
    out = []
    for idx in combinations(range(n), k):
        out.append(poly.PolyForm(n, k, {(idx, (0,) * n): F(1)}))
    return out


def _basis_mvs(n, k):
    from itertools import combinations
    out = []
    for idx in combinations(range(n), k):
        out.append(poly.PolyMultivector(n, k, {(idx, (0,) * n): F(1)}))
    return out


def test_contract_examples_and_adjunction():
    n = 2
    e01 = poly.wedge(V(n, 0), V(n, 1))
    assert poly.contract(D(n, 0), e01) == V(n, 1)
    assert poly.contract(D(n, 1), e01) == V(n, 0).scale(-1)
    assert poly.contract(poly.wedge(D(n, 0), D(n, 1)), e01) == one(n)
    assert poly.contract(poly.wedge(D(n, 0), D(n, 1)), V(n, 0)).is_zero()
    # <beta, i_alpha w> = <alpha ^ beta, w> across a full basis sweep
    n = 3
    for s in range(0, 3):
        for q in range(s, 4):
            for alpha in _basis_forms(n, s):
                for w in _basis_mvs(n, q):
                    for beta in _basis_forms(n, q - s):
                        lhs = poly.pairing(beta, poly.contract(alpha, w))
                        rhs = poly.pairing(poly.wedge(alpha, beta), w)
                        assert lhs == rhs


def test_contract_form_adjunction():
    n = 3
    for s in range(0, 3):
        for p in range(s, 4):
            for v in _basis_mvs(n, s):
                for beta in _basis_forms(n, p):
                    for w in _basis_mvs(n, p - s):
                        lhs = poly.pairing(poly.contract_form(v, beta), w)
                        rhs = poly.pairing(beta, poly.wedge(v, w))
                        assert lhs == rhs


def test_interior_is_antiderivation():
    n = 3
    v = V(n, 1)
    for k in (1, 2):
        for a1 in _basis_forms(n, k):
            for a2 in _basis_forms(n, 1):
                lhs = poly.contract_form(v, poly.wedge(a1, a2))
                rhs = poly.wedge(poly.contract_form(v, a1), a2).add(
                    poly.wedge(a1, poly.contract_form(v, a2)).scale((-1) ** k))
                assert lhs == rhs


def test_slot_sum_matches_contraction_on_one_forms():
    # folding the slot-sum tensor of a 1-form reproduces the interior product
    n = 3
    x = X(n, 0)
    samples = [
        poly.wedge(V(n, 0), V(n, 1)),
        poly.wedge(poly.wedge(x, V(n, 0)), V(n, 2)),
        poly.wedge(poly.wedge(V(n, 0), V(n, 1)), V(n, 2)),
    ]
    alphas = [D(n, 0), poly.wedge(poly.as_form(x), D(n, 1)), D(n, 2)]
    for w in samples:
        for alpha in alphas:
            t = poly.tilde_i(w, alpha)
            folded = poly.tensor_fold_functions(t, n, w.degree - 1)
            assert folded == poly.contract(alpha, w)


def test_tensor_helpers():
    n = 2
    t = {((1,), (0,), (0, 0)): F(1)}   # dx_1 (x) d/dx_0
    t2 = poly.tensor_lwedge(D(n, 0), t)
    assert t2 == {((0, 1), (0,), (0, 0)): F(1)}
    assert poly.tensor_is_zero(poly.tensor_add(t, poly.tensor_scale(t, -1)))


def test_vector_field_application():
    n = 2
    x, y = X(n, 0), X(n, 1)
    vf = poly.wedge(x, V(n, 1))  # x d/dy
    yy = poly.wedge(y, y)
    assert poly.apply_vector_field(vf, yy) == poly.function(
        n, {(1, 1): F(2)})
    assert poly.apply_vector_field(vf, x).is_zero()


def test_function_conversions():
    n = 2
    f = poly.function(n, {(2, 0): F(1, 2)})
    g = poly.as_multivector(poly.as_form(f))
    assert g == f
    with pytest.raises(poly.DegreeMismatch):
        poly.as_form(V(n, 0))


# ---------------------------------------------------------------------------
# The calculus against hand-written reference loops: each operation below
# sums its terms in a dict of its own, as every operation once did.


def _acc(out, key, val):
    out[key] = out.get(key, F(0)) + val


def _ref_times_function(f, x):
    out = {}
    for (idx, e), c in x.coeffs:
        for ((_, ef), cf) in f.coeffs:
            _acc(out, (idx, tuple(a + b for a, b in zip(e, ef))), c * cf)
    return type(x)(x.ambient, x.degree, out)


def _ref_pair_loop(x, y, merge):
    out = {}
    for (i1, e1), c1 in x.coeffs:
        for (i2, e2), c2 in y.coeffs:
            m = merge(i1, i2)
            if m is not None:
                _acc(out, (m[1], tuple(a + b for a, b in zip(e1, e2))),
                     m[0] * c1 * c2)
    return out


def _ref_wedge(x, y):
    return type(x)(x.ambient, x.degree + y.degree,
                   _ref_pair_loop(x, y, wedge_merge))


def _ref_pairing(beta, w):
    out = {}
    lookup = {}
    for (idx, e), c in w.coeffs:
        lookup.setdefault(idx, []).append((e, c))
    for (idx, e1), c1 in beta.coeffs:
        for e2, c2 in lookup.get(idx, ()):
            _acc(out, ((), tuple(a + b for a, b in zip(e1, e2))), c1 * c2)
    return poly.PolyMultivector(w.ambient, 0, out)


def _ref_contract(alpha, w):
    if alpha.degree > w.degree:
        return poly.zero_multivector(w.ambient, 0)
    return poly.PolyMultivector(w.ambient, w.degree - alpha.degree,
                                _ref_pair_loop(alpha, w, remove_slots))


def _ref_contract_form(v, beta):
    if v.degree > beta.degree:
        return poly.zero_form(beta.ambient, 0)
    return poly.PolyForm(beta.ambient, beta.degree - v.degree,
                         _ref_pair_loop(v, beta, remove_slots))


def _ref_exterior_d_terms(x):
    out = {}
    for (idx, expo), c in x.coeffs:
        for i in range(x.ambient):
            m = wedge_merge((i,), idx) if expo[i] else None
            if m is not None:
                ne = list(expo)
                ne[i] -= 1
                _acc(out, (m[1], tuple(ne)), m[0] * c * expo[i])
    return out


def _ref_exterior_d(x):
    return poly.PolyForm(x.ambient, x.degree + 1, _ref_exterior_d_terms(x))


def _ref_apply_vector_field_terms(v, f):
    out = {}
    for ((i,), ev), cv in v.coeffs:
        for ((_, ef), cf) in f.coeffs:
            if ef[i]:
                ne = list(ef)
                ne[i] -= 1
                _acc(out, ((), tuple(a + b for a, b in zip(ev, ne))),
                     cv * cf * ef[i])
    return out


def _ref_apply_vector_field(v, f):
    return poly.PolyMultivector(f.ambient, 0,
                                _ref_apply_vector_field_terms(v, f))


def _ref_tilde_i(w, beta):
    out = {}
    for (j, e), c in w.coeffs:
        for t, axis in enumerate(j):
            rest = j[:t] + j[t + 1:]
            for (fi, fe), cf in beta.coeffs:
                m = remove_slot(axis, fi)
                if m is not None:
                    key = (m[1], rest, tuple(a + b for a, b in zip(e, fe)))
                    _acc(out, key, (-1) ** t * m[0] * c * cf)
    return {k: v for k, v in out.items() if v}


def _ref_tensor_lwedge(alpha, t):
    out = {}
    for (ai, ae), ca in alpha.coeffs:
        for (fi, mi, e), c in t.items():
            m = wedge_merge(ai, fi)
            if m is not None:
                key = (m[1], mi, tuple(a + b for a, b in zip(ae, e)))
                _acc(out, key, m[0] * ca * c)
    return {k: v for k, v in out.items() if v}


def _ref_star_into(out, a, b, scalar):
    for (ja, ea), ca in a.coeffs:
        for t, j in enumerate(ja):
            sign_theta = -1 if (len(ja) - 1 - t) % 2 else 1
            rest = ja[:t] + ja[t + 1:]
            for (jb, eb), cb in b.coeffs:
                m = wedge_merge(rest, jb) if eb[j] else None
                if m is not None:
                    ne = list(eb)
                    ne[j] -= 1
                    key = (m[1], tuple(x + y for x, y in zip(ea, ne)))
                    _acc(out, key, scalar * sign_theta * m[0] * ca * cb * eb[j])


def _ref_schouten_terms(a, b):
    out = {}
    _ref_star_into(out, a, b, F(1))
    swap = -1 if ((a.degree - 1) * (b.degree - 1)) % 2 == 0 else 1
    _ref_star_into(out, b, a, F(swap))
    return out


def _ref_schouten(a, b):
    deg = a.degree + b.degree - 1
    if deg < 0:
        return poly.zero_multivector(a.ambient, 0)
    return poly.PolyMultivector(a.ambient, deg, _ref_schouten_terms(a, b))


def _ref_pi_sharp(p, alpha):
    if alpha.degree == 0:
        return poly.as_multivector(alpha)
    n = p.ambient
    rows = [dict() for _ in range(n)]
    for ((i, j), e), c in p.bivector.coeffs:
        _acc(rows[i], ((j,), e), c)
        _acc(rows[j], ((i,), e), -c)
    rows = [poly.PolyMultivector(n, 1, r) for r in rows]
    total = poly.zero_multivector(n, alpha.degree)
    for (s, e), c in alpha.coeffs:
        cur = poly.PolyMultivector(n, 0, {((), e): c})
        for j in s:
            cur = _ref_wedge(cur, rows[j])
        total = total.add(cur)
    return total


def _random_terms(rng, n, degree, count, coeff=None):
    """Terms over a small pool of keys, so that keys repeat, with some
    terms cancelled by their negatives; `coeff(rng)` draws a coefficient
    (by default a Fraction with denominator 1 or 2)."""
    pool = [(tuple(sorted(rng.sample(range(n), degree))),
             tuple(rng.randrange(3) for _ in range(n))) for _ in range(3)]
    terms = []
    for _ in range(count):
        key = rng.choice(pool)
        c = (coeff(rng) if coeff is not None
             else F(rng.choice([-2, -1, 1, 2, 3])) / rng.choice([1, 2]))
        terms.append((key, c))
        if rng.random() < 0.3:
            terms.append((key, -F(c)))
    return terms


def test_calculus_matches_the_reference_loops():
    from equicoh import lie, poisson as po
    rng = random.Random(20261018)
    n = 3

    def draw(kind, degree, count=4):
        return kind(n, degree, _random_terms(rng, n, degree, count))

    structures = [po.linear_poisson(lie.su2()), po.zero_poisson(n),
                  po.constant_poisson(n, {(0, 1): 2, (2, 1): F(1, 2)}),
                  po.poisson_structure(draw(poly.PolyMultivector, 2, 6))]
    for _ in range(60):
        k, q = rng.randrange(n + 1), rng.randrange(n + 1)
        a, b = draw(poly.PolyForm, k), draw(poly.PolyForm, q)
        v, w = draw(poly.PolyMultivector, k), draw(poly.PolyMultivector, q)
        f = draw(poly.PolyMultivector, 0)
        assert poly.wedge(a, b) == _ref_wedge(a, b)
        assert poly.wedge(v, w) == _ref_wedge(v, w)
        assert poly.pairing(a, v) == _ref_pairing(a, v)
        assert poly.contract(a, w) == _ref_contract(a, w)
        assert poly.contract_form(v, b) == _ref_contract_form(v, b)
        # a degree-0 factor multiplies by a polynomial function
        assert poly.wedge(poly.as_form(f), a) == _ref_times_function(f, a)
        assert poly.wedge(f, w) == _ref_times_function(f, w)
        assert poly.exterior_d(a) == _ref_exterior_d(a)
        assert poly.exterior_d(f) == _ref_exterior_d(poly.as_form(f))
        field = draw(poly.PolyMultivector, 1)
        assert (poly.apply_vector_field(field, f)
                == _ref_apply_vector_field(field, f))
        one = draw(poly.PolyForm, 1)
        for t, ref in [(poly.tilde_i(w, b), _ref_tilde_i(w, b)),
                       (poly.tilde_i(w, one), _ref_tilde_i(w, one))]:
            assert list(t.items()) == list(ref.items())
            lw = poly.tensor_lwedge(a, t)
            assert list(lw.items()) == list(_ref_tensor_lwedge(a, t).items())
        assert po.schouten(v, w) == _ref_schouten(v, w)
        for p in structures:
            assert po.pi_sharp(p, a) == _ref_pi_sharp(p, a)
    assert poly.contract(draw(poly.PolyForm, 2),
                         draw(poly.PolyMultivector, 1)) == \
        poly.zero_multivector(n, 0)


# ---------------------------------------------------------------------------
# The scalar contract: a stored coefficient is an int or a non-integral
# Fraction, never a float, whatever exact scalars went in.


def _contract_coeff(rng):
    """An int, a reduced Fraction, an integral Fraction such as
    Fraction(4, 2), a bool or a 'num/den' string."""
    return rng.choice((
        lambda: rng.randint(-3, 3),
        lambda: F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(2, 4)),
        lambda: F(2 * rng.randint(-3, 3), 2),
        lambda: rng.random() < 0.5,
        lambda: f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}",
    ))()


def _fractions(terms):
    """The sum of the terms, every value a Fraction, zeros dropped."""
    out = {}
    for key, c in terms:
        _acc(out, key, F(c))
    return {k: v for k, v in out.items() if v}


def _stored(x):
    """{key: coefficient} of a poly object or a tensor, once every stored
    coefficient is checked to be an int or a non-integral Fraction."""
    items = list(x.items() if isinstance(x, dict) else x.coeffs)
    for _, c in items:
        assert type(c) is int or (type(c) is F and c.denominator != 1), c
    return dict(items)


def _terms(raw, ambient):
    """Reference terms {key: Fraction} in the shape the loops above read."""
    return SimpleNamespace(ambient=ambient, coeffs=tuple(raw.items()))


def test_coefficient_contract():
    """Every public operation of `poly` and the brackets of `poisson`, on
    seeded inputs of every accepted scalar type, store only ints and
    non-integral Fractions, with the values of the reference loops, which
    sum in Fraction from Fraction(0)."""
    from equicoh import lie, poisson as po
    rng = random.Random(20261019)
    n = 3

    def pair(i, j):
        return (1, ()) if i == j else None

    def draw(kind, degree, count=4):
        terms = _random_terms(rng, n, degree, count, _contract_coeff)
        x = kind(n, degree, terms)
        assert _stored(x) == _fractions(terms)
        return x

    def check(result, reference):
        items = reference.items() if isinstance(reference, dict) else reference
        assert _stored(result) == _fractions(items)

    structures = [po.linear_poisson(lie.su2()), po.zero_poisson(n),
                  po.constant_poisson(n, {(0, 1): _contract_coeff(rng),
                                          (2, 1): _contract_coeff(rng)})]
    for p in structures:
        _stored(p.bivector)
    for _ in range(40):
        k, q = rng.randrange(n + 1), rng.randrange(n + 1)
        a, a2, b = (draw(poly.PolyForm, d) for d in (k, k, q))
        v, w = draw(poly.PolyMultivector, k), draw(poly.PolyMultivector, q)
        f, g = draw(poly.PolyMultivector, 0), draw(poly.PolyMultivector, 0)
        s = _contract_coeff(rng)
        check(a.add(a2), a.coeffs + a2.coeffs)
        check(a.sub(a2), a.coeffs + tuple((key, -c) for key, c in a2.coeffs))
        check(a.scale(s), ((key, F(s) * c) for key, c in a.coeffs))
        check(poly.wedge(a, b), _ref_pair_loop(a, b, wedge_merge))
        check(poly.wedge(v, w), _ref_pair_loop(v, w, wedge_merge))
        check(poly.pairing(a, v), _ref_pair_loop(a, v, pair))
        check(poly.contract(a, w), _ref_pair_loop(a, w, remove_slots))
        check(poly.contract_form(v, b), _ref_pair_loop(v, b, remove_slots))
        check(poly.wedge(f, w),
              _ref_pair_loop(w, f, lambda i, _: (1, i)))
        check(poly.exterior_d(a), _ref_exterior_d_terms(a))
        check(poly.exterior_d(f), _ref_exterior_d_terms(f))
        field = draw(poly.PolyMultivector, 1)
        check(poly.apply_vector_field(field, f),
              _ref_apply_vector_field_terms(field, f))
        c = _contract_coeff(rng)
        check(poly.function(n, {(1, 0, 2): c}), [(((), (1, 0, 2)), c)])
        check(poly.as_form(f), f.coeffs)
        check(poly.as_multivector(poly.as_form(f)), f.coeffs)
        check(poly.basis_form(n, k % n), [(((k % n,), (0,) * n), 1)])
        one_form = draw(poly.PolyForm, 1)
        t, t2 = poly.tilde_i(w, one_form), poly.tilde_i(w, b)
        check(t, _ref_tilde_i(w, one_form))
        check(t2, _ref_tilde_i(w, b))
        if w.degree:
            check(poly.tensor_fold_functions(t, n, w.degree - 1),
                  [((mi, e), c) for (_, mi, e), c in t.items()])
        check(poly.tensor_lwedge(a, t2), _ref_tensor_lwedge(a, t2))
        check(poly.tensor_add(t, t2), list(t.items()) + list(t2.items()))
        check(poly.tensor_scale(t2, s), ((key, F(s) * c) for key, c in t2.items()))
        assert poly.tensor_is_zero(poly.tensor_add(t2, poly.tensor_scale(t2, -1)))
        check(po.schouten(v, w),
              _ref_schouten_terms(v, w) if k + q else {})
        df = _terms(_ref_exterior_d_terms(f), n)
        dg = _terms(_ref_exterior_d_terms(g), n)
        for p in structures:
            check(po.poisson_bracket(p, f, g), _ref_pair_loop(
                _terms(_ref_pair_loop(df, dg, wedge_merge), n),
                p.bivector, pair))
            check(po.d_pi(p, w), _ref_schouten_terms(p.bivector, w))
            check(po.pi_sharp(p, a), _ref_pi_sharp(p, a).coeffs)
        bad = po.poisson_structure(draw(poly.PolyMultivector, 2, 6))
        check(bad.jacobiator,
              _ref_schouten_terms(bad.bivector, bad.bivector))


def test_each_key_is_checked_once_per_ambient_and_degree(monkeypatch):
    """A raw key is checked in full the first time it meets an (ambient,
    degree) and looked up after that; under another ambient or degree it is
    checked again, and a key that fails or cannot be hashed is checked on
    every use."""
    calls = []
    checked_key = poly._checked_key
    monkeypatch.setattr(poly, "_CHECKED", {})
    monkeypatch.setattr(poly, "_checked_key",
                        lambda *args: calls.append(args) or checked_key(*args))
    key = ((1,), (0, 0))
    for _ in range(2):
        assert dict(poly.PolyMultivector(2, 1, {key: 1}).coeffs) == {key: 1}
        assert dict(poly.PolyForm(2, 1, [(key, 2)]).coeffs) == {key: 2}
        assert dict(poly.PolyForm(2, 1,
                                  MappingProxyType({key: 3})).coeffs) == \
            {key: 3}
    assert len(calls) == 1
    with pytest.raises(poly.AmbientMismatch):
        poly.PolyMultivector(3, 1, {key: 1})
    with pytest.raises(poly.AmbientMismatch):
        poly.PolyMultivector(1, 1, {((1,), (0,)): 1})
    with pytest.raises(poly.DegreeMismatch):
        poly.PolyForm(2, 2, {key: 1})
    for _ in range(2):
        with pytest.raises(ValueError):
            poly.PolyMultivector(2, 2, {((1, 0), (0, 0)): 1})
        with pytest.raises(poly.AmbientMismatch):
            poly.PolyMultivector(2, 1, {((5,), (0, 0)): 0})
    calls.clear()
    listed = poly.PolyMultivector(2, 1, [(([0], [1, 0]), F(6, 2)),
                                         (([0], [1, 0]), 1)])
    assert len(calls) == 2
    assert listed.coeffs == ((((0,), (1, 0)), 4),)
    # Entries equal to ints give int keys, in either order of first use.
    for raw in [((True,), (F(2), 0)), ((1,), (2, False)), ((1,), (2, 0)),
                ((1.0,), (2.0, 0))]:
        (got, c), = poly.PolyMultivector(2, 1, {raw: F(4, 2)}).coeffs
        assert got == ((1,), (2, 0)) and type(c) is int
        assert {type(i) for part in got for i in part} == {int}
    # Other entries are refused, not truncated, on every use.
    calls.clear()
    for raw in [((0.7,), (1.9, 0)), ((F(1, 2),), (1, 0)), ((1,), (F(3, 2), 0)),
                ((1,), (2, 0.5))]:
        for _ in range(2):
            with pytest.raises(ValueError, match="not an integer"):
                poly.PolyMultivector(2, 1, {raw: 1})
    assert len(calls) == 8
    with pytest.raises(TypeError):
        poly.PolyMultivector(2, 0, {((), (0, 0)): 0.1})
    with pytest.raises(TypeError):
        V(2, 0).scale(0.5)
    with pytest.raises(TypeError):
        poly.tensor_scale({((), (0,), (0, 0)): 1}, 0.5)
