"""G-differential complexes at desk scale: axiom checking, Cartan models,
Weil algebras, tensor products, basic subcomplexes, connections and the
universal property of the Weil algebra.

A G-differential complex packages a finite cochain complex with one
contraction (degree -1) and one Lie derivative (degree 0) per generator of a
finite-dimensional Lie algebra, subject to

    (i)    i_xi i_zeta + i_zeta i_xi = 0
    (ii')  i_[xi,zeta] = L_xi i_zeta - i_zeta L_xi
    (iii)  L_xi = d i_xi + i_xi d

[L_xi, d] = 0 and L_[xi,zeta] = [L_xi, L_zeta] follow and are checked too,
as are the graded Leibniz rules when a product is declared.

One helper, `_first_failure`, checks every operator identity: the axioms
above, the G-maps below, and on the momentum path of `poisson` the sharp
map's intertwining and the Lie operators on horizontal multivectors.  Its
witness is the first failing basis column in degree order: the smallest
column of the lowest nonzero block of the identity formed as a map.

With a product, the axioms are first checked through a generating set G
(`_generators`): all of A^0 and, in each degree, basis vectors that
complement the products of lower positive degrees.  Three lemmas make that
enough, each applied once the one before it holds on all of A:

    1. {x : (xy)z = x(yz) for all y, z} is a subspace closed under the
       product (Light's test), so associativity with left factor in G
       gives it on every triple;
    2. with associativity, {x : D(xy) = (Dx)y + eps x(Dy) for all y} is
       closed under the product for each of d, i_x and L_x, so the Leibniz
       rules with left factor in G give them on every pair;
    3. each operator identity is a combination of graded commutators of
       these derivations and of the derivations themselves, so it is a
       derivation, and a derivation that vanishes on G vanishes.

When that pass fails, the full passes give the report: every column and
every pair.  Associativity keeps its pass through G, and its witness is the
first failing triple with left factor in G.

The Weil algebra, tensor products and the Cartan model sit on product bases
laid out by `core.product_space`, and each operator on them is a sum of
Kronecker products (`core.kron_map`).  The Weil algebra is the sum of the
Lambda^k g* (x) S^m g*: its d, i_b and L_b are Kronecker sums of the
exterior operators of `lie` with the coadjoint derivation and the
multiplication by generators of S(g*).  `_tensor_table` builds the
product on that layout from the factors' (Lambda(g*) and S(g*) for W).

Checks of the paper's introduction to G-differential complexes that have no
caller here: `sub_gdiff` and `quotient_gdiff` (a stable subspace and the
quotient by it are G-differential complexes), `locally_free_connection` and
`weil_universal_map` (a connection gives a G-map from the Weil algebra),
`cartan_weil_inclusion` (the Cartan model is the basic part of A (x) W) and
`forgetful_matrices` (the map from equivariant to ordinary cohomology).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import bases, ratlin as rl
from .core import (CochainComplex, GradedSpace, LinearMap, Subspace,
                   cohomology, joint_kernel, kron_map, map_kernel,
                   product_space, restrict_complex, restrict_map, subquotient)
from .lie import (CEComplex, LieAlgebra, Subalgebra, _exterior_operators,
                  sym_derivation, sym_multiplication)


class AxiomFailure(Exception):
    """A G-differential axiom fails; carries the machine-readable report."""


class MismatchedAlgebra(Exception):
    pass


class NotMultiplicative(Exception):
    pass


@dataclass(frozen=True)
class Product:
    """A degree-0 product A (x) A -> A: table[(a, b)] = M_{a,b}, an
    `rl.Matrix` from A^a (x) A^b to A^(a+b) (zero when absent), the pair
    (ia, ib) in column ia * dim A^b + ib (the `core.product_space` layout)."""

    table: dict


@dataclass(frozen=True)
class GDiffComplex:
    algebra: LieAlgebra
    complex: CochainComplex
    contractions: tuple  # LinearMap per generator, degree -1
    lie_ops: tuple       # LinearMap per generator, degree 0
    product: Optional[Product] = None
    unit: Optional[tuple] = None  # coordinates of 1 in degree 0

    @property
    def space(self) -> GradedSpace:
        return self.complex.space

    @property
    def d(self) -> LinearMap:
        return self.complex.d


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failures: tuple  # of dicts: {"axiom": ..., "generators": ..., "degree": ..., "basis_index": ...}

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": [dict(f) for f in self.failures]}


def _first_failure(columns, terms):
    """The first of `columns`, (degree, basis index) pairs in the order
    given, on which the sum over `terms` (coeff, op_k, ..., op_1) of
    coeff * op_k ... op_1 (op_1 applied first) is nonzero, as {"degree",
    "basis_index"}; None when the identity holds on every column.  Each
    operator is applied to the sparse column through the column index of
    its stored blocks."""
    terms = [(coeff, [({n: blk.cols for n, blk in op.blocks}, op.shift)
                      for op in reversed(ops)]) for coeff, *ops in terms]
    for n, j in columns:
        acc = {}
        for coeff, ops in terms:
            vec, deg = {j: coeff}, n
            for cols, shift in ops:
                out, cols = {}, cols.get(deg)
                if cols:
                    for i, x in vec.items():
                        for t, v in cols[i].items():
                            out[t] = out.get(t, 0) + x * v
                vec, deg = out, deg + shift
            for t, v in vec.items():
                acc[t] = acc.get(t, 0) + v
        if any(acc.values()):
            return {"degree": n, "basis_index": j}
    return None


def _columns(space: GradedSpace) -> list:
    """Every (degree, basis index) of a graded space, in degree order."""
    return [(n, j) for n in space.degrees() for j in range(space.dim(n))]


def check_gdiff_axioms(c: GDiffComplex) -> AxiomReport:
    """The axioms of c in the order d^2 = 0, (i), (iii) with [L, d] = 0,
    (ii') with L-bracket, each failing instance (per generator or pair of
    generators) reported by `_first_failure` at its first failing column in
    degree order.  With a product, then the Leibniz rules: for each D among
    d, i_x, L_x of degree s,

        D M_{a,b} = M_{a+s,b} (D_a (x) 1) + eps_a M_{a,b+s} (1 (x) D_b),

    eps_a = (-1)^a for d and i_x, 1 for L_x, on every basis pair; at most
    one witness, the first failing pair in degree order and there the first
    failing operator in the order d, i_0, L_0, i_1, L_1, ...  Last the unit
    on every basis element and, when it holds, associativity on every
    triple, witnessed by the first failing triple with left factor in
    `_generators(c)`.

    With a product, a pass through the generating set comes first: the
    unit, associativity, the Leibniz rules with left factor in the set and
    the operator identities on its columns.  When it holds, so does every
    axiom (see the module docstring) and the report is ok; otherwise the
    full passes above give the report.  Once the unit u = a e_p holds,
    associativity and the Leibniz rules skip e_p: it is associative, and
    the Leibniz rule of D holds at it iff D e_p = 0, which is checked with
    the identities instead."""
    g, r = c.algebra, c.algebra.dim
    d, i, lie_ops = c.d, c.contractions, c.lie_ops
    # Each axiom: a sum of terms (coefficient, operators applied right to
    # left) that must vanish.
    axioms = [("d^2=0", [], [(1, d, d)])]
    axioms += [("i", [a, b], [(1, i[a], i[b]), (1, i[b], i[a])])
               for a in range(r) for b in range(a, r)]
    for a, la in enumerate(lie_ops):
        axioms += [("iii", [a], [(1, d, i[a]), (1, i[a], d), (-1, la)]),
                   ("[L,d]=0", [a], [(1, la, d), (-1, d, la)])]
    for a, b in [(a, b) for a in range(r) for b in range(r) if a != b]:
        br = [(x, k) for k, x in enumerate(g.c[a][b]) if x]
        for name, ops in (("ii'", i), ("L-bracket", lie_ops)):
            axioms.append((name, [a, b], [(x, ops[k]) for x, k in br] + [
                (-1, lie_ops[a], ops[b]), (1, ops[b], lie_ops[a])]))
    if c.product is not None:
        left = _generators(c)
        columns = [(n, j) for n, idx in left.items() for j in idx]
        checks = [(columns, terms) for _, _, terms in axioms]
        product_failures = _check_unit(c)
        if not product_failures and c.unit and sum(map(bool, c.unit)) == 1:
            # The unit u = a e_p holds, so e_p is associative, and the
            # Leibniz rule of D holds at e_p iff D e_p = 0.
            p = next(j for j, v in enumerate(c.unit) if v)
            left = {**left, 0: [j for j in left[0] if j != p]}
            checks += [([(0, p)], [(1, op)]) for op in (d, *i, *lie_ops)]
        product_failures = product_failures or _check_associativity(c, left)
        if not (product_failures or _leibniz_failures(c, left)
                or any(_first_failure(*check) for check in checks)):
            return AxiomReport(True, ())
    columns = _columns(c.space)
    failures = [{"axiom": axiom, "generators": gens, **witness}
                for axiom, gens, terms in axioms
                if (witness := _first_failure(columns, terms))]
    if c.product is not None:
        failures += _check_leibniz(c) + product_failures
    return AxiomReport(not failures, tuple(failures))


def _generators(c: GDiffComplex) -> dict:
    """A generating set of the product of c, as degree -> basis indices (the
    degrees that have some): all of A^0 and, in each degree n > 0, the basis
    vectors of the non-pivot columns of the span D_n of the products x a, x
    in the set of degree 0 < |x| < n.  They complement D_n in A^n, so by
    induction on n every element is a sum of products of elements of the
    set.  A complex with a negative degree gives its whole basis."""
    sp, table = c.space, c.product.table
    degs = sp.degrees()
    if degs and degs[0] < 0:
        return {n: list(range(sp.dim(n))) for n in degs}
    gens = {}
    for n in degs:
        # D_n is spanned by the unit vectors of `spanned`, the one-term
        # products, and by the other products less those columns, so its
        # pivot columns are `spanned` and the pivots of the rest.
        spanned, rows = set(), []
        for i in [i for i in gens if i]:
            left, nb, prods = set(gens[i]), sp.dim(n - i), {}
            # the columns x a of M_{i,n-i}, x in the set, from its entries
            for k, row in enumerate(table.get((i, n - i), ())):
                for col, v in row.items():
                    if col // nb in left:
                        prods.setdefault(col, {})[k] = v
            spanned.update(*(r for r in prods.values() if len(r) == 1))
            rows += [r for r in prods.values() if len(r) > 1]
        rows = [{k: v for k, v in row.items() if k not in spanned}
                for row in rows]
        if any(rows):
            spanned.update(rl.rref(rl.freeze(rows, sp.dim(n)))[1])
        if len(spanned) < sp.dim(n):
            gens[n] = [j for j in range(sp.dim(n)) if j not in spanned]
    return gens


def _check_unit(c: GDiffComplex) -> list:
    """[] or the first (degree, basis index) in degree order where the unit
    u is not a two-sided identity: M_{0,n} (u (x) 1) and M_{n,0} (1 (x) u)
    must be the identity of A^n, read off the entries of the two blocks."""
    table, unit, dim = c.product.table, c.unit, c.space.dim
    for n in c.space.degrees() if unit is not None else ():
        sides = ({}, {})   # basis index e -> 1 e, e 1 as {index: coeff}
        for side, key, at in ((sides[0], (0, n), 0), (sides[1], (n, 0), 1)):
            for k, row in enumerate(table.get(key, ())):
                for col, v in row.items():
                    pair = divmod(col, dim(key[1]))
                    out = side.setdefault(pair[1 - at], {})
                    out[k] = out.get(k, 0) + unit[pair[at]] * v
        for e in range(dim(n)):
            if any({k: v for k, v in side.get(e, {}).items() if v} != {e: 1}
                   for side in sides):
                return [{"axiom": "unit", "generators": [], "degree": n,
                         "basis_index": e}]
    return []


def _check_associativity(c: GDiffComplex, left: dict) -> list:
    """[] or the first triple (x, y, z) of basis elements in degree order,
    x in `left` (degree -> basis indices), with (xy)z != x(yz): there the
    identity L_x M_{b,c} = M_{a+b,c} (L_x (x) 1) fails, L_x the product by
    x, of degree a.  Both sides are summed over nonzero entries, never as
    products of matrices, one block (|y|, |z|) at a time: (xy)z over the
    entries of M_{a+b,c} and the products xy by row, x(yz) over row m of
    M_{b,c} and the products x e_m."""
    table, degs, dim = c.product.table, c.space.degrees(), c.space.dim
    xs = {n: {i: (n, i) for i in idx} for n, idx in left.items()}
    # the entries ((|x|, x), y, k, coeff of e_k in xy), each held once and
    # listed by (|x|, |y|) and k, and by |y| and y
    made, hit = {}, {}
    for (dx, dy), blk in table.items():
        here, ny = xs.get(dx), dim(dy)
        for k, row in enumerate(blk) if here else ():
            for col, v in row.items():
                ix, iy = divmod(col, ny)
                if ix in here:
                    e = (here[ix], iy, k, v)
                    made.setdefault((dx, dy), {}).setdefault(k, []).append(e)
                    hit.setdefault(dy, {}).setdefault(iy, []).append(e)
    failing = []
    for dy, dz in [(dy, dz) for dy in degs for dz in degs]:
        acc, nz = {}, dim(dz)   # ((|x|, x), y, z, out) -> (xy)z - x(yz)
        for dx in left:
            xy = made.get((dx, dy))
            for k, row in enumerate(table.get((dx + dy, dz), ())
                                    if xy else ()):
                for col, v in row.items():
                    for x, iy, _, a in xy.get(col // nz, ()):
                        key = (x, iy, col % nz, k)
                        acc[key] = acc.get(key, 0) + a * v
        by_x = hit.get(dy + dz, {})
        for m, row in enumerate(table.get((dy, dz), ()) if by_x else ()):
            for col, v in row.items() if m in by_x else ():
                iy, iz = divmod(col, nz)
                for x, _, k, w in by_x[m]:
                    key = (x, iy, iz, k)
                    acc[key] = acc.get(key, 0) - v * w
        failing += [(*x, dy, iy, dz, iz)
                    for (x, iy, iz, _), v in acc.items() if v]
    if not failing:
        return []
    dx, ix, dy, iy, dz, iz = min(failing)
    return [{"axiom": "associativity", "generators": [], "degree": dx,
             "basis_index": ix, "other": [dy, iy, dz, iz]}]


def _check_leibniz(c: GDiffComplex):
    """d and every i_x are odd derivations of the product, every L_x an even
    one, checked on every basis pair by `_leibniz_failures`."""
    return _leibniz_failures(c, {n: range(c.space.dim(n))
                                 for n in c.space.degrees()})


def _leibniz_failures(c: GDiffComplex, left: dict) -> list:
    """The Leibniz rules on the basis pairs (x, y) with x in `left` (degree
    -> basis indices).  With M_{a,b} the product block on A^a (x) A^b, each
    operator D of degree s and each degree block (a, b) must satisfy

        D M_{a,b} = M_{a+s,b} (D_a (x) 1) + eps_a M_{a,b+s} (1 (x) D_b),

    eps_a = (-1)^a for d and i_x, 1 for L_x.  Both sides are summed over the
    nonzero entries of D and of M, never as products of matrices, so a block
    costs its nonzeros, not its pairs.  Returns [] or one witness: the first
    failing pair in degree order and, at that pair, the first failing
    operator in the order d, i_0, L_0, i_1, L_1, ..."""
    table, degs, dim = c.product.table, c.space.degrees(), c.space.dim
    ops = [("d-Leibniz", [], c.d, True)]
    for x in range(c.algebra.dim):
        ops += [("i-Leibniz", [x], c.contractions[x], True),
                ("L-Leibniz", [x], c.lie_ops[x], False)]
    # The rows of `left` and of the basis elements D x, x in `left`.
    need = {n: set(idx) for n, idx in left.items()}
    for _, _, op, _ in ops:
        for n, blk in op.blocks:
            cols = blk.cols
            for ia in left.get(n, ()):
                need.setdefault(n + op.shift, set()).update(cols[ia])
    rows = {}   # (da, db) -> {ia: [(ib, k, coeff of e_k in e_ia e_ib)]}
    for (da, db), blk in table.items():
        want, nb = need.get(da, ()), dim(db)
        for k, row in enumerate(blk) if want else ():
            for col, v in row.items():
                ia, ib = divmod(col, nb)
                if ia in want:
                    rows.setdefault((da, db), {}).setdefault(ia, []).append(
                        (ib, k, v))
    failing = {}   # (da, ia, db, ib) -> index of the first failing operator
    for k, (_, _, op, odd) in enumerate(ops):
        s = op.shift
        # Per source degree of D: the nonzero {row: value} of each column
        # and {column: value} of each row.
        cols = {n: blk.cols for n, blk in op.blocks}
        drows = dict(op.blocks)
        for da, idx in left.items():
            eps = -1 if odd and da % 2 else 1
            d_a = cols.get(da)
            for db in degs:
                acc = {}   # (ia, ib, row) -> left side minus right side
                d_ab, d_b = cols.get(da + db), drows.get(db)
                here, r1 = rows.get((da, db), {}), rows.get((da + s, db), {})
                r2 = rows.get((da, db + s), {})
                for ia in idx:
                    if d_ab:
                        for ib, kk, cc in here.get(ia, ()):
                            for t, v in d_ab[kk].items():
                                key = (ia, ib, t)
                                acc[key] = acc.get(key, 0) + cc * v
                    if d_a:
                        for t, v in d_a[ia].items():
                            for ib, kk, cc in r1.get(t, ()):
                                key = (ia, ib, kk)
                                acc[key] = acc.get(key, 0) - v * cc
                    if d_b:
                        for t, kk, cc in r2.get(ia, ()):
                            for ib, v in d_b[t].items():
                                key = (ia, ib, kk)
                                acc[key] = acc.get(key, 0) - eps * v * cc
                for (ia, ib, _), v in acc.items():
                    if v:
                        failing.setdefault((da, ia, db, ib), k)
    if not failing:
        return []
    da, ia, db, ib = pair = min(failing)
    k = failing[pair]
    return [{"axiom": ops[k][0], "generators": ops[k][1],
             "degree": da, "basis_index": ia, "other": [db, ib]}]


def build_gdiff(algebra, complex_, contractions, lie_ops, product=None,
                unit=None, check: bool = True) -> GDiffComplex:
    c = GDiffComplex(algebra, complex_, tuple(contractions), tuple(lie_ops),
                     product, tuple(unit) if unit is not None else None)
    if check:
        report = check_gdiff_axioms(c)
        if not report.ok:
            raise AxiomFailure(report)
    return c


# ---------------------------------------------------------------------------
# CE complexes as G-differential complexes


def _basis_table(basis: dict, mul) -> dict:
    """The product of the monomials basis[deg]: x y = mul(x, y), a (sign,
    monomial) pair or None when it vanishes, truncated to listed degrees."""
    index = {deg: {x: i for i, x in enumerate(xs)}
             for deg, xs in basis.items()}
    table = {}
    for da, db in sorted((a, b) for a in basis for b in basis
                         if a + b in basis):
        at, rows = index[da + db], [{} for _ in basis[da + db]]
        for col, (x, y) in enumerate(itertools.product(basis[da], basis[db])):
            if (xy := mul(x, y)) is not None:
                rows[at[xy[1]]][col] = xy[0]
        if any(rows):
            table[(da, db)] = rl.freeze(rows, len(basis[da]) * len(basis[db]))
    return table


def _tensor_table(space: GradedSpace, offsets: dict, t1: dict, t2: dict,
                  sign) -> Product:
    """The product on a `core.product_space` layout of factors with blocks
    t1 and t2, (x1 (x) x2)(y1 (x) y2) = sign(|x2|, |y1|) x1 y1 (x) x2 y2:
    (M1 (x) M2) (1 (x) tau (x) 1), tau the signed swap of x2 and y1, written
    once per pair of nonzero factor entries."""
    at = {ab: (n,) + off for n, offs in offsets.items()
          for ab, off in offs.items()}
    dim, rows = space.dim, {}   # (|x|, |y|) -> the rows of M_{|x|,|y|}
    for (a1, b1), m1 in t1.items():
        for (a2, b2), m2 in t2.items():
            (na, oa, _, wa), (nb, ob, n1, wb), (_, oc, _, wc) = (
                at[a1, a2], at[b1, b2], at[a1 + b1, a2 + b2])
            if (na, nb) not in rows:
                rows[na, nb] = [{} for _ in range(dim(na + nb))]
            out, w, s = rows[na, nb], dim(nb), sign(a2, b1)
            # the entries of M1 and M2 at their row and column offsets
            e1 = [(oc + k * wc, (oa + c // n1 * wa) * w + ob + c % n1 * wb,
                   s * x) for k, row in enumerate(m1) for c, x in row.items()]
            e2 = [(k, c // wb * w + c % wb, y)
                  for k, row in enumerate(m2) for c, y in row.items()]
            for r1, c1, x in e1:
                for r2, c2, y in e2:
                    out[r1 + r2][c1 + c2] = x * y
    return Product({key: rl.freeze(rows[key], dim(key[0]) * dim(key[1]))
                    for key in sorted(rows) if any(rows[key])})


def wedge_product_table(n: int) -> Product:
    """The product of Lambda(g*) on the increasing index tuples."""
    return Product(_basis_table({k: bases.ext_basis(n, k)
                                 for k in range(n + 1)}, bases.wedge_merge))


def ce_gdiff(ce: CEComplex,
             acting: Optional[Subalgebra] = None) -> GDiffComplex:
    """View a CE complex as a G-differential complex.  With `acting` given,
    only the subalgebra's contractions/derivatives are kept and the acting
    algebra is k with its own structure constants."""
    prod = None
    unit = None
    if ce.rep.space_dim == 1 and all(rl.is_zero(ce.rep.op(i))
                                     for i in range(ce.algebra.dim)):
        prod = wedge_product_table(ce.algebra.dim)
        unit = [1]
    if acting is None:
        return build_gdiff(ce.algebra, ce.complex, ce.contractions, ce.lie_ops,
                           product=prod, unit=unit)
    return build_gdiff(acting.algebra, ce.complex,
                       acting.restrict(ce.algebra, ce.contractions),
                       acting.restrict(ce.algebra, ce.lie_ops), product=prod,
                       unit=unit)


# ---------------------------------------------------------------------------
# Weil algebra


@dataclass(frozen=True)
class WeilAlgebra:
    """A truncated Weil algebra with its `core.product_space` layout:
    lambda_I u^E of Lambda^k (x) S^m sits at offsets[k + 2m][(k, m)][0] +
    (index of I) * |S^m| + (index of E in mons[m]), so lambda^b is the b-th
    basis element of degree 1."""

    gdiff: GDiffComplex
    sym_cap: int
    offsets: dict   # degree -> (k, m) -> (offset, |Lambda^k|, |S^m|)
    mons: dict      # m -> the monomial exponent tuples of S^m, in order


def weil_algebra(g: LieAlgebra, sym_cap: int) -> WeilAlgebra:
    """Truncated Weil algebra Lambda(g*) (x) S(g*) with symmetric degree
    <= sym_cap (quotient truncation; the differential never lowers symmetric
    degree).  Exterior generators sit in degree 1, symmetric in degree 2.

    Degree n is the sum of the products Lambda^k (x) S^m with k + 2m = n, in
    increasing k, each with its monomials in increasing order, and every
    operator is a Kronecker sum on them (rho_b the coadjoint derivation of
    S^m, u_t multiplication by the t-th generator):

        d = sum_b (lambda^b ^) (x) rho_b + d_Lambda (x) 1 - sum_t i_t (x) u_t,
        i_b = i_b (x) 1,
        L_b = 1 (x) rho_b + ad*_b (x) 1.

    The first two terms of d are the Chevalley-Eilenberg differential of g
    with coefficients in S^m; the last, -delta, raises m by one."""
    n = g.dim
    mons = {m: bases.sym_basis(n, m)[::-1] for m in range(sym_cap + 1)}
    parts = {}
    for k in range(n + 1):
        for m in mons:
            parts.setdefault(k + 2 * m, []).append(
                (k, m, len(bases.ext_basis(n, k)), len(mons[m])))
    space, offsets = product_space(parts)
    wedge, d_ext, contr, coad = _exterior_operators(g)
    rho = [{m: sym_derivation(g.coad(b), mons[m]) for m in mons}
           for b in range(n)]
    mult = [{m: sym_multiplication(t, mons[m], mons[m + 1])
             for m in range(sym_cap)} for t in range(n)]
    d = kron_map(space, offsets, 1,
                 [(1, 0, wedge[b].get, rho[b].get, None) for b in range(n)]
                 + [(1, 0, d_ext.get, None, None)]
                 + [(-1, 1, contr[t].get, mult[t].get, lambda _: -1)
                    for t in range(n)])
    contractions = [kron_map(space, offsets, -1,
                             [(-1, 0, contr[b].get, None, None)])
                    for b in range(n)]
    lie_ops = [kron_map(space, offsets, 0, [(0, 0, None, rho[b].get, None),
                                            (0, 0, coad[b].get, None, None)])
               for b in range(n)]
    # S(g*) is even, so Lambda (x) S takes no Koszul sign
    product = _tensor_table(space, offsets, wedge_product_table(n).table,
                            _basis_table(mons, lambda x, y: (
                                1, bases.sym_mul(x, y))), lambda m, k: 1)
    gd = build_gdiff(g, CochainComplex.build(space, d), contractions, lie_ops,
                     product=product, unit=[1])
    return WeilAlgebra(gd, sym_cap, offsets, mons)


# ---------------------------------------------------------------------------
# Tensor products


def tensor_product(c1: GDiffComplex, c2: GDiffComplex,
                   check: bool = True) -> tuple:
    """Graded tensor product with Koszul signs, with a product table when
    both factors have one.  Returns (GDiffComplex, offsets), the offsets of
    its `core.product_space` layout: degree n is the sum of the A^d1 (x)
    B^d2 with d1 + d2 = n in increasing d1, offsets[n][(d1, d2)] = (offset,
    dim A^d1, dim B^d2), and a_i (x) b_j sits at offset + i * dim B^d2 + j.
    Degrees are listed as first met over (d1, d2)."""
    if c1.algebra != c2.algebra:
        raise MismatchedAlgebra("tensor factors carry different algebras")
    sp1, sp2 = c1.space, c2.space
    parts = {}
    for d1 in sp1.degrees():
        for d2 in sp2.degrees():
            parts.setdefault(d1 + d2, []).append(
                (d1, d2, sp1.dim(d1), sp2.dim(d2)))
    space, offsets = product_space(parts)

    def op(op1: LinearMap, op2: LinearMap, koszul) -> LinearMap:
        """op1 (x) 1 + koszul(d1) * (1 (x) op2)."""
        s = op1.shift
        return kron_map(space, offsets, s, [(s, 0, op1.block, None, None),
                                            (0, s, None, op2.block, koszul)])

    parity = lambda d1: -1 if d1 % 2 else 1
    cx = CochainComplex.build(space, op(c1.d, c2.d, parity))
    contractions = [op(c1.contractions[b], c2.contractions[b], parity)
                    for b in range(c1.algebra.dim)]
    lie_ops = [op(c1.lie_ops[b], c2.lie_ops[b], None)
               for b in range(c1.algebra.dim)]

    product = None
    unit = None
    if c1.product is not None and c2.product is not None:
        # (a1 (x) a2)(b1 (x) b2) = (-1)^(|a2||b1|) a1 b1 (x) a2 b2, and the
        # unit is u1 (x) u2, both placed by the layout's offsets
        product = _tensor_table(
            space, offsets, c1.product.table, c2.product.table,
            lambda a2, b1: -1 if a2 % 2 and b1 % 2 else 1)
        if c1.unit is not None and c2.unit is not None:
            off = offsets[0][(0, 0)][0]
            unit = [0] * space.dim(0)
            unit[off:off + len(c1.unit) * len(c2.unit)] = [
                v1 * v2 if v1 and v2 else 0 for v1 in c1.unit for v2 in c2.unit]
    gd = build_gdiff(c1.algebra, cx, contractions, lie_ops, product=product,
                     unit=unit, check=check)
    return gd, offsets


# ---------------------------------------------------------------------------
# Basic subcomplex, sub/quotient complexes


def basic_subcomplex(c: GDiffComplex) -> tuple:
    """Joint kernel of all contractions and Lie derivatives with the
    restricted differential.  Returns (CochainComplex, inclusion)."""
    ops = list(c.contractions) + list(c.lie_ops)
    sub = joint_kernel(c.space, ops)
    return restrict_complex(c.complex, sub)


def sub_gdiff(c: GDiffComplex, sub: Subspace) -> GDiffComplex:
    """Restrict the whole package to an (i, L, d)-stable graded subspace."""
    small, incl = restrict_complex(c.complex, sub)

    def restrict(op: LinearMap) -> LinearMap:
        return restrict_map(op, incl, "subspace not stable under operator")

    contr = [restrict(op) for op in c.contractions]
    lies = [restrict(op) for op in c.lie_ops]
    return build_gdiff(c.algebra, small, contr, lies)


def quotient_gdiff(c: GDiffComplex, sub: Subspace) -> tuple:
    """Quotient by an (i, L, d)-stable graded subspace.  Returns
    (GDiffComplex, projection LinearMap)."""
    full = Subspace.full(c.space)
    sq = subquotient(full, dict(sub.basis))
    qspace = GradedSpace.from_dims(sq.dims)

    proj = LinearMap.from_blocks(c.space, qspace, 0, {
        n: sq.project(n, rl.identity(c.space.dim(n)))
        for n in c.space.degrees() if sq.dim(n)})

    def induce(op: LinearMap) -> LinearMap:
        blocks = {}
        for n in qspace.degrees():
            reps = sq.reps.get(n)
            if reps is None:
                continue
            blocks[n] = sq.project(n + op.shift,
                                   rl.mat_mul(op.block(n), reps))
        return LinearMap.from_blocks(qspace, qspace, op.shift, blocks)

    dq = induce(c.d)
    cx = CochainComplex.build(qspace, dq)
    contr = [induce(op) for op in c.contractions]
    lies = [induce(op) for op in c.lie_ops]
    gd = build_gdiff(c.algebra, cx, contr, lies)
    return gd, proj


# ---------------------------------------------------------------------------
# Cartan model and equivariant cohomology


def trivial_action_gdiff(algebra: LieAlgebra,
                         complex_: CochainComplex) -> GDiffComplex:
    """Equip a complex with the zero action of `algebra` (all contractions
    and Lie derivatives vanish); every axiom holds trivially."""
    z_i = [LinearMap.zero(complex_.space, complex_.space, -1)
           for _ in range(algebra.dim)]
    z_l = [LinearMap.zero(complex_.space, complex_.space, 0)
           for _ in range(algebra.dim)]
    return GDiffComplex(algebra, complex_, tuple(z_i), tuple(z_l))


def _twist_terms(c: GDiffComplex, mons: dict) -> list:
    """The `kron_map` terms of the twist sum_j i_j (x) u_j of the Cartan
    differential: u_j multiplies by the j-th generator of S(g*), from S^m to
    S^(m+1)."""
    r = c.algebra.dim
    mult = [{m: sym_multiplication(j, mons[m], mons[m + 1])
             for m in mons if m + 1 in mons} for j in range(r)]
    return [(-1, 1, c.contractions[j].block, mult[j].get, None)
            for j in range(r)]


def cartan_twist(c: GDiffComplex, space: GradedSpace, offsets: dict,
                 mons: dict) -> LinearMap:
    """The twist sum_j i_j (x) u_j, degree +1 on the full Cartan model space
    (laid out as `model_space` and `offsets` of CartanModel)."""
    return kron_map(space, offsets, 1, _twist_terms(c, mons))


@dataclass(frozen=True)
class CartanModel:
    """Invariant part of A (x) S(g*) (symmetric degree <= sym_cap) with the
    twisted differential d (x) 1 + sum_j i_j (x) u_j.  Total degree of
    a (x) u^E is deg(a) + 2|E|; results are reliable up to degree 2*sym_cap.

    The sign of the contraction term is the one that matches the exterior
    parity conventions used throughout: with it, the exponential-twisted
    embedding into A (x) W is simultaneously a chain map, basic, and
    injective (see cartan_weil_inclusion).  The opposite sign gives an
    isomorphic complex (rescale u by -1), so all dimensions agree either
    way."""

    base: GDiffComplex
    sym_cap: int
    band: int
    complex: CochainComplex       # invariant complex
    inclusion: LinearMap          # invariant space -> full model space
    model_space: GradedSpace
    offsets: dict                 # its `core.product_space` offsets
    fine: dict                    # degree -> ((n, m, inv_dim, offset, size), ...)
    mons: dict                    # m -> monomial exponent tuples


def _invariant_basis(pairs, size: int):
    """The free-column `rl.kernel` basis of the common kernel of the
    operators x (x) 1 + 1 (x) y on a size-dimensional product, one pair
    (x, y) at a time: K <- K ker(B K) until K is empty, from an identity
    built here (`rl.identity` would keep one per size in memory).  A
    product of free-column bases is one, and that basis is unique."""
    k = rl.freeze([{i: 1} for i in range(size)], size)
    for x, y in pairs:
        if not rl.ncols(k):
            break
        op = [{} for _ in range(size)]
        rl.add_kron(op, x, rl.identity(len(y)))
        rl.add_kron(op, rl.identity(len(x)), y)
        k = rl.mat_mul(k, rl.kernel(rl.mat_mul(rl.freeze(op, size), k)))
    return rl.freeze(k)


def cartan_model(c: GDiffComplex, sym_cap: int,
                 top: Optional[int] = None) -> CartanModel:
    """The Cartan model of c (symmetric degree <= sym_cap) through degree top.

    The full model space is A (x) S(g*), graded by deg(a) + 2m, laid out by
    `core.product_space`.  Degree deg is the sum of the fine components
    A^n (x) S^m with n + 2m = deg, in increasing m; fine[deg] lists (n, m,
    invariant dim, offset, size) for each, and a (x) u^E sits at offset +
    (form index) * |S^m| + (monomial index of E in mons[m]).  On each fine
    component the differential is the Kronecker sum

        d_G = d (x) 1 + sum_j i_j (x) u_j      (cartan_twist),

    u_j multiplication by the j-th generator, S^m -> S^(m+1), and the model
    is its restriction to the joint kernel of the invariance operators
    L_b (x) 1 + 1 (x) L_b, with L_b on S^m the coadjoint derivation.  They
    preserve each fine component; its invariants are cut one operator at a
    time, in the free-column `rl.kernel` basis of the operators stacked."""
    g = c.algebra
    r = g.dim
    sp = c.space
    mons = {m: bases.sym_basis(r, m) for m in range(sym_cap + 1)}
    ls_mats = {m: [sym_derivation(g.coad(b), mons[m]) for b in range(r)]
               for m in mons}
    adegs = sp.degrees()
    top = max(adegs, default=0) + 2 * sym_cap if top is None else top
    parts = {deg: [(n, m, sp.dim(n), len(mons[m]))
                   for m in mons if (n := deg - 2 * m) in adegs]
             for deg in range(top + 1)}
    model_space, offsets = product_space(parts)
    fine, inv_dims, incl_blocks = {}, {}, {}
    for deg in model_space.degrees():
        entries, kernels = [], []
        for (n, m), (off, dim_a, dim_s) in offsets[deg].items():
            size = dim_a * dim_s
            kernels.append(_invariant_basis(
                zip((op.block(n) for op in c.lie_ops), ls_mats[m]), size))
            entries.append((n, m, rl.ncols(kernels[-1]), off, size))
        fine[deg] = tuple(entries)
        total_inv = sum(k for (_, _, k, _, _) in entries)
        if total_inv == 0:
            continue
        inv_dims[deg] = total_inv
        # the fine components in order, each kernel in its own columns
        rows, colpos = [], 0
        for (_, _, k, _, _), kernel in zip(entries, kernels):
            rows += [{colpos + j: v for j, v in row.items()} for row in kernel]
            colpos += k
        incl_blocks[deg] = rl.freeze(rows, total_inv)
    inv_space = GradedSpace.from_dims(inv_dims)
    inclusion = LinearMap.from_blocks(inv_space, model_space, 0, incl_blocks)

    # full-model differential (note: d_G^2 is only zero on invariants)
    d_full = kron_map(model_space, offsets, 1, _twist_terms(c, mons)
                      + [(1, 0, c.d.block, None, None)])
    d_inv = restrict_map(d_full, inclusion,
                         "the Cartan differential leaves the invariants")
    cx = CochainComplex.build(inv_space, d_inv)
    return CartanModel(c, sym_cap, 2 * sym_cap, cx, inclusion, model_space,
                       offsets, fine, mons)


@dataclass(frozen=True)
class EquivariantCohomology:
    model: CartanModel
    cohomology: object   # CohomologyResult
    band: int
    through: Optional[int]   # the last degree computed; None: every one

    def dim(self, n: int) -> int:
        if self.through is not None and n > self.through:
            raise ValueError(f"H^{n} is not computed (through {self.through})")
        return self.cohomology.dim(n)

    def dims_list(self, up_to: Optional[int] = None):
        hi = self.band if up_to is None else up_to
        return [self.dim(n) for n in range(hi + 1)]

    def to_json(self) -> dict:
        degs = sorted(self.model.complex.space.degrees())
        return {
            "sym_cap": self.model.sym_cap,
            "band": self.band,
            "dims": {str(n): self.dim(n) for n in degs
                     if self.through is None or n <= self.through},
            "truncated_above": self.band,
        }


def equivariant_cohomology(c: GDiffComplex, sym_cap: int,
                           through: Optional[int] = None) -> EquivariantCohomology:
    """H of the Cartan model of c with symmetric degree <= sym_cap; with
    `through`, of C^{<= through + 1} only, which H^n for n <= through needs:
    then only those degrees are answered, and `dim` raises above them."""
    model = cartan_model(c, sym_cap, None if through is None else through + 1)
    return EquivariantCohomology(model, cohomology(model.complex), model.band,
                                 through)


# ---------------------------------------------------------------------------
# Connections and the universal map from the Weil algebra


class ConnectionInvalid(Exception):
    """Carries a witness dict naming the violated connection identity."""


@dataclass(frozen=True)
class ConnectionResult:
    exists: bool
    theta: Optional[tuple]   # one degree-1 coordinate vector per generator


def locally_free_connection(c: GDiffComplex) -> ConnectionResult:
    """Solve for degree-1 elements Theta_k with i_b Theta_k = delta_{bk} 1 and
    L_b Theta_k = -sum_l c^k_{bl} Theta_l.  Absence is a definite answer."""
    if c.unit is None:
        raise NotMultiplicative("a connection needs a unit in degree 0")
    g = c.algebra
    r = g.dim
    dim1 = c.space.dim(1)
    dim0 = c.space.dim(0)
    if dim1 == 0:
        return ConnectionResult(False, None)
    # unknowns Theta_k on g (x) A^1: (1 (x) i_b) Theta = delta_bk 1 and
    # (1 (x) L_b + C_b (x) 1) Theta = 0 with C_b[k][l] = c^k_{bl}
    one = rl.identity(r)
    rows, rhs = [], []
    for b in range(r):
        m = [{} for _ in range(r * dim0)]
        rl.add_kron(m, one, c.contractions[b].block(1))
        rows += m
        rhs += [{0: c.unit[t]} if b == k else {} for k in range(r)
                for t in range(dim0)]
    for b in range(r):
        m = [{} for _ in range(r * dim1)]
        rl.add_kron(m, one, c.lie_ops[b].block(1))
        rl.add_kron(m, rl.freeze([{l: g.c[b][l][k] for l in range(r)}
                                  for k in range(r)], r), rl.identity(dim1))
        rows += m
        rhs += [{}] * (r * dim1)
    sol = rl.solve(rl.freeze(rows, r * dim1), rl.freeze(rhs, 1))
    if sol is None:
        return ConnectionResult(False, None)
    flat = [row.get(0, 0) for row in sol]
    theta = tuple(tuple(flat[k * dim1:(k + 1) * dim1]) for k in range(r))
    return ConnectionResult(True, theta)


@dataclass(frozen=True)
class UniversalMapResult:
    map: LinearMap               # W^{<=M} -> A, degree preserving
    curvature: tuple             # F_k in degree 2, one per generator
    checked_sym_below: int       # chain property verified for sym degree < this


def weil_universal_map(w: WeilAlgebra, target: GDiffComplex,
                       theta: Sequence) -> UniversalMapResult:
    """Multiplicative extension of lambda^k -> Theta_k, with the forced values
    F_k = -sum_{i<j} c^k_{ij} Theta_i Theta_j - d Theta_k on the symmetric
    generators.  Verifies compatibility with (d, i, L); the d-compatibility is
    checked away from the truncation edge (symmetric degree < cap).  Each
    basis element lambda_I u^E and its symmetric degree are read off the
    offsets and monomials of `w`."""
    if target.product is None or target.unit is None:
        raise NotMultiplicative("universal map needs a multiplicative target")
    g = w.gdiff.algebra
    if g != target.algebra:
        raise MismatchedAlgebra("Weil algebra and target carry different algebras")
    r, sp, table = g.dim, target.space, target.product.table
    theta = [list(map(rl.q, v)) for v in theta]

    def mult(da, va, db, vb):   # M_{da,db} (va (x) vb)
        ab = [x * y for x in va for y in vb]
        return [sum(v * ab[j] for j, v in row.items())
                for row in table.get((da, db), rl.zeros(sp.dim(da + db), 0))]

    f_img = []
    for k in range(r):
        acc = [-x for x in target.d.apply(1, theta[k])]
        for i in range(r):
            for j in range(i + 1, r):
                if ckij := g.c[i][j][k]:
                    tt = mult(1, theta[i], 1, theta[j])
                    acc = [x - ckij * y for x, y in zip(acc, tt)]
        f_img.append(acc)

    def image(idx, expo):
        """The image of lambda_idx u^expo: the Theta_i in order, then the
        F_k, multiplied onto the unit."""
        deg, cur = 0, list(target.unit)
        for s, v in [(1, theta[i]) for i in idx] + [
                (2, f_img[k]) for k in range(r) for _ in range(expo[k])]:
            deg, cur = deg + s, mult(deg, cur, s, v)
        return cur

    wsp = w.gdiff.space
    blocks = {}
    for deg in wsp.degrees():
        blk = [{} for _ in range(sp.dim(deg))]
        for (k, m), (off, _, dim_s) in w.offsets[deg].items():
            for i, idx in enumerate(bases.ext_basis(r, k)):
                for j, expo in enumerate(w.mons[m]):
                    for t, v in enumerate(image(idx, expo)):
                        if v:
                            blk[t][off + i * dim_s + j] = v
        blocks[deg] = rl.freeze(blk, wsp.dim(deg))
    phi = LinearMap.from_blocks(wsp, sp, 0, blocks)

    # compatibility with contractions and Lie derivatives (no truncation
    # there), and the chain property away from the truncation edge
    wg, every = w.gdiff, _columns(wsp)
    for b in range(r):
        for identity, ops, wops in (
                ("contraction", target.contractions, wg.contractions),
                ("lie-derivative", target.lie_ops, wg.lie_ops)):
            if witness := _first_failure(every, [(1, ops[b], phi),
                                                 (-1, phi, wops[b])]):
                raise ConnectionInvalid({"identity": identity, "generator": b,
                                         **witness})
    below = [(n, off + j) for n in wsp.degrees()
             for (_, m), (off, dim_e, dim_s) in w.offsets[n].items()
             if m < w.sym_cap for j in range(dim_e * dim_s)]
    if witness := _first_failure(below, [(1, target.d, phi), (-1, phi, wg.d)]):
        raise ConnectionInvalid({"identity": "chain", **witness})
    return UniversalMapResult(phi, tuple(tuple(v) for v in f_img), w.sym_cap)


# ---------------------------------------------------------------------------
# Twisted inclusion of the Cartan model into the basic subcomplex of A (x) W
#
# The naive basis-level inclusion a (x) u^E -> a (x) (1 (x) u^E) is not basic:
# contractions see the A factor.  Conjugating by the exponential of the
# nilpotent twist N = sum_b eps * (i_b on A) (x) (lambda^b wedge on W) repairs
# this.  The sign eps below is pinned empirically against the axioms (chain
# map + basic image + injectivity) and then frozen.

MQ_SIGN = (1, 1, 0)   # eps(n, wd) = s * (-1)^(p*n + q*wd) with (s, p, q)


def _mq_twist(a: GDiffComplex, w: WeilAlgebra, space: GradedSpace,
              offsets: dict) -> LinearMap:
    """N = sum_b eps * i_b (x) (lambda^b ^) on the layout (space, offsets)
    of A (x) W, eps read off MQ_SIGN when called."""
    s, p, q = MQ_SIGN
    wsp, table = w.gdiff.space, w.gdiff.product.table

    def lam(b, wd):
        """(-1)^(q wd) times the product by lambda^b, the b-th basis element
        of W^1, on W^wd: columns b n to b n + n - 1 of M_{1,wd}."""
        n, sgn = wsp.dim(wd), (-1) ** (q * wd % 2)
        blk = table.get((1, wd), rl.zeros(wsp.dim(wd + 1), 0))
        return rl.freeze([{j - b * n: sgn * v for j, v in row.items()
                           if b * n <= j < b * n + n} for row in blk], n)

    return kron_map(space, offsets, 0, [
        (-1, 1, a.contractions[b].block,
         {wd: lam(b, wd) for wd in wsp.degrees()}.get,
         lambda n: s * (-1) ** (p * n % 2)) for b in range(a.algebra.dim)])


def _exp_nilpotent(nmap: LinearMap) -> LinearMap:
    """exp(N) of a nilpotent degree-preserving map: the sum of N^k / k!,
    added up as one plain matrix per degree and frozen once."""
    blocks = {}
    for n in nmap.source.degrees():
        m = nmap.block(n)
        power = out = rl.identity(nmap.source.dim(n))
        k = 0
        while not rl.is_zero(power := rl.mat_mul(m, power)):
            k += 1
            power = rl.mat_scale(power, Fraction(1, k))
            out = rl.mat_add(out, power)
        blocks[n] = out
    return LinearMap.from_blocks(nmap.source, nmap.source, 0, blocks)


@dataclass(frozen=True)
class TwistedInclusion:
    tensor: GDiffComplex   # A (x) W, without a product table
    inclusion: LinearMap   # Cartan invariant complex -> tensor space


def cartan_weil_inclusion(model: CartanModel,
                          w: WeilAlgebra) -> TwistedInclusion:
    """Embed the Cartan model into A (x) W^(<=M) so that the image is basic
    and the differentials correspond.  Verifies chain property, basic image
    and injectivity; raises AxiomFailure on any defect.  The checks read no
    product, so A (x) W is built without its table."""
    a = model.base
    if w.sym_cap != model.sym_cap:
        raise ValueError("symmetric caps of model and Weil algebra differ")
    tensor, offsets = tensor_product(
        a, replace(w.gdiff, product=None, unit=None), check=False)

    # rearrangement: full Cartan model space -> tensor space, a_i (x) u^E of
    # A^n (x) S^m to a_i (x) u^E of A^n (x) W^2m, where u^E lies in the
    # product Lambda^0 (x) S^m of W^2m
    msp = model.model_space
    rblocks = {}
    for deg in msp.degrees():
        blk = [{} for _ in range(tensor.space.dim(deg))]
        for (n, m), (off, dim_a, dim_s) in model.offsets[deg].items():
            if not dim_a * dim_s:   # S^m of a zero algebra: W^2m may be 0
                continue
            w_off = w.offsets[2 * m][(0, m)][0]
            row = {e: w_off + j for j, e in enumerate(w.mons[m])}
            t_off, _, dim_w = offsets[deg][(n, 2 * m)]
            for i in range(dim_a):
                for j, expo in enumerate(model.mons[m]):
                    blk[t_off + i * dim_w + row[expo]][off + i * dim_s + j] = 1
        rblocks[deg] = rl.freeze(blk, msp.dim(deg))
    rearr = LinearMap.from_blocks(msp, tensor.space, 0, rblocks)

    twist = _mq_twist(a, w, tensor.space, offsets)
    expn = _exp_nilpotent(twist)
    inc = expn.compose(rearr.compose(model.inclusion))

    src = model.complex.space
    every = _columns(src)
    checks = [({"axiom": "chain"},
               [(1, tensor.d, inc), (-1, inc, model.complex.d)])]
    checks += [({"axiom": axiom, "generators": [b]}, [(1, ops[b], inc)])
               for b in range(a.algebra.dim)
               for axiom, ops in (("basic-contraction", tensor.contractions),
                                  ("basic-lie", tensor.lie_ops))]
    failures = [{**head, **witness} for head, terms in checks
                if (witness := _first_failure(every, terms))]
    failures += [{"axiom": "injective", "degree": deg, "basis_index": 0}
                 for deg in src.degrees()
                 if rl.rank(inc.block(deg)) != src.dim(deg)]
    if failures:
        raise AxiomFailure(AxiomReport(False, tuple(failures)))
    return TwistedInclusion(tensor, inc)


# ---------------------------------------------------------------------------
# Low-degree descriptions of equivariant cohomology


def low_degree_data(c: GDiffComplex, model: Optional[CartanModel] = None) -> dict:
    """Both sides of the low-degree descriptions of equivariant cohomology.

    Degree 0: the model's H^0 against ker(d : A^0 -> A^1), which is checked
    to be invariant.  Degree 1 (meaningful when H^1 of the acting algebra
    vanishes): closed invariant 1-elements against closed horizontal ones,
    and the model's H^1 against {a in A^1 : da = 0, i a = 0} / d((A^0)^inv).
    """
    if model is None:
        model = cartan_model(c, 1)
    sp = c.space
    z = map_kernel(c.d)
    h_model = cohomology(model.complex)

    kernel0 = z.matrix(0)
    kernel_invariant = not rl.ncols(kernel0) or all(
        rl.is_zero(rl.mat_mul(op.block(0), kernel0)) for op in c.lie_ops)

    z1 = z.part(1)
    hor1 = z1.intersect(joint_kernel(sp, c.contractions))
    inv = joint_kernel(sp, c.lie_ops)
    inv1 = z1.intersect(inv)
    den = rl.mat_mul(c.d.block(0), inv.matrix(0))
    h1_direct = subquotient(hor1, {1: den}).dim(1)

    return {
        "h0_model": h_model.dim(0),
        "h0_kernel": rl.ncols(kernel0),
        "kernel_invariant": kernel_invariant,
        "closed_invariant_is_horizontal": hor1.equals(inv1),
        "h1_model": h_model.dim(1),
        "h1_direct": h1_direct,
    }


def forgetful_matrices(model: CartanModel) -> dict:
    """Exact matrices of the forgetful homomorphism from the model's
    cohomology to the cohomology of the underlying complex, degree by degree:
    a representative is evaluated at zero (its symmetric-degree-0 component)
    and projected onto cohomology classes of the base complex."""
    a = model.base.complex
    proj = subquotient(map_kernel(a.d),
                       {n + a.d.shift: m for n, m in a.d.blocks})
    hg = cohomology(model.complex)
    out = {}
    for n in range(model.band + 1):
        reps = hg.reps.get(n, rl.zeros(model.complex.space.dim(n), 0))
        full = rl.mat_mul(model.inclusion.block(n), reps)
        rows = [{}] * a.space.dim(n)
        for (_, m, _, off, size) in model.fine.get(n, ()):
            if m == 0:
                rows = full[off:off + size]
        out[n] = proj.project(n, rl.freeze(rows, rl.ncols(reps)))
    return out
