"""Lie algebras over Q: structure constants, representations, bialgebra data,
Chevalley-Eilenberg complexes and their cohomology.

Convention (fixed once, used by every module): the differential on
V (x) Lambda g* is

    d(v (x) w) = sum_a rho(e_a) v (x) (lambda^a ^ w) + v (x) dw,
    d lambda^m = - sum_{i<j} c^m_{ij} lambda^i ^ lambda^j,

contractions insert into the first slot, i_b lambda_I = (-1)^pos lambda_{I-b},
and Lie derivatives act diagonally with ad*_b lambda^m = - sum_l c^m_{bl}
lambda^l.  With these choices d*d = 0, L = d i + i d, and every operator
identity used downstream holds as an exact matrix identity.

Every action on symmetric powers (polynomial coefficients here, S(g*) in the
Weil algebra and the Cartan model) is `sym_derivation`: a generator matrix
extended to S^m as a derivation.  Multiplication by a generator of S(g*),
from S^m to S^(m+1), is `sym_multiplication`; the Koszul term of the Weil
differential and the Cartan twist are both built from it.

A subalgebra k of g (relative cohomology H(g, k; V), or a G-differential
complex viewed under k) is built and checked once, by `build_subalgebra`:
it refuses dependent vectors and a span not closed under the bracket, and
solves each bracket for the structure constants of k.  `Subalgebra.restrict`
is the one restriction of an action of g to k, and refuses an action of
any other algebra: the operator of a basis vector v of k is sum_j v_j
times the operator of e_j.

Two builders have no caller here: `coboundary_bialgebra` (the Lie
bialgebra of an r-matrix, the infinitesimal form of a coboundary Poisson
group) and `sym_range_rep` (S(g*) up to a degree, whose invariants are the
equivariant cohomology of a point).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional, Sequence

from . import bases, ratlin as rl
from .core import (CochainComplex, GradedSpace, NotContained, NotSubcomplex,
                   Subspace, cohomology, joint_kernel, kron_map,
                   linear_combination, product_space, restrict_complex,
                   stacked_kernel)


class JacobiViolation(Exception):
    """Jacobi identity fails; carries the witness triple and defect vector."""


class AntisymmetryViolation(Exception):
    pass


class RepresentationInvalid(Exception):
    """Commutation defect; carries the witness generator pair."""


class CocycleViolation(Exception):
    pass


class DualJacobiViolation(Exception):
    pass


class FactorizationMismatch(Exception):
    """Computed relative cohomology disagrees with the asserted product form."""


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c[i][j][k] of [e_i, e_j] = sum_k c^k_ij e_k."""

    dim: int
    c: tuple  # c[i][j] = tuple of length dim
    compact_type: bool = False
    name: str = ""

    def bracket(self, x: Sequence, y: Sequence) -> list:
        n = self.dim
        out = [0] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                cij = self.c[i][j]
                coef = x[i] * y[j]
                for k in range(n):
                    if cij[k]:
                        out[k] += coef * cij[k]
        return [rl.q(Fraction(v)) if isinstance(v, Fraction) else v for v in out]

    def ad(self, i: int):
        """Matrix of ad(e_i) acting on g (rows = output index)."""
        n = self.dim
        return rl.freeze([{j: self.c[i][j][k] for j in range(n)}
                          for k in range(n)], n)

    def coad(self, i: int):
        """Matrix of ad*(e_i) = -ad(e_i)^T on g*."""
        return rl.freeze([{k: -x for k, x in enumerate(self.c[i][j])}
                          for j in range(self.dim)], self.dim)


def build_lie_algebra(dim: int, brackets: Sequence, compact_type: bool = False,
                      name: str = "") -> LieAlgebra:
    """brackets: [[i, j, [[k, coeff], ...]], ...], 0-based; missing (j,i)
    entries are filled by antisymmetry, conflicting ones rejected."""
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for item in brackets:
        i, j, terms = item
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"bracket index out of range: ({i},{j})")
        vec = [0] * dim
        for k, coeff in terms:
            if not (0 <= k < dim):
                raise ValueError(f"bracket target out of range: {k}")
            vec[k] = rl.q(coeff)
        if i == j and any(vec):
            raise AntisymmetryViolation(f"[e_{i}, e_{i}] != 0")
        if (j, i) in seen:
            if any(c[j][i][k] + vec[k] for k in range(dim)):
                raise AntisymmetryViolation(f"inconsistent ({i},{j}) vs ({j},{i})")
        if (i, j) in seen:
            raise ValueError(f"duplicate bracket entry ({i},{j})")
        seen.add((i, j))
        c[i][j] = vec
        if (j, i) not in seen:
            c[j][i] = [-v for v in vec]
    g = LieAlgebra(dim, tuple(tuple(tuple(r) for r in row) for row in c),
                   compact_type, name)
    _check_jacobi(g)
    return g


def _check_jacobi(g: LieAlgebra):
    n = g.dim
    basis = [[int(t == i) for t in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                d1 = g.bracket(basis[i], g.c[j][k])
                d2 = g.bracket(basis[j], g.c[k][i])
                d3 = g.bracket(basis[k], g.c[i][j])
                defect = [a + b + c_ for a, b, c_ in zip(d1, d2, d3)]
                if any(defect):
                    raise JacobiViolation(((i, j, k), defect))


def su2() -> LieAlgebra:
    return build_lie_algebra(3, [[0, 1, [[2, 1]]], [1, 2, [[0, 1]]], [2, 0, [[1, 1]]]],
                             compact_type=True, name="su2")


def heisenberg() -> LieAlgebra:
    return build_lie_algebra(3, [[0, 1, [[2, 1]]]], name="heisenberg")


def abelian(n: int) -> LieAlgebra:
    return build_lie_algebra(n, [], compact_type=True, name=f"abelian{n}")


def sl2() -> LieAlgebra:
    # h, e, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return build_lie_algebra(3, [[0, 1, [[1, 2]]], [0, 2, [[2, -2]]], [1, 2, [[0, 1]]]],
                             name="sl2")


@dataclass(frozen=True)
class Representation:
    algebra: LieAlgebra
    space_dim: int
    operators: tuple  # one matrix per generator
    name: str = ""

    def op(self, i: int):
        return self.operators[i]


def build_representation(g: LieAlgebra, operators: Sequence, dim: int,
                         name: str = "") -> Representation:
    """The representation of g on a space of dimension `dim` given by one
    dim x dim operator per generator (none when g is zero)."""
    ops = tuple(rl.freeze(m) for m in operators)
    if len(ops) != g.dim:
        raise RepresentationInvalid("one operator per generator required")
    for m in ops:
        if m.shape != (dim, dim):
            raise RepresentationInvalid(f"operators must be {dim} x {dim}")
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = rl.mat_add(rl.mat_mul(ops[i], ops[j]),
                             rl.mat_mul(ops[j], ops[i]), -1)
            br = g.c[i][j]
            rhs = rl.zeros(dim, dim)
            for k in range(g.dim):
                if br[k]:
                    rhs = rl.mat_add(rhs, rl.mat_scale(ops[k], br[k]))
            if lhs != rhs:
                raise RepresentationInvalid(((i, j), rl.mat_add(lhs, rhs, -1)))
    return Representation(g, dim, ops, name)


def trivial_rep(g: LieAlgebra) -> Representation:
    return build_representation(g, [rl.zeros(1, 1)] * g.dim, 1,
                                name="trivial1")


def adjoint_rep(g: LieAlgebra) -> Representation:
    return build_representation(g, [g.ad(i) for i in range(g.dim)], g.dim,
                                name="adjoint")


def coadjoint_rep(g: LieAlgebra) -> Representation:
    return build_representation(g, [g.coad(i) for i in range(g.dim)], g.dim,
                                name="coadjoint")


def sym_derivation(gen, mons: Sequence):
    """The derivation of S^m extending x_j -> sum_t gen[t][j] x_t, as a
    matrix over the monomials `mons` (exponent tuples, all of degree m)."""
    n = len(gen)
    index = {e: i for i, e in enumerate(mons)}
    out = [{} for _ in mons]
    for col, e in enumerate(mons):
        for j in range(n):
            if not e[j]:
                continue
            for t, coeff in gen.cols[j].items():
                new = list(e)
                new[j] -= 1
                new[t] += 1
                row = out[index[tuple(new)]]
                row[col] = row.get(col, 0) + e[j] * coeff
    return rl.freeze(out, len(mons))


def sym_multiplication(j: int, mons: Sequence, target: Sequence):
    """Multiplication by x_j from the span of the monomials `mons` (exponent
    tuples of one degree m) to that of `target` (those of degree m + 1)."""
    index = {e: i for i, e in enumerate(target)}
    out = [{} for _ in target]
    for col, e in enumerate(mons):
        out[index[e[:j] + (e[j] + 1,) + e[j + 1:]]][col] = 1
    return rl.freeze(out, len(mons))


def sym_power_rep(g: LieAlgebra, k: int) -> Representation:
    """Degree-k polynomials on g* (coordinates x_j dual to e_j); generators
    act as derivations with e_a . x_j = sum_m c^m_{aj} x_m, the derivative of
    the coadjoint flow on functions."""
    return build_representation(
        g, [sym_derivation(g.ad(a), bases.sym_basis(g.dim, k))
            for a in range(g.dim)],
        len(bases.sym_basis(g.dim, k)), name=f"sym{k}-coadjoint")


def sym_range_rep(g: LieAlgebra, kmax: int) -> Representation:
    """Polynomials on g* of degree <= kmax (direct sum of the slice reps)."""
    pieces = [sym_power_rep(g, k) for k in range(kmax + 1)]
    dim = sum(p.space_dim for p in pieces)
    ops = []
    for a in range(g.dim):
        rows, off = [], 0
        for p in pieces:
            rows += [{off + j: v for j, v in row.items()} for row in p.op(a)]
            off += p.space_dim
        ops.append(rl.freeze(rows, dim))
    return build_representation(g, ops, dim, name=f"sym<={kmax}-coadjoint")


def invariants(rep: Representation) -> Subspace:
    space = GradedSpace.from_dims({0: rep.space_dim})
    inv = stacked_kernel([rep.op(i) for i in range(rep.algebra.dim)],
                         rep.space_dim)
    return Subspace(space, ((0, inv),) if rl.ncols(inv) else ())


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg complex


def _exterior_operators(g: LieAlgebra) -> tuple:
    """The operators on Lambda g* that build every CE complex, as matrices
    per exterior degree k: (wedge, d, contractions, coad) with wedge[b][k] =
    lambda^b ^ and d[k] from Lambda^k to Lambda^(k+1), contractions[b][k] =
    i_b to Lambda^(k-1), and coad[b][k] = ad*_b on Lambda^k."""
    n = g.dim
    ext = [bases.ext_basis(n, k) for k in range(n + 1)]
    pos = [{idx: i for i, idx in enumerate(e)} for e in ext]

    def family(lo, hi, shift, terms):
        """{k: matrix} for lo <= k < hi; terms(idx) lists the (coeff, new
        idx) of the image of lambda_idx, None for no term."""
        out = {}
        for k in range(lo, hi):
            m = [{} for _ in ext[k + shift]]
            for col, idx in enumerate(ext[k]):
                for term in terms(idx):
                    if term is not None:
                        row = m[pos[k + shift][term[1]]]
                        row[col] = row.get(col, 0) + term[0]
            out[k] = rl.freeze(m, len(ext[k]))
        return out

    def derivation(image):
        """The derivation with lambda^m -> image(m), a list of (coeff,
        increasing tuple): slot p of lambda_idx gives (-1)^p image ^ rest."""
        def terms(idx):
            for p, mgen in enumerate(idx):
                rest = idx[:p] + idx[p + 1:]
                for coeff, t in image(mgen):
                    mg = bases.wedge_merge(t, rest)
                    if mg is not None:
                        yield (-1) ** p * coeff * mg[0], mg[1]
        return terms

    wedge = [family(0, n, 1, lambda idx, b=b: [bases.wedge_merge((b,), idx)])
             for b in range(n)]
    # d lambda^m = -sum_{i<j} c^m_{ij} lambda^i ^ lambda^j
    d_ext = family(0, n, 1, derivation(lambda m: [
        (-g.c[i][j][m], (i, j)) for i, j in bases.ext_basis(n, 2)
        if g.c[i][j][m]]))
    contr = [family(1, n + 1, -1, lambda idx, b=b: [bases.remove_slot(b, idx)])
             for b in range(n)]
    # ad*_b lambda^m = -sum_l c^m_{bl} lambda^l
    coad = [family(0, n + 1, 0, derivation(lambda m, b=b: [
        (-g.c[b][l][m], (l,)) for l in range(n) if g.c[b][l][m]]))
        for b in range(n)]
    return wedge, d_ext, contr, coad


@dataclass(frozen=True)
class CEComplex:
    """Chevalley-Eilenberg complex of (g, V) with its operator package."""

    algebra: LieAlgebra
    rep: Representation
    complex: CochainComplex
    contractions: tuple  # LinearMap per generator, degree -1
    lie_ops: tuple       # LinearMap per generator, degree 0

    @property
    def space(self):
        return self.complex.space


def ce_complex(g: LieAlgebra, rep: Optional[Representation] = None) -> CEComplex:
    """C(g; V) on Lambda^k g* (x) V, exterior index major, as sums of
    Kronecker products of the exterior operators with operators on V:

        d   = sum_b (lambda^b ^) (x) rho(e_b) + d_Lambda (x) 1,
        i_b = i_b (x) 1,
        L_b = 1 (x) rho(e_b) + ad*_b (x) 1."""
    rep = rep if rep is not None else trivial_rep(g)
    if rep.algebra != g:
        raise RepresentationInvalid("the representation is of another algebra")
    n = g.dim
    space, offsets = product_space(
        {k: [(k, 0, len(bases.ext_basis(n, k)), rep.space_dim)]
         for k in range(n + 1)})
    wedge, d_ext, contr, coad = _exterior_operators(g)
    rho = [lambda _, b=b: rep.op(b) for b in range(n)]
    d = kron_map(space, offsets, 1, [(1, 0, wedge[b].get, rho[b], None)
                                     for b in range(n)]
                 + [(1, 0, d_ext.get, None, None)])
    contractions = tuple(kron_map(space, offsets, -1,
                                  [(-1, 0, contr[b].get, None, None)])
                         for b in range(n))
    lie_ops = tuple(kron_map(space, offsets, 0,
                             [(0, 0, None, rho[b], None),
                              (0, 0, coad[b].get, None, None)])
                    for b in range(n))
    return CEComplex(g, rep, CochainComplex.build(space, d), contractions,
                     lie_ops)


@dataclass(frozen=True)
class Subalgebra:
    """A subalgebra k of g: its basis vectors, coordinate tuples in g, and k
    as a Lie algebra in that basis."""

    ambient: LieAlgebra
    basis: tuple
    algebra: LieAlgebra

    def restrict(self, g: LieAlgebra, ops: Sequence) -> list:
        """The action of k from an action of g given as one operator per
        basis vector e_j of g (maps, or anything with `scale` and `add`,
        such as lifted forms): the operator sum_j v_j ops[j] of each basis
        vector v of k.  Raises ValueError unless g is the algebra k is a
        subalgebra of."""
        if g != self.ambient:
            raise ValueError("a subalgebra of another algebra than the one "
                             "that acts")
        return [linear_combination(ops, v) for v in self.basis]


def build_subalgebra(g: LieAlgebra, vectors: Sequence) -> Subalgebra:
    """The subalgebra spanned by `vectors` (coordinate vectors in g), with
    the structure constants of the basis they form.  Raises ValueError when
    they are dependent or their span is not closed under the bracket."""
    basis = tuple(tuple(map(rl.q, v)) for v in vectors)
    kb = rl.mat_from_columns([dict(enumerate(v)) for v in basis], g.dim)
    if rl.rank(kb) != len(basis):
        raise ValueError("subalgebra basis is dependent")
    brackets = []
    for i, j in combinations(range(len(basis)), 2):
        coords = rl.solve_vec(kb, g.bracket(basis[i], basis[j]))
        if coords is None:
            raise ValueError(f"not closed under bracket: basis pair ({i},{j})")
        terms = [[t, v] for t, v in enumerate(coords) if v]
        if terms:
            brackets.append([i, j, terms])
    return Subalgebra(g, basis, build_lie_algebra(
        len(basis), brackets, compact_type=g.compact_type))


def relative_subcomplex(ce: CEComplex, k: Subalgebra) -> tuple:
    """Joint kernel of i_eta and L_eta over a basis of k, with the restricted
    differential.  Returns (CochainComplex, inclusion).  Raises ValueError
    if k is not a subalgebra of the complex's algebra, NotSubcomplex if the
    kernel is not d-stable."""
    sub = joint_kernel(ce.space,
                       k.restrict(ce.algebra, ce.contractions)
                       + k.restrict(ce.algebra, ce.lie_ops))
    try:
        small, incl = restrict_complex(ce.complex, sub)
    except NotContained as e:
        raise NotSubcomplex(str(e)) from e
    return small, incl


@dataclass(frozen=True)
class LieCohomology:
    dims: dict
    reps: dict
    predicted_dims: Optional[dict] = None


def lie_cohomology(g: LieAlgebra, rep: Optional[Representation] = None,
                   k: Optional[Subalgebra] = None,
                   factorized: bool = False) -> LieCohomology:
    """Cohomology of C(g; V), relative to k when given.  With factorized=True
    (requires g.compact_type) the product prediction H(g,k) (x) V^g is
    computed independently and a mismatch raises FactorizationMismatch."""
    rep = rep if rep is not None else trivial_rep(g)
    ce = ce_complex(g, rep)
    if k is None:
        h = cohomology(ce.complex)
    else:
        small, _ = relative_subcomplex(ce, k)
        h = cohomology(small)
    predicted = None
    if factorized:
        if not g.compact_type:
            raise ValueError("factorized prediction requires compact_type")
        ce_triv = ce_complex(g, trivial_rep(g))
        if k is None:
            h_triv = cohomology(ce_triv.complex)
        else:
            small_t, _ = relative_subcomplex(ce_triv, k)
            h_triv = cohomology(small_t)
        inv_dim = invariants(rep).dim(0)
        predicted = {n: h_triv.dims.get(n, 0) * inv_dim
                     for n in range(0, g.dim + 1)}
        computed = {n: h.dims.get(n, 0) for n in range(0, g.dim + 1)}
        if computed != predicted:
            raise FactorizationMismatch((computed, predicted))
    dims = {n: h.dims.get(n, 0) for n in range(0, g.dim + 1)}
    return LieCohomology(dims, dict(h.reps), predicted)


# ---------------------------------------------------------------------------
# Bialgebra data


@dataclass(frozen=True)
class Bialgebra:
    algebra: LieAlgebra
    delta: tuple  # delta[i] = dict mapping (p,q) p<q -> coeff

    def delta_of(self, i: int) -> dict:
        return dict(self.delta[i])

    def dual_algebra(self) -> LieAlgebra:
        """[lambda^p, lambda^q]_* = sum_i delta(e_i)^{pq} lambda^i."""
        n = self.algebra.dim
        brackets = []
        for p in range(n):
            for q in range(p + 1, n):
                terms = []
                for i in range(n):
                    coeff = self.delta[i].get((p, q), 0)
                    if coeff:
                        terms.append([i, coeff])
                if terms:
                    brackets.append([p, q, terms])
        return build_lie_algebra(n, brackets, name=f"{self.algebra.name}-dual")


def _ad_on_wedge2(g: LieAlgebra, xi_idx: int, w: Mapping) -> dict:
    """ad_{e_xi} acting on an element of Lambda^2 g given as {(p,q): coeff}."""
    n = g.dim
    out: dict = {}
    for (p, q), coeff in w.items():
        for (src, other, flip) in ((p, q, False), (q, p, True)):
            br = g.c[xi_idx][src]
            for t in range(n):
                if not br[t]:
                    continue
                if t == other:
                    continue
                a, b = (t, other) if t < other else (other, t)
                sign = 1 if t < other else -1
                if flip:
                    sign = -sign
                out[(a, b)] = out.get((a, b), 0) + sign * coeff * br[t]
    return {k: v for k, v in out.items() if v}


def build_bialgebra(g: LieAlgebra, delta_triples: Sequence) -> Bialgebra:
    """delta_triples: [[i, [[p, q, coeff], ...]], ...] giving delta(e_i) in
    the lex-ordered Lambda^2 basis.  Validates the cocycle law
    delta([x,y]) = x.delta(y) - y.delta(x) and the dual Jacobi identity."""
    n = g.dim
    delta = [dict() for _ in range(n)]
    for i, terms in delta_triples:
        for p, q, coeff in terms:
            if not (0 <= p < q < n):
                raise ValueError(f"delta target must be lex-ordered pair, got ({p},{q})")
            delta[i][(p, q)] = rl.q(coeff)
    bi = Bialgebra(g, tuple(dict(d) for d in delta))
    _check_cocycle(bi)
    try:
        bi.dual_algebra()
    except JacobiViolation as e:
        raise DualJacobiViolation(e.args[0]) from e
    return bi


def _check_cocycle(bi: Bialgebra):
    g = bi.algebra
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            br = g.c[i][j]
            lhs: dict = {}
            for k in range(n):
                if br[k]:
                    for key, v in bi.delta[k].items():
                        lhs[key] = lhs.get(key, 0) + br[k] * v
            r1 = _ad_on_wedge2(g, i, bi.delta[j])
            r2 = _ad_on_wedge2(g, j, bi.delta[i])
            rhs: dict = dict(r1)
            for key, v in r2.items():
                rhs[key] = rhs.get(key, 0) - v
            keys = set(lhs) | set(rhs)
            defect = {k: lhs.get(k, 0) - rhs.get(k, 0) for k in keys
                      if lhs.get(k, 0) != rhs.get(k, 0)}
            if defect:
                raise CocycleViolation(((i, j), defect))


def coboundary_bialgebra(g: LieAlgebra, r_element: Mapping) -> Bialgebra:
    """delta = boundary of r in Lambda^2 g: delta(xi) = ad_xi r."""
    triples = []
    for i in range(g.dim):
        d = _ad_on_wedge2(g, i, dict(r_element))
        if d:
            triples.append([i, [[p, q, v] for (p, q), v in sorted(d.items())]])
    return build_bialgebra(g, triples)
