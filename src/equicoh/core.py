"""Graded vector spaces, graded linear maps, cochain complexes and exact
subquotients over the rationals.

Degrees are integers; every graded object is finitely supported.  All values
are immutable after construction, so they can be shared freely; matrices
are `ratlin.Matrix` values (read-only sparse rows, column index built on
first use), read in place.  Every basis this module produces (kernels,
preimages, cohomology representatives, quotient representatives) comes out
of canonical reduced echelon forms and is therefore deterministic.

A Subspace basis is canonical: reduced column echelon.  `from_spans` reduces
a span to it; a kernel or a preimage comes out in it from one elimination
(`stacked_kernel`, `preimage`), and a stored basis (an identity, a degree of
another Subspace) is passed on as it is: no basis is reduced twice.  A
subquotient denominator is never reduced at all: `subquotient` takes any
spanning columns (an image, a sum of spans) and reads everything off its one
elimination.

A graded space is its dimensions; its basis elements carry no labels.
Every product basis (Chevalley-Eilenberg cochains, the Weil algebra, tensor
products, the Cartan model) is laid out by `product_space` alone: its
offsets are the only record of where x (x) y sits, and `kron_map` builds
the operators on that layout as sums of Kronecker products
(`gdiff._tensor_table` the matrices of products on it).

Coordinates in a stored basis are read, not solved for: each column of a
Subspace basis or of an `rl.kernel` basis (the Cartan inclusion) has a row
equal to its unit row, and `_coordinates` reads those rows and checks one
multiply-back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import ratlin as rl


class DifferentialNotSquareZero(Exception):
    """d composed with d has a nonzero block; carries (degree, matrix)."""


class NotContained(Exception):
    """Subquotient requested for spans without the required inclusion."""


class NotSubcomplex(Exception):
    """A subspace that must be a subcomplex is not closed under the
    differential, or a filtration level is not nested or level 0 is not the
    whole space; the message carries the witness level and degree."""


class InconsistentResult(Exception):
    """An identity that exact arithmetic guarantees failed (rank-nullity, a
    system known to be solvable): a defect of the program, not of the
    input."""


@dataclass(frozen=True)
class GradedSpace:
    """Finitely supported graded space: degree -> dimension.  A basis
    element is its position in its degree; a product basis is indexed by
    the offsets of `product_space` alone."""

    components: tuple  # tuple of (degree, dimension > 0) sorted by degree

    @staticmethod
    def from_dims(dims: Mapping[int, int]) -> "GradedSpace":
        return GradedSpace(tuple((n, dims[n]) for n in sorted(dims) if dims[n]))

    def dim(self, n: int) -> int:
        for deg, dim in self.components:
            if deg == n:
                return dim
        return 0

    def degrees(self) -> list:
        return [deg for deg, _ in self.components]

    def total_dim(self) -> int:
        return sum(dim for _, dim in self.components)

    def dims(self) -> dict:
        return dict(self.components)


@dataclass(frozen=True)
class LinearMap:
    """Degree-homogeneous linear map between graded spaces.

    blocks[n] maps the degree-n component of source to degree n+shift of
    target; rows index target basis, columns source basis.  Blocks are stored
    only where both dimensions are positive and the block is not zero."""

    source: GradedSpace
    target: GradedSpace
    shift: int
    blocks: tuple  # tuple of (degree, frozen matrix)

    @staticmethod
    def from_blocks(source, target, shift, blocks: Mapping[int, Sequence]) -> "LinearMap":
        frozen = []
        for n in sorted(blocks):
            m = rl.freeze(blocks[n])
            sd, td = source.dim(n), target.dim(n + shift)
            # a zero block between zero spaces may come in any shape
            if m.shape != (td, sd) and (sd and td or not rl.is_zero(m)):
                raise ValueError(f"block at degree {n} has shape "
                                 f"{m.shape[0]}x{m.shape[1]}, expected {td}x{sd}")
            if not rl.is_zero(m):
                frozen.append((n, m))
        return LinearMap(source, target, shift, tuple(frozen))

    @staticmethod
    def zero(source, target, shift) -> "LinearMap":
        return LinearMap(source, target, shift, ())

    def block(self, n: int):
        """Stored block at degree n, read in place (zeros if absent)."""
        for deg, m in self.blocks:
            if deg == n:
                return m
        return rl.zeros(self.target.dim(n + self.shift), self.source.dim(n))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self o other (apply other first)."""
        if not (other.target is self.source or other.target == self.source):
            raise rl.ShapeMismatch("composition source/target mismatch")
        blocks = {n: rl.mat_mul(self.block(n + other.shift), m)
                  for n, m in other.blocks}
        return LinearMap.from_blocks(other.source, self.target,
                                     self.shift + other.shift, blocks)

    def add(self, other: "LinearMap") -> "LinearMap":
        if not (self.shift == other.shift and self.source == other.source
                and self.target == other.target):
            raise rl.ShapeMismatch("sum of maps with different shapes")
        degs = {n for n, _ in self.blocks} | {n for n, _ in other.blocks}
        blocks = {n: rl.mat_add(self.block(n), other.block(n)) for n in degs}
        return LinearMap.from_blocks(self.source, self.target, self.shift, blocks)

    def scale(self, s) -> "LinearMap":
        blocks = {n: rl.mat_scale(m, s) for n, m in self.blocks}
        return LinearMap.from_blocks(self.source, self.target, self.shift, blocks)

    def is_zero(self) -> bool:
        return not self.blocks

    def apply(self, n: int, vec: Sequence):
        """Apply to a degree-n coordinate vector; returns degree n+shift vector."""
        return [sum((v * vec[j] for j, v in row.items() if vec[j]), 0)
                for row in self.block(n)]


def product_space(parts: Mapping[int, Sequence]) -> tuple:
    """Lay out degree n as the ordered sum of the products X_a (x) Y_b given
    as parts[n] = [(a, b, dim X_a, dim Y_b), ...]: x_i (x) y_j sits at the
    product's offset + i * dim Y_b + j (the `rl.add_kron` layout).  Returns
    the space and offsets[n][(a, b)] = (offset, dim X_a, dim Y_b), zero-size
    products included, in the order given; the offsets are the only index
    of the basis."""
    dims, offsets = {}, {}
    for n, products in parts.items():
        offs = offsets[n] = {}
        dims[n] = 0
        for a, b, nx, ny in products:
            offs[(a, b)] = (dims[n], nx, ny)
            dims[n] += nx * ny
    return GradedSpace.from_dims(dims), offsets


def kron_map(space: GradedSpace, offsets: Mapping, shift: int,
             terms: Sequence) -> LinearMap:
    """The map of degree `shift` on a `product_space` layout that sends each
    product (a, b) into the product (a + sx, b + sy), where that is laid
    out, by the sum of scale(a) * x(a) (x) y(b) over the terms
    (sx, sy, x, y, scale), in order.  x and y give matrices by degree; None
    stands for the identity, and a scale of None for 1."""
    blocks = {}
    for n in space.degrees():
        if not space.dim(n + shift):
            continue
        tgt = offsets[n + shift]
        out = [{} for _ in range(space.dim(n + shift))]
        for (a, b), (col0, nx, ny) in offsets[n].items():
            if not nx * ny:
                continue
            for sx, sy, x, y, scale in terms:
                target = tgt.get((a + sx, b + sy))
                if target is not None:
                    rl.add_kron(out, rl.identity(nx) if x is None else x(a),
                                rl.identity(ny) if y is None else y(b),
                                target[0], col0,
                                1 if scale is None else scale(a))
        blocks[n] = rl.freeze(out, space.dim(n))
    return LinearMap.from_blocks(space, space, shift, blocks)


def anticommutator(a: LinearMap, b: LinearMap) -> LinearMap:
    return a.compose(b).add(b.compose(a))


@dataclass(frozen=True)
class CochainComplex:
    """Graded space with a square-zero degree +1 differential."""

    space: GradedSpace
    d: LinearMap

    @staticmethod
    def build(space: GradedSpace, d: LinearMap) -> "CochainComplex":
        if d.shift != 1:
            raise ValueError(f"a differential has degree 1, not {d.shift}")
        dd = d.compose(d)
        if not dd.is_zero():
            n, m = dd.blocks[0]
            raise DifferentialNotSquareZero((n, m.dense()))
        return CochainComplex(space, d)

    def degrees(self):
        return self.space.degrees()


@dataclass(frozen=True)
class Subspace:
    """Graded subspace stored per degree in reduced column echelon form."""

    ambient: GradedSpace
    basis: tuple  # tuple of (degree, frozen matrix whose columns span)

    @staticmethod
    def from_spans(ambient: GradedSpace, spans: Mapping[int, Sequence]) -> "Subspace":
        basis = []
        for n in sorted(spans):
            m = rl.freeze(spans[n])
            if not rl.ncols(m):
                continue
            if len(m) != ambient.dim(n):
                raise ValueError(f"span at degree {n} has {len(m)} rows, "
                                 f"ambient dim is {ambient.dim(n)}")
            ech, _ = rl.column_echelon(m)
            if rl.ncols(ech):
                basis.append((n, ech))
        return Subspace(ambient, tuple(basis))

    @staticmethod
    def full(ambient: GradedSpace) -> "Subspace":
        return Subspace(ambient, tuple((n, rl.identity(ambient.dim(n)))
                                       for n in ambient.degrees()
                                       if ambient.dim(n)))

    @staticmethod
    def zero(ambient: GradedSpace) -> "Subspace":
        return Subspace(ambient, ())

    def matrix(self, n: int):
        """Stored basis columns at degree n, read in place (no columns if
        absent)."""
        for deg, m in self.basis:
            if deg == n:
                return m
        return rl.zeros(self.ambient.dim(n), 0)

    def part(self, n: int) -> "Subspace":
        """The degree-n part, on the stored basis."""
        return Subspace(self.ambient,
                        tuple((deg, m) for deg, m in self.basis if deg == n))

    def dim(self, n: int) -> int:
        for deg, m in self.basis:
            if deg == n:
                return rl.ncols(m)
        return 0

    def dims(self) -> dict:
        return {deg: rl.ncols(m) for deg, m in self.basis}

    def contains(self, other: "Subspace") -> bool:
        return all(_coordinates(self.matrix(n), m) is not None
                   for n, m in other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        meets = ((n, preimage(m, m, other.matrix(n)))
                 for n, m in self.basis if other.dim(n))
        return Subspace(self.ambient,
                        tuple((n, m) for n, m in meets if rl.ncols(m)))

    def equals(self, other: "Subspace") -> bool:
        return self.contains(other) and other.contains(self)


def _coordinates(basis, m):
    """The rows of X with basis X = m, read off the unit rows of `basis`, or
    None when m leaves its span; InconsistentResult (a program defect) when
    a column of `basis` has no unit row."""
    k = rl.ncols(basis)
    if not k:
        return rl.zeros(0, rl.ncols(m)) if rl.is_zero(m) else None
    rows = {}
    for i, row in enumerate(basis):
        if len(row) == 1 and 1 in row.values():
            rows.setdefault(*row, i)
    if len(rows) < k:
        raise InconsistentResult("basis without a unit row for every column")
    x = rl.freeze([m[rows[j]] for j in range(k)], rl.ncols(m))
    return x if rl.mat_mul(basis, x) == m else None


def preimage(b, m, t):
    """The reduced column echelon basis of {b x : m x in span t}, for b in
    reduced column echelon form: b times the echelon kernel columns of
    [m | t] whose pivot is a row of x, cut to those rows.  Those columns come
    first, and the others have no entry in the rows of x."""
    ker = rl.echelon_kernel(rl.hstack(m, t))
    x = ker[:rl.ncols(b)]
    return rl.freeze(rl.mat_mul(b, rl.freeze(x, len(set().union(*x)))))


def stacked_kernel(blocks: Sequence, dim: int):
    """The reduced column echelon basis of the common kernel of the blocks
    (each has `dim` columns): the identity when they are all zero."""
    stacked = [row for blk in blocks for row in blk if row]
    return rl.echelon_kernel(rl.freeze(stacked, dim)) if stacked \
        else rl.identity(dim)


def joint_kernel(space: GradedSpace, ops: Sequence[LinearMap]) -> Subspace:
    """Common kernel of the operators, degree by degree."""
    kernels = ((n, stacked_kernel([op.block(n) for op in ops], space.dim(n)))
               for n in space.degrees())
    return Subspace(space, tuple((n, k) for n, k in kernels if rl.ncols(k)))


def map_kernel(m: LinearMap) -> Subspace:
    return joint_kernel(m.source, [m])


def linear_combination(ops: Sequence[LinearMap], coeffs: Sequence) -> LinearMap:
    """sum_j coeffs[j] ops[j] over the nonzero coefficients, scaled and added
    left to right; the zero map shaped like ops[0] when every one vanishes."""
    out = None
    for op, coeff in zip(ops, coeffs):
        if coeff:
            t = op.scale(coeff)
            out = t if out is None else out.add(t)
    if out is None:
        return LinearMap.zero(ops[0].source, ops[0].target, ops[0].shift)
    return out


def restrict_map(op: LinearMap, inclusion: LinearMap, what: str) -> LinearMap:
    """The map op induces on the subspace spanned by the columns of an
    injective degree-0 `inclusion`: per degree, the X with
    (target basis) X = op (source basis), read off the unit rows of the
    inclusion.  Raises NotContained, naming `what` and the degree, when op
    leaves the subspace."""
    small = inclusion.source
    blocks = {}
    for n in small.degrees():
        blk = op.block(n)
        if not len(blk):
            continue
        img = rl.mat_mul(blk, inclusion.block(n))
        if rl.is_zero(img):
            continue
        sol = _coordinates(inclusion.block(n + op.shift), img)
        if sol is None:
            raise NotContained(f"{what} at degree {n}")
        blocks[n] = sol
    return LinearMap.from_blocks(small, small, op.shift, blocks)


@dataclass(frozen=True)
class SubquotientResult:
    """z/b: dims, canonical representatives (columns per degree, living in
    the ambient space) and the data needed to project z onto the quotient."""

    ambient: GradedSpace
    dims: dict
    reps: dict       # degree -> ambient-coordinate columns, one per class
    _z: Subspace     # the numerator
    _proj: dict      # degree -> z-coordinates -> class coordinates

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def project(self, n: int, columns: Sequence):
        """Coordinates of the classes of the columns of a matrix in the
        chosen representative basis, one column each, by one multiply-back.
        Every column must lie in z (ambient coordinates)."""
        c = _coordinates(self._z.matrix(n), columns)
        if c is None:
            raise NotContained(f"vector not in the subquotient at degree {n}")
        proj = self._proj.get(n)
        return rl.zeros(0, rl.ncols(c)) if proj is None else \
            rl.freeze(rl.mat_mul(proj, c))


def subquotient(z: Subspace,
                spans: Mapping[int, rl.Matrix]) -> SubquotientResult:
    """Form z/b, b spanned in each degree n by the columns of spans[n]: any
    spanning columns (dependent, repeated or zero), never reduced first.
    One rref of [spans | z] per degree: rank b is its number of pivots in
    the spans part; b lies in z iff rank b plus the z-part pivots make
    dim z (else NotContained, with a witness degree); the z-part pivots pick
    the representatives, the canonical echelon columns of z extending a
    basis of b.  The reduced form is unique, so they and the projector
    depend on span(b) alone and repeated runs agree exactly."""
    dims, reps, projs = {}, {}, {}
    for n in sorted({n for n, _ in z.basis} | set(spans)):
        zb = z.matrix(n)
        bb = spans.get(n, rl.zeros(len(zb), 0))
        k = rl.ncols(bb)
        # pivot columns of [b | z] are the greedy left-to-right independent
        # set.  Rows rank b.. of the reduced form write each column of z
        # through the chosen ones: the projector from z-coordinates.
        r, pivots = rl.rref(rl.hstack(bb, zb))
        chosen = [p - k for p in pivots if p >= k]
        if len(pivots) != rl.ncols(zb):
            raise NotContained(f"denominator escapes numerator at degree {n}")
        if not pivots:   # z and b both vanish: no class, as if not given
            continue
        rank_b = len(pivots) - len(chosen)
        dims[n] = len(chosen)
        projs[n] = rl.freeze([{j - k: v for j, v in row.items()}
                              for row in r[rank_b:len(pivots)]], rl.ncols(zb))
        if chosen:
            reps[n] = rl.mat_from_columns([zb.cols[j] for j in chosen],
                                          len(zb))
    return SubquotientResult(z.ambient, dims, reps, z, projs)


@dataclass(frozen=True)
class CohomologyResult:
    space: GradedSpace
    dims: dict
    reps: dict  # degree -> columns of chosen cocycle representatives

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)


def cohomology(c: CochainComplex,
               exit_map: LinearMap | None = None) -> CohomologyResult:
    """ker d / im d with canonical representatives per degree.  With
    `exit_map`, a degree +1 map out of c.space (the differential out of the
    last degree of a truncated complex into a space beyond it, as a Cartan
    model's `exit`), the cocycles are the joint kernel of d and `exit_map`."""
    ops = [c.d] if exit_map is None else [c.d, exit_map]
    sq = subquotient(joint_kernel(c.space, ops),
                     {n + c.d.shift: m for n, m in c.d.blocks})
    degs = sorted(set(c.space.degrees()) | set(sq.dims))
    dims = {n: sq.dim(n) for n in degs}
    return CohomologyResult(c.space, dims, dict(sq.reps))


def restrict_complex(c: CochainComplex, sub: Subspace) -> tuple:
    """Restrict d to a d-stable subspace.  Returns (CochainComplex in the
    subspace's own coordinates, inclusion LinearMap).  Raises NotContained
    if the subspace is not d-stable (witness degree in the message)."""
    small = GradedSpace.from_dims(sub.dims())
    inclusion = LinearMap.from_blocks(small, c.space, 0, dict(sub.basis))
    d = restrict_map(c.d, inclusion, "subspace is not closed under d")
    return CochainComplex.build(small, d), inclusion
