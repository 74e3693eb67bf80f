"""Spectral sequences of finite filtered cochain complexes.

A decreasing filtration F_0 = C >= F_1 >= ... >= F_T >= 0 by d-stable graded
subspaces determines pages

    Z_r(p, n)  = {x in F_p^n : dx in F_{p+r}^{n+1}}
    E_r^{p,q}  = Z_r(p, p+q) / (Z_{r-1}(p+1, p+q) + d Z_{r-1}(p-r+1, p+q-1))

with the convention Z_{-1}(p, n) = F_p^n.  The page differential
d_r : E_r^{p,q} -> E_r^{p+r, q-r+1} is induced by d on representatives.
Everything is finite, so the sequence reaches a final page where all
differentials vanish identically and the antidiagonals of E_oo are the
associated graded of H(C).

The dimensions of every page come first, from the persistence pairing of
one column reduction of d in filtration order (Zomorodian-Carlsson, read as
in Romero-Rubio-Sergeraert): in a basis adapted to the levels, E_r^{p,q}
counts the level-p elements of degree p+q that are unpaired or paired with
gap >= r, and rank d_r counts the pairs with gap r.  Subquotients and
representatives are then built only for the cells live by that count.
Every run checks: each built cell against the pairing's dimension
(PageMismatch), E_{r+1} = H(E_r, d_r) with d_r o d_r = 0 cell by cell
(PageMismatch), and the stable page against H(C) (NotConvergent).

Two filtration constructors cover the main applications: the symmetric-degree
filtration of a Cartan model (levels 2m >= p) and the contraction filtration
of a G-differential complex (level p in degree n = joint kernel of all
(n - p + 1)-fold contraction products).

`verify_cartan_d2` has no caller here; it checks that d_2 of the
symmetric-degree filtration is the Cartan twist on leading terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import ratlin as rl
from .core import (CochainComplex, LinearMap, NotSubcomplex, Subspace,
                   _coordinates, cohomology, preimage, restrict_map,
                   stacked_kernel, subquotient)
from .gdiff import CartanModel, GDiffComplex, cartan_twist


class PageMismatch(Exception):
    """A page differs from the homology of its predecessor, or a page
    differential does not square to zero; the message names the cell."""


class NotConvergent(Exception):
    """The antidiagonals of the stable page differ from the cohomology of
    the total complex."""


@dataclass(frozen=True)
class FilteredComplex:
    complex: CochainComplex
    levels: tuple   # Subspace per p = 0..T; F_0 is the whole space

    def level(self, p: int) -> Subspace:
        if p <= 0:
            return self.levels[0]
        if p < len(self.levels):
            return self.levels[p]
        return Subspace.zero(self.complex.space)

    @property
    def top(self) -> int:
        return len(self.levels) - 1


def build_filtered(complex_: CochainComplex,
                   levels: Sequence[Subspace]) -> FilteredComplex:
    levels = tuple(levels)
    space = complex_.space
    full = Subspace.full(space)
    if not levels or not levels[0].equals(full):
        raise NotSubcomplex("level 0 must be the whole space")
    for p in range(1, len(levels)):
        for n in space.degrees():
            if levels[p - 1].dim(n) < space.dim(n) and _coordinates(
                    levels[p - 1].matrix(n), levels[p].matrix(n)) is None:
                raise NotSubcomplex(
                    f"level {p} escapes level {p - 1} at degree {n}")
    for p, sub in enumerate(levels):
        for n in space.degrees():
            if not sub.dim(n) or sub.dim(n + 1) == space.dim(n + 1):
                continue
            img = rl.mat_mul(complex_.d.block(n), sub.matrix(n))
            if _coordinates(sub.matrix(n + 1), img) is None:
                raise NotSubcomplex(
                    f"level {p} is not d-stable at degree {n}")
    return FilteredComplex(complex_, levels)


@dataclass(frozen=True)
class Page:
    """One page of the spectral sequence.  `cells` maps (p, q) to the
    dimension, `reps` to representative columns inside C^{p+q}, `diffs` to
    the d_r matrix into cell (p + r, q - r + 1).  `cellmaps` keeps the
    subquotient projectors so classes of new vectors can be computed; it is
    working data, not part of the serialized report."""

    r: int
    cells: dict
    reps: dict
    diffs: dict
    stable: bool
    cellmaps: dict = field(repr=False, default_factory=dict)

    def dim(self, p: int, q: int) -> int:
        return self.cells.get((p, q), 0)

    def antidiagonal(self, n: int) -> int:
        return sum(d for (p, q), d in self.cells.items() if p + q == n)

    def to_json(self) -> dict:
        cells = sorted([p, q, d] for (p, q), d in self.cells.items() if d)
        return {"r": self.r, "cells": cells, "stable": self.stable}


def _z_subspace(fc: FilteredComplex, cache: dict, r: int, p: int, n: int) -> Subspace:
    """Z_r(p, n) as a Subspace concentrated in degree n."""
    if p < 0:
        # F_p = F_0 for p <= 0, so only the target level p + r matters.
        r, p = r + p, 0
    if r >= 0 and p + r > fc.top + 1:
        # every level beyond the last is zero; normalize for the cache
        r = max(fc.top + 1 - p, 0)
    key = (r, p, n)
    if key in cache:
        return cache[key]
    out = fc.level(p).part(n)
    target = fc.level(p + r).matrix(n + 1)
    if r >= 0 and out.dim(n) and rl.ncols(target) < len(target):
        b = out.matrix(n)
        mb = rl.mat_mul(fc.complex.d.block(n), b)
        if not rl.is_zero(mb):
            z = preimage(b, mb, target)
            out = Subspace(out.ambient, ((n, z),) if rl.ncols(z) else ())
    cache[key] = out
    return out


def _pairing_gaps(fc: FilteredComplex, degs) -> dict:
    """(p, n) -> the gap of each level-p element of degree n in a basis
    adapted to the levels (inf when unpaired), from one filtration-ordered
    reduction of d per degree.  Pivots of reduced echelon bases nest, so the
    columns of F_p whose pivot is not one of F_{p+1} complete F_{p+1} to F_p;
    in that basis d is written with one solve per degree."""
    basis, levels, gaps = {}, {}, {}
    for n in degs:
        cols, levels[n] = [], []
        for p in range(fc.top + 1):
            # a column's pivot is its first nonzero row
            inner = set(map(min, fc.level(p + 1).matrix(n).cols))
            for col in fc.level(p).matrix(n).cols:
                if min(col) not in inner:
                    cols.append(col)
                    levels[n].append(p)
        basis[n] = rl.mat_from_columns(cols, fc.complex.space.dim(n))
        gaps[n] = [math.inf] * len(cols)
    for n, m in fc.complex.d.blocks:
        x = rl.solve(basis[n + 1], rl.mat_mul(m, basis[n]))
        if x is None:
            raise NotSubcomplex(f"the levels give no basis at degree {n + 1}")
        for i, j in rl.filtration_pairs(x, levels[n + 1], levels[n]):
            gaps[n][j] = gaps[n + 1][i] = levels[n + 1][i] - levels[n][j]
    out = {}
    for n in degs:
        for p, gap in zip(levels[n], gaps[n]):
            out.setdefault((p, n), []).append(gap)
    return out


def pages(fc: FilteredComplex, r_max: Optional[int] = None) -> list:
    """Pages E_0, E_1, ... through the final stable page (or through r_max).

    The dimensions come from the persistence pairing of one reduction of d
    in filtration order (`_pairing_gaps`): E_r^{p,q} counts the level-p
    elements of degree p+q that are unpaired or paired with gap >= r, and
    rank d_r is the number of pairs with gap r.  Only the cells that are
    live by that count are materialised, as Z_r(p, n) modulo
    Z_{r-1}(p+1, n) + d Z_{r-1}(p-r+1, n-1) with canonical representatives;
    page 0 materialises every cell with F_p/F_{p+1} nonzero.  Checks:
    PageMismatch when a materialised cell's dimension differs from the
    pairing's, or (`_check_page_consistency`, on every page) when a page
    differs from the homology of its predecessor or d_r fails to square to
    zero, d_r being formed between every two materialised cells.  A cell
    skipped while truly nonzero was materialised on the page before, so
    the latter check catches it.

    The final page is flagged stable only when the filtration length is
    exhausted and it agrees with its predecessor, both free of
    differentials; when stable, its antidiagonal sums are checked against
    the cohomology of the total complex (NotConvergent)."""
    if r_max is not None and r_max < 0:
        raise ValueError(f"r_max must be at least 0, not {r_max}")
    space = fc.complex.space
    degs = space.degrees()
    if not degs:
        return [Page(0, {}, {}, {}, True)]
    max_n = max(degs)
    top_p = fc.top
    stop_r = top_p + 2
    limit = stop_r if r_max is None else min(r_max, stop_r)
    # E_0^{p,q} = F_p/F_{p+1} in degree p+q, so cells where consecutive
    # levels agree are zero on every page.
    support = [(p, n) for n in degs for p in range(0, top_p + 2)
               if fc.level(p).dim(n) > fc.level(p + 1).dim(n)]
    gaps = _pairing_gaps(fc, degs)
    cache = {}
    out = []
    for r in range(limit + 1):
        cells, reps, diffs, sq = {}, {}, {}, {}
        for (p, n) in support:
            q = n - p
            want = sum(gap >= r for gap in gaps.get((p, n), ()))
            if r and not want:
                continue
            znum = _z_subspace(fc, cache, r, p, n)
            got = 0
            if znum.dim(n):
                den = _z_subspace(fc, cache, r - 1, p + 1, n).matrix(n)
                b2 = _z_subspace(fc, cache, r - 1, p - r + 1,
                                 n - 1).matrix(n - 1)
                img = rl.mat_mul(fc.complex.d.block(n - 1), b2)
                cell = subquotient(znum, {n: rl.hstack(den, img)})
                got = cell.dim(n)
            if got != want:
                raise PageMismatch(f"page {r} cell ({p},{q}) has dimension "
                                   f"{got}, the pairing gives {want}")
            if got:
                cells[(p, q)] = got
                reps[(p, q)] = cell.reps[n]
                sq[(p, q)] = cell
        for (p, q) in cells:
            n = p + q
            tgt = (p + r, q - r + 1)
            if tgt not in cells:
                continue
            mat = sq[tgt].project(n + 1, rl.mat_mul(fc.complex.d.block(n),
                                                    reps[(p, q)]))
            if not rl.is_zero(mat):
                diffs[(p, q)] = mat
        stable = bool(r >= stop_r and out and out[-1].cells == cells
                      and not diffs and not out[-1].diffs)
        out.append(Page(r, cells, reps, diffs, stable, sq))
        if r >= 1:
            _check_page_consistency(out[-2], out[-1])
    final = out[-1]
    if final.stable:
        h = cohomology(fc.complex)
        for n in range(max_n + 1):
            if final.antidiagonal(n) != h.dim(n):
                raise NotConvergent(
                    f"antidiagonal {n} of the stable page differs from H^{n}")
    return out


def _check_page_consistency(prev: Page, cur: Page):
    """E_{r+1} = H(E_r, d_r) and d_r o d_r = 0, cell by cell."""
    r = prev.r
    keys = set(prev.cells) | set(cur.cells)
    for (p, q) in keys:
        dim = prev.dim(p, q)
        out_m = prev.diffs.get((p, q))
        in_m = prev.diffs.get((p - r, q + r - 1))
        rank_out = rl.rank(out_m) if out_m is not None else 0
        rank_in = rl.rank(in_m) if in_m is not None else 0
        if cur.dim(p, q) != dim - rank_out - rank_in:
            raise PageMismatch(f"page {r + 1} cell ({p},{q}) disagrees with "
                               f"homology of page {r}")
        if out_m is not None and in_m is not None and \
                not rl.is_zero(rl.mat_mul(out_m, in_m)):
            raise PageMismatch(f"d_{r} fails to square to zero at ({p},{q})")


# ---------------------------------------------------------------------------
# Filtrations used in practice


def symdegree_filtration(model: CartanModel) -> FilteredComplex:
    """F_p = components of symmetric degree m with 2m >= p inside the
    invariant complex of a Cartan model.  The invariant basis is fine-graded
    by (form degree, symmetric degree), so each level is spanned by trailing
    coordinate blocks: distinct unit columns in increasing row order, which
    is already the canonical basis, stored as it is."""
    space = model.complex.space
    levels = []
    for p in range(2 * model.sym_cap + 2):
        basis = []
        for n in space.degrees():
            cols = []
            offset = 0
            for (_, m, inv_dim, _, _) in model.fine.get(n, ()):
                if 2 * m >= p:
                    cols += [{offset + j: 1} for j in range(inv_dim)]
                offset += inv_dim
            if cols:
                basis.append((n, rl.mat_from_columns(cols, space.dim(n))))
        levels.append(Subspace(space, tuple(basis)))
    return build_filtered(model.complex, levels)


def contraction_filtration(c: GDiffComplex) -> FilteredComplex:
    """F_p in degree n: everything killed by all (n - p + 1)-fold products
    of contractions, stored as `stacked_kernel` gives it (the canonical
    basis; the identity where every product vanishes).  Zero-fold products
    are the identity, so level n + 1 vanishes in degree n; products longer
    than dim g vanish identically, so low levels are everything."""
    space = c.space
    r = c.algebra.dim
    degs = space.degrees()
    max_n = max(degs) if degs else 0

    products = {}
    for k in range(1, r + 1):
        products[k] = []
        for combo in itertools.combinations(range(r), k):
            op = c.contractions[combo[0]]
            for b in combo[1:]:
                op = c.contractions[b].compose(op)
            products[k].append(op)

    def level(p):
        """F_p: in each degree n >= p, the stacked kernel of the
        (n - p + 1)-fold products (of none where n - p + 1 > r)."""
        kernels = ((n, stacked_kernel([op.block(n) for op in
                                       products.get(n - p + 1, ())],
                                      space.dim(n))) for n in degs if n >= p)
        return Subspace(space, tuple((n, k) for n, k in kernels if rl.ncols(k)))

    levels = [level(p) for p in range(max_n + 2)]
    return build_filtered(c.complex, levels)


# ---------------------------------------------------------------------------
# The second-page differential of the symmetric-degree filtration


def _twist_on_invariants(model: CartanModel) -> LinearMap:
    """The part of the Cartan differential that raises symmetric degree
    (contraction paired with multiplication by the coordinate generator),
    restricted to the invariant complex."""
    return restrict_map(
        cartan_twist(model.base, model.model_space, model.offsets, model.mons),
        model.inclusion, "the Cartan twist leaves the invariants")


def verify_cartan_d2(model: CartanModel, page2: Page) -> dict:
    """Check, on every representative of every even second-page cell, that
    the page differential agrees with applying the symmetric-degree-raising
    part of the Cartan differential to the representative's leading
    (symmetric degree p/2) component.  Returns {"ok": bool, "cells": [...],
    "failures": [...]}."""
    if page2.r != 2:
        raise ValueError("second-page check requires the r = 2 page")
    twist = _twist_on_invariants(model)
    space = model.complex.space
    checked, failures = [], []
    for (p, q) in sorted(page2.cells):
        if p % 2:
            failures.append({"cell": [p, q], "reason": "odd column nonzero"})
            continue
        n = p + q
        tgt = (p + 2, q - 1)
        target_cell = page2.cellmaps.get(tgt)
        rep = page2.reps[(p, q)]
        offset, lead = 0, range(0)
        for (_, m, inv_dim, _, _) in model.fine.get(n, ()):
            if m == p // 2:
                lead = range(offset, offset + inv_dim)
            offset += inv_dim
        # a zero target group: both classes vanish, nothing to compare
        if target_cell is not None:
            xl = rl.freeze([row if t in lead else {}
                            for t, row in enumerate(rep)], rl.ncols(rep))
            lhs = target_cell.project(
                n + 1, rl.mat_mul(model.complex.d.block(n), rep))
            rhs = target_cell.project(n + 1, rl.mat_mul(twist.block(n), xl))
            for j, (a, b) in enumerate(zip(lhs.cols, rhs.cols)):
                if a != b:
                    failures.append({"cell": [p, q], "rep": j,
                                     "reason": "formula mismatch"})
        checked.append([p, q])
    return {"ok": not failures, "cells": checked, "failures": failures}

