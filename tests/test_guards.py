"""Every check fires: one row per guard, with the input or the injected
defect that makes it fire and the message it must give.  Each row fails
when its guard is switched off."""

import dataclasses
from fractions import Fraction

import pytest

from equicoh import core, lie, poisson as po, ratlin as rl, spectral


def _su2_tangent_report():
    """The fiber-tangent check on slice 2 of the su(2) momentum data."""
    g = lie.su2()
    p = po.linear_poisson(g)
    mu = [po.function(3, {tuple(int(t == j) for t in range(3)): Fraction(1)})
          for j in range(3)]
    md = po.momentum_setup(p, g, mu=mu)
    return po.mu_tangent_complex(md, *po.momentum_gdiff(md, slice_degree=2))


def _one_step_pages():
    """The pages of CE(su2) under the one-step filtration: stable at once."""
    g = lie.su2()
    cx = lie.ce_complex(g, lie.trivial_rep(g)).complex
    return spectral.pages(spectral.build_filtered(
        cx, [core.Subspace.full(cx.space)]))


def _page(r, cells, diffs):
    return spectral.Page(r, cells, {}, {k: rl.freeze(m) for k, m in
                                        diffs.items()}, False)


def _check_pages():
    """E_1 on (0,0), (1,0), (2,0) of dims 1, 2, 1, with d_1 into (1,0) and
    out of it of rank one each, and E_2 zero as that rank count demands:
    only d_1 o d_1 != 0 is wrong."""
    prev = _page(1, {(0, 0): 1, (1, 0): 2, (2, 0): 1},
                 {(0, 0): [[1], [0]], (1, 0): [[1, 0]]})
    spectral._check_page_consistency(prev, _page(2, {}, {}))


def _circle_in_su2():
    g = lie.su2()
    return g, lie.build_subalgebra(g, [[0, 0, 1]])


def _relative_circle():
    """The relative subcomplex of CE(su2) for the circle of e_2."""
    g, circle = _circle_in_su2()
    return lie.relative_subcomplex(lie.ce_complex(g), circle)


def _factorized_circle():
    """H(su2, circle; S^2) against H(su2, circle) (x) (S^2)^su2."""
    g, circle = _circle_in_su2()
    return lie.lie_cohomology(g, lie.sym_power_rep(g, 2), k=circle,
                              factorized=True)


def _one_more_in_degree_0(cohomology):
    def wrong(c):
        h = cohomology(c)
        return dataclasses.replace(h, dims={**h.dims, 0: h.dim(0) + 1})
    return wrong


# name -> (None or (module, name, defect: real function -> replacement),
#          the run that must raise, the exception, its message)
GUARDS = {
    "antisymmetry-diagonal": (
        None, lambda: lie.build_lie_algebra(2, [[0, 0, [[1, 1]]]]),
        lie.AntisymmetryViolation, r"\[e_0, e_0\] != 0"),
    "antisymmetry-conflict": (
        None, lambda: lie.build_lie_algebra(2, [[0, 1, [[0, 1]]],
                                                [1, 0, [[0, 1]]]]),
        lie.AntisymmetryViolation, r"inconsistent \(1,0\) vs \(0,1\)"),
    # the geometric Lie derivatives dropped: no generator has one
    "basic-mismatch": (
        (po, "_geometric_lie_ops", lambda real: lambda md, model: []),
        _su2_tangent_report, po.BasicMismatch,
        r"^generator 0 has no Lie derivative along its action field$"),
    # the geometric Lie derivatives negated: they cut out the same kernel,
    # so only an identity that sees sign catches it
    "tangent-sign": (
        (po, "_geometric_lie_ops", lambda real: lambda md, model: [
            op.scale(-1) for op in real(md, model)]),
        _su2_tangent_report, po.BasicMismatch,
        r"^generator 0: on horizontal multivectors the Lie operator is not "
        r"minus the Lie derivative along the action field, at degree 0, "
        r"basis index 1$"),
    "not-convergent": (
        (spectral, "cohomology", _one_more_in_degree_0), _one_step_pages,
        spectral.NotConvergent,
        r"antidiagonal 0 of the stable page differs from H\^0"),
    "page-d-squared": (
        None, _check_pages, spectral.PageMismatch,
        r"d_1 fails to square to zero at \(1,0\)"),
    # the kernel of the contraction alone, without the Lie derivative: the
    # horizontal forms, which d does not keep
    "not-subcomplex": (
        (lie, "joint_kernel", lambda real: lambda space, ops:
         real(space, ops[:1])),
        _relative_circle, core.NotSubcomplex,
        r"^subspace is not closed under d at degree 1$"),
    # the prediction's trivial coefficients taken twice
    "factorization-mismatch": (
        (lie, "trivial_rep", lambda real: lambda g: lie.build_representation(
            g, [rl.zeros(2, 2)] * g.dim, 2)),
        _factorized_circle, lie.FactorizationMismatch,
        r"^\(\{0: 1, 1: 0, 2: 1, 3: 0\}, \{0: 2, 1: 0, 2: 2, 3: 0\}\)$"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_fires(monkeypatch, name):
    defect, run, exc, message = GUARDS[name]
    if defect is not None:
        module, attr, make = defect
        monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    with pytest.raises(exc, match=message):
        run()
