"""Command-line front end: schema-validated task dispatch, named example
runners with computed-versus-predicted tables, and input validation with
cheap mathematical gates.

Exit codes: 0 success; 2 schema violation (the report carries a pointer to
the offending field); 3 mathematical validation failure (the report echoes
the witness produced by the owning module).  Exit 3 also marks two more
outcomes.  A computed verdict that is false (a top-level `agrees`,
`matches`, `e1_matches`, `e2_matches` or `acyclic_in_band` of the result)
exits 3 with the report printed in full.  An internal consistency check
that fails after the input was accepted (`DEFECTS`) exits 3 with a `math`
error whose witness starts with the check's exception class, not with a
traceback.

`validate` runs the payload parse that `compute` runs, so at parse time it
refuses every task input that `compute` refuses before computing, with the
same exit and witness: the schema, a bracket table that is not a Lie
algebra, a bivector that does not self-commute, inconsistent momentum data,
a generator subset (`relative`, `action.generators`) that is dependent or
not closed under the bracket, `factorized` on an algebra not of compact
type, repeated `roots` of an example, and `action.generators` on a
`poisson-cohomology` or `momentum-ss` task.  What only the
computation finds, such as an unsupported model met while building, is
refused by `compute` alone.

Default JSON output contains no timestamps and is byte-identical for
byte-identical input; timing is only added behind ``--timing``.  Every
numeric cell in a result table is produced by a library operation, never
by CLI-side arithmetic."""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import core, lie, ratlin as rl, spectral
from . import gdiff as gd
from . import poisson as po
from .core import cohomology
from .poly import PolyMultivector


KINDS = ("lie-cohomology", "gdiff-check", "equivariant", "weil-check",
         "poisson-cohomology", "equivariant-poisson", "momentum-ss",
         "example")

EXAMPLES = ("poiss1", "poiss2", "poiss3", "poiss4", "torus", "coh-inv",
            "su2-dual", "weil")


class SchemaError(Exception):
    """Input shape violation; `field` points at the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class MathError(Exception):
    """Mathematical gate failure; `witness` echoes the module's report."""

    def __init__(self, witness: str):
        super().__init__(witness)
        self.witness = witness


class UnknownExample(Exception):
    pass


#: Result keys whose false value is a failed prediction (exit 3).
VERDICTS = ("agrees", "matches", "e1_matches", "e2_matches",
            "acyclic_in_band")

#: Checks of the program's own results: raised on accepted input, they
#: exit 3 with a `math` error naming the class.
DEFECTS = (spectral.PageMismatch, spectral.NotConvergent,
           core.InconsistentResult, core.NotContained, core.NotSubcomplex,
           core.DifferentialNotSquareZero, po.BasicMismatch, gd.AxiomFailure)


# ---------------------------------------------------------------------------
# Fractions, polynomials, matrices


def _shown(text: str) -> str:
    """repr of an input string for an error message, cut to 60 characters."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}..."


def _parse_frac(value, field: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(field, "expected an integer or a 'num/den' string")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(field, f"not a rational number: {_shown(value)}")


def _expect(cond: bool, field: str, message: str):
    if not cond:
        raise SchemaError(field, message)


def _expect_int(value, field: str, low: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(field, "expected an integer")
    if low is not None and value < low:
        raise SchemaError(field, f"expected an integer >= {low}")
    return value


def _int_key(key: str, field: str, message: str = "degree must be an int"):
    try:
        return int(key)
    except ValueError:
        raise SchemaError(field, message)


def _int_pair(key: str, field: str) -> tuple:
    """The two integers of a table key "a,b"."""
    message = "expected a key 'a,b' of two integers"
    parts = key.split(",")
    _expect(len(parts) == 2, field, message)
    return tuple(_int_key(part, field, message) for part in parts)


def _keyed(raw: dict, field: str, read=_int_key):
    """(key as `read` reads it, its field, value) per entry of `raw`; two
    keys that read as one, such as "1" and "01", are refused."""
    seen = set()
    for key, value in raw.items():
        at = f"{field}.{key}"
        k = read(key, at)
        _expect(k not in seen, at, "duplicate key")
        seen.add(k)
        yield k, at, value


def _parse_term(data, ambient: int, field: str):
    _expect(isinstance(data, dict), field, "expected a term object")
    unknown = set(data) - {"exponents", "coeff"}
    _expect(not unknown, field, f"unknown keys {sorted(unknown)}")
    exps = data.get("exponents")
    _expect(isinstance(exps, list) and len(exps) == ambient,
            f"{field}.exponents", f"expected a list of {ambient} integers")
    for t, e in enumerate(exps):
        _expect_int(e, f"{field}.exponents[{t}]", low=0)
    coeff = _parse_frac(data.get("coeff"), f"{field}.coeff")
    return tuple(exps), coeff


def _parse_poly(data, ambient: int, field: str) -> PolyMultivector:
    _expect(isinstance(data, list), field, "expected a list of terms")
    terms = [_parse_term(term, ambient, f"{field}[{t}]")
             for t, term in enumerate(data)]
    return PolyMultivector(ambient, 0, [(((), e), c) for e, c in terms])


def _frac_json(value):
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"not JSON serializable: {value!r}")


def _mat_json(matrix) -> list:
    """A ratlin.Matrix as dense rows of strings."""
    return [[str(Fraction(x)) for x in row] for row in matrix.dense()]


def _parse_mat(data, rows: int, cols: int, field: str) -> list:
    _expect(isinstance(data, list) and len(data) == rows, field,
            f"expected a {rows} x {cols} matrix")
    out = []
    for i, row in enumerate(data):
        _expect(isinstance(row, list) and len(row) == cols,
                f"{field}[{i}]", f"expected {cols} entries")
        out.append([_parse_frac(x, f"{field}[{i}][{j}]")
                    for j, x in enumerate(row)])
    return out


# ---------------------------------------------------------------------------
# Lie algebras


def parse_algebra(data, field: str = "algebra") -> lie.LieAlgebra:
    _expect(isinstance(data, dict), field, "expected an object")
    unknown = set(data) - {"dim", "brackets", "compact_type", "name"}
    _expect(not unknown, field, f"unknown keys {sorted(unknown)}")
    dim = _expect_int(data.get("dim"), f"{field}.dim", low=0)
    brk = data.get("brackets", [])
    _expect(isinstance(brk, list), f"{field}.brackets", "expected a list")
    entries = []
    for t, item in enumerate(brk):
        here = f"{field}.brackets[{t}]"
        _expect(isinstance(item, list) and len(item) == 3, here,
                "expected [a, b, [[k, coeff], ...]]")
        a = _expect_int(item[0], f"{here}[0]", low=0)
        b = _expect_int(item[1], f"{here}[1]", low=0)
        _expect(a < dim and b < dim, here, "generator index out of range")
        _expect(isinstance(item[2], list), f"{here}[2]", "expected a list")
        terms = []
        for s, term in enumerate(item[2]):
            _expect(isinstance(term, list) and len(term) == 2,
                    f"{here}[2][{s}]", "expected [k, coeff]")
            k = _expect_int(term[0], f"{here}[2][{s}][0]", low=0)
            _expect(k < dim, f"{here}[2][{s}][0]", "index out of range")
            terms.append([k, _parse_frac(term[1], f"{here}[2][{s}][1]")])
        entries.append([a, b, terms])
    compact = data.get("compact_type", False)
    _expect(isinstance(compact, bool), f"{field}.compact_type",
            "expected a boolean")
    name = data.get("name")
    if name is not None:
        _expect(isinstance(name, str), f"{field}.name", "expected a string")
    try:
        return lie.build_lie_algebra(dim, entries, compact_type=compact,
                                     name=name or "")
    except (lie.JacobiViolation, lie.AntisymmetryViolation,
            ValueError) as exc:
        raise MathError(f"bracket table rejected: {exc}")


# ---------------------------------------------------------------------------
# Poisson payloads


def parse_poisson(data) -> dict:
    """Returns {"structure", "maxdeg", "action_algebra", "generators",
    "mu", "submersive"} after full schema validation."""
    _expect(isinstance(data, dict), "payload", "expected an object")
    unknown = set(data) - {"ambient", "maxdeg", "pi", "regime", "action",
                           "mu", "submersive"}
    _expect(not unknown, "payload", f"unknown keys {sorted(unknown)}")
    ambient = _expect_int(data.get("ambient"), "payload.ambient", low=1)
    maxdeg = None
    if "maxdeg" in data:
        maxdeg = _expect_int(data["maxdeg"], "payload.maxdeg", low=0)
    entries = data.get("pi")
    _expect(isinstance(entries, list), "payload.pi",
            "expected a list of [[i, j], term] entries")
    terms = []
    for t, item in enumerate(entries):
        here = f"payload.pi[{t}]"
        _expect(isinstance(item, list) and len(item) == 2, here,
                "expected [[i, j], term]")
        pair = item[0]
        _expect(isinstance(pair, list) and len(pair) == 2, f"{here}[0]",
                "expected an index pair [i, j]")
        i = _expect_int(pair[0], f"{here}[0][0]", low=0)
        j = _expect_int(pair[1], f"{here}[0][1]", low=0)
        _expect(i < ambient and j < ambient, f"{here}[0]",
                "coordinate index out of range")
        if i == j:
            raise MathError(
                f"antisymmetry violated at pi[{t}]: repeated index {i}")
        exps, coeff = _parse_term(item[1], ambient, f"{here}[1]")
        terms.append((((i, j), exps), coeff) if i < j
                     else (((j, i), exps), -coeff))
    bivector = PolyMultivector(ambient, 2, terms)
    p = po.poisson_structure(bivector)
    declared = data.get("regime")
    if declared is not None:
        _expect(isinstance(declared, str), "payload.regime",
                "expected a string")
        _expect(declared == p.regime, "payload.regime",
                f"declared '{declared}' but the coefficients are "
                f"'{p.regime}'")
    action = data.get("action")
    algebra = generators = None
    if action is not None:
        _expect(isinstance(action, dict), "payload.action",
                "expected an object")
        unknown = set(action) - {"algebra", "generators"}
        _expect(not unknown, "payload.action",
                f"unknown keys {sorted(unknown)}")
        algebra = parse_algebra(action.get("algebra"),
                                "payload.action.algebra")
        generators = action.get("generators")
        if generators is not None:
            _expect(isinstance(generators, list), "payload.action.generators",
                    "expected a list of generator indices")
            for s, k in enumerate(generators):
                k = _expect_int(k, f"payload.action.generators[{s}]", low=0)
                _expect(k < algebra.dim, f"payload.action.generators[{s}]",
                        "generator index out of range")
                _expect(k not in generators[:s],
                        f"payload.action.generators[{s}]",
                        "repeated generator index")
    mu = None
    if data.get("mu") is not None:
        _expect(isinstance(data["mu"], list), "payload.mu",
                "expected a list of polynomials")
        mu = [_parse_poly(item, ambient, f"payload.mu[{t}]")
              for t, item in enumerate(data["mu"])]
        if algebra is not None:
            _expect(len(mu) == algebra.dim, "payload.mu",
                    f"expected {algebra.dim} components, one per generator")
    submersive = data.get("submersive", False)
    _expect(isinstance(submersive, bool), "payload.submersive",
            "expected a boolean")
    return {"structure": p, "maxdeg": maxdeg, "action_algebra": algebra,
            "generators": generators, "mu": mu, "submersive": submersive}


def _require_certified_cli(p: po.PoissonStructure):
    if not p.certified:
        # Each coefficient printed as a Fraction, whether stored as an int
        # or not, so that the witness reads the same for every coefficient.
        defect = {k: Fraction(c) for k, c in p.jacobiator.coeffs}
        raise MathError(
            f"the bivector does not self-commute; defect {defect!r}")


def momentum_from_payload(parsed: dict) -> po.MomentumData:
    if parsed["action_algebra"] is None:
        raise SchemaError("payload.action", "an action block is required")
    if parsed["mu"] is None:
        raise SchemaError("payload.mu", "momentum components are required")
    try:
        return po.momentum_setup(parsed["structure"],
                                 parsed["action_algebra"],
                                 mu=parsed["mu"],
                                 submersive=parsed["submersive"])
    except (po.MomentMismatch, po.NotAntiHomomorphism, po.DDeltaViolation,
            po.PoissonActionViolation) as exc:
        raise MathError(str(exc))


# ---------------------------------------------------------------------------
# G-differential payloads


def product_from_table(table: dict, dims: dict) -> gd.Product:
    """The product of a payload's table {"a,b": {"i,j": [[k, coeff], ...]}}
    on a space of dimensions `dims` (see `gdiff.Product`); the terms of a
    pair add up."""
    blocks = {}
    for (da, db), at, pairs in _keyed(table, "payload.product.table",
                                      _int_pair):
        _expect(isinstance(pairs, dict), at,
                "expected an object of basis pairs")
        nb, rows = dims.get(db, 0), [{} for _ in range(dims.get(da + db, 0))]
        for (ia, ib), field, terms in _keyed(pairs, at, _int_pair):
            _expect(0 <= ia < dims.get(da, 0) and 0 <= ib < nb, field,
                    "basis index out of range")
            _expect(isinstance(terms, list), field,
                    "expected a list of [k, coeff] terms")
            col = ia * nb + ib
            for t, term in enumerate(terms):
                _expect(isinstance(term, list) and len(term) == 2,
                        f"{field}[{t}]", "expected [k, coeff]")
                k = _expect_int(term[0], f"{field}[{t}][0]", low=0)
                _expect(k < len(rows), f"{field}[{t}][0]",
                        "basis index out of range")
                rows[k][col] = rl.q(rows[k].get(col, 0) + _parse_frac(
                    term[1], f"{field}[{t}][1]"))
        blocks[da, db] = rl.freeze(rows, dims.get(da, 0) * nb)
    return gd.Product(dict(sorted(blocks.items())))


def parse_gdiff(data) -> gd.GDiffComplex:
    """The G-differential complex of a payload; its axioms are checked by
    `_check_axioms`."""
    from .core import CochainComplex, GradedSpace, LinearMap

    _expect(isinstance(data, dict), "payload", "expected an object")
    unknown = set(data) - {"algebra", "dims", "d", "contractions", "lie_ops",
                           "product", "unit"}
    _expect(not unknown, "payload", f"unknown keys {sorted(unknown)}")
    algebra = parse_algebra(data.get("algebra"), "payload.algebra")
    dims_raw = data.get("dims")
    _expect(isinstance(dims_raw, dict), "payload.dims", "expected an object")
    dims = {deg: _expect_int(value, at, low=0)
            for deg, at, value in _keyed(dims_raw, "payload.dims")}
    space = GradedSpace.from_dims(dims)

    def blocks_of(raw, shift: int, here: str) -> LinearMap:
        _expect(isinstance(raw, dict), here, "expected an object of blocks")
        blocks = {deg: _parse_mat(mat, dims.get(deg + shift, 0),
                                  dims.get(deg, 0), at)
                  for deg, at, mat in _keyed(raw, here)}
        return LinearMap.from_blocks(space, space, shift, blocks)

    d = blocks_of(data.get("d", {}), 1, "payload.d")
    try:
        complex_ = CochainComplex.build(space, d)
    except Exception as exc:
        raise MathError(f"differential does not square to zero: {exc}")
    raw_i = data.get("contractions", [])
    raw_l = data.get("lie_ops", [])
    _expect(isinstance(raw_i, list) and len(raw_i) == algebra.dim,
            "payload.contractions",
            f"expected {algebra.dim} generator blocks")
    _expect(isinstance(raw_l, list) and len(raw_l) == algebra.dim,
            "payload.lie_ops", f"expected {algebra.dim} generator blocks")
    contractions = [blocks_of(raw, -1, f"payload.contractions[{t}]")
                    for t, raw in enumerate(raw_i)]
    lie_ops = [blocks_of(raw, 0, f"payload.lie_ops[{t}]")
               for t, raw in enumerate(raw_l)]
    product = None
    if data.get("product") is not None:
        raw = data["product"]
        _expect(isinstance(raw, dict) and isinstance(raw.get("table"), dict),
                "payload.product", "expected {'table': {...}}")
        product = product_from_table(raw["table"], dims)
    unit = None
    if data.get("unit") is not None:
        raw = data["unit"]
        _expect(isinstance(raw, list) and len(raw) == dims.get(0, 0),
                "payload.unit",
                f"expected a list of {dims.get(0, 0)} degree-0 coordinates")
        unit = tuple(_parse_frac(x, f"payload.unit[{t}]")
                     for t, x in enumerate(raw))
    return gd.build_gdiff(algebra, complex_, contractions, lie_ops,
                          product=product, unit=unit, check=False)


# ---------------------------------------------------------------------------
# Expression parameters


def fprime_function(expr: str) -> Callable:
    """Exact evaluator for a univariate polynomial expression in t, built
    from integer literals, + - * / and non-negative integer powers."""
    _expect(isinstance(expr, str), "fprime", "expected a string")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise SchemaError("fprime", f"cannot parse {_shown(expr)}: {exc}")
    except (RecursionError, MemoryError):
        # the parser's own depth limits, hit by deeply nested input
        raise SchemaError("fprime", "expression nested too deeply")

    def ev(node, t: Fraction) -> Fraction:
        if isinstance(node, ast.Expression):
            return ev(node.body, t)
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id == "t":
            return t
        if isinstance(node, ast.UnaryOp) and isinstance(
                node.op, (ast.UAdd, ast.USub)):
            inner = ev(node.operand, t)
            return inner if isinstance(node.op, ast.UAdd) else -inner
        if isinstance(node, ast.BinOp):
            left, right = ev(node.left, t), ev(node.right, t)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                if right == 0:
                    raise SchemaError("fprime", "division by zero")
                return left / right
            if isinstance(node.op, ast.Pow):
                if right.denominator != 1 or right < 0:
                    raise SchemaError(
                        "fprime", "powers must be non-negative integers")
                return left ** int(right)
        raise SchemaError("fprime",
                          f"unsupported syntax near {ast.dump(node)[:60]}")

    def fn(t) -> Fraction:
        try:
            return ev(tree, Fraction(t))
        except RecursionError:
            raise SchemaError("fprime", "expression nested too deeply")

    fn(0)  # validate eagerly
    return fn


def _parse_roots(text: str) -> list:
    """Distinct rationals "a,b,...": a repeat is a MathError with the
    witness of `po.build_product_line_model`."""
    _expect(isinstance(text, str), "roots", "expected a string")
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise SchemaError("roots", "empty entry in the list")
        out.append(_parse_frac(part, "roots"))
    if len(set(out)) != len(out):
        raise MathError(f"roots {tuple(out)} contain repeats")
    return out


def _parse_int_range(text: str, field: str) -> list:
    """Non-negative integers given as "lo..hi" or "a,b,...": at least one,
    and no entry of the list empty."""
    _expect(isinstance(text, str), field, "expected a string")
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise SchemaError(field, f"cannot parse range {_shown(text)}")
        if hi < lo:
            raise SchemaError(field, "range upper end below lower end")
        out = list(range(lo, hi + 1))
    else:
        parts = text.split(",")
        if not all(part.strip() for part in parts):
            raise SchemaError(field, "empty entry in the list")
        try:
            out = [int(part) for part in parts]
        except ValueError:
            raise SchemaError(field, f"cannot parse {_shown(text)}")
    _expect(all(x >= 0 for x in out), field, "degrees must be non-negative")
    return out


# ---------------------------------------------------------------------------
# Example runners (computed and predicted tables, side by side)


def _su2_momentum() -> po.MomentumData:
    g = lie.su2()
    p = po.linear_poisson(g)
    mu = [po.function(3, {tuple(1 if t == j else 0 for t in range(3)):
                          Fraction(1)}) for j in range(3)]
    return po.momentum_setup(p, g, mu=mu, submersive=True)


def _rotation_momentum(planes: int) -> po.MomentumData:
    p = po.symplectic_poisson(planes)
    n = 2 * planes
    mu = []
    for t in range(planes):
        terms = {}
        for c in (2 * t, 2 * t + 1):
            e = [0] * n
            e[c] = 2
            terms[tuple(e)] = Fraction(-1, 2)
        mu.append(po.function(n, terms))
    return po.momentum_setup(p, lie.abelian(planes), mu=mu)


def _example_poiss1(slices: list, sym_cap: int) -> dict:
    md = _su2_momentum()
    computed, predicted = [], []
    for s in slices:
        rep = po.equivariant_poisson_cohomology(md, sym_cap=sym_cap,
                                                slice_degree=s)
        dims = rep.cohomology.dims_list()
        computed.append({"slice": s, "dims": dims,
                         "h0": rep.cohomology.dim(0),
                         "higher_vanish": all(x == 0 for x in dims[1:])})
        inv = lie.invariants(lie.sym_power_rep(md.algebra, s)).dim(0)
        predicted.append({"slice": s, "h0": inv, "higher": 0})
    agrees = all(c["h0"] == p["h0"] and c["higher_vanish"]
                 for c, p in zip(computed, predicted))
    return {"computed": computed, "predicted": predicted, "agrees": agrees}


def _product_line_example(roots: list, fprime: Callable) -> dict:
    values = [fprime(r) for r in roots]
    model = po.build_product_line_model(roots, values)
    report = po.product_line_report(model)
    m = len(roots)
    rank = sum(1 for v in values if v != 0)
    predicted = {"final_dims": [m, m - rank, m - rank, m],
                 "page_matrix": [[str(Fraction(values[i] if i == j else 0))
                                  for j in range(m)] for i in range(m)]}
    page = report["page_differential"]
    computed = {"final_dims": report["final_dims"],
                "direct_dims": report["direct_dims"],
                "page_differential": (
                    None if page is None
                    else {"page": page["page"],
                          "matrix": _mat_json(page["matrix"])})}
    agrees = (computed["final_dims"] == predicted["final_dims"]
              and computed["direct_dims"] == predicted["final_dims"]
              and (rank == 0 or (page is not None
                                 and computed["page_differential"]["matrix"]
                                 == predicted["page_matrix"])))
    return {"roots": [str(r) for r in roots],
            "fprime_values": [str(v) for v in values],
            "computed": computed, "predicted": predicted, "agrees": agrees}


def _parse_planes(value) -> int:
    planes = _expect_int(value, "planes")
    _expect(planes >= 1, "planes", "expected a positive integer")
    return planes


def _example_torus(planes: int, slices: list, sym_cap: int) -> dict:
    md = _rotation_momentum(planes)
    rows = []
    for s in slices:
        rep = po.sharp_comparison(md, slice_degree=s, sym_cap=sym_cap)
        rows.append({
            "slice": s,
            "d_sign": rep["d_sign"],
            "d_intertwines": rep["d_intertwines"],
            "contraction_intertwines": rep["contraction_intertwines"],
            "invertible": rep["invertible"],
            "tangent_matches_basic_image": rep["tangent_matches_basic_image"],
            "computed": rep["equivariant_multivector_dims"],
            "predicted": rep["equivariant_form_dims"],
            "agrees": rep["equivariant_dims_agree"],
        })
    return {"planes": planes, "per_slice": rows,
            "agrees": all(r["agrees"] and r["invertible"]
                          and r["d_intertwines"] for r in rows)}


def _example_coh_inv() -> dict:
    g = lie.su2()
    p = po.linear_poisson(g)
    h = po.poisson_cohomology(p, truncation=0, slice_degree=0)
    computed = h.slices[0][:g.dim + 1]
    hg = lie.lie_cohomology(g)
    predicted = [hg.dims.get(n, 0) for n in range(g.dim + 1)]
    return {"computed": computed, "predicted": predicted,
            "agrees": computed == predicted}


def _example_su2_dual(max_degree: int) -> dict:
    p = po.linear_poisson(lie.su2())
    h = po.poisson_cohomology(p, truncation=max_degree)
    model = po.poisson_complex(p, slice_degree=2)
    return {"computed": {"dims": h.dims_list(3),
                         "slices": {str(k): v for k, v in h.slices.items()},
                         "slice2_complex_dims": [model.space.dim(q)
                                                 for q in range(4)]},
            "predicted": {str(k): v for k, v in h.predicted.items()},
            "agrees": bool(h.matches)}


def _example_weil(sym_cap: int) -> dict:
    out = {}
    agrees = True
    for g in (lie.su2(), lie.abelian(2)):
        w = gd.weil_algebra(g, sym_cap)
        h = cohomology(w.gdiff.complex)
        acyclic_band = [h.dim(n) for n in range(sym_cap + 1)]
        basic, _ = gd.basic_subcomplex(w.gdiff)
        hb = cohomology(basic)
        top = 2 * sym_cap
        basic_dims = [hb.dim(n) for n in range(top + 1)]
        predicted_acyclic = [1] + [0] * sym_cap
        predicted_basic = [
            lie.invariants(lie.sym_power_rep(g, n // 2)).dim(0)
            if n % 2 == 0 else 0 for n in range(top + 1)]
        key = g.name or f"dim{g.dim}"
        ok = (acyclic_band == predicted_acyclic
              and basic_dims == predicted_basic)
        agrees = agrees and ok
        out[key] = {"computed": {"cohomology_band": acyclic_band,
                                 "basic_dims": basic_dims},
                    "predicted": {"cohomology_band": predicted_acyclic,
                                  "basic_dims": predicted_basic},
                    "agrees": ok}
    return {"sym_cap": sym_cap, "algebras": out, "agrees": agrees}


# Each example's runner and the only parameters it reads, with their
# defaults, in the order they are parsed.
_EXAMPLE_RUNNERS = {
    "poiss1": (_example_poiss1, {"slices": "0..4", "sym_cap": 2}),
    "poiss2": (_product_line_example, {"roots": "0,1,2,3,4", "fprime": "1"}),
    "poiss3": (_product_line_example,
               {"roots": "0,1,2,3,4", "fprime": "t*(t-1)"}),
    "poiss4": (_product_line_example, {"roots": "0,1,2,3,4", "fprime": "0"}),
    "torus": (_example_torus, {"planes": 1, "slices": "0..3", "sym_cap": 2}),
    "coh-inv": (_example_coh_inv, {}),
    "su2-dual": (_example_su2_dual, {"max_degree": 4}),
    "weil": (_example_weil, {"sym_cap": 2}),
}

# The parser of each example parameter.
_PARAMETER_PARSERS = {
    "slices": lambda value: _parse_int_range(value, "slices"),
    "sym_cap": lambda value: _expect_int(value, "sym_cap", low=0),
    "roots": _parse_roots,
    "fprime": fprime_function,
    "planes": _parse_planes,
    "max_degree": lambda value: _expect_int(value, "max_degree", low=0),
}


def run_example(name: str, parameters: dict) -> dict:
    if name not in _EXAMPLE_RUNNERS:
        raise UnknownExample(
            f"unknown example {name!r}; available: {', '.join(EXAMPLES)}")
    result, _ = _example_task({"name": name, "parameters": parameters})()
    return result


# ---------------------------------------------------------------------------
# Task dispatch


def _generator_subalgebra(g: lie.LieAlgebra, indices: Sequence,
                          what: str) -> lie.Subalgebra:
    """The subalgebra spanned by the generators `indices` of g; a MathError
    naming `what` when they are dependent or do not close."""
    try:
        return lie.build_subalgebra(g, [[int(t == i) for t in range(g.dim)]
                                        for i in indices])
    except ValueError as exc:
        raise MathError(f"{what} generators rejected: {exc}")


def _lie_cohomology_task(payload: dict, opts: dict) -> Callable:
    _expect(isinstance(payload, dict), "payload", "expected an object")
    unknown = set(payload) - {"algebra", "coefficients", "relative",
                              "factorized"}
    _expect(not unknown, "payload", f"unknown keys {sorted(unknown)}")
    g = parse_algebra(payload.get("algebra"), "payload.algebra")
    power = None   # trivial coefficients
    coeff = payload.get("coefficients")
    if coeff is not None:
        _expect(isinstance(coeff, dict), "payload.coefficients",
                "expected an object")
        ctype = coeff.get("type")
        if ctype == "sym-coadjoint":
            power = _expect_int(coeff.get("power"),
                                "payload.coefficients.power", low=0)
        elif ctype != "trivial":
            raise SchemaError("payload.coefficients.type",
                              "expected 'trivial' or 'sym-coadjoint'")
    sub = None
    if payload.get("relative") is not None:
        idx = payload["relative"]
        _expect(isinstance(idx, list) and idx, "payload.relative",
                "expected a non-empty list of generator indices")
        for t, k in enumerate(idx):
            k = _expect_int(k, f"payload.relative[{t}]", low=0)
            _expect(k < g.dim, f"payload.relative[{t}]", "index out of range")
        sub = _generator_subalgebra(g, idx, "relative")
    factorized = payload.get("factorized", False)
    _expect(isinstance(factorized, bool), "payload.factorized",
            "expected a boolean")
    if factorized and not g.compact_type:
        raise MathError("factorized prediction requires compact_type")

    def run():
        rep = None if power is None else lie.sym_power_rep(g, power)
        try:
            h = lie.lie_cohomology(g, rep, k=sub, factorized=factorized)
        except lie.FactorizationMismatch as exc:
            raise MathError(f"factorization mismatch: {exc}")
        top = g.dim
        result = {"dims": [h.dims.get(n, 0) for n in range(top + 1)]}
        if h.predicted_dims is not None:
            result["predicted"] = [h.predicted_dims.get(n, 0)
                                   for n in range(top + 1)]
        return result, []
    return run


def _check_axioms(c: gd.GDiffComplex) -> gd.AxiomReport:
    """The axiom report of c; raises MathError carrying it when an axiom
    fails."""
    report = gd.check_gdiff_axioms(c)
    if not report.ok:
        raise MathError(json.dumps(report.to_json(), sort_keys=True,
                                   default=_frac_json))
    return report


def _gdiff_check_task(payload: dict, opts: dict) -> Callable:
    c = parse_gdiff(payload)
    return lambda: (_check_axioms(c).to_json(), [])


def _opt(opts: dict, key: str, default=None):
    value = opts.get(key)
    return default if value is None else value


def _equivariant_task(payload: dict, opts: dict) -> Callable:
    c = parse_gdiff(payload)
    sym_cap = _expect_int(_opt(opts, "sym_cap", 2), "sym_cap", low=1)

    def run():
        _check_axioms(c)
        h = gd.equivariant_cohomology(c, sym_cap)
        warnings = [f"dims above total degree {h.band} are affected by the "
                    f"symmetric-degree cap {sym_cap}"]
        result = h.to_json()
        result["dims_list"] = h.dims_list()
        return result, warnings
    return run


def _weil_check_task(payload: dict, opts: dict) -> Callable:
    _expect(isinstance(payload, dict), "payload", "expected an object")
    unknown = set(payload) - {"algebra", "sym_cap"}
    _expect(not unknown, "payload", f"unknown keys {sorted(unknown)}")
    g = parse_algebra(payload.get("algebra"), "payload.algebra")
    sym_cap = _opt(opts, "sym_cap", payload.get("sym_cap"))
    sym_cap = _expect_int(2 if sym_cap is None else sym_cap,
                          "sym_cap", low=1)

    def run():
        w = gd.weil_algebra(g, sym_cap)
        h = cohomology(w.gdiff.complex)
        basic, _ = gd.basic_subcomplex(w.gdiff)
        hb = cohomology(basic)
        top = 2 * sym_cap
        result = {
            "sym_cap": sym_cap,
            "dims": [w.gdiff.complex.space.dim(n) for n in range(top + 1)],
            "cohomology_band": [h.dim(n) for n in range(sym_cap + 1)],
            "acyclic_in_band": all(h.dim(n) == 0
                                   for n in range(1, sym_cap + 1))
            and h.dim(0) == 1,
            "basic_dims": [hb.dim(n) for n in range(top + 1)],
        }
        warnings = [f"acyclicity is certified for degrees <= {sym_cap} only"]
        return result, warnings
    return run


def _poisson_cohomology_task(payload: dict, opts: dict) -> Callable:
    parsed = parse_poisson(payload)
    _expect(parsed["generators"] is None, "payload.action.generators",
            "a poisson-cohomology task computes without the action; it "
            "reads no generators")
    _require_certified_cli(parsed["structure"])
    truncation = _opt(opts, "max_degree", parsed["maxdeg"])
    slice_degree = opts.get("slice")
    if truncation is None and slice_degree is None:
        raise SchemaError("payload.maxdeg",
                          "a truncation bound or --slice is required")

    def run():
        try:
            h = po.poisson_cohomology(parsed["structure"],
                                      truncation=0 if truncation is None
                                      else truncation,
                                      slice_degree=slice_degree)
        except (po.UnsupportedRegime, ValueError) as exc:
            raise MathError(str(exc))
        warnings = []
        if h.band is not None:
            warnings.append(f"cohomology above coefficient degree {h.band} "
                            "is affected by the truncation cap")
        return h.to_json(), warnings
    return run


def _momentum_input(payload: dict, opts: dict) -> tuple:
    """The parsed payload, momentum data, truncation and slice of a task
    on momentum data: the slice, when given, replaces the truncation."""
    parsed = parse_poisson(payload)
    _require_certified_cli(parsed["structure"])
    md = momentum_from_payload(parsed)
    slice_degree = opts.get("slice")
    truncation = None if slice_degree is not None else (
        _opt(opts, "max_degree", parsed["maxdeg"]))
    if truncation is None and slice_degree is None:
        raise SchemaError("payload.maxdeg",
                          "a truncation bound or --slice is required")
    return parsed, md, truncation, slice_degree


def _equivariant_poisson_task(payload: dict, opts: dict) -> Callable:
    parsed, md, truncation, slice_degree = _momentum_input(payload, opts)
    sym_cap = _expect_int(_opt(opts, "sym_cap", 2), "sym_cap", low=1)
    sub = (None if parsed["generators"] is None else
           _generator_subalgebra(md.algebra, parsed["generators"], "action"))

    def run():
        try:
            rep = po.equivariant_poisson_cohomology(
                md, sym_cap=sym_cap, truncation=truncation,
                slice_degree=slice_degree, sub=sub)
        except (po.UnsupportedRegime, ValueError) as exc:
            raise MathError(str(exc))
        h = rep.cohomology
        result = {"dims": h.dims_list(), "band": h.band,
                  "invariant_function_dim": rep.invariant_function_dim,
                  "basic_cross_check": None}
        warnings = [f"dims above total degree {h.band} are affected by the "
                    f"symmetric-degree cap {sym_cap}"]
        return result, warnings
    return run


def _momentum_ss_task(payload: dict, opts: dict) -> Callable:
    parsed, md, truncation, slice_degree = _momentum_input(payload, opts)
    _expect(parsed["generators"] is None, "payload.action.generators",
            "a momentum-ss task acts with the whole algebra; it reads no "
            "generators")

    def run():
        try:
            ss = po.momentum_spectral_sequence(md, truncation=truncation,
                                               slice_degree=slice_degree,
                                               r_max=opts.get("pages"))
        except (po.UnsupportedRegime, ValueError) as exc:
            raise MathError(str(exc))
        return ss.to_json(), []
    return run


def _example_task(payload, opts: Optional[dict] = None) -> Callable:
    """An example task's payload parse: the example's runner on the parsed
    parameters, defaults filled in, giving (result, warnings)."""
    _expect(isinstance(payload, dict), "payload", "expected an object")
    unknown = set(payload) - {"name", "parameters"}
    _expect(not unknown, "payload", f"unknown keys {sorted(unknown)}")
    name = payload.get("name")
    _expect(isinstance(name, str), "payload.name", "expected a string")
    _expect(name in EXAMPLES, "payload.name",
            f"expected one of {', '.join(EXAMPLES)}")
    parameters = payload.get("parameters", {})
    _expect(isinstance(parameters, dict), "payload.parameters",
            "expected an object")
    runner, defaults = _EXAMPLE_RUNNERS[name]
    unknown = set(parameters) - set(defaults)
    _expect(not unknown, "parameters",
            f"example {name} reads no {sorted(unknown)}")
    params = {key: _PARAMETER_PARSERS[key](parameters.get(key, default))
              for key, default in defaults.items()}
    return lambda: (runner(**params), [])


# Each kind's payload parse and the only bounds it reads.  The parse checks
# payload and options (SchemaError, or MathError on a mathematical defect)
# and returns the computation, a callable giving (result, warnings).
# validate only parses.
_KIND_TASKS = {
    "lie-cohomology": (_lie_cohomology_task, ()),
    "gdiff-check": (_gdiff_check_task, ()),
    "equivariant": (_equivariant_task, ("sym_cap",)),
    "weil-check": (_weil_check_task, ("sym_cap",)),
    "poisson-cohomology": (_poisson_cohomology_task, ("max_degree", "slice")),
    "equivariant-poisson": (_equivariant_poisson_task,
                            ("sym_cap", "max_degree", "slice")),
    "momentum-ss": (_momentum_ss_task, ("max_degree", "slice", "pages")),
    "example": (_example_task, ()),
}


def _task_shape(task, opts: Optional[dict] = None) -> tuple:
    """(kind, payload, options) of a task, after the checks made before the
    payload is read: the kind, a payload, and options that the kind reads,
    within their bounds."""
    opts = dict(opts or {})
    _expect(isinstance(task, dict), "", "expected a task object")
    kind = task.get("kind")
    if kind not in KINDS:
        raise SchemaError("kind", f"expected one of {', '.join(KINDS)}")
    payload = task.get("payload")
    _expect(payload is not None, "payload", "missing payload")
    task_opts = task.get("options", {})
    _expect(isinstance(task_opts, dict), "options", "expected an object")
    for key, value in task_opts.items():
        opts.setdefault(key, value)
    reads = _KIND_TASKS[kind][1]
    for key, value in opts.items():
        if value is not None:
            _expect(key in reads, key, f"a {kind} task reads no {key}")
            _expect_int(value, key, low=1 if key == "sym_cap" else 0)
    return kind, payload, opts


def run_compute(task: dict, opts: Optional[dict] = None) -> dict:
    """Dispatch a schema-validated task and assemble the result report."""
    kind, payload, opts = _task_shape(task, opts)
    result, warnings = _KIND_TASKS[kind][0](payload, opts)()
    return {"kind": kind, "result": result, "warnings": warnings}


# ---------------------------------------------------------------------------
# Validation command


class _GateTable:
    def __init__(self):
        self.rows = []

    def run(self, name: str, fn: Callable) -> bool:
        try:
            fn()
        except SchemaError as exc:
            self.rows.append({"gate": name, "ok": False,
                              "field": exc.field, "detail": exc.message})
            return False
        except MathError as exc:
            self.rows.append({"gate": name, "ok": False,
                              "detail": str(exc)})
            return False
        self.rows.append({"gate": name, "ok": True})
        return True

    def skip(self, name: str):
        self.rows.append({"gate": name, "ok": False,
                          "detail": "skipped: an earlier gate failed"})
        return False


def _gates(table: _GateTable, parse: Callable, checks: Sequence) -> bool:
    """A schema gate running `parse`, then the named math gates in order,
    each skipped once a gate has failed.  A math gate first reports any
    mathematical defect `parse` found, then runs its check (if any) on the
    parsed object."""
    held = {}

    def schema():
        try:
            held["parsed"] = parse()
        except MathError as exc:
            # Shape is fine; remember the defect for the math gates.
            held["math"] = exc

    ok = table.run("schema", schema)
    for name, check in checks:
        def gate(check=check):
            if "math" in held:
                raise held["math"]
            if check is not None:
                check(held["parsed"])
        ok = table.run(name, gate) if ok else table.skip(name)
    return ok


def _poisson_gates(data, table: _GateTable) -> bool:
    return _gates(table, lambda: parse_poisson(data),
                  (("antisymmetry", None),
                   ("jacobi", lambda parsed: _require_certified_cli(
                       parsed["structure"]))))


def _gdiff_gates(data, table: _GateTable) -> bool:
    return _gates(table, lambda: parse_gdiff(data),
                  (("axioms", _check_axioms),))


def _algebra_gates(data, table: _GateTable, field: str) -> bool:
    return _gates(table, lambda: parse_algebra(data, field),
                  (("jacobi", None),))


def validate_input(data) -> dict:
    """Schema plus cheap mathematical gates, one pass/fail row per gate.
    Accepts a task file, a bivector payload, a bracket table, or an
    exported complex; the heavy cohomology routines are never invoked."""
    table = _GateTable()
    if isinstance(data, dict) and "kind" in data:
        defects = []

        def shape():
            kind, payload, opts = _task_shape(data)
            try:
                _KIND_TASKS[kind][0](payload, opts)
            except MathError as exc:
                defects.append(exc)

        def task_math():
            raise defects[0]

        ok = table.run("task-shape", shape)
        payload = data.get("payload")
        if ok and isinstance(payload, dict):
            if "pi" in payload:
                ok = _poisson_gates(payload, table) and ok
            elif "d" in payload and "dims" in payload:
                ok = _gdiff_gates(payload, table) and ok
            elif "algebra" in payload:
                ok = _algebra_gates(payload["algebra"], table,
                                    "payload.algebra") and ok
        # a defect of the payload parse that no gate above reported
        if ok and defects:
            ok = table.run("task-math", task_math)
        return {"gates": table.rows, "ok": ok}
    if isinstance(data, dict) and "pi" in data:
        return {"gates": table.rows, "ok": _poisson_gates(data, table)}
    if isinstance(data, dict) and "d" in data and "dims" in data:
        return {"gates": table.rows, "ok": _gdiff_gates(data, table)}
    if isinstance(data, dict) and ("brackets" in data or "dim" in data):
        return {"gates": table.rows,
                "ok": _algebra_gates(data, table, "algebra")}
    raise SchemaError("", "unrecognized input shape: expected a task file, "
                      "a bivector payload, an algebra, or a complex")


# ---------------------------------------------------------------------------
# Output assembly


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            yield from _flatten(obj[key], f"{prefix}.{key}" if prefix
                                else str(key))
    elif isinstance(obj, (list, tuple)):
        for t, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}[{t}]")
    else:
        yield prefix, obj


def render(report: dict, fmt: str) -> str:
    if fmt == "csv":
        lines = ["field,value"]
        for path, value in _flatten(report):
            if isinstance(value, Fraction):
                value = str(value)
            lines.append(f"{path},{value}")
        return "\n".join(lines) + "\n"
    return json.dumps(report, sort_keys=True, indent=2,
                      default=_frac_json) + "\n"


def _emit_error(code: int, exc: Exception, fmt: str) -> int:
    if isinstance(exc, SchemaError):
        body = {"error": {"code": code, "kind": "schema",
                          "field": exc.field, "message": exc.message}}
    else:
        body = {"error": {"code": code, "kind": "math",
                          "witness": str(exc)}}
    sys.stdout.write(render(body, fmt))
    return code


# ---------------------------------------------------------------------------
# Argument parsing and entry point


def _read_task_file(path: str) -> tuple:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError("file", f"cannot read {path}: {exc.strerror}")
    if not raw.strip():
        raise SchemaError("file", f"{path} is empty")
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, ValueError) as exc:
        raise SchemaError("file", f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise SchemaError("file", f"{path} nests its JSON too deeply")


def _given(args, keys: Sequence) -> dict:
    """The options among `keys` that were given on the command line."""
    return {key: getattr(args, key) for key in keys
            if getattr(args, key) is not None}


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--timing", action="store_true",
                     help="append wall-clock timing to the report")


_BOUNDS = ("sym_cap", "max_degree", "slice", "pages")


def _add_bounds(sub):
    sub.add_argument("--sym-cap", dest="sym_cap", type=int, default=None)
    sub.add_argument("--max-degree", dest="max_degree", type=int,
                     default=None)
    sub.add_argument("--slice", dest="slice", type=int, default=None)
    sub.add_argument("--pages", dest="pages", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicoh",
        description="Exact-rational equivariant and Poisson cohomology.")
    subs = parser.add_subparsers(dest="command", required=True)

    comp = subs.add_parser("compute", help="run a task file")
    comp.add_argument("file")
    _add_common(comp)
    _add_bounds(comp)

    exam = subs.add_parser("example", help="run a named bundled example")
    exam.add_argument("name")
    exam.add_argument("--roots", default=None)
    exam.add_argument("--fprime", default=None)
    exam.add_argument("--slices", default=None)
    exam.add_argument("--planes", type=int, default=None)
    _add_common(exam)
    _add_bounds(exam)

    val = subs.add_parser("validate", help="schema and math gates only")
    val.add_argument("file")
    _add_common(val)

    for kind in KINDS:
        if kind == "example":
            continue
        sugar = subs.add_parser(kind, help=f"run a {kind} payload file")
        sugar.add_argument("file")
        _add_common(sugar)
        _add_bounds(sugar)
    return parser


def main(argv: Optional[Sequence] = None) -> int:
    args = build_parser().parse_args(argv)
    fmt = args.format
    timer = None
    if args.timing:
        import time
        timer = time.monotonic()
    try:
        if args.command == "compute":
            data, raw = _read_task_file(args.file)
            report = run_compute(data, _given(args, _BOUNDS))
            report["digest"] = _digest(raw)
        elif args.command == "example":
            params = _given(args, ("roots", "fprime", "slices", "planes")
                            + _BOUNDS)
            try:
                result = run_example(args.name, params)
            except UnknownExample as exc:
                raise SchemaError("name", str(exc))
            canon = json.dumps({"name": args.name, "parameters": params},
                               sort_keys=True).encode("utf-8")
            report = {"kind": "example", "name": args.name,
                      "result": result, "warnings": [],
                      "digest": _digest(canon)}
        elif args.command == "validate":
            data, raw = _read_task_file(args.file)
            table = validate_input(data)
            report = {"kind": "validate", "result": table,
                      "warnings": [], "digest": _digest(raw)}
            if not table["ok"]:
                schema_bad = any(not g["ok"] and ("field" in g
                                                  or g["gate"] == "task-shape")
                                 for g in table["gates"])
                sys.stdout.write(render(report, fmt))
                return 2 if schema_bad else 3
        else:
            data, raw = _read_task_file(args.file)
            report = run_compute({"kind": args.command, "payload": data},
                                 _given(args, _BOUNDS))
            report["digest"] = _digest(raw)
    except SchemaError as exc:
        return _emit_error(2, exc, fmt)
    except (MathError, po.UncertifiedPoisson) as exc:
        return _emit_error(3, exc, fmt)
    except DEFECTS as exc:
        return _emit_error(3, MathError(f"{type(exc).__name__}: {exc}"), fmt)
    except MemoryError:
        return _emit_error(2, SchemaError(
            "input", "too large: the computation ran out of memory"), fmt)
    if timer is not None:
        import time
        report["timing_seconds"] = round(time.monotonic() - timer, 6)
    sys.stdout.write(render(report, fmt))
    return 3 if any(report["result"].get(key) is False
                    for key in VERDICTS) else 0


if __name__ == "__main__":
    sys.exit(main())
