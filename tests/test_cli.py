"""The `equicoh` command end to end: every example and every task kind exits
0 with the pinned output bytes on every run; malformed payloads exit 2
(schema) or 3 (math), and so do a false verdict and a failed check of the
program's own results (3); none ends in a traceback."""

import ast
import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, seed, settings
from hypothesis import strategies as st

from equicoh import cli, gdiff as gd, lie

from test_guards import GUARDS

SU2 = {"dim": 3, "compact_type": True, "name": "su2",
       "brackets": [[0, 1, [[2, "1"]]], [1, 2, [[0, "1"]]],
                    [0, 2, [[1, "-1"]]]]}


def unit_exp(n, j):
    return [1 if t == j else 0 for t in range(n)]


SU2_DUAL = {
    "ambient": 3, "maxdeg": 2, "regime": "linear",
    "pi": [[[0, 1], {"exponents": unit_exp(3, 2), "coeff": "1"}],
           [[1, 2], {"exponents": unit_exp(3, 0), "coeff": "1"}],
           [[0, 2], {"exponents": unit_exp(3, 1), "coeff": "-1"}]],
    "action": {"algebra": SU2},
    "mu": [[{"exponents": unit_exp(3, j), "coeff": "1"}] for j in range(3)],
    "submersive": True,
}

SU2_DUAL_CIRCLE = dict(SU2_DUAL, action={"algebra": SU2, "generators": [2]})
SU2_DUAL_PLANE = dict(SU2_DUAL, action={"algebra": SU2, "generators": [0, 1]})

CIRCLE_Q2 = {
    "ambient": 2, "regime": "constant",
    "pi": [[[0, 1], {"exponents": [0, 0], "coeff": "1"}]],
    "action": {"algebra": {"dim": 1, "brackets": [], "name": "circle"}},
    "mu": [[{"exponents": [2, 0], "coeff": "-1/2"},
            {"exponents": [0, 2], "coeff": "-1/2"}]],
}

NON_JACOBI = {"dim": 3, "name": "broken3",
              "brackets": [[0, 1, [[2, "1"]]], [1, 2, [[0, "1"]]],
                           [0, 2, [[0, "1"]]]]}

# Lambda of the dual of the one-dimensional algebra: 1 in degree 0, lambda
# in degree 1, the contraction sends lambda to 1.
ONE_GEN = {
    "algebra": {"dim": 1, "brackets": []},
    "dims": {"0": 1, "1": 1},
    "d": {},
    "contractions": [{"1": [["1"]]}],
    "lie_ops": [{}],
    "product": {"table": {"0,0": {"0,0": [[0, "1"]]},
                          "0,1": {"0,0": [[0, "1"]]},
                          "1,0": {"0,0": [[0, "1"]]}}},
    "unit": ["1"],
}


def _frac(x):
    return str(Fraction(x))


def table_dict(c):
    """The product of c in the payload's table form {(da, db): {(ia, ib):
    ((k, coeff), ...)}}: every block, each nonzero column ia * dim A^db + ib
    as its pair, pairs and terms in increasing order."""
    dim = c.space.dim
    return {(da, db): {divmod(j, dim(db)): tuple(col.items())
                       for j, col in enumerate(m.cols) if col}
            for (da, db), m in c.product.table.items()}


def payload_table(table):
    """A table {(da, db): {(ia, ib): ((k, coeff), ...)}} in the payload's
    form {"da,db": {"ia,ib": [[k, "coeff"], ...]}}."""
    return {f"{da},{db}": {f"{ia},{ib}": [[k, _frac(v)] for k, v in terms]
                           for (ia, ib), terms in pairs.items()}
            for (da, db), pairs in table.items()}


def gdiff_payload(c):
    """The `gdiff` payload of a G-differential complex: every nonzero-shaped
    block as dense rows of strings, with its product table and unit."""
    space = c.complex.space
    degs = sorted(space.degrees())

    def blocks(op, shift):
        return {str(n): [list(map(_frac, row)) for row in op.block(n).dense()]
                for n in degs if space.dim(n) and space.dim(n + shift)}

    g = c.algebra
    brackets = []
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            terms = [[k, _frac(x)] for k, x in enumerate(g.c[a][b]) if x]
            if terms:
                brackets.append([a, b, terms])
    algebra = {"dim": g.dim, "brackets": brackets,
               "compact_type": bool(g.compact_type)}
    if g.name:
        algebra["name"] = g.name
    data = {"algebra": algebra,
            "dims": {str(n): space.dim(n) for n in degs},
            "d": blocks(c.d, 1),
            "contractions": [blocks(op, -1) for op in c.contractions],
            "lie_ops": [blocks(op, 0) for op in c.lie_ops]}
    if c.product is not None:
        data["product"] = {"table": payload_table(table_dict(c))}
    if c.unit is not None:
        data["unit"] = list(map(_frac, c.unit))
    return data


def ce_su2_export():
    return gdiff_payload(gd.ce_gdiff(lie.ce_complex(lie.su2())))


def broken_contraction():
    broken = ce_su2_export()
    block = broken["contractions"][0]["1"]
    assert block[0][0] == "1"
    block[0][0] = "0"  # i_{e_0} no longer hits the e_0-coordinate
    return broken


NO_FILE = object()


def run(argv, payload=NO_FILE):
    """Exit code and stdout bytes of one in-process `equicoh` run.  A payload
    is written to a file whose path is appended to argv."""
    with tempfile.TemporaryDirectory() as tmp:
        if payload is not NO_FILE:
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, sort_keys=True, indent=2))
            argv = list(argv) + [path]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    return code, buf.getvalue().encode("utf-8")


# name -> (argv, payload builder or None, exit code).
CASES = {
    "example-poiss1": (["example", "poiss1", "--slices", "0..2"], None, 0),
    "example-poiss2": (["example", "poiss2"], None, 0),
    "example-poiss3": (["example", "poiss3"], None, 0),
    "example-poiss4": (["example", "poiss4"], None, 0),
    "example-torus": (["example", "torus", "--slices", "0..1"], None, 0),
    "example-coh-inv": (["example", "coh-inv"], None, 0),
    "example-su2-dual": (["example", "su2-dual", "--max-degree", "2"], None,
                         0),
    "example-weil": (["example", "weil", "--sym-cap", "2"], None, 0),
    "lie-cohomology": (["lie-cohomology"], lambda: {"algebra": SU2}, 0),
    "lie-cohomology-relative": (
        ["lie-cohomology"],
        lambda: {"algebra": SU2, "relative": [0], "factorized": True,
                 "coefficients": {"type": "sym-coadjoint", "power": 2}},
        0),
    "gdiff-check": (["gdiff-check"], ce_su2_export, 0),
    "gdiff-check-one-generator": (["gdiff-check"], lambda: ONE_GEN, 0),
    "gdiff-check-broken": (["gdiff-check"], broken_contraction, 3),
    "equivariant": (["equivariant", "--sym-cap", "2"], ce_su2_export, 0),
    "weil-check": (["weil-check", "--sym-cap", "2"],
                   lambda: {"algebra": SU2}, 0),
    "poisson-cohomology": (["poisson-cohomology"], lambda: SU2_DUAL, 0),
    "poisson-cohomology-constant": (
        ["poisson-cohomology", "--max-degree", "3"], lambda: CIRCLE_Q2, 0),
    "equivariant-poisson": (["equivariant-poisson", "--slice", "1"],
                            lambda: SU2_DUAL, 0),
    "equivariant-poisson-subalgebra": (
        ["equivariant-poisson", "--slice", "2"],
        lambda: dict(SU2_DUAL, action={"algebra": SU2, "generators": [0]}),
        0),
    "equivariant-poisson-constant": (["equivariant-poisson", "--slice", "2"],
                                     lambda: CIRCLE_Q2, 0),
    "momentum-ss": (["momentum-ss", "--slice", "1"], lambda: SU2_DUAL, 0),
    "compute-example": (
        ["compute"],
        lambda: {"kind": "example",
                 "payload": {"name": "poiss3",
                             "parameters": {"roots": "0,1,2"}}},
        0),
    "compute-lie-cohomology": (
        ["compute", "--format", "csv"],
        lambda: {"kind": "lie-cohomology",
                 "payload": {"algebra": {"dim": 3, "name": "heis3",
                                         "brackets": [[0, 1, [[2, "1"]]]]}}},
        0),
    "validate-complex": (["validate"], ce_su2_export, 0),
    "validate-broken-contraction": (["validate"], broken_contraction, 3),
    "validate-non-jacobi": (["validate"], lambda: NON_JACOBI, 3),
    "validate-task": (["validate"],
                      lambda: {"kind": "momentum-ss", "payload": SU2_DUAL},
                      0),
    "validate-task-algebra": (
        ["validate"],
        lambda: {"kind": "lie-cohomology", "payload": {"algebra": NON_JACOBI}},
        3),
    "validate-algebra": (["validate"], lambda: SU2, 0),
    "validate-repeated-index": (
        ["validate"],
        lambda: dict(CIRCLE_Q2, pi=[[[1, 1], {"exponents": [0, 0],
                                              "coeff": "1"}]]),
        3),
    "validate-not-poisson": (
        ["validate"],
        lambda: {"ambient": 3,
                 "pi": [[[0, 1], {"exponents": [0, 0, 1], "coeff": "1"}],
                        [[1, 2], {"exponents": [0, 1, 0], "coeff": "1"}]]},
        3),
}


# SHA-256 of the stdout of each case.  The outputs are exact answers in
# canonical bases, so any change of these bytes is a change of behaviour.
DIGESTS = {
    "compute-example":
        "bb77047ec2d11bb8580a40eb1fc708b8e64f0fb4fac4ac3b44de973d32a42431",
    "compute-lie-cohomology":
        "3665ec95e88f522b48d79dc2dd25f17f11e3642f2afedd0f2b18a2b145fd3b90",
    "equivariant":
        "56d3ab5edd16f0fd79d6e691205a57d29b993a9f5bb130ef5896f3ddc7fc48a7",
    "equivariant-poisson":
        "a5c2ff8912abe8e9e53bbb9320c8e27a36257d40be6948dc9a104055aec816dd",
    "equivariant-poisson-constant":
        "e3d140901cc7f9466aa476142d344d445f282f91b4702a67bc7ebf86f9a18f5e",
    "equivariant-poisson-subalgebra":
        "8af4b49daeed5de191e2c2ae8a48531771a9fba239f129567eb2224fb4134e84",
    "example-coh-inv":
        "73cb9cb23398256189912f3967a7770028b090b96948b39e4105866ad05d3c64",
    "example-poiss1":
        "780c86744d31ef9579b281f52600cc08d031dcd9441648b07c9b3e857ee7ceb1",
    "example-poiss2":
        "8d8bdc96e42e5afa71ab92187492f31b1577026d04f84a2841d4f31abda0d84f",
    "example-poiss3":
        "4bdd6d3e060198b2a26b3050bce91a691c5d69fc803233167baca3a2e9e7a86f",
    "example-poiss4":
        "75d5beec1a0e7a9da336ac789d3d843a79dd67ed7ba3446c77a7d22d0a9113a2",
    "example-su2-dual":
        "7ac936f44dcf2271e037031430db48c38f29a1a3799ba6d18518112396c9e31e",
    "example-torus":
        "042f8db62fd110f0cca89c2928e9cbb48264b26436ba6006c00bd090c7e38e8d",
    "example-weil":
        "4a5ab263fdf9670e5143e41dd8288f8d920eb6f5cef989764d0f612c1cb271a1",
    "gdiff-check":
        "5322a96b4de5e2434c2428629df576e0b0495bccfebb5081d49f11344f891f02",
    "gdiff-check-broken":
        "a99e565254721895a027bc0599b19f887c5c9a9b8dabedf054870b27d3504814",
    "gdiff-check-one-generator":
        "87fe0e1964c40aa4d6a88da14e42bea332254c22d8034d590a1ad6e32b221b33",
    "lie-cohomology":
        "f300c1b3522dbcc731c5ae7d434616d1a9e6735f9d80933536e1825da497e8fb",
    "lie-cohomology-relative":
        "afdcb30a60300c7163ca5f48abf89db23afb31ba56296bde410e961db8a8a06f",
    "momentum-ss":
        "ac353b19baa46f68463ef6237bda8825971e1c7f7075c45c3651b73287b69324",
    "poisson-cohomology":
        "371a13ca335c8e2a64815daf98b4283bc0afb474846604086ea9bc60b92d7118",
    "poisson-cohomology-constant":
        "6ba169e5f7b332c69a62e8fc94a73b5ac94bd1fbcf800313d40fda4ba56149cd",
    "validate-algebra":
        "77d59c7d5fd3338ac059feb3a3f40a02f7d221726fd7712d7b5ab34f32d68f23",
    "validate-broken-contraction":
        "deda06b7e060fafcec7985cc9a962e6a1864cda01a296e54608d84cf072ddcd7",
    "validate-complex":
        "24a04ad8aec3b9c3fd71f0a773a4a382e729f8d2c4afbbde26dfb01f92193536",
    "validate-non-jacobi":
        "0b424c844224d1059e25e01960e56be8fea82de81fd4ebb092f48087f67ebb83",
    "validate-not-poisson":
        "6f605d944df540b2ea14c85efcb9dc2ee1bfe7cf9a03caba2266a2bec75e7af2",
    "validate-repeated-index":
        "bacfe115bb9f82399d2940f228fb35f0f537536c3aeec1bff87ff2c078d8ae61",
    "validate-task":
        "b819e5f26c496d3b366e1e9c48851f574ffcb7545529b3bf1052df437cb7d4ce",
    "validate-task-algebra":
        "d8c57d7cc0629b3bb5b555e7e4b480caf4bc29e87a13cb552dfc0b08e2f65e4f",
    "weil-check":
        "623daa233a0bcd5995a826a3a4eee3f450189b2dca00080de5a5c611d6a8ea32",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_case_exit_code_and_pinned_bytes(name):
    argv, build, code = CASES[name]
    payload = build() if build is not None else NO_FILE
    first = run(argv, payload)
    assert run(argv, payload) == first
    assert first[0] == code, first[1].decode()
    assert hashlib.sha256(first[1]).hexdigest() == DIGESTS[name]


def _one_gen(**changes):
    data = copy.deepcopy(ONE_GEN)
    data.update(changes)
    return data


def _with_table(table):
    return _one_gen(product={"table": table})


def _example_task(name, **parameters):
    return {"kind": "example",
            "payload": {"name": name, "parameters": parameters}}


# Malformed inputs the parser must stop before they reach the builders and
# checks; each exits 2.
MALFORMED = {
    "product-degree-key": (
        ["gdiff-check"], _with_table({"x,0": {"0,0": [[0, "1"]]}})),
    "product-pair-key": (
        ["gdiff-check"], _with_table({"0,0": {"0": [[0, "1"]]}})),
    "product-pairs-list": (["gdiff-check"], _with_table({"0,0": []})),
    "product-pair-index-past-space": (
        ["gdiff-check"], _with_table({"0,1": {"0,1": [[0, "1"]]}})),
    "product-term-index-past-space": (
        ["gdiff-check"], _with_table({"0,1": {"0,0": [[1, "1"]]}})),
    "product-term-shape": (
        ["gdiff-check"], _with_table({"0,1": {"0,0": [0, "1"]}})),
    "unit-not-list": (["gdiff-check"], _one_gen(unit=5)),
    "unit-wrong-length": (["gdiff-check"], _one_gen(unit=[1, 2])),
    "validate-unit-wrong-length": (["validate"], _one_gen(unit=[1, 2])),
    "example-sym-cap": (["compute"], _example_task("weil", sym_cap="x")),
    "example-planes": (["compute"], _example_task("torus", planes="a")),
    "example-max-degree": (["compute"],
                           _example_task("su2-dual", max_degree=[])),
    "example-poiss1-sym-cap": (["compute"],
                               _example_task("poiss1", sym_cap=True)),
    "option-slice": (["compute"], {"kind": "momentum-ss", "payload": SU2_DUAL,
                                   "options": {"slice": "x"}}),
    "option-max-degree": (["compute"],
                          {"kind": "poisson-cohomology", "payload": SU2_DUAL,
                           "options": {"max_degree": "2"}}),
    "negative-pages": (["momentum-ss", "--slice", "1", "--pages", "-1"],
                       SU2_DUAL),
    "negative-slice": (["momentum-ss", "--slice", "-1"], SU2_DUAL),
    "example-negative-slices": (["compute"],
                                _example_task("poiss1", slices="-1..0")),
    "example-unknown-parameter": (["compute"],
                                  _example_task("weil", symcap=4)),
    "example-roots-number": (["compute"], _example_task("poiss2", roots=1.5)),
    "example-slices-number": (["compute"], _example_task("poiss1", slices=0)),
    "example-fprime-number": (["compute"], _example_task("poiss3", fprime=2)),
    # Nesting deep enough to exhaust the evaluator's recursion, the parser's
    # recursion, or the parser's stack.
    "fprime-deep-evaluation": (["compute"],
                               _example_task("poiss2", fprime="-" * 1000 + "t")),
    "fprime-long-sum": (["compute"],
                        _example_task("poiss2", fprime="+".join(["t"] * 5000))),
    "fprime-deep-parse": (["compute"],
                          _example_task("poiss2", fprime="-" * 3000 + "t")),
    "fprime-parser-stack": (["compute"],
                            _example_task("poiss2", fprime="-" * 50000 + "t")),
    "example-unknown-name": (["compute"], _example_task("nope")),
    # A bound the task does not read is refused, not dropped.
    "option-example-sym-cap": (["compute"], {"kind": "example",
                                             "payload": {"name": "weil"},
                                             "options": {"sym_cap": 1}}),
    "flag-example-task-sym-cap": (["compute", "--sym-cap", "1"],
                                  {"kind": "example",
                                   "payload": {"name": "weil"}}),
    "example-weil-pages": (["example", "weil", "--pages", "3"], NO_FILE),
    "example-weil-slice": (["example", "weil", "--slice", "3"], NO_FILE),
    "lie-cohomology-sym-cap": (["lie-cohomology", "--sym-cap", "9"],
                               {"algebra": SU2}),
    # validate runs the checks compute runs before it starts computing.
    "validate-example-sym-cap": (["validate"],
                                 _example_task("weil", sym_cap="x")),
    "validate-example-unknown-parameter": (["validate"],
                                           _example_task("weil", symcap=4)),
    "validate-example-planes": (["validate"],
                                _example_task("torus", planes=0)),
    "validate-option-example-sym-cap": (["validate"],
                                        {"kind": "example",
                                         "payload": {"name": "weil"},
                                         "options": {"sym_cap": 1}}),
    "validate-option-sym-cap": (["validate"],
                                {"kind": "weil-check",
                                 "payload": {"algebra": SU2},
                                 "options": {"sym_cap": 0}}),
    "validate-lie-cohomology-unknown-key": (
        ["validate"], {"kind": "lie-cohomology",
                       "payload": {"algebra": SU2, "bogus": 1}}),
    "validate-lie-cohomology-coefficients": (
        ["validate"], {"kind": "lie-cohomology",
                       "payload": {"algebra": SU2,
                                   "coefficients": {"type": "bogus"}}}),
    "validate-lie-cohomology-relative": (
        ["validate"], {"kind": "lie-cohomology",
                       "payload": {"algebra": SU2, "relative": [7]}}),
    "validate-lie-cohomology-factorized": (
        ["validate"], {"kind": "lie-cohomology",
                       "payload": {"algebra": SU2, "factorized": 3}}),
    "validate-weil-check-unknown-key": (
        ["validate"], {"kind": "weil-check",
                       "payload": {"algebra": SU2, "symcap": 2}}),
    "validate-weil-check-sym-cap": (
        ["validate"], {"kind": "weil-check",
                       "payload": {"algebra": SU2, "sym_cap": "x"}}),
    "validate-equivariant-poisson-no-action": (
        ["validate"], {"kind": "equivariant-poisson",
                       "payload": {k: v for k, v in SU2_DUAL.items()
                                   if k != "action"}}),
    # A repeated generator index would act twice along one direction.
    "equivariant-poisson-repeated-generator": (
        ["equivariant-poisson", "--slice", "2"],
        dict(SU2_DUAL, action={"algebra": SU2, "generators": [0, 0]})),
    "validate-equivariant-poisson-repeated-generator": (
        ["validate"], {"kind": "equivariant-poisson", "options": {"slice": 2},
                       "payload": dict(SU2_DUAL, action={
                           "algebra": SU2, "generators": [0, 1, 2, 0]})}),
    # The spectral sequence is that of the whole algebra's action, so a
    # generator subset is refused rather than dropped.
    "momentum-ss-generators": (["momentum-ss", "--slice", "1"],
                               SU2_DUAL_CIRCLE),
    "compute-momentum-ss-generators": (
        ["compute"], {"kind": "momentum-ss", "options": {"slice": 1},
                      "payload": SU2_DUAL_CIRCLE}),
    "validate-momentum-ss-generators": (
        ["validate"], {"kind": "momentum-ss", "options": {"slice": 1},
                       "payload": SU2_DUAL_CIRCLE}),
    # Poisson cohomology is computed without the action, so a generator
    # subset is refused rather than ignored.
    "poisson-cohomology-generators": (["poisson-cohomology"],
                                      SU2_DUAL_PLANE),
    "compute-poisson-cohomology-generators": (
        ["compute"], {"kind": "poisson-cohomology",
                      "payload": SU2_DUAL_PLANE}),
    "validate-poisson-cohomology-generators": (
        ["validate"], {"kind": "poisson-cohomology",
                       "payload": SU2_DUAL_PLANE}),
}
# An empty slice list, or one with an empty entry, is refused, not read as
# fewer slices (an empty list used to report "agrees": true having computed
# nothing).
MALFORMED.update({
    f"example-{name}-slices-{label}": (["example", name, "--slices", text],
                                       NO_FILE)
    for name in ("poiss1", "torus")
    for label, text in (("empty", ""), ("comma", ","),
                        ("empty-entry", "1,,2"))})


# Keys that read as one degree or one pair, such as "1" and "01" or "1,0"
# and "1, 0", are refused and not left for the last one to win: in dims, in
# the blocks of d and of the operators, and in the product's degree pairs and
# basis pairs.  validate refuses them as compute does.  The payload file has
# its keys sorted, so the field named is the key that sorts second.
DUPLICATE_KEYS = {
    "dims": ("payload.dims.1", _one_gen(dims={"0": 1, "1": 1, "01": 1})),
    "d": ("payload.d.00", _one_gen(d={"0": [["0"]], "00": [["0"]]})),
    "contractions": ("payload.contractions[0].1",
                     _one_gen(contractions=[{"1": [["1"]], "01": [["1"]]}])),
    "product-degrees": ("payload.product.table.1,0", _with_table(
        {**ONE_GEN["product"]["table"], "1, 0": {"0,0": [[0, "1"]]}})),
    "product-pairs": ("payload.product.table.0,1.0,0", _with_table(
        {**ONE_GEN["product"]["table"],
         "0,1": {"0,0": [[0, "1"]], "0, 0": [[0, "1"]]}})),
}
MALFORMED.update({
    f"{command}-duplicate-{name}": (
        [command], payload if command == "validate"
        else {"kind": "gdiff-check", "payload": payload})
    for name, (_, payload) in DUPLICATE_KEYS.items()
    for command in ("validate", "compute")})


@pytest.mark.parametrize("name", sorted(DUPLICATE_KEYS))
def test_duplicate_key_is_named_in_the_schema_error(name):
    field, payload = DUPLICATE_KEYS[name]
    code, out = run(["gdiff-check"], payload)
    assert code == 2
    assert json.loads(out)["error"]["field"] == field


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_2_as_a_schema_error(name):
    argv, payload = MALFORMED[name]
    code, out = run(argv, payload)
    assert code == 2, out.decode()
    if argv[0] != "validate":
        assert json.loads(out)["error"]["kind"] == "schema"


@pytest.mark.parametrize("command", ["compute", "validate", "lie-cohomology"])
def test_deeply_nested_json_exits_2_as_a_file_error(command, tmp_path):
    """JSON nested beyond the parser's recursion limit is refused as a
    schema error of the file, with no traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([command, str(path)])
    assert code == 2
    assert json.loads(buf.getvalue())["error"]["field"] == "file"


def one_pair_defect():
    """Q + V^1 (dim 400) + Q w^2 + Q z^3 under the zero action of abelian(1),
    with dw = z, a unit and the one product v_3 v_7 = w: 162,409 basis pairs,
    and d breaks the Leibniz rule at the pair (v_3, v_7) alone."""
    dims = {0: 1, 1: 400, 2: 1, 3: 1}
    table = {f"0,{n}": {f"0,{i}": [[i, "1"]] for i in range(k)}
             for n, k in dims.items()}
    table.update({f"{n},0": {f"{i},0": [[i, "1"]] for i in range(k)}
                  for n, k in dims.items() if n})
    table["1,1"] = {"3,7": [[0, "1"]]}
    return {"algebra": {"dim": 1, "brackets": []},
            "dims": {str(n): k for n, k in dims.items()},
            "d": {"2": [["1"]]}, "contractions": [{}], "lie_ops": [{}],
            "product": {"table": table}, "unit": ["1"]}


@pytest.mark.parametrize("argv, wrap", [
    (["gdiff-check"], lambda data: data),
    (["compute"], lambda data: {"kind": "gdiff-check", "payload": data})],
    ids=["gdiff-check", "compute"])
def test_one_pair_leibniz_defect_exits_3_with_its_witness(argv, wrap):
    code, out = run(argv, wrap(one_pair_defect()))
    assert code == 3, out.decode()
    report = json.loads(json.loads(out)["error"]["witness"])
    assert report == {"ok": False, "failures": [
        {"axiom": "d-Leibniz", "generators": [], "degree": 1,
         "basis_index": 3, "other": [1, 7]}]}


def non_associative():
    """The payload of `one_pair_defect` with d = 0 and one more product,
    w v_5 = z: (v_3 v_7) v_5 = z but v_3 (v_7 v_5) = 0, and every other
    axiom holds."""
    data = one_pair_defect()
    data["d"] = {}
    data["product"]["table"]["2,1"] = {"0,5": [[0, "1"]]}
    return data


@pytest.mark.parametrize("argv, wrap", [
    (["gdiff-check"], lambda data: data),
    (["compute"], lambda data: {"kind": "gdiff-check", "payload": data})],
    ids=["gdiff-check", "compute"])
def test_non_associative_product_exits_3_with_its_witness(argv, wrap):
    code, out = run(argv, wrap(non_associative()))
    assert code == 3, out.decode()
    report = json.loads(json.loads(out)["error"]["witness"])
    assert report == {"ok": False, "failures": [
        {"axiom": "associativity", "generators": [], "degree": 1,
         "basis_index": 3, "other": [1, 7, 1, 5]}]}


@pytest.mark.parametrize("terms, failures", [
    ([[0, "1/2"], [0, "1/2"]], []),
    ([[0, "1"], [0, "1"]],
     [{"axiom": "i-Leibniz", "basis_index": 0, "degree": 0,
       "generators": [0], "other": [1, 0]},
      {"axiom": "unit", "basis_index": 0, "degree": 1, "generators": []}])],
    ids=["halves", "twice"])
def test_repeated_term_indices_of_a_pair_add(terms, failures):
    """The terms of one basis pair add up, a repeated index included: with
    1 lambda given as two halves of lambda the unit holds, and given twice
    as lambda it is 2 lambda, and the unit and a Leibniz rule fail."""
    payload = _with_table({**ONE_GEN["product"]["table"],
                           "0,1": {"0,0": terms}})
    code, out = run(["gdiff-check"], payload)
    if failures:
        assert code == 3
        report = json.loads(json.loads(out)["error"]["witness"])
    else:
        assert code == 0
        report = json.loads(out)["result"]
    assert report == {"ok": not failures, "failures": failures}


@pytest.mark.parametrize("name", ["ce-su2", "weil-su2-2",
                                  "ce-su2-weil-su2-2"])
def test_exported_product_parses_back_to_the_built_blocks(name):
    """A product exported as a payload's table and parsed back is the
    builder's: the same degree pairs in the same order, each block equal
    entry for entry, and the same unit."""
    a = gd.ce_gdiff(lie.ce_complex(lie.su2()))
    c = a if name == "ce-su2" else gd.weil_algebra(lie.su2(), 2).gdiff
    if name == "ce-su2-weil-su2-2":
        c = gd.tensor_product(a, c)[0]
    parsed = cli.parse_gdiff(json.loads(json.dumps(gdiff_payload(c))))
    assert list(parsed.product.table.items()) == \
        list(c.product.table.items())
    assert parsed.unit == c.unit


def _failed_check(command, out) -> str:
    """The witness of a math failure: compute's error, or the detail of the
    first failing gate of validate."""
    report = json.loads(out)
    if command == "validate":
        return next(row["detail"] for row in report["result"]["gates"]
                    if not row["ok"])
    return report["error"]["witness"]


# Tasks whose payload parse meets a mathematical defect; compute and
# validate both exit 3, with the witness that starts as given.
MATH_DEFECTS = {
    "relative-not-a-subalgebra": (
        {"kind": "lie-cohomology",
         "payload": {"algebra": SU2, "relative": [0, 1]}},
        "relative generators rejected: not closed under bracket: basis "
        "pair (0,1)"),
    "momentum-not-anti-homomorphism": (
        {"kind": "equivariant-poisson", "options": {"slice": 1},
         "payload": dict(SU2_DUAL, mu=[[{"exponents": unit_exp(3, j),
                                         "coeff": "2"}] for j in range(3)])},
        "generators (0, 1): lift of the bracket is "),
    "action-not-a-subalgebra": (
        {"kind": "equivariant-poisson", "options": {"slice": 1},
         "payload": dict(SU2_DUAL, action={"algebra": SU2,
                                           "generators": [0, 1]})},
        "action generators rejected: not closed under bracket: basis "
        "pair (0,1)"),
    "factorized-not-compact": (
        {"kind": "lie-cohomology",
         "payload": {"algebra": {"dim": 3, "brackets": [[0, 1, [[2, "1"]]]]},
                     "factorized": True}},
        "factorized prediction requires compact_type"),
    "differential-not-square-zero": (
        {"kind": "gdiff-check",
         "payload": {"algebra": {"dim": 0}, "dims": {"0": 1, "1": 1, "2": 1},
                     "d": {"0": [["1"]], "1": [["1"]]}}},
        "differential does not square to zero: (0, [[1]])"),
}


@pytest.mark.parametrize("command", ["compute", "validate"])
@pytest.mark.parametrize("name", sorted(MATH_DEFECTS))
def test_task_math_defect_exits_3(name, command):
    task, witness = MATH_DEFECTS[name]
    code, out = run([command], task)
    assert code == 3, out.decode()
    assert _failed_check(command, out).startswith(witness)


# x_2 d0^d1 + x_1 d1^d2 is not Poisson: [pi, pi] = 2 x_2 d0^d1^d2.
NOT_POISSON = {"ambient": 3, "maxdeg": 1,
               "pi": [[[0, 1], {"exponents": [0, 0, 1], "coeff": "1"}],
                      [[1, 2], {"exponents": [0, 1, 0], "coeff": "1"}]]}


@pytest.mark.parametrize("command", ["poisson-cohomology", "validate"])
def test_uncertified_bivector_has_one_witness(command):
    code, out = run([command], NOT_POISSON)
    assert code == 3, out.decode()
    assert _failed_check(command, out) == (
        "the bivector does not self-commute; defect "
        "{((0, 1, 2), (0, 0, 1)): Fraction(2, 1)}")


# Checks met while computing, or while parsing where validate must agree:
# argv, payload builder or None, and the defect of tests/test_guards.py or
# None that makes each fire, with the witness of its exit 3.
COMPUTE_CHECKS = {
    "duplicate-roots": (
        ["example", "poiss2", "--roots", "0,0,1"], None, None,
        "roots (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)) contain "
        "repeats"),
    "compute-duplicate-roots": (
        ["compute"], lambda: _example_task("poiss2", roots="0,0,1"), None,
        "roots (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)) contain "
        "repeats"),
    "validate-duplicate-roots": (
        ["validate"], lambda: _example_task("poiss2", roots="0,0,1"), None,
        "roots (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)) contain "
        "repeats"),
    "factorization-mismatch": (
        ["lie-cohomology"], CASES["lie-cohomology-relative"][1],
        "factorization-mismatch",
        "factorization mismatch: ({0: 1, 1: 0, 2: 1, 3: 0}, "
        "{0: 2, 1: 0, 2: 2, 3: 0})"),
}


@pytest.mark.parametrize("name", sorted(COMPUTE_CHECKS))
def test_compute_check_exits_3_with_its_witness(monkeypatch, name):
    argv, build, guard, witness = COMPUTE_CHECKS[name]
    if guard is not None:
        module, attr, make = GUARDS[guard][0]
        monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    code, out = run(argv, build() if build is not None else NO_FILE)
    assert code == 3, out.decode()
    assert _failed_check(argv[0], out) == witness


# The window [0, 0] of a tilt-1 model holds only the constants, where the
# contraction with a constant lifted form vanishes: slice 0 computes what
# truncation 0 computes, and slice 1 is refused.
CONSTANT_LIFT = dict(CIRCLE_Q2, action={"algebra": {"dim": 1}},
                     mu=[[{"exponents": [1, 0], "coeff": "1"}]])


def test_slice_zero_of_a_constant_lift_computes_the_window():
    slice_code, slice_out = run(["momentum-ss", "--slice", "0"],
                                CONSTANT_LIFT)
    trunc_code, trunc_out = run(["momentum-ss", "--max-degree", "0"],
                                CONSTANT_LIFT)
    assert slice_code == 0, slice_out.decode()
    assert trunc_code == 0, trunc_out.decode()
    assert (json.loads(slice_out)["result"]["pages"]
            == json.loads(trunc_out)["result"]["pages"])
    code, out = run(["momentum-ss", "--slice", "1"], CONSTANT_LIFT)
    assert code == 3, out.decode()
    assert json.loads(out)["error"]["kind"] == "math"


def test_false_verdict_exits_3_with_the_full_report():
    code, out = run(["momentum-ss", "--slice", "0"],
                    dict(CIRCLE_Q2, submersive=True))
    assert code == 3, out.decode()
    report = json.loads(out)
    assert report["kind"] == "momentum-ss"
    assert report["result"]["e1_matches"] is False
    assert report["result"]["pages"]


@pytest.mark.parametrize("guard, name", [
    ("basic-mismatch", "BasicMismatch"), ("not-convergent", "NotConvergent")])
def test_program_defect_exits_3_naming_its_class(monkeypatch, guard, name):
    """A check of the program's own results that fails on accepted input
    (here made to fail by the defects of tests/test_guards.py) exits 3 with
    a math error, not a traceback."""
    module, attr, make = GUARDS[guard][0]
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    code, out = run(["momentum-ss", "--slice", "2"], SU2_DUAL)
    assert code == 3, out.decode()
    error = json.loads(out)["error"]
    assert error["kind"] == "math"
    assert error["witness"].startswith(f"{name}: ")


@pytest.mark.parametrize("argv, build", [
    (["example", "torus"], None),
    (["compute"], lambda: _example_task("torus")),
    (["equivariant", "--sym-cap", "2"], ce_su2_export)],
    ids=["example", "compute", "equivariant"])
def test_out_of_memory_exits_2_with_a_schema_error(monkeypatch, argv, build):
    """A builder that runs out of memory ends in exit 2 with a short schema
    error, not a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(gd, "cartan_model", exhausted)
    code, out = run(argv, build() if build is not None else NO_FILE)
    assert code == 2, out.decode()
    assert json.loads(out) == {"error": {
        "code": 2, "kind": "schema", "field": "input",
        "message": "too large: the computation ran out of memory"}}


def test_bounded_cartan_builds_match_the_full_builds(monkeypatch):
    """Every equivariant cohomology that the poiss1 (slices 0..6, sym caps
    1-3), torus and equivariant-poisson reports read is built through the
    band 2 sym_cap; its dims there equal those of the full build, which
    computes every degree of the model, and the next degree is refused.
    The reports still agree."""
    build = gd.equivariant_cohomology
    bands = []

    def both(c, sym_cap, through=None):
        h = build(c, sym_cap, through)
        assert through == h.band == 2 * sym_cap
        full = build(c, sym_cap)
        assert h.dims_list() == full.dims_list()
        assert h.to_json()["dims"] == {
            n: d for n, d in full.to_json()["dims"].items()
            if int(n) <= through}
        assert h.model.model_space.degrees() == [
            n for n in full.model.model_space.degrees() if n <= through + 1]
        with pytest.raises(ValueError, match="not computed"):
            h.dim(through + 1)
        full.dim(through + 1)
        bands.append(through)
        return h

    monkeypatch.setattr(gd, "equivariant_cohomology", both)
    for cap in (1, 2, 3):
        argv = ["example", "poiss1", "--slices", "0..6", "--sym-cap", str(cap)]
        code, out = run(argv)
        assert code == 0, out.decode()
    for argv, build_payload, _ in (CASES["example-torus"],
                                   CASES["equivariant-poisson-subalgebra"],
                                   CASES["equivariant-poisson-constant"]):
        code, out = run(argv, build_payload() if build_payload else NO_FILE)
        assert code == 0, out.decode()
    assert bands == [2] * 7 + [4] * 7 + [6] * 7 + [4] * 4 + [4, 4]


@pytest.mark.parametrize("brackets, witness", [
    ([[0, 0, [[1, "1"]]]], "[e_0, e_0] != 0"),
    ([[0, 1, [[0, "1"]]], [1, 0, [[0, "1"]]]], "inconsistent (1,0) vs (0,1)")],
    ids=["diagonal", "conflict"])
def test_antisymmetry_violation_exits_3_with_its_witness(brackets, witness):
    code, out = run(["lie-cohomology"],
                    {"algebra": {"dim": 2, "brackets": brackets}})
    assert code == 3, out.decode()
    assert json.loads(out)["error"] == {
        "code": 3, "kind": "math",
        "witness": f"bracket table rejected: {witness}"}


_UNPARSABLE = [("poiss2", "fprime", "t+" * 20000),
               ("poiss1", "slices", "0," * 20000 + "x"),
               ("poiss2", "roots", "x" * 40000)]


# A report echoing the input in full would be over 40 kB; the bounds leave
# room for each command's envelope and a 60-character excerpt.
@pytest.mark.parametrize("command, example, parameter, text", [
    (command,) + case for command in ("compute", "validate")
    for case in _UNPARSABLE],
    ids=[prefix + case[1] for prefix in ("", "validate-")
         for case in _UNPARSABLE])
def test_unparsable_parameter_is_not_echoed_in_full(command, example,
                                                     parameter, text):
    code, out = run([command], _example_task(example, **{parameter: text}))
    assert code == 2
    assert len(out) < {"compute": 400, "validate": 600}[command], len(out)


# Leaves and subtrees a mutation may put anywhere in a payload: small
# integers (dims stay small), rational strings, malformed keys and shapes.
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4),
    st.sampled_from(["1", "-1/2", "0", "x", "1/0", "", "0,0", "x,0", "1,2,3",
                     "0,1", "2"]))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["0", "1", "0,0", "0,1", "x"]),
                        inner, max_size=2)),
    max_leaves=6)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for t, value in enumerate(obj):
            yield from _paths(value, prefix + (t,))


def _mutate(data, path, value, delete):
    if not path:
        return value
    out = copy.deepcopy(data)
    node = out
    for key in path[:-1]:
        node = node[key]
    if delete and isinstance(node, dict):
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


_BASES = (ONE_GEN, ce_su2_export())


@seed(20260101)
@settings(max_examples=150, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate, Phase.shrink),
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_payloads_exit_0_2_or_3(data):
    base = data.draw(st.sampled_from(_BASES))
    paths = list(_paths(base))
    path = data.draw(st.sampled_from(paths))
    value = data.draw(_VALUES)
    payload = _mutate(base, path, value, data.draw(st.booleans()))
    for command in ("gdiff-check", "validate"):
        code, _ = run([command], payload)
        assert code in (0, 2, 3)


def test_no_assert_statements_in_the_package():
    """`python -O` strips `assert` statements, so a check written as one
    would silently stop running there; every check raises instead."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found


def test_checks_still_raise_under_optimized_python():
    """The checks are exceptions, not asserts: `python -O` keeps them."""
    script = (
        "from equicoh import core, ratlin\n"
        "sp = core.GradedSpace.from_dims({0: 1})\n"
        "other = core.GradedSpace.from_dims({0: 2})\n"
        "one = core.LinearMap.from_blocks(sp, sp, 0, {0: [[1]]})\n"
        "two = core.LinearMap.from_blocks(other, other, 0,\n"
        "                                 {0: [[1, 0], [0, 1]]})\n"
        "checks = [lambda: ratlin.mat_mul(ratlin.freeze([[1, 2]]),\n"
        "                                 ratlin.freeze([[1, 2]])),\n"
        "          lambda: one.compose(two),\n"
        "          lambda: core.CochainComplex.build(sp, one)]\n"
        "for check in checks:\n"
        "    try:\n"
        "        check()\n"
        "    except ValueError as exc:\n"
        "        print(type(exc).__name__)\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["ShapeMismatch", "ShapeMismatch",
                                  "ValueError"]
