"""The four benchmark workloads: how each builds its inputs, solves, and
checks its answer against an independent prediction.

Each workload reads its inputs from ``inputs/<name>.json`` beside this file.
``setup`` imports ``equicoh`` and builds the inputs (this is what a user pays
on every call); ``solve`` runs from ready inputs to a checked answer and
returns an ``Outcome`` whose ``output`` is the mathematical output that the
reference digest covers.

Why these four (shares profiled at the seed commit, see README.md):

* ``weil-check``: the Weil-algebra axiom check (``gdiff._check_leibniz``
  about 94%, ``LinearMap.block`` copies about 36%); elimination under 1%.
* ``cartan-slices``: Cartan models of the su(2) momentum data; few large
  sparse eliminations (``rref`` about 61%) and the ``core`` write path.
* ``ss-pages``: every page of the contraction filtration of
  CE(su2) x W(su2, 2); thousands of small eliminations through
  ``Subspace``/``subquotient``/``project``.
* ``poisson-identities``: the polynomial calculus (``poly``, ``schouten``,
  ``d_pi``) with no elimination at all; the only seeded inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from typing import NamedTuple

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")

NAMES = ("weil-check", "cartan-slices", "ss-pages", "poisson-identities")

# Only poisson-identities draws its inputs from the benchmark seed; the other
# three solve fixed mathematical problems whatever the seed.
SEEDED = frozenset({"poisson-identities"})


class Outcome(NamedTuple):
    output: object   # the mathematical output, covered by the digest
    agrees: bool     # every computed value matches its prediction
    detail: str      # why it does not agree, empty when it does


def canonical_digest(obj) -> str:
    """SHA-256 of the canonical JSON of a mathematical output."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_spec(name: str) -> dict:
    with open(os.path.join(INPUTS, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(name: str, spec: dict, seed: int) -> dict:
    """Import the program and build the workload's inputs."""
    from equicoh import cli, lie, poisson

    if name in ("weil-check", "cartan-slices"):
        return {"argv": [str(a) for a in spec["argv"]]}
    if name == "ss-pages":
        return {"algebra": cli.parse_algebra(spec["algebra"]),
                "cap": int(spec["weil_sym_cap"])}
    if name == "poisson-identities":
        structures = []
        for entry in spec["structures"]:
            if "linear" in entry:
                p = poisson.linear_poisson(cli.parse_algebra(entry["linear"]))
            else:
                p = poisson.symplectic_poisson(int(entry["symplectic_planes"]))
            structures.append((entry["name"], p))
        return {"structures": structures, "samples": int(spec["samples"]),
                "seed": seed}
    raise KeyError(f"unknown workload {name!r}")


def solve(name: str, state: dict) -> Outcome:
    if name in ("weil-check", "cartan-slices"):
        return _solve_cli(state["argv"])
    if name == "ss-pages":
        return _solve_ss_pages(state["algebra"], state["cap"])
    if name == "poisson-identities":
        return _solve_identities(state["structures"], state["samples"],
                                 state["seed"])
    raise KeyError(f"unknown workload {name!r}")


def _solve_cli(argv: list) -> Outcome:
    """One ``equicoh`` command; its report carries computed, predicted and
    ``agrees``."""
    from equicoh import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        return Outcome(None, False, f"equicoh exited with code {code}")
    result = json.loads(buf.getvalue())["result"]
    agrees = result.get("agrees") is True
    return Outcome(result, agrees, "" if agrees else "agrees: false")


def _solve_ss_pages(g, cap: int) -> Outcome:
    """Pages of the contraction filtration of CE(g) x W(g, cap), checked as
    in test_contraction_filtration_weil_tensor_band: E_1 is H(g) times the
    basic cochains, E_2 in the band is H(g) times the equivariant cohomology
    of CE(g), and the limit in the band is H(g)."""
    from equicoh import gdiff, lie, spectral

    a = gdiff.ce_gdiff(lie.ce_complex(g, lie.trivial_rep(g)))
    w = gdiff.weil_algebra(g, cap)
    big, _ = gdiff.tensor_product(a, w.gdiff, check=False)
    pgs = spectral.pages(spectral.contraction_filtration(big))

    basic, _ = gdiff.basic_subcomplex(big)
    hg = lie.lie_cohomology(g, lie.trivial_rep(g)).dims
    eq = gdiff.equivariant_cohomology(a, cap)
    band = 2 * cap
    problems = []
    expected1 = {(p, q): hg[q] * basic.space.dim(p)
                 for p in basic.space.degrees() for q in hg
                 if hg[q] * basic.space.dim(p)}
    if len(pgs) < 3 or pgs[1].cells != expected1:
        problems.append("E_1 differs from H(g) x basic cochains")
    else:
        for p in range(band + 1):
            for q in hg:
                if pgs[2].dim(p, q) != hg[q] * eq.dim(p):
                    problems.append(f"E_2 cell ({p},{q}) differs")
    final = pgs[-1]
    if not final.stable:
        problems.append("the last page is not stable")
    limit = [final.antidiagonal(n) for n in range(band + 1)]
    if limit != [hg.get(n, 0) for n in range(band + 1)]:
        problems.append(f"limit {limit} differs from H(g) in the band")
    output = {"pages": [page.to_json() for page in pgs]}
    return Outcome(output, not problems, "; ".join(problems))


def _solve_identities(structures: list, samples: int, seed: int) -> Outcome:
    """Every registered identity of the Poisson calculus on every structure,
    at ``samples`` seeded inputs each."""
    from equicoh import poisson

    output, problems = {}, []
    for label, p in structures:
        reports = poisson.verify_all(p, samples=samples, seed=seed)
        output[label] = {k: rep.to_json() for k, rep in reports.items()}
        for k, rep in reports.items():
            if not rep.ok or rep.checked != samples:
                problems.append(f"{label}: {k}")
    return Outcome(output, not problems, "; ".join(problems))
