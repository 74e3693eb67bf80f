"""Every public module-level function and class of `equicoh` has a caller in
`src/`, or a line in KEPT saying why it stays without one."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "equicoh"

KEPT = {
    # library functions that check a statement of the paper
    "verify_cartan_d2": "the second-page differential of the symmetric-degree "
                        "filtration is the Cartan twist on leading terms",
    "poisson_low_degree": "low-degree equivariant Poisson cohomology: closed "
                          "invariant functions, and horizontal closed "
                          "one-fields modulo d of invariant functions",
    "invariance_comparison": "on the kernel of the contractions the module "
                             "action of a lifted form is the Lie derivative "
                             "along its anchor field",
    "poisson_to_lie_matrices": "Poisson cohomology of a linear structure maps "
                               "to Lie algebra cohomology",
    "forgetful_matrices": "the forgetful map from equivariant cohomology to "
                          "the cohomology of the complex",
    "weil_universal_map": "a connection induces a G-map from the Weil algebra",
    "sub_gdiff": "a stable subspace of a G-differential complex is one",
    "quotient_gdiff": "the quotient by a stable subspace is a G-differential "
                      "complex",
    "coboundary_bialgebra": "an r-matrix gives a Lie bialgebra",
    "sym_range_rep": "the coadjoint action on S(g*) in a range of degrees",
    "cartan_weil_inclusion": "the Cartan model embeds into the basic part of "
                             "A (x) W (Mathai-Quillen)",
    "locally_free_connection": "a locally free action admits a connection",
    # library entry points and building blocks
    "ce_gdiff": "a CE complex as a G-differential complex",
    "trivial_action_gdiff": "a complex with the zero action",
    "symdegree_filtration": "the symmetric-degree filtration of a Cartan model",
    "verify_all": "the Poisson identities, run by the benchmark",
    "zero_poisson": "the zero bivector",
    "adjoint_rep": "the adjoint representation",
    "coadjoint_rep": "the coadjoint representation",
    "heisenberg": "a named example algebra beside su2; the benchmark tests "
                  "build on it",
    "sl2": "a named example algebra beside su2",
}


def _definitions():
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    return trees, [node for tree in trees for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")]


def _names(tree) -> Counter:
    """How often each name is read, as a Name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_definition_has_a_caller_or_a_reason():
    trees, defs = _definitions()
    total = sum(map(_names, trees), Counter())
    uncalled = sorted(node.name for node in defs if node.name not in KEPT
                      and total[node.name] == _names(node)[node.name])
    assert not uncalled, f"no caller in src/: {uncalled}"


def test_every_kept_name_is_defined():
    _, defs = _definitions()
    assert len(defs) > 100
    assert set(KEPT) <= {node.name for node in defs}
