"""Every public module-level function and class of `equicoh` has a caller in
`src/`, or a line in KEPT saying why it stays without one; every public
method has a caller in `src/` or in the benchmark's modules; every parameter
with a default is set by some call in `src/`, or has a line in KEPT_PARAMS
saying why it stays; and every module-level import is read in its module.
A line of KEPT or KEPT_PARAMS whose name gained a caller, or whose parameter
some call now sets, fails too, so both lists only shrink."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "equicoh"
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

KEPT = {
    # library functions that check a statement of the paper
    "verify_cartan_d2": "the second-page differential of the symmetric-degree "
                        "filtration is the Cartan twist on leading terms",
    "poisson_low_degree": "low-degree equivariant Poisson cohomology: closed "
                          "invariant functions, and horizontal closed "
                          "one-fields modulo d of invariant functions",
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


# "module.function(parameter)" -> why the default stays although no call in
# src/ sets the parameter.
KEPT_PARAMS = {
    "cli._example_task(opts)": "called through `_KIND_TASKS`",
    "cli.gate(check)": "binds the loop's check in the closure",
    "cli.main(argv)": "the console script reads sys.argv; tests and the "
                      "benchmark pass argv",
    "gdiff.ce_gdiff(acting)": "tests view a CE complex under a subalgebra",
    "poisson.momentum_setup(one_forms)": "tests check the refusal of "
                                         "inconsistent lifted one-forms",
    "poisson.momentum_setup(cobracket)": "tests check the refusal of "
                                         "inconsistent cobrackets",
    "poisson.momentum_setup(action_fields)": "tests check the refusal of "
                                             "inconsistent action fields",
    "poisson.verify_all(samples)": "the benchmark and tests choose the sample "
                                   "count",
    "poisson.verify_all(seed)": "the benchmark and tests choose the seed",
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


def _uncalled() -> set:
    """The public module-level definitions whose name is read nowhere in
    src/ outside their own body."""
    trees, defs = _definitions()
    total = sum(map(_names, trees), Counter())
    return {node.name for node in defs
            if total[node.name] == _names(node)[node.name]}


def test_every_public_definition_has_a_caller_or_a_reason():
    uncalled = sorted(_uncalled() - set(KEPT))
    assert not uncalled, f"no caller in src/: {uncalled}"


def test_every_kept_name_still_has_no_caller():
    called = sorted(set(KEPT) - _uncalled())
    assert not called, f"called in src/, so KEPT gives a stale reason: {called}"


def test_every_public_method_has_a_caller():
    """A public method of a class in src/, private classes included, is
    called when its name is read outside its own body: in src/, or in the
    benchmark's modules, which read sizes off the results.  Names are read
    without their class, so a read counts for every method of that name."""
    trees, _ = _definitions()
    bench = [ast.parse(path.read_text()) for path in BENCH.glob("*.py")
             if not path.name.startswith("test_")]
    total = sum(map(_names, trees + bench), Counter())
    uncalled = sorted(
        f"{cls.name}.{node.name}" for tree in trees for cls in tree.body
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and total[node.name] == _names(node)[node.name])
    assert not uncalled, f"no caller in src/ or bench/: {uncalled}"


def test_every_kept_name_is_defined():
    _, defs = _definitions()
    assert len(defs) > 100
    assert set(KEPT) <= {node.name for node in defs}


def _defaulted_params():
    """{"module.function(parameter)": (function, parameter, position)} for
    every parameter with a default.  The position counts from the first
    argument a call passes, so a method's `self` or `cls` has none; a
    keyword-only parameter has position None."""
    out = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            pos = args.posonlyargs + args.args
            bound = int(bool(pos) and pos[0].arg in ("self", "cls"))
            defaulted = [(i - bound, a) for i, a in enumerate(pos)
                         if i >= len(pos) - len(args.defaults)]
            defaulted += [(None, a) for a, d in zip(args.kwonlyargs,
                                                   args.kw_defaults)
                          if d is not None]
            for i, a in defaulted:
                out[f"{path.stem}.{node.name}({a.arg})"] = (node.name, a.arg,
                                                           i)
    return out


def _constructors(trees) -> set:
    """Names of the classes in src/ that define `__init__` or inherit one
    from a class in src/: a call of such a class calls that `__init__`."""
    classes = {node.name: node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def has_init(name):
        node = classes.get(name)
        return node is not None and (
            any(isinstance(b, ast.FunctionDef) and b.name == "__init__"
                for b in node.body)
            or any(isinstance(b, ast.Name) and has_init(b.id)
                   for b in node.bases))
    return {name for name in classes if has_init(name)}


def _set_params(trees) -> set:
    """(function name, parameter name or position) for what some call sets;
    a call with *args sets every position ("*"), one with **kwargs every
    keyword ("**")."""
    inits = _constructors(trees)
    out = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)
        name = "__init__" if name in inits else name
        if any(isinstance(a, ast.Starred) for a in node.args):
            out.add((name, "*"))
        out.update((name, i) for i in range(len(node.args)))
        out.update((name, k.arg or "**") for k in node.keywords)
    return out


def _unset_params() -> set:
    """The defaulted parameters that no call in src/ sets."""
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    calls = _set_params(trees)
    return {key for key, (fn, param, pos) in _defaulted_params().items()
            if not {(fn, param), (fn, pos), (fn, "*"), (fn, "**")} & calls}


def test_every_defaulted_parameter_is_set_or_has_a_reason():
    unset = sorted(_unset_params() - set(KEPT_PARAMS))
    assert not unset, f"no call in src/ sets: {unset}"


def test_every_kept_parameter_is_defaulted():
    assert set(KEPT_PARAMS) <= set(_defaulted_params())


def test_every_kept_parameter_is_still_unset():
    now_set = sorted(set(KEPT_PARAMS) & set(_defaulted_params())
                     - _unset_params())
    assert not now_set, \
        f"set by a call in src/, so KEPT_PARAMS gives a stale reason: {now_set}"


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                unused += [f"{path.stem}: {name}" for name in (
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names) if name not in read]
    assert not unused, f"imported and never read: {unused}"
