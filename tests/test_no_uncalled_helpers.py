"""Every function, class and method of the package has a caller.

An AST scan collects the top-level functions and classes of
``src/nerveforge`` and the methods of those classes, and every name that
code in ``src/`` or ``perfbench/`` mentions, except ``perfbench/tracing.py``:
the tracer wraps functions to measure them and calls none for a result, so
a definition that only the tracer names, by string or by attribute, needs a
``TRACER`` entry in ``KEPT``. A definition is uncalled when no mention of
its kind matches it; its own ``def`` or ``class`` line is not a mention:

- a top-level function or class is called when an attribute or an
  imported name has its name, or a bare name does in the module that
  defines it or in a module that imports it from there: a local variable
  of the same name elsewhere is no call;
- a ``staticmethod`` is called only when it is named through its class,
  ``Class.name`` (or ``module.Class.name``);
- any other method is called only through an attribute, ``x.name``: a local
  variable of the same name is no call.

Dunder methods are left out, since Python calls them. Tests do not count as
callers: a helper that only a test needs lives in the test.

What the scan still cannot see: an instance method that shares its name
with a method of another class that is called, and a top-level definition
that shares its name with an attribute, or with a name imported from
elsewhere. Such a pair passes as long as one of the two is called, so those
were checked by hand.

``KEPT`` lists the definitions that stay without a caller in the package,
each with its reason. An entry that gains a caller, or whose definition is
gone, fails the scan too, so the list cannot go stale.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nerveforge"

TRACING = ROOT / "perfbench" / "tracing.py"
TRACER = "looked up by name in perfbench/tracing.py"
CHECK = "public check that the in-package verifier is to run (ROADMAP item 2)"
KEPT = {
    "euclid.solve_rational": TRACER,
    "homology.chain_map_of_simplicial": TRACER,
    "nilpotent.unitriangular_log": TRACER,
    "periodic.CoverWindow": TRACER + "; the tests compare cover_lift_check with the "
                                     "cover windows it builds",
    "nilpotent.elementary": "imported by tests/test_perfbench_tracer.py, kept as the tracer is",
    "simplicial.SimplicialComplex.from_simplices": "the validating constructor for simplex "
                                                   "lists from outside the package",
    "euclid.AffineSubspace.of": "the public constructor of a subspace from a base point "
                                "and directions; the package builds its own from int forms",
    "scenarios.Scenario.to_json": "writes the scenario envelope that the CLI is to read",
    "scenarios.Scenario.from_json": "reads the scenario envelope; malformed input is tested",
    "clumps.intersection_formula_check": CHECK,
    "clumps.growing_ranks_check": CHECK,
    "clumps.patch_union_decomposition_ok": CHECK,
    "euclid.subadditivity_check": CHECK,
}


def _is_static(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def definitions():
    """``module.name`` or ``module.Class.method`` -> ``(kind, class, name)``,
    with kind ``"top"``, ``"static"`` or ``"method"``."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[f"{path.stem}.{node.name}"] = ("top", None, node.name)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                        kind = "static" if _is_static(sub) else "method"
                        out[f"{path.stem}.{node.name}.{sub.name}"] = (kind, node.name, sub.name)
    return out


def mentions():
    """(``(file, bare name)`` pairs, imported names, attribute names,
    ``(owner, attribute)`` pairs) that code in ``src/`` or ``perfbench/``
    mentions; the owner of ``a.b.c`` is ``b``."""
    names, imported, attrs, owned = set(), set(), set(), set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        if path == TRACING:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add((path, node.id))
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                owner = node.value
                if isinstance(owner, ast.Name):
                    owned.add((owner.id, node.attr))
                elif isinstance(owner, ast.Attribute):
                    owned.add((owner.attr, node.attr))
            elif isinstance(node, ast.alias):
                imported.add(node.name)
    return names, imported, attrs, owned


def test_every_definition_has_a_caller_or_a_reason():
    names, imported, attrs, owned = mentions()

    def called(key, kind, cls, name):
        if kind == "static":
            return (cls, name) in owned
        if kind == "method":
            return name in attrs
        # a module that imports the name mentions it in the import
        home = PACKAGE / f"{key.split('.')[0]}.py"
        return (home, name) in names or name in imported or name in attrs

    uncalled = {key for key, how in definitions().items() if not called(key, *how)}
    assert sorted(uncalled - KEPT.keys()) == [], "uncalled: delete it or move it to the tests"
    assert sorted(KEPT.keys() - uncalled) == [], "stale entry: it has a caller or is gone"
