"""Every function, class and method of the package has a caller.

An AST scan collects the top-level functions and classes of
``src/nerveforge`` and the methods of those classes, and every name that
code in ``src/`` or ``perfbench/`` mentions: a variable, an attribute or an
imported name. A definition is uncalled when no such mention matches it;
its own ``def`` or ``class`` line is not a mention. Dunder methods are left
out, since Python calls them. Tests do not count as callers: a helper that
only a test needs lives in the test.

``KEPT`` lists the definitions that stay without a caller in the package,
each with its reason. An entry that gains a caller, or whose definition is
gone, fails the scan too, so the list cannot go stale.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nerveforge"

TRACER = "looked up by name in perfbench/tracing.py"
CHECK = "public check that the in-package verifier is to run (ROADMAP item 2)"
FIXTURE = "stock complex for scenario generators and tests"
KEPT = {
    "snf.rational_rank": TRACER,
    "euclid.solve_rational": TRACER,
    "nilpotent.unitriangular_log": TRACER,
    "nilpotent.elementary": "imported by tests/test_perfbench_tracer.py, kept as the tracer is",
    "simplicial.SimplicialComplex.from_simplices": "the validating constructor from "
                                                   "a full simplex list (ROADMAP item 3)",
    "scenarios.Scenario.to_json": "writes the scenario envelope that the CLI is to read",
    "scenarios.Scenario.from_json": "reads the scenario envelope; malformed input is tested",
    "clumps.intersection_formula_check": CHECK,
    "clumps.growing_ranks_check": CHECK,
    "clumps.patch_union_decomposition_ok": CHECK,
    "euclid.subadditivity_check": CHECK,
    "construct.full_simplex": FIXTURE,
    "construct.simplex_boundary_complex": FIXTURE,
    "construct.torus_7": FIXTURE,
    "construct.projective_plane_6": FIXTURE,
    "construct.cycle_complex": FIXTURE,
    "construct.annulus": FIXTURE,
    "construct.disk_on_circle": FIXTURE,
}


def definitions():
    """``module.name`` or ``module.Class.method`` -> the name callers use."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                        out[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return out


def mentioned_names():
    names = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_definition_has_a_caller_or_a_reason():
    defs = definitions()
    mentioned = mentioned_names()
    uncalled = {key for key, name in defs.items() if name not in mentioned}
    assert sorted(uncalled - KEPT.keys()) == [], "uncalled: delete it or move it to the tests"
    assert sorted(KEPT.keys() - uncalled) == [], "stale entry: it has a caller or is gone"
