"""No computed result outlives the object that computed it.

An AST scan of ``src/nerveforge``: a top-level function or a method may be
decorated with ``functools.cache`` or ``lru_cache`` only when it takes no
parameters, so the memo holds one constant. A memo keyed by arguments
would live for the whole process, and the time of a call would depend on
the calls made before it. Per-object results belong on the object
(``cached_property``), and per-call ones in a local. The clump calculus,
whose lattice results such a memo once kept, has no module-level state.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "nerveforge"
MEMOS = {"cache", "lru_cache"}


def _is_memo(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in MEMOS
    return isinstance(decorator, ast.Name) and decorator.id in MEMOS


def _takes_parameters(fn) -> bool:
    a = fn.args
    return bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)


def functions(tree):
    """(name, node) of the top-level functions and the methods of top-level
    classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def test_no_memo_keyed_by_arguments():
    keyed = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, fn in functions(ast.parse(path.read_text()))
        if any(_is_memo(d) for d in fn.decorator_list) and _takes_parameters(fn)
    ]
    assert keyed == []


def test_clumps_keeps_no_module_level_state():
    tree = ast.parse((PACKAGE / "clumps.py").read_text())
    assert not [n for n in tree.body if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))]
