"""The package's public surface: no exported name without a use or a reason."""

import ast
import pathlib

import cmvlq

SRC = pathlib.Path(cmvlq.__file__).parent

# exported names that no module of the package uses, each with why it stays
UNUSED_EXPORTS = {
    "backend": "perfbench/run.py records the resolved backend in its manifest",
    "pathwise_cost": "the public per-path cost, which the Monte Carlo drivers' fused costs "
                     "equal bit for bit (tests/test_verify.py); perfbench/spans.py times it",
    "recover_original": "the paper's interbank control in its original variable, which "
                        "acceptance criterion 2 checks",
    "restart_continuation": "the flow property on a held trajectory: the reference that "
                            "verify.flow_restarts' digests equal (tests/test_verify.py)",
    "simulate_path": "one scenario with every node held, the per-path reference of the "
                     "streamed drivers (tests/test_verify.py); perfbench/spans.py times it",
}


def exported_names():
    """Names __init__.py imports from the package's modules or defines itself."""
    names = set()
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def references(tree):
    """Names a module uses, bare or as an attribute of a package module it imports.

    A use inside the top-level function or class that defines the name
    (a recursive call, a method that builds its own class) does not count.
    """
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}
    used = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                  and child.value.id in modules):
                name = child.attr
            if name is not None and name != owner:
                used.add(name)
            top = owner is None and isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, child.name if top else owner)

    visit(tree, None)
    return used


def test_every_export_has_a_use_or_a_reason():
    exported = exported_names()
    used = set()
    for path in SRC.glob("*.py"):
        used |= references(ast.parse(path.read_text()))
    assert sorted(exported - used - set(UNUSED_EXPORTS)) == []
    # the table names only exports that still need a reason
    assert sorted(set(UNUSED_EXPORTS) - exported) == []
    assert sorted(set(UNUSED_EXPORTS) & used) == []


def test_references_skip_the_own_definition():
    tree = ast.parse("from . import riccati as r\n"
                     "def f(n):\n    return f(n - 1)\n"
                     "class C:\n    def make(self):\n        return C()\n"
                     "def g():\n    return r.solve(), r.h.k\n")
    assert references(tree) == {"n", "r", "solve", "h"}
