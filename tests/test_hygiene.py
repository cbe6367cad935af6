"""Static checks over the package sources."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "powertree"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (`__future__` imports aside)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nprint(np.pi, e)\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 1)"]


def test_package_has_no_unused_imports():
    # __init__.py imports to re-export
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_tracer_names_resolve():
    # the benchmark tracer wraps these names by lookup; a rename or deletion
    # in the package would otherwise surface only when tracing
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        (modname, name) for modname, name, _ in tracer.WRAPPED
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert missing == []
    from powertree.instance import Instance
    assert callable(getattr(Instance, "with_costs", None))


# Functions allowed to call themselves, each with its depth bound.
RECURSIVE_ALLOWED = {
    # one level per topology edge: at most 5 (|Q| = 4, at most 6 nodes)
    "_assemble.place",
    # one level per decided edge: at most the edge count of an instance
    # within `node_guard` nodes
    "exact_min_power.recurse",
    # one nested call: `reduction-wrapped` generates its uniform-random base
    "generate",
}


def callee(node) -> str | None:
    """The name a call node invokes as f(...), self.f(...) or cls.f(...)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
        return func.attr
    return None


def self_calling_functions(source: str) -> list[str]:
    """Dotted names of the functions whose bodies call themselves by name."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix)
                continue
            name = prefix + [child.name]
            if not isinstance(child, ast.ClassDef) and any(callee(n) == child.name for n in ast.walk(child)):
                found.append(".".join(name))
            visit(child, name)

    visit(ast.parse(source), [])
    return found


def test_self_calls_detected():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    def h():\n        h()\n    return h\n"
        "class C:\n    def m(self):\n        self.m()\n    def k(self):\n        other.k()\n"
    )
    assert self_calling_functions(source) == ["f", "g.h", "C.m"]


def test_recursion_only_where_depth_is_bounded():
    # deep inputs must not reach Python's recursion limit
    found = {name for path in sorted(SRC.glob("*.py")) for name in self_calling_functions(path.read_text())}
    assert found - RECURSIVE_ALLOWED == set()
