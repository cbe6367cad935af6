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
