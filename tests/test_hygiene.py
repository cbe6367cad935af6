"""Static checks over the package sources."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "powertree"


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
