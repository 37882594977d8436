"""The package finds its roots itself (`transform.safeguarded_newton`): no
module under src/qbridge imports scipy.optimize.  The check reads the
source, because `import scipy.integrate` loads scipy.optimize anyway."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qbridge"


def _imports_scipy_optimize(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["scipy", "optimize"] for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        parts = node.module.split(".")
        return (parts[:2] == ["scipy", "optimize"]
                or (parts == ["scipy"] and any(a.name == "optimize" for a in node.names)))
    return False


def test_no_module_imports_scipy_optimize():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if _imports_scipy_optimize(node)]
    assert found == []
