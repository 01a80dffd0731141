"""The demos and the claims harness import only names the package has.

Each file is parsed, not executed (test_claims.py runs part of the
harness), and every ``from lenvae... import name`` in it is looked up on the
imported module.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = [*sorted(ROOT.glob("demos/*.py")), ROOT / "claims" / "run.py"]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_script_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.level == 0 and node.module.split(".")[0] == "lenvae"]
    assert imports, f"{path.name} imports nothing from lenvae"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), \
                f"{path.name}:{node.lineno}: {node.module} has no {alias.name}"
