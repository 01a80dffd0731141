"""The demos and the claims harness use only names the package has.

Each file is parsed (test_claims.py runs part of the harness, and the
quick text-pipeline demo is also run). Every ``from lenvae... import name``
in it is looked up on the imported module, and every keyword argument it
passes to a settings dataclass must be a field of that class.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from lenvae.inference import DecodeRequest
from lenvae.model import HyperParams
from lenvae.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = [*sorted(ROOT.glob("demos/*.py")), ROOT / "claims" / "run.py"]


def _is_submodule(package, name):
    """Whether ``from package import name`` names a submodule, which is an
    attribute of the package only once something has imported it."""
    return importlib.util.find_spec(f"{package}.{name}") is not None


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_script_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.level == 0 and node.module.split(".")[0] == "lenvae"]
    assert imports, f"{path.name} imports nothing from lenvae"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name) or _is_submodule(node.module, alias.name), \
                f"{path.name}:{node.lineno}: {node.module} has no {alias.name}"


SETTINGS_CLASSES = {cls.__name__: cls for cls in (TrainConfig, HyperParams, DecodeRequest)}


def _settings_calls(path):
    """(class, call) for every call of a settings dataclass in ``path``, by
    its bare name or as a module attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in SETTINGS_CLASSES:
                yield SETTINGS_CLASSES[name], node


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_script_settings_keywords_are_fields(path):
    for cls, call in _settings_calls(path):
        names = {f.name for f in fields(cls)}
        for keyword in call.keywords:
            assert keyword.arg is None or keyword.arg in names, \
                f"{path.name}:{call.lineno}: {cls.__name__} has no field {keyword.arg}"


def test_settings_calls_are_found():
    # the check above is not vacuous: the toy-model demo builds both
    found = {cls.__name__ for path in SCRIPTS for cls, _ in _settings_calls(path)}
    assert {"TrainConfig", "HyperParams"} <= found


def test_text_pipeline_demo_runs_to_exit_0():
    # running it checks the demo's own bag-of-words assertion
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "01_text_pipeline.py")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
