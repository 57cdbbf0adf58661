"""Guards on the shape of the package source."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import toolpath

SRC_DIR = Path(toolpath.__file__).resolve().parent

# The paper's accuracy aggregation: the one library surface that no command calls.
LIBRARY_ONLY = {"task_accuracy", "overall_accuracy"}


def test_every_definition_is_used_or_exported():
    """A def or class named nowhere else in the package's modules is dead or test-only.

    `__init__.py` only re-exports, so a name it lists does not count as used.
    Test-only helpers belong in tests/oracles.py; dunder methods are called
    implicitly and are not counted.
    """
    texts = [path.read_text(encoding="utf-8") for path in sorted(SRC_DIR.glob("*.py")) if path.name != "__init__.py"]
    source = "\n".join(texts)
    unused = []
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in LIBRARY_ONLY or (name.startswith("__") and name.endswith("__")):
                continue
            if len(re.findall(rf"(?<!\w){re.escape(name)}(?!\w)", source)) < 2:
                unused.append(name)
    assert unused == []


# Imported only inside the function whose call needs them.
ON_DEMAND = {"urllib.request"}
# Never imported: each costs a fresh process milliseconds to load, and numpy is no dependency.
NEVER = {"numpy", "dataclasses", "inspect", "platform", "datetime", "importlib.metadata"}


def test_imports_stay_at_module_level():
    """No module imports a NEVER module, and only ON_DEMAND modules are imported inside a function."""
    top, nested = set(), set()
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module}
            else:
                continue
            (top if node in tree.body else nested).update(names)
    assert not (top | nested) & NEVER
    assert nested == ON_DEMAND
