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
