from __future__ import annotations

import logging
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
DATA_DIR = REPO_ROOT / "data"

if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

# Excerpt fixtures intentionally cover few subtasks; the coverage warning is
# expected noise there.
logging.getLogger("toolpath.registry").setLevel(logging.ERROR)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def full_tables():
    from toolpath.registry import load_benchmark, load_mdt

    mdt = load_mdt(DATA_DIR / "mdt_full.json")
    bt = load_benchmark(DATA_DIR / "benchmark_full.json", mdt)
    return mdt, bt


@pytest.fixture(scope="session")
def detection_fixture():
    from toolpath.graphs import build_tool_subgraph
    from toolpath.planning import parse_subtask_tree
    from toolpath.registry import load_benchmark, load_mdt

    mdt = load_mdt(DATA_DIR / "mdt_detection_choice.json")
    bt = load_benchmark(DATA_DIR / "benchmark_detection_choice.json", mdt)
    tree = parse_subtask_tree((DATA_DIR / "tree_detection_choice.json").read_text())
    graph = build_tool_subgraph(tree, mdt)
    return graph, bt
