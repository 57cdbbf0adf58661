from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from oracles import root_to_leaf_orderings, tree_children, tree_roots
from synth import deep_chain_instance
from toolpath.errors import (
    CycleDetected,
    DanglingParent,
    EmptyTask,
    EndpointUnavailable,
    ParseError,
    TransportError,
    UnknownSubtask,
)
from toolpath.planning import (
    ask_planner,
    build_planner_prompt,
    parse_label,
    parse_subtask_tree,
)
from toolpath.registry import PLANNER_SUBTASKS


def test_parse_label_variants():
    assert parse_label("Object Recoloration (Dog -> Pink Dog)(6)") == (
        "Object Recoloration",
        "Dog -> Pink Dog",
        6,
    )
    assert parse_label("Object Removal (Car)(2)") == ("Object Removal", "Car", 2)
    assert parse_label("Image Deblurring(1)") == ("Image Deblurring", "", 1)
    assert parse_label("Image Deblurring") == ("Image Deblurring", "", None)
    assert parse_label("Object Replacement (Cat (big) -> Rabbit)(3)") == (
        "Object Replacement",
        "Cat (big) -> Rabbit",
        3,
    )


def test_parse_example1(data_dir):
    tree = parse_subtask_tree((data_dir / "tree_example1.json").read_text())
    assert len(tree.nodes) == 6
    recolor = [n for n in tree.nodes if n.kind == "Object Recoloration"]
    assert len(recolor) == 1
    assert len(tree.parents[recolor[0]]) == 2
    orderings = root_to_leaf_orderings(tree)
    assert len(orderings) == 2
    assert sorted(tuple(n.ordinal for n in chain) for chain in orderings) == [
        (1, 2, 3, 6),
        (1, 4, 5, 6),
    ]


def test_parse_example2(data_dir):
    tree = parse_subtask_tree((data_dir / "tree_example2.json").read_text())
    assert len(tree.nodes) == 6
    assert len(root_to_leaf_orderings(tree)) == 2
    assert [n.ordinal for n in tree_roots(tree)] == [1]


def test_single_node_tree_is_root_and_leaf():
    tree = parse_subtask_tree(
        json.dumps({"task": "x", "subtask_tree": [{"subtask": "Object Detection (Cat)(1)", "parent": []}]})
    )
    assert tree_roots(tree) == list(tree.nodes)
    assert tree_children(tree) == {node: [] for node in tree.nodes}


def test_dangling_parent_rejected():
    payload = {
        "task": "x",
        "subtask_tree": [
            {"subtask": "Object Detection (Cat)(1)", "parent": ["Object Removal (Dog)(9)"]}
        ],
    }
    with pytest.raises(DanglingParent):
        parse_subtask_tree(json.dumps(payload))


def test_cycle_rejected():
    payload = {
        "task": "x",
        "subtask_tree": [
            {"subtask": "Object Detection (A)(1)", "parent": ["Object Removal (B)(2)"]},
            {"subtask": "Object Removal (B)(2)", "parent": ["Object Detection (A)(1)"]},
        ],
    }
    with pytest.raises(CycleDetected):
        parse_subtask_tree(json.dumps(payload))


def test_self_parent_rejected():
    payload = {
        "task": "x",
        "subtask_tree": [
            {"subtask": "Object Detection (A)(1)", "parent": ["Object Detection (A)(1)"]}
        ],
    }
    with pytest.raises(CycleDetected):
        parse_subtask_tree(json.dumps(payload))


def test_unknown_kind_rejected():
    # Text Style Detection is a registry-only helper, never offered to the planner.
    for label in ("Object Teleportation (A)(1)", "Text Style Detection (A)(1)"):
        payload = {"task": "x", "subtask_tree": [{"subtask": label, "parent": []}]}
        with pytest.raises(UnknownSubtask, match="tree node 0: unknown subtask kind"):
            parse_subtask_tree(json.dumps(payload))


def test_malformed_tree_rejected():
    with pytest.raises(ParseError):
        parse_subtask_tree("[1, 2]")
    with pytest.raises(ParseError):
        parse_subtask_tree(json.dumps({"task": "x", "subtask_tree": []}))
    with pytest.raises(ParseError):
        parse_subtask_tree(json.dumps({"task": "x", "subtask_tree": [{"subtask": "A"}]}))


def test_duplicate_label_rejected():
    # The second spelling differs in case and spacing, but names the same instance.
    for second in ("Object Detection (A)(1)", "object  detection (A)(1)"):
        payload = {
            "task": "x",
            "subtask_tree": [
                {"subtask": "Object Detection (A)(1)", "parent": []},
                {"subtask": second, "parent": []},
            ],
        }
        with pytest.raises(ParseError, match="duplicate node label"):
            parse_subtask_tree(json.dumps(payload))


# A label repeated without an ordinal names one node twice, so it is an
# error as a repeated numbered label is; merging the two would drop the
# second parent list (the removal under the detection, or the cycle).
REPEATED_LABEL_TREES = {
    "two parents": [
        {"subtask": "Image Deblurring", "parent": []},
        {"subtask": "Object Detection (Car)", "parent": []},
        {"subtask": "Object Removal (Car)", "parent": ["Image Deblurring"]},
        {"subtask": "Object Removal (Car)", "parent": ["Object Detection (Car)"]},
    ],
    "cycle": [
        {"subtask": "Object Detection (Car)", "parent": []},
        {"subtask": "Object Segmentation (Car)", "parent": ["Object Detection (Car)"]},
        {"subtask": "Object Detection (Car)", "parent": ["Object Segmentation (Car)"]},
    ],
}


@pytest.mark.parametrize("name", REPEATED_LABEL_TREES)
def test_repeated_unnumbered_label_rejected(name):
    payload = {"task": "x", "subtask_tree": REPEATED_LABEL_TREES[name]}
    with pytest.raises(ParseError, match="^duplicate node label "):
        parse_subtask_tree(json.dumps(payload))


def test_missing_ordinals_are_auto_assigned():
    payload = {
        "task": "x",
        "subtask_tree": [
            {"subtask": "Object Detection (Cat)", "parent": []},
            {"subtask": "Object Removal (Dog)(7)", "parent": ["Object Detection (Cat)"]},
        ],
    }
    tree = parse_subtask_tree(json.dumps(payload))
    ordinals = sorted(n.ordinal for n in tree.nodes)
    assert ordinals == [7, 8]


def test_multiple_roots_allowed():
    payload = {
        "task": "x",
        "subtask_tree": [
            {"subtask": "Object Detection (A)(1)", "parent": []},
            {"subtask": "Object Removal (B)(2)", "parent": []},
        ],
    }
    tree = parse_subtask_tree(json.dumps(payload))
    assert len(tree_roots(tree)) == 2
    assert len(root_to_leaf_orderings(tree)) == 2


def test_topological_order_lists_every_node_once(data_dir):
    tree = parse_subtask_tree((data_dir / "tree_example1.json").read_text())
    order = tree.nodes
    assert len(order) == len(tree.parents) == 6
    assert set(order) == set(tree.parents)
    pos = {n: i for i, n in enumerate(order)}
    for node in tree.nodes:
        for parent in tree.parents[node]:
            assert pos[parent] < pos[node]


def test_topological_order_takes_ready_nodes_in_label_order():
    # Label order puts "(10)" before "(2)"; SubtaskInstance order is the reverse.
    payload = {
        "task": "x",
        "subtask_tree": [
            {"subtask": "Object Detection (X)(2)", "parent": []},
            {"subtask": "Object Detection (X)(10)", "parent": []},
            {"subtask": "Object Removal (X)(3)", "parent": ["Object Detection (X)(2)"]},
            {"subtask": "Object Removal (X)(11)", "parent": ["Object Detection (X)(10)"]},
        ],
    }
    tree = parse_subtask_tree(json.dumps(payload))
    assert [n.label() for n in tree.nodes] == [
        "Object Detection (X)(10)",
        "Object Detection (X)(2)",
        "Object Removal (X)(11)",
        "Object Removal (X)(3)",
    ]


def test_root_to_leaf_orderings_on_deep_chain():
    tree = parse_subtask_tree(json.dumps(deep_chain_instance(1500)["tree"]))
    (chain,) = root_to_leaf_orderings(tree)
    assert [n.ordinal for n in chain] == list(range(1, 1501))


def test_ordering_count_matches_bruteforce_dfs(data_dir):
    tree = parse_subtask_tree((data_dir / "tree_example2.json").read_text())
    kids = tree_children(tree)

    def count(n):
        if not kids[n]:
            return 1
        return sum(count(c) for c in kids[n])

    assert len(root_to_leaf_orderings(tree)) == sum(count(r) for r in tree_roots(tree))


def test_build_planner_prompt_contains_vocabulary_and_task():
    prompt = build_planner_prompt("remove the car")
    assert "remove the car" in prompt
    assert "Supported Subtasks" in prompt
    for name in PLANNER_SUBTASKS:
        assert name in prompt
    listing = next(line for line in prompt.splitlines() if line.startswith("Supported Subtasks:"))
    assert len(listing.split(": ", 1)[1].split(", ")) == 24


def test_build_planner_prompt_deterministic():
    a = build_planner_prompt("replace the cat with a dog")
    b = build_planner_prompt("replace the cat with a dog")
    assert a == b


def test_build_planner_prompt_empty_task():
    with pytest.raises(EmptyTask):
        build_planner_prompt("   ")


def test_request_tree_unconfigured(monkeypatch):
    monkeypatch.delenv("COSTA_PLANNER_URL", raising=False)
    with pytest.raises(EndpointUnavailable):
        ask_planner("x")


class _CannedHandler(BaseHTTPRequestHandler):
    canned_text = ""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        assert "prompt" in body
        payload = json.dumps({"text": self.canned_text}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def planner_server(data_dir):
    _CannedHandler.canned_text = (data_dir / "tree_example1.json").read_text()
    server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_request_tree_http_roundtrip(planner_server, monkeypatch):
    monkeypatch.setenv("COSTA_PLANNER_URL", planner_server)
    text = ask_planner(build_planner_prompt("detect things"))
    tree = parse_subtask_tree(text)
    assert len(tree.nodes) == 6


def test_request_tree_transport_error():
    with pytest.raises(TransportError):
        ask_planner("x", "http://127.0.0.1:1")
