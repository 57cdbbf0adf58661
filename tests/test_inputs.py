"""The input/output boundary: every malformed file or unwritable output is an
`error:` line and a documented exit code, never a traceback."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toolpath
from toolpath.cli import main
from toolpath.errors import ToolpathError, TransportError
from toolpath.execution import MAX_TIME_SIGMA
from toolpath.planning import ask_planner, parse_subtask_tree

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
DEEP = "[" * 200_000 + "]" * 200_000


def _fixture_texts() -> dict[str, str]:
    """The detection_choice inputs plus a scripted simulator spec that covers them."""
    texts = {name: (DATA_DIR / f"{name}_detection_choice.json").read_text() for name in ("mdt", "benchmark", "tree")}
    rows = json.loads(texts["benchmark"])
    script = [
        {"tool": r["tool"], "subtask": r["subtask"], "attempt": a, "time": 1.0, "quality": 0.9}
        for r in rows
        for a in range(1, 5)
    ]
    texts["sim"] = json.dumps({"mode": "scripted", "script": script})
    return texts


TEXTS = _fixture_texts()


def _write_inputs(root: Path, replaced: dict[str, bytes] | None = None) -> dict[str, Path]:
    """The fixture inputs written under `root`, with the files named in `replaced` replaced."""
    paths = {name: root / f"{name}.json" for name in TEXTS}
    for name, path in paths.items():
        path.write_bytes((replaced or {}).get(name, TEXTS[name].encode()))
    return paths


def _argv(command: str, paths: dict[str, Path], extra=()) -> list[str]:
    if command == "graph":
        return ["graph", "--mdt", str(paths["mdt"]), "--tree", str(paths["tree"]), *extra]
    argv = [command, "--mdt", str(paths["mdt"]), "--benchmark", str(paths["benchmark"]), "--tree", str(paths["tree"])]
    if command in ("plan", "sweep"):
        argv += ["--sim", str(paths["sim"])]
    return argv + list(extra)


def _edit(name: str, change) -> dict[str, bytes]:
    obj = json.loads(TEXTS[name])
    change(obj)
    return {name: json.dumps(obj).encode()}


def _huge_times(rows: list) -> None:
    for row in rows:
        row["time_seconds"] = 1e308


# Probe -> (replaced input files, command, extra arguments; OUT is the output directory).
_PROBES = {
    "non-UTF-8 MDT": ({"mdt": b"\xff\xfe[]"}, "plan", ()),
    "non-UTF-8 benchmark": ({"benchmark": b"\xff\xfe[]"}, "plan", ()),
    "non-UTF-8 tree": ({"tree": b"\xff\xfe{}"}, "plan", ()),
    "non-UTF-8 simulator spec": ({"sim": b"\xff\xfe{}"}, "plan", ()),
    "deep MDT": ({"mdt": DEEP.encode()}, "plan", ()),
    "deep tree": ({"tree": DEEP.encode()}, "plan", ()),
    "deep simulator spec": ({"sim": DEEP.encode()}, "plan", ()),
    "--out in a missing directory": ({}, "plan", ("--out", "OUT/missing/plan.json")),
    "--out naming a directory": ({}, "plan", ("--out", "OUT")),
    "numeric benchmark tool": (_edit("benchmark", lambda rows: rows[0].update(tool=5)), "plan", ()),
    "numeric script subtask": (_edit("sim", lambda spec: spec["script"][0].update(subtask=5)), "plan", ()),
    "numeric script": (_edit("sim", lambda spec: spec.update(script=5)), "plan", ()),
    "boolean quality": (_edit("benchmark", lambda rows: rows[0].update(quality=True)), "plan", ()),
    "string time": (_edit("benchmark", lambda rows: rows[0].update(time_seconds="5")), "plan", ()),
    "string sigma": ({"sim": b'{"mode": "stochastic", "time_noise_sigma": "0.1"}'}, "plan", ()),
    # A time sigma whose exp(sigma * z) could overflow is refused as the spec is read.
    "overflowing time noise": ({"sim": b'{"mode": "stochastic", "time_noise_sigma": 1e4}'}, "plan", ()),
    "1e308 s rows, plan": (_edit("benchmark", _huge_times), "plan", ("--sim", "deterministic", "--out", "OUT/plan.json")),
    "1e308 s rows, verify": (_edit("benchmark", _huge_times), "verify", ("--out", "OUT/verify.json")),
    "1e308 s rows, sweep": (_edit("benchmark", _huge_times), "sweep", ("--sim", "deterministic", "--csv", "OUT/sweep.csv")),
    # Valid JSON that no UTF-8 output can write: a string holding an unpaired surrogate.
    "surrogate MDT tool": (_edit("mdt", lambda rows: rows[0].update(tool="\ud800X")), "graph",
                           ("--format", "dot", "--out", "OUT/graph.dot")),
    "surrogate benchmark subtask": (_edit("benchmark", lambda rows: rows[0].update(subtask="\udfff")), "plan", ()),
    "surrogate tree label": (
        _edit("tree", lambda tree: tree["subtask_tree"][0].update(subtask="Object Detection (\udc00)(1)")), "plan", ()
    ),
    "surrogate simulator spec field": (_edit("sim", lambda spec: spec.update(mode="\ud83d")), "plan", ()),
}
_NON_FINITE = "error: output holds a non-finite number: Out of range float values are not JSON compliant: inf\n"
# The whole stderr of the probes whose message is pinned.
_PROBE_STDERR = {
    "--out in a missing directory": "error: cannot write OUT/missing/plan.json: No such file or directory\n",
    "--out naming a directory": "error: cannot write OUT: Is a directory\n",
    "1e308 s rows, plan": _NON_FINITE,
    "1e308 s rows, verify": _NON_FINITE,
    "surrogate MDT tool": "error: MDT holds an unpaired surrogate U+D800\n",
    "surrogate benchmark subtask": "error: benchmark table holds an unpaired surrogate U+DFFF\n",
    "surrogate tree label": "error: subtask tree holds an unpaired surrogate U+DC00\n",
    "surrogate simulator spec field": "error: simulator spec holds an unpaired surrogate U+D83D\n",
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_bad_input_or_output_exits_1_with_one_error_line(probe, tmp_path, capsys):
    replaced, command, extra = _PROBES[probe]
    paths = _write_inputs(tmp_path, replaced)
    extra = [arg.replace("OUT", str(tmp_path)) for arg in extra]
    assert main(_argv(command, paths, extra)) == 1
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    if probe in _PROBE_STDERR:
        assert err == _PROBE_STDERR[probe].replace("OUT", str(tmp_path))
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths.values())  # nothing written


def test_closed_stdout_exits_1_with_one_error_line():
    """A plan written to a pipe whose reader has gone is an output error, in a fresh process.

    Exactly one line reaches stderr: no traceback, and no second report from
    the interpreter's final flush of stdout.
    """
    src = Path(toolpath.__file__).resolve().parents[1]
    argv = ["plan", "--mdt", str(DATA_DIR / "mdt_full.json"), "--benchmark", str(DATA_DIR / "benchmark_full.json"),
            "--tree", str(DATA_DIR / "tree_example1.json")]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "toolpath.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])},
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (1, "error: cannot write to stdout: Broken pipe\n")


def test_closed_stdout_descriptor_exits_1_with_one_error_line():
    """A process started with descriptor 1 closed (`>&-`) has no sys.stdout: writing the
    plan there is an output error, not an AttributeError traceback."""
    src = Path(toolpath.__file__).resolve().parents[1]
    argv = ["plan", "--mdt", str(DATA_DIR / "mdt_full.json"), "--benchmark", str(DATA_DIR / "benchmark_full.json"),
            "--tree", str(DATA_DIR / "tree_example1.json")]
    run = subprocess.run(
        [sys.executable, "-m", "toolpath.cli", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        preexec_fn=lambda: os.close(1),
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])},
    )
    assert (run.returncode, run.stderr) == (1, "error: cannot write to stdout: it is closed\n")


def test_overflowing_noise_is_one_error_line_and_no_warning(tmp_path, capsys):
    # sigma 1e308 would put exp(sigma * z) out of range on some draws and not
    # others, so the spec is refused before any tool runs, whatever the seed.
    paths = _write_inputs(tmp_path, {"sim": b'{"mode": "stochastic", "time_noise_sigma": 1e308}'})
    for seed in ("0", "1", "2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(_argv("plan", paths, ("--seed", seed))) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: time_noise_sigma must be at most 80, got 1e+308"
        ]
        assert "Warning" not in err


def test_zero_time_rows_stay_zero_under_overflowing_noise(tmp_path):
    # At the largest accepted time sigma every draw's factor is finite and
    # positive, so a 0 s row stays 0 s on every seed.
    rows = json.loads((DATA_DIR / "benchmark_full.json").read_text())
    for row in rows:
        row["time_seconds"] = 0
    benchmark, sim, out = tmp_path / "benchmark.json", tmp_path / "sim.json", tmp_path / "plan.json"
    benchmark.write_text(json.dumps(rows))
    sim.write_text(json.dumps({"mode": "stochastic", "time_noise_sigma": MAX_TIME_SIGMA}))
    argv = ["plan", "--mdt", str(DATA_DIR / "mdt_full.json"), "--tree", str(DATA_DIR / "tree_example1.json"),
            "--benchmark", str(benchmark), "--sim", str(sim), "--out", str(out)]
    for seed in ("0", "1", "2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--seed", seed]) == 0
        plan = json.loads(out.read_text())
        assert plan["totals"]["time"] == 0.0
        assert all(step["c"] == 0.0 for step in plan["path"])


# Every path holds a tool whose normalized quality (0.5) is below the 0.8
# threshold: Y directly, or Z spliced in to make X's depth map.
_EXHAUSTED_TABLES = {
    "mdt": [
        {"tool": "Y", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]},
        {"tool": "X", "subtasks": ["Object Detection"], "inputs": ["Depth Map"], "outputs": ["Bounding Boxes"]},
        {"tool": "Z", "subtasks": ["Depth Estimation"], "inputs": ["Input Image"], "outputs": ["Depth Map"]},
        {"tool": "W", "subtasks": ["Depth Estimation"], "inputs": ["Input Image"], "outputs": ["Relief Map"]},
    ],
    "benchmark": [
        {"tool": tool, "subtask": subtask, "time_seconds": 1.0, "quality": quality}
        for tool, subtask, quality in (
            ("Y", "Object Detection", 0.5),
            ("X", "Object Detection", 1.0),
            ("Z", "Depth Estimation", 0.5),
            ("W", "Depth Estimation", 1.0),
        )
    ],
    "tree": {"subtask_tree": [{"subtask": "Object Detection (Car)(1)", "parent": []}]},
}


def test_verify_with_an_exhausted_search_exits_2(tmp_path, capsys):
    paths = _write_inputs(tmp_path, {name: json.dumps(obj).encode() for name, obj in _EXHAUSTED_TABLES.items()})
    out = tmp_path / "verify.json"
    assert main(_argv("verify", paths, ["--out", str(out)])) == 2
    assert capsys.readouterr().err == "error: search at alpha=1.0 found no valid path\n"
    assert not out.exists()
    # The same tables do hold paths, and plan reports its search as exhausted.
    assert main(_argv("plan", paths, ["--sim", "deterministic", "--out", str(out)])) == 2
    assert json.loads(out.read_text())["status"] == "exhausted"


@pytest.mark.parametrize("command", ["plan", "sweep"])
def test_manifest_holds_the_simulator_spec_digest(command, tmp_path):
    paths = _write_inputs(tmp_path)
    out = tmp_path / "out"
    option = "--out" if command == "plan" else "--csv"
    digests = []
    for quality in (0.9, 0.95):
        spec = json.loads(TEXTS["sim"])
        for row in spec["script"]:
            row["quality"] = quality
        paths["sim"].write_text(json.dumps(spec))
        assert main(_argv(command, paths, [option, str(out)])) == 0
        inputs = json.loads(Path(f"{out}.manifest.json").read_text())["inputs"]
        assert set(inputs) == {str(p) for p in paths.values()}
        digests.append(inputs[str(paths["sim"])])
    assert digests[0] != digests[1]


def test_plan_reads_each_input_file_once(tmp_path, monkeypatch):
    paths = _write_inputs(tmp_path)
    reads: dict[str, int] = {}
    read_bytes = Path.read_bytes

    def counting_read_bytes(self):
        reads[str(self)] = reads.get(str(self), 0) + 1
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    out = tmp_path / "out"
    assert main(_argv("plan", paths, ["--out", str(out)])) == 0
    monkeypatch.undo()
    assert reads == {str(p): 1 for p in paths.values()}
    # The digests are those of the files' bytes, as when the manifest read each file again.
    inputs = json.loads(Path(f"{out}.manifest.json").read_text())["inputs"]
    assert inputs == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths.values()}


class _CannedHandler(BaseHTTPRequestHandler):
    body = b""

    def do_POST(self):
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    def log_message(self, *args):
        pass


@pytest.fixture
def planner_url():
    server = HTTPServer(("127.0.0.1", 0), _CannedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.mark.parametrize(
    "body", [b'{"text": 5}', b'["text"]', b'{"reply": "x"}', b"not json", b"\xff\xfe", DEEP.encode()]
)
def test_planner_response_without_a_string_text_is_a_transport_error(body, planner_url, monkeypatch):
    monkeypatch.setattr(_CannedHandler, "body", body)
    with pytest.raises(TransportError):
        ask_planner("prompt", planner_url)


def test_planner_response_text_is_returned(planner_url, monkeypatch):
    monkeypatch.setattr(_CannedHandler, "body", b'{"text": "a tree"}')
    assert ask_planner("prompt", planner_url) == "a tree"


def _slots(obj) -> list:
    """Every (container, key) pair in a decoded JSON value."""
    out, stack = [], [obj]
    while stack:
        node = stack.pop()
        keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            out.append((node, key))
            stack.append(node[key])
    return out


_SWAPS = (None, True, 0, -1, 2.5, 1e308, "", "x", [], {}, [["x"]], {"tool": 1})


@st.composite
def _mutated_input(draw) -> dict[str, bytes]:
    """One input file truncated, with one byte changed, nested deep, or with one value's type swapped."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    data = TEXTS[name].encode()
    how = draw(st.sampled_from(("truncate", "flip", "nest", "swap")))
    if how == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif how == "flip":
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    elif how == "nest":
        depth = draw(st.sampled_from((1, 100, 5_000, 200_000)))
        data = b"[" * depth + data + b"]" * depth
    else:
        obj = json.loads(data)
        node, key = draw(st.sampled_from(_slots(obj)))
        node[key] = draw(st.sampled_from(_SWAPS))
        data = json.dumps(obj).encode()
    return {name: data}


@settings(max_examples=60, deadline=None)
@given(_mutated_input(), st.sampled_from(("plan", "sweep", "verify", "graph")))
def test_mutated_inputs_give_a_documented_exit_code(replaced, command):
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_inputs(Path(tmp), replaced)
        argv = _argv(command, paths, ["--out", str(Path(tmp) / "out")])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3, 4)


@pytest.mark.parametrize("ordinal", ["²", "1" * 5000])
def test_label_ordinal_that_int_cannot_read_is_an_input_error(ordinal):
    label = f"Object Detection (Car)({ordinal})"
    with pytest.raises(ToolpathError):
        parse_subtask_tree(json.dumps({"subtask_tree": [{"subtask": label, "parent": []}]}))
