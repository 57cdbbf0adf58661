"""The output side: `cli._dump_json` against the stdlib's indent encoder, and `cli._write`'s
byte writes."""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import dump_json_reference
from toolpath import cli
from toolpath.cli import main
from toolpath.errors import OutputError

# Escapes, control characters, non-ASCII and lone surrogates, for keys and strings alike.
_TEXT = st.text(st.one_of(st.characters(), st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1]),
    _TEXT,
)
# json.dumps writes a number key as its JSON text; keys of one dict must sort against each other.
_NUMBER_KEYS = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))


def _values(depth: int):
    """Scalars, and dicts, lists and tuples nested up to `depth` deep, empty ones included."""
    if depth == 0:
        return _SCALARS
    inner = _values(depth - 1)
    return st.one_of(
        _SCALARS,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(_NUMBER_KEYS, inner, max_size=3),
    )


@given(_values(5))
@example({"": {}, "a": [], "b": [[], {}, ()], "c": {"d": [1, "x", None, True, -0.0]}})
@example([{"\n\"\\\x00\x1f\x7fé \ud800": 5e-324}, (1e308, 2**200, -(2**64))])
@example({2: [1], 10: {"x": 1}, 1.5: [], -1: "a"})
def test_dump_json_is_the_stdlib_indent_encoding(payload):
    assert cli._dump_json(payload) == dump_json_reference(payload)


@given(_values(5))
def test_dump_json_without_the_c_accelerator_is_the_same(payload):
    """Where `_json` is missing, each depth's one-line encoder is the stdlib's public one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "c_make_encoder", None)
        patch.setattr(cli, "_flat_encoder", functools.cache(cli._flat_encoder.__wrapped__))
        assert cli._dump_json(payload) == dump_json_reference(payload)


@given(
    st.lists(st.sampled_from(("list", "tuple", "dict")), max_size=5),
    st.sampled_from((math.nan, math.inf, -math.inf)),
    _values(1),
)
def test_a_non_finite_number_at_any_depth_is_an_output_error(kinds, number, sibling):
    """The error names the number as the stdlib's encoder does, whether it sits in a flat
    container (the sibling is a scalar) or in one that holds a container."""
    payload = number
    for kind in reversed(kinds):
        payload = {"list": [sibling, payload], "tuple": (payload, sibling), "dict": {"k": payload, "j": sibling}}[kind]
    with pytest.raises(ValueError) as expected:
        dump_json_reference(payload)
    with pytest.raises(OutputError) as raised:
        cli._dump_json(payload)
    assert str(raised.value) == f"output holds a non-finite number: {expected.value}"


def _fixture(data_dir, tables: str, tree: str) -> list[str]:
    return ["--mdt", str(data_dir / f"mdt_{tables}.json"), "--benchmark", str(data_dir / f"benchmark_{tables}.json"),
            "--tree", str(data_dir / f"tree_{tree}.json")]


def test_every_output_shape_is_the_stdlib_indent_encoding(data_dir, tmp_path, monkeypatch):
    """Plan, trace, manifest, verify and both graph JSONs, each as the command builds it."""
    encoded = []
    dump_json = cli._dump_json

    def checked(payload):
        text = dump_json(payload)
        assert text == dump_json_reference(payload)
        encoded.append(text)
        return text

    monkeypatch.setattr(cli, "_dump_json", checked)
    full = _fixture(data_dir, "full", "example2")
    rows = json.loads((data_dir / "benchmark_detection_choice.json").read_text())
    failing = tmp_path / "failing.sim.json"
    failing.write_text(json.dumps({"mode": "scripted", "script": [
        {"tool": row["tool"], "subtask": row["subtask"], "attempt": attempt, "time": 1.0, "quality": 0.1}
        for row in rows
        for attempt in range(1, 6)
    ]}))
    calls = (
        ["plan", *full, "--alpha", "0.5"],
        # Retries and passes, so the trace holds a g_path.
        ["plan", *full, "--sim", "stochastic", "--seed", "2", "--alpha", "2"],
        # Every attempt fails, so no path is found.
        ["plan", *_fixture(data_dir, "detection_choice", "detection_choice"), "--sim", str(failing)],
        ["verify", *full, "--alpha", "1.5"],
        ["graph", "--mdt", full[1], "--format", "json"],
        ["graph", "--mdt", full[1], "--tree", full[5], "--format", "json"],
    )
    codes = [main([*argv, "--out", str(tmp_path / f"{i}.json")]) for i, argv in enumerate(calls)]
    assert codes == [0, 0, 2, 0, 0, 0]
    # Plan, trace and manifest per plan; the output and its manifest otherwise.
    assert len(encoded) == 3 * 3 + 3 * 2
    for i in range(len(calls)):
        path = tmp_path / f"{i}.json"
        assert path.read_bytes().decode("utf-8") in encoded


def test_a_file_written_seven_bytes_at_a_time_is_the_same(data_dir, tmp_path, monkeypatch):
    argv = ["plan", *_fixture(data_dir, "full", "example1"), "--sim", "stochastic", "--seed", "2"]
    assert main([*argv, "--out", str(tmp_path / "whole.json")]) == 0
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(write(fd, data[:7]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    assert main([*argv, "--out", str(tmp_path / "short.json")]) == 0
    monkeypatch.undo()
    total = 0
    for suffix in ("", ".trace.json", ".manifest.json"):
        short = (tmp_path / f"short.json{suffix}").read_bytes()
        total += len(short)
        if suffix != ".manifest.json":  # which names the output path and the instant
            assert short == (tmp_path / f"whole.json{suffix}").read_bytes()
    assert sum(sizes) == total and max(sizes) == 7


def test_a_failed_stdout_write_leaves_no_descriptor_open(monkeypatch):
    """Writing to a pipe whose reader has gone, in process: stdout is pointed at the null
    device, and the descriptor opened for that is closed again."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = open(write_end, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        before = len(os.listdir("/dev/fd"))
        with pytest.raises(OutputError, match="^cannot write to stdout: Broken pipe$"):
            cli._write("{}\n", None)
        assert len(os.listdir("/dev/fd")) == before
    finally:
        stdout.close()
