from __future__ import annotations

import json
import math
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from oracles import lookup_models, reference_parse_benchmark, reference_parse_mdt
from toolpath import registry
from toolpath.execution import Simulator, SimulatorSpec
from toolpath.graphs import build_tool_subgraph
from toolpath.planning import parse_subtask_tree
from toolpath.search import SearchConfig, astar_search, suffix_bounds

from toolpath.errors import (
    DuplicateEntry,
    MissingBenchmark,
    NegativeTime,
    NonPositiveQuality,
    ParseError,
    UnknownSubtask,
)
from toolpath.registry import (
    ALL_SUBTASKS,
    PLANNER_SUBTASKS,
    BenchmarkRow,
    BenchmarkTable,
    ToolRecord,
    _squash,
    canonical_subtask,
    load_mdt,
    normalize_quality,
    normalize_resource,
    parse_benchmark,
    parse_mdt,
)


def test_planner_vocabulary_has_24_names():
    assert len(PLANNER_SUBTASKS) == 24
    assert len(set(PLANNER_SUBTASKS)) == 24


def test_canonical_subtask_is_case_and_space_insensitive():
    assert canonical_subtask("object  detection") == "Object Detection"
    assert canonical_subtask("Question Answering based on Text") == "Question Answering Based on Text"
    with pytest.raises(UnknownSubtask):
        canonical_subtask("Object Teleportation")


def test_normalize_resource_stems_trailing_plural():
    assert normalize_resource("Segmentation Masks") == normalize_resource("Segmentation Mask")
    assert normalize_resource("  Input   Image ") == "input image"
    # "Text Bounding Box" and "Text Region Bounding Box" are distinct artifacts.
    assert normalize_resource("Text Bounding Box") != normalize_resource("Text Region Bounding Box")


def test_load_full_mdt(data_dir):
    mdt = load_mdt(data_dir / "mdt_full.json")
    assert len(mdt.records) == 32
    assert set(mdt.by_subtask) >= set(PLANNER_SUBTASKS)  # no coverage gap
    # one row per (tool, subtask) pairing
    assert len({r.key for r in mdt.records.values()}) == 32


def test_load_table1_excerpt(data_dir):
    mdt = load_mdt(data_dir / "mdt_table1.json")
    assert len(mdt.tool_io) == 5  # five rows, one tool each
    sam = mdt.records[("SAM", "Object Segmentation")]
    assert sam.input_keys == {normalize_resource("Bounding Boxes")}
    assert sam.output_keys == {normalize_resource("Segmentation Masks")}
    assert lookup_models(mdt, "Object Detection") == {"YOLO"}


def test_empty_mdt_warns_about_all_24_subtasks(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="toolpath.registry"):
        mdt = parse_mdt("[]")
    assert mdt.records == {} and mdt.tool_io == {}
    assert all(sub in caplog.text for sub in PLANNER_SUBTASKS)
    assert any("no tool supports 24 subtask(s)" in rec.getMessage() for rec in caplog.records)


def test_tables_from_different_rows_compare_unequal():
    row = {"tool": "YOLO", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]}
    table = parse_mdt(json.dumps([row]))
    assert table == parse_mdt(json.dumps([row]))
    assert table != parse_mdt(json.dumps([dict(row, outputs=["Segmentation Masks"])]))
    # A row listing no subtask has no record, but it still tells the tables apart.
    bare = {"tool": "Spare", "subtasks": [], "inputs": [], "outputs": []}
    assert table != parse_mdt(json.dumps([row, bare]))


def test_unknown_subtask_rejected():
    payload = [{"tool": "X", "subtasks": ["Object Teleportation"], "inputs": [], "outputs": []}]
    with pytest.raises(UnknownSubtask):
        parse_mdt(json.dumps(payload))


def test_duplicate_pair_rejected():
    payload = [
        {"tool": "X", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]},
        {"tool": "X", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]},
    ]
    with pytest.raises(DuplicateEntry):
        parse_mdt(json.dumps(payload))


def test_malformed_mdt_rejected():
    with pytest.raises(ParseError):
        parse_mdt("{not json")
    with pytest.raises(ParseError):
        parse_mdt('{"tool": "X"}')
    with pytest.raises(ParseError):
        parse_mdt('[{"tool": "X", "subtasks": "Object Detection", "inputs": [], "outputs": []}]')


def test_lookup_models_full_table(full_tables):
    mdt, _ = full_tables
    assert lookup_models(mdt, "Object Removal") == {
        "Stable Diffusion Erase",
        "Stable Diffusion Inpaint",
    }
    assert lookup_models(mdt, "Object Detection") == {"Grounding DINO", "YOLOv7"}
    assert lookup_models(mdt, "Depth Estimation") == {"MiDaS"}


def test_lookup_models_empty_for_uncovered_kind(data_dir):
    mdt = load_mdt(data_dir / "mdt_table1.json")
    assert lookup_models(mdt, "Outpainting") == set()


def test_load_full_benchmark_keeps_listed_values(full_tables):
    _, bt = full_tables
    yolo = bt.row("YOLOv7", "Object Detection")
    assert yolo.time_seconds == 0.0062
    assert yolo.quality_norm == 0.82
    dino = bt.row("Grounding DINO", "Object Detection")
    assert dino.time_seconds == 0.119
    assert dino.quality_norm == 1.0
    inpaint = bt.row("Stable Diffusion Inpaint", "Object Removal")
    assert inpaint.quality_norm == 0.93
    assert inpaint.time_seconds == 12.1


def test_benchmark_quality_normalized_per_subtask(full_tables):
    _, bt = full_tables
    by_subtask: dict[str, list[float]] = {}
    for (_, sub), row in bt.rows.items():
        by_subtask.setdefault(sub, []).append(row.quality_norm)
    for sub, values in by_subtask.items():
        assert max(values) == 1.0
        assert all(0.0 < v <= 1.0 for v in values)


def test_benchmark_missing_row_rejected(data_dir):
    mdt = load_mdt(data_dir / "mdt_table1.json")
    rows = [{"tool": "YOLO", "subtask": "Object Detection", "time_seconds": 0.0062, "quality": 0.82}]
    with pytest.raises(MissingBenchmark):
        parse_benchmark(json.dumps(rows), mdt)


def test_benchmark_unknown_pair_rejected(data_dir):
    mdt = load_mdt(data_dir / "mdt_table1.json")
    rows = [{"tool": "Nope", "subtask": "Object Detection", "time_seconds": 1, "quality": 1}]
    with pytest.raises(ParseError):
        parse_benchmark(json.dumps(rows), mdt)


def test_benchmark_negative_time_rejected(data_dir):
    mdt = parse_mdt(json.dumps(
        [{"tool": "X", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]}]
    ))
    rows = [{"tool": "X", "subtask": "Object Detection", "time_seconds": -1, "quality": 0.5}]
    with pytest.raises(NegativeTime):
        parse_benchmark(json.dumps(rows), mdt)


@pytest.mark.parametrize("field", ["time_seconds", "quality"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_benchmark_non_finite_value_rejected(field, value):
    mdt = parse_mdt(json.dumps(
        [
            {"tool": t, "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]}
            for t in ("X", "Y")
        ]
    ))
    rows = [
        {"tool": t, "subtask": "Object Detection", "time_seconds": 1.0, "quality": 0.5} for t in ("X", "Y")
    ]
    rows[0][field] = value  # json.dumps writes NaN / Infinity / -Infinity
    with pytest.raises(ParseError):
        parse_benchmark(json.dumps(rows), mdt)


def test_normalize_quality_examples():
    out = normalize_quality({("A", "s"): 40.0, ("B", "s"): 50.0})
    assert out == {("A", "s"): 0.8, ("B", "s"): 1.0}
    assert normalize_quality({("A", "s"): 0.5, ("B", "s"): 1.0}) == {("A", "s"): 0.5, ("B", "s"): 1.0}
    assert normalize_quality({("A", "s"): 7.0}) == {("A", "s"): 1.0}
    with pytest.raises(NonPositiveQuality):
        normalize_quality({("A", "s"): 0.0})


@given(
    st.dictionaries(
        st.tuples(st.sampled_from(["A", "B", "C", "D"]), st.sampled_from(["s1", "s2", "s3"])),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        min_size=1,
    )
)
def test_normalize_quality_idempotent_and_bounded(raw):
    once = normalize_quality(raw)
    twice = normalize_quality(once)
    assert once == twice
    per_subtask: dict[str, list[float]] = {}
    for (_, sub), v in once.items():
        assert 0.0 < v <= 1.0
        per_subtask.setdefault(sub, []).append(v)
    for values in per_subtask.values():
        assert abs(max(values) - 1.0) <= 1e-12


def test_full_benchmark_covers_every_mdt_pair(full_tables):
    mdt, bt = full_tables
    assert set(bt.rows) == set(mdt.records)


# Every character that str.split() or the regex \s treats as whitespace; the
# last of them is U+3000.
_WHITESPACE = "".join(
    c for c in map(chr, range(0x3001)) if c.isspace() or re.fullmatch(r"\s", c)
)


@given(st.text(alphabet=st.one_of(st.sampled_from(_WHITESPACE), st.characters())))
def test_squash_matches_the_regex_form(name):
    assert _squash(name) == re.sub(r"\s+", " ", name.strip())


# Pinned registry errors: (table, rows, exact error type, exact message).  A
# row value "@" is replaced by the raw JSON literal given with the case, so a
# case can hold 1e400 or an integer beyond float range; an error type of None
# means the table parses.
_ROW = {"tool": "X", "subtasks": ["Object Detection"], "inputs": ["Input Image"], "outputs": ["Bounding Boxes"]}
_BENCH_MDT = json.dumps([dict(_ROW, tool=t) for t in ("X", "Y")])


def _bench(tool="X", **fields):
    return {"tool": tool, "subtask": "Object Detection", "time_seconds": 1.0, "quality": 0.5, **fields}


def _mdt(**fields):
    return dict(_ROW, **fields)


def _without(row, key):
    return {k: v for k, v in row.items() if k != key}


_NUMBER = "field {!r} must be a finite number"
_ERROR_CASES = {
    "mdt-row-not-object": ("mdt", [5], ParseError, "MDT entry 0 is not an object"),
    "mdt-row-is-array": ("mdt", [["X"]], ParseError, "MDT entry 0 is not an object"),
    "mdt-missing-field": ("mdt", [_without(_ROW, "outputs")], ParseError, "MDT entry 0 missing field 'outputs'"),
    "mdt-tool-not-string": ("mdt", [_mdt(tool=5)], ParseError, "MDT entry 0 field 'tool' must be a string"),
    "mdt-empty-tool": ("mdt", [_mdt(tool="")], ParseError, "MDT entry 0 has an empty tool name"),
    "mdt-whitespace-tool": ("mdt", [_mdt(tool=" \t　")], ParseError, "MDT entry 0 has an empty tool name"),
    "mdt-subtasks-string": (
        "mdt", [_mdt(subtasks="Object Detection")], ParseError,
        "MDT entry 0 field 'subtasks' must be an array of strings",
    ),
    "mdt-int-in-subtasks": (
        "mdt", [_mdt(subtasks=[1])], ParseError, "MDT entry 0 field 'subtasks' must be an array of strings"
    ),
    "mdt-null-in-inputs": (
        "mdt", [_mdt(inputs=["Input Image", None])], ParseError,
        "MDT entry 0 field 'inputs' must be an array of strings",
    ),
    "mdt-array-in-outputs": (
        "mdt", [_mdt(outputs=[["Bounding Boxes"]])], ParseError,
        "MDT entry 0 field 'outputs' must be an array of strings",
    ),
    "mdt-unknown-subtask": (
        "mdt", [_mdt(subtasks=["Object Teleportation"])], UnknownSubtask, "unknown subtask 'Object Teleportation'"
    ),
    "mdt-duplicate-pair": (
        "mdt", [_ROW, _mdt(tool=" X ", subtasks=["object  detection"])], DuplicateEntry,
        "duplicate (tool, subtask) pair ('X', 'Object Detection')",
    ),
    # Two faults in one row: the first check in row order names the error.
    "mdt-empty-tool-and-subtasks-string": (
        "mdt", [_mdt(tool="", subtasks="Object Detection")], ParseError, "MDT entry 0 has an empty tool name"
    ),
    "mdt-unknown-subtask-and-outputs-string": (
        "mdt", [_mdt(subtasks=["Object Teleportation"], outputs="Bounding Boxes")], ParseError,
        "MDT entry 0 field 'outputs' must be an array of strings",
    ),
    "mdt-bad-row-after-good": (
        "mdt", [_ROW, _mdt(tool="Y", inputs="Input Image")], ParseError,
        "MDT entry 1 field 'inputs' must be an array of strings",
    ),
    "bench-row-not-object": ("bench", ["X", _bench("Y")], ParseError, "benchmark row 0 is not an object"),
    "bench-missing-field": (
        "bench", [_without(_bench(), "quality"), _bench("Y")], ParseError, "benchmark row 0 missing field 'quality'"
    ),
    "bench-bool-time": (
        "bench", [_bench(time_seconds=True), _bench("Y")], ParseError,
        "benchmark row 0 " + _NUMBER.format("time_seconds"),
    ),
    "bench-string-quality": (
        "bench", [_bench(quality="0.5"), _bench("Y")], ParseError, "benchmark row 0 " + _NUMBER.format("quality")
    ),
    "bench-int-time": ("bench", [_bench(time_seconds=2), _bench("Y", quality=1)], None, None),
    "bench-1e400-time": (
        "bench", [_bench(time_seconds="@"), _bench("Y")], ParseError,
        "benchmark row 0 " + _NUMBER.format("time_seconds"), "1e400",
    ),
    "bench-huge-int-quality": (
        "bench", [_bench(quality="@"), _bench("Y")], ParseError,
        "benchmark row 0 " + _NUMBER.format("quality"), "1" + "0" * 400,
    ),
    "bench-nan-time": (
        "bench", [_bench(time_seconds=math.nan), _bench("Y")], ParseError,
        "benchmark row 0 " + _NUMBER.format("time_seconds"),
    ),
    "bench-infinity-quality": (
        "bench", [_bench(quality=math.inf), _bench("Y")], ParseError, "benchmark row 0 " + _NUMBER.format("quality")
    ),
    "bench-minus-infinity-time": (
        "bench", [_bench(time_seconds=-math.inf), _bench("Y")], ParseError,
        "benchmark row 0 " + _NUMBER.format("time_seconds"),
    ),
    "bench-tool-not-string": (
        "bench", [_bench(tool=None), _bench("Y")], ParseError, "benchmark row 0 field 'tool' must be a string"
    ),
    "bench-empty-tool": (
        "bench", [_bench(tool=" "), _bench("Y")], ParseError,
        "benchmark row 0 references ('', 'Object Detection'), which is not in the MDT",
    ),
    "bench-unknown-subtask": (
        "bench", [_bench(subtask="Object Teleportation"), _bench("Y")], UnknownSubtask,
        "unknown subtask 'Object Teleportation'",
    ),
    "bench-duplicate-row": (
        "bench", [_bench(), _bench("X ", subtask="object detection")], DuplicateEntry,
        "duplicate benchmark row for ('X', 'Object Detection')",
    ),
    "bench-negative-time": (
        "bench", [_bench(time_seconds=-0.5), _bench("Y")], NegativeTime,
        "negative time -0.5 for ('X', 'Object Detection')",
    ),
    "bench-zero-quality": (
        "bench", [_bench(quality=0.0), _bench("Y")], NonPositiveQuality,
        "quality for ('X', 'Object Detection') must be > 0, got 0.0",
    ),
    "bench-missing-pair": (
        "bench", [_bench()], MissingBenchmark, "MDT pairs without benchmark rows: [('Y', 'Object Detection')]"
    ),
    # Two faults in one row: the subtask is resolved before the time is checked.
    "bench-unknown-subtask-and-string-time": (
        "bench", [_bench(subtask="Object Teleportation", time_seconds="1"), _bench("Y")], UnknownSubtask,
        "unknown subtask 'Object Teleportation'",
    ),
    "bench-bad-row-after-good": (
        "bench", [_bench(), _bench("Y", quality=False)], ParseError, "benchmark row 1 " + _NUMBER.format("quality")
    ),
}


@pytest.mark.parametrize("case", list(_ERROR_CASES), ids=list(_ERROR_CASES))
def test_registry_errors_are_pinned(case):
    table, rows, error, message, *literal = _ERROR_CASES[case]
    text = json.dumps(rows)
    if literal:
        text = text.replace('"@"', literal[0])
    parse = parse_mdt if table == "mdt" else lambda t: parse_benchmark(t, parse_mdt(_BENCH_MDT))
    if error is None:
        bt = parse(text)
        assert [(r.time_seconds, r.quality_norm) for r in bt.rows.values()] == [(2.0, 0.5), (1.0, 1.0)]
        assert all(type(r.time_seconds) is float and type(r.quality_norm) is float for r in bt.rows.values())
        return
    with pytest.raises(error) as caught:
        parse(text)
    assert type(caught.value) is error and str(caught.value) == message


def test_parsed_rows_equal_constructed_ones():
    mdt = parse_mdt(_BENCH_MDT)
    rec = mdt.records[("X", "Object Detection")]
    built = ToolRecord("X", "Object Detection", frozenset({"input image"}), frozenset({"bounding boxe"}))
    assert rec == built and hash(rec) == hash(built) and rec._asdict() == built._asdict()
    row = parse_benchmark(json.dumps([_bench(), _bench("Y", quality=1.0)]), mdt).row("X", "Object Detection")
    assert row == BenchmarkRow(1.0, 0.5) and hash(row) == hash(BenchmarkRow(1.0, 0.5))
    assert row._asdict() == {"time_seconds": 1.0, "quality_norm": 0.5}
    with pytest.raises(AttributeError):
        rec.tool = "Y"
    with pytest.raises(AttributeError):
        row.time_seconds = 2.0


def test_parse_normalizes_each_distinct_name_at_most_once_and_only_when_read(monkeypatch):
    """Each distinct subtasks list is canonicalized once per parse, shared or not; each resource
    name is normalized at most once per table, and only when a record or index holding it is read."""
    ios = [["Input Image"], ["Bounding Boxes", "input  image"], ["Segmentation Masks", "Input Image"]]
    subtasks = [["Object Detection"], ["object  segmentation"], ["Object Removal", "Outpainting"]]

    def parse(n):
        mdt = [
            {"tool": f"T{i}", "subtasks": subtasks[i % 3], "inputs": ios[i % 3], "outputs": ios[(i + 1) % 3]}
            for i in range(n)
        ]
        bench = [
            {"tool": f"T{i}", "subtask": sub, "time_seconds": 1.0, "quality": 0.5}
            for i in range(n)
            for sub in subtasks[i % 3]
        ]
        counts.clear()
        table = parse_mdt(json.dumps(mdt))
        parse_benchmark(json.dumps(bench), table)
        return table

    def calls(name):
        return Counter({x: n for (f, x), n in counts.items() if f == name})

    counts: Counter[tuple[str, str]] = Counter()
    for name in ("canonical_subtask", "normalize_resource"):
        original = getattr(registry, name)
        monkeypatch.setattr(registry, name, lambda x, f=original, name=name: counts.update([(name, x)]) or f(x))
    parse(3)
    small = calls("canonical_subtask")
    table = parse(400)
    assert calls("canonical_subtask") == small and small
    assert calls("normalize_resource") == {}
    table.records[("T0", "Object Detection")]  # inputs ios[0], outputs ios[1]
    assert calls("normalize_resource") == dict.fromkeys(ios[0] + ios[1], 1)
    for index in table:
        list(index.items())
    assert calls("normalize_resource") == dict.fromkeys({x for names in ios for x in names}, 1)


class _Reads:
    """An MDT index that notes each key read through `get`, the one read the subgraph build makes."""

    def __init__(self, index):
        self.index, self.keys = index, []

    def get(self, key, default=None):
        self.keys.append(key)
        return self.index.get(key, default)


@pytest.mark.parametrize("seed", range(4))
def test_a_plan_builds_only_the_records_it_reads(seed, monkeypatch):
    """Against hundreds of distractor rows, a plan builds the records of the pairs the subgraph
    build and `_resolve` read, each once, and nothing else; checking and counting build none."""
    payload = synth.registry_instance(seed)
    built: list[tuple[str, str]] = []
    monkeypatch.setattr(registry, "ToolRecord", lambda *fields: built.append(fields[:2]) or ToolRecord(*fields))
    mdt = parse_mdt(json.dumps(payload["mdt"]))
    bt = parse_benchmark(json.dumps(payload["benchmark"]), mdt)
    tree = parse_subtask_tree(json.dumps(payload["tree"]))
    kind = tree.nodes[0].kind
    # perfbench's traced load span counts `len(records)`.
    assert len(mdt.records) == len(payload["mdt"]) > 400 and ("Distractor-000", kind) not in mdt.records
    assert all((row["tool"], row["subtasks"][0]) in mdt.records for row in payload["mdt"])
    assert built == []
    assert [r.key for r in mdt.by_subtask.get(kind)] == [(f"Stage-0{c}", kind) for c in range(3)]
    assert built == [(f"Stage-0{c}", kind) for c in range(3)]

    built.clear()
    mdt = parse_mdt(json.dumps(payload["mdt"]))
    reads = {"by_subtask": _Reads(mdt.by_subtask), "producers": _Reads(mdt.producers)}
    graph = build_tool_subgraph(tree, mdt._replace(**reads))
    result = astar_search(graph, suffix_bounds(graph, bt), Simulator(SimulatorSpec(), bt, 0), SearchConfig())
    assert result.path is not None
    read = {rec.key for name, index in reads.items() for key in index.keys for rec in getattr(mdt, name).get(key, ())}
    assert sorted(built) == sorted(read)
    # Per stage: three candidates, the two one-step helpers and the two-step chain.
    assert len(read) == 7 * len(tree.nodes) and not any(tool.startswith("Distractor") for tool, _ in read)


@pytest.mark.parametrize(
    "text, code",
    [('["\\ud800X"]', 0xD800), ('{"a": ["\\udfff"]}', 0xDFFF), ('{"\\udc00": 1}', 0xDC00),
     ('["\\ude00\\ud83d"]', 0xDE00)],
    ids=["high", "low", "key", "reversed-pair"],
)
def test_parse_json_refuses_an_unpaired_surrogate(text, code):
    with pytest.raises(ParseError) as caught:
        registry.parse_json(text, "MDT", object)
    assert str(caught.value) == f"MDT holds an unpaired surrogate U+{code:04X}"


def test_parse_json_keeps_a_surrogate_pair():
    assert registry.parse_json('["\\ud83d\\ude00", "\\u00e9"]', "MDT", list) == ["\U0001f600", "\u00e9"]


def _variant(names, case=(str, str.lower, str.upper)):
    """A name from `names` with its case changed and its spaces padded, doubled or turned to tabs."""
    return st.builds(
        lambda name, f, pad, gap: pad + f(name).replace(" ", gap) + pad,
        st.sampled_from(names),
        st.sampled_from(case),
        st.sampled_from(["", " ", "\n"]),
        st.sampled_from([" ", "  ", "\t"]),
    )


_TOOL = _variant([f"Tool {c}" for c in "ABCDEFGHIJ"], case=(str, str.lower))
_SUBTASK = _variant(ALL_SUBTASKS[:7] + ("Text Style Detection",))
_RESOURCE = _variant(["Input Image", "Bounding Box", "Bounding Boxes", "Segmentation Mask", "Text", "Texts"])
_TIME = st.one_of(st.floats(-1, 100, allow_nan=False), st.integers(-1, 100))
_QUALITY = st.one_of(st.floats(0.01, 1.0), st.integers(1, 5))


def _outcome(parse, *args):
    """What `parse` returns, or the exact type and message of what it raises."""
    try:
        return parse(*args)
    except Exception as exc:  # the error itself is compared
        return (type(exc), str(exc))


def _assert_same_benchmark(bt, expected):
    """Both parses raised the same error, or both built the same rows, in the same order and types."""
    if isinstance(expected, BenchmarkTable):
        assert isinstance(bt, BenchmarkTable), bt
        assert repr(list(bt.rows.items())) == repr(list(expected.rows.items()))
    else:
        assert bt == expected


@given(st.data())
def test_one_pass_parse_matches_the_field_by_field_parse(data):
    pool = data.draw(st.lists(st.lists(_RESOURCE, max_size=3), min_size=1, max_size=4))
    io = st.one_of(st.sampled_from(pool), st.lists(_RESOURCE, max_size=3))
    row = st.fixed_dictionaries({"tool": _TOOL, "subtasks": st.lists(_SUBTASK, max_size=2), "inputs": io, "outputs": io})
    mdt_text = json.dumps(data.draw(st.lists(row, max_size=10)))
    expected = _outcome(reference_parse_mdt, mdt_text)
    with mock.patch.object(registry.logger, "warning") as warning:
        mdt = _outcome(parse_mdt, mdt_text)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert mdt == expected
        return
    ref, gaps = expected
    for index in ("records", "tool_io", "by_subtask", "producers"):
        assert list(getattr(mdt, index).items()) == list(getattr(ref, index).items())
    if gaps:
        warning.assert_called_once_with("no tool supports %d subtask(s): %s", len(gaps), ", ".join(gaps))
    else:
        warning.assert_not_called()

    bench = [
        {
            "tool": data.draw(st.sampled_from(["", " "])) + tool.replace(" ", data.draw(st.sampled_from([" ", "  "]))),
            "subtask": data.draw(_variant([sub])),
            "time_seconds": data.draw(_TIME),
            "quality": data.draw(_QUALITY),
        }
        for tool, sub in ref.records
    ]
    bench_text = json.dumps(data.draw(st.permutations(bench)))
    expected = _outcome(reference_parse_benchmark, bench_text, ref)
    _assert_same_benchmark(_outcome(parse_benchmark, bench_text, mdt), expected)


# Values that are not strings: ill-typed for a name, and for an element of a name list.
_NOT_A_STRING = st.sampled_from([5, 1.5, None, True, ["X"], {}])
_MDT_FIELDS = ("tool", "subtasks", "inputs", "outputs")
_BENCH_FIELDS = ("tool", "subtask", "time_seconds", "quality")


def _spoiled(names):
    """`names` with an element that is not a string inserted, most often at the end."""
    return st.builds(lambda i, x: names[: len(names) - i] + [x] + names[len(names) - i :], st.integers(0, len(names)),
                     _NOT_A_STRING)


def _replaced(row, fields, value):
    """`row` with each of 1 or 2 fields drawn from `fields` set to a value drawn by `value(field)`."""
    return st.lists(st.sampled_from(fields), min_size=1, max_size=2, unique=True).flatmap(
        lambda keys: st.tuples(*map(value, keys)).map(lambda values: dict(row, **dict(zip(keys, values))))
    )


def _ill_formed(row, fields, value):
    """`row` as a non-object or without a field, or, as often, with 1 or 2 fields set to values drawn by `value`."""
    return st.one_of(
        st.sampled_from([5, "X", None, [row]] + [_without(row, key) for key in fields]),
        _replaced(row, fields, value),
    )


@settings(max_examples=200)
@given(st.data())
def test_ill_typed_rows_fail_as_in_the_field_by_field_parse(data):
    """Ill-formed rows after rows whose lists are in the memos raise exactly what the reference parse raises."""
    pool = data.draw(st.lists(st.lists(_RESOURCE, max_size=3), min_size=1, max_size=3))
    subtasks = st.lists(_SUBTASK, min_size=1, max_size=2, unique_by=lambda s: _squash(s).lower())
    subtask_pool = data.draw(st.lists(subtasks, min_size=1, max_size=3))
    good = st.fixed_dictionaries(
        {"tool": _TOOL, "subtasks": st.sampled_from(subtask_pool), "inputs": st.sampled_from(pool),
         "outputs": st.sampled_from(pool)}
    )
    rows = data.draw(st.lists(good, min_size=2, max_size=8))

    def mdt_value(key):
        if key == "tool":
            return st.one_of(_NOT_A_STRING, st.sampled_from(["", " \t"]))
        unknown = [["Object Teleportation"]] if key == "subtasks" else []
        return st.one_of(
            st.sampled_from([5, 1.5, None, True, {}, "Input Image", "Object Detection"] + unknown),
            st.sampled_from(pool + subtask_pool + [["Object Teleportation"]]).flatmap(_spoiled),
        )

    bad = data.draw(_ill_formed(data.draw(good), _MDT_FIELDS, mdt_value))
    at = data.draw(st.integers(1, len(rows)))
    mdt_text = json.dumps(rows[:at] + [bad] + rows[at:])
    expected = _outcome(reference_parse_mdt, mdt_text)
    assert isinstance(expected[0], type) and _outcome(parse_mdt, mdt_text) == expected

    # Distinct tools, so that the table parses and each of its at least two rows has a record.
    mdt_text = json.dumps([dict(row, tool=f"{row['tool']}#{i}") for i, row in enumerate(rows)])
    ref, mdt = reference_parse_mdt(mdt_text)[0], parse_mdt(mdt_text)
    bench = [
        {"tool": tool, "subtask": data.draw(_variant([sub])), "time_seconds": 1.0, "quality": 0.5}
        for tool, sub in ref.records
    ]

    def bench_value(key):
        if key == "tool":
            return _NOT_A_STRING
        if key == "subtask":
            return st.one_of(_NOT_A_STRING, st.just("Object Teleportation"))
        return st.sampled_from([2, 0, True, False, "0.5", math.nan, math.inf, -math.inf, None])

    at = data.draw(st.integers(1, len(bench) - 1))
    bench[at] = data.draw(_ill_formed(bench[at], _BENCH_FIELDS, bench_value))
    bench_text = json.dumps(bench)
    expected = _outcome(reference_parse_benchmark, bench_text, ref)
    _assert_same_benchmark(_outcome(parse_benchmark, bench_text, mdt), expected)
