from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toolpath.errors import (
    DuplicateEntry,
    MissingBenchmark,
    NegativeTime,
    NonPositiveQuality,
    ParseError,
    UnknownSubtask,
)
from toolpath.registry import (
    PLANNER_SUBTASKS,
    _squash,
    canonical_subtask,
    load_mdt,
    lookup_models,
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
    assert mdt.coverage_gaps == ()
    # one row per (tool, subtask) pairing
    assert len({r.key for r in mdt.records.values()}) == 32


def test_load_table1_excerpt(data_dir):
    mdt = load_mdt(data_dir / "mdt_table1.json")
    assert len(mdt.tool_io) == 5  # five rows, one tool each
    sam = mdt.records[("SAM", "Object Segmentation")]
    assert sam.inputs == ("Bounding Boxes",)
    assert sam.outputs == ("Segmentation Masks",)
    assert lookup_models(mdt, "Object Detection") == {"YOLO"}


def test_empty_mdt_warns_about_all_24_subtasks(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="toolpath.registry"):
        mdt = parse_mdt("[]")
    assert mdt.records == {} and mdt.tool_io == {}
    assert set(mdt.coverage_gaps) == set(PLANNER_SUBTASKS)
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
