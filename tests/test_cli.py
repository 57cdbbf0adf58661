from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import site
import subprocess
import sys
import threading
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import reference_fronts
from synth import (
    build_payload,
    chain_instance,
    deep_chain_instance,
    deep_prerequisite_instance,
    random_pipeline_instance,
    tradeoff_chain_instance,
    write_instance,
)
from test_planning import REPEATED_LABEL_TREES
from toolpath import cli, search
from toolpath.cli import EXIT_QUEUE_OVERFLOW, main


def _args_detection(data_dir, extra=()):
    return [
        "--mdt", str(data_dir / "mdt_detection_choice.json"),
        "--benchmark", str(data_dir / "benchmark_detection_choice.json"),
        "--tree", str(data_dir / "tree_detection_choice.json"),
        *extra,
    ]


def test_plan_detection_fixture_alpha2(data_dir, tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = main(["plan", *_args_detection(data_dir), "--alpha", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "found"
    assert [row["tool"] for row in payload["path"]] == [
        "ROOT",
        "YOLOv7",
        "SAM",
        "Stable Diffusion Inpaint",
    ]
    assert out.with_suffix(".json.trace.json").is_file()
    manifest = json.loads(out.with_suffix(".json.manifest.json").read_text())
    assert manifest["seed"] == 0xC057A  # fixed default, never wall clock
    assert set(manifest) == {"command", "config_hash", "inputs", "seed", "versions", "timestamp"}


def test_plan_missing_tree_is_usage_error(data_dir, capsys):
    code = main([
        "plan",
        "--mdt", str(data_dir / "mdt_detection_choice.json"),
        "--benchmark", str(data_dir / "benchmark_detection_choice.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_plan_nonexistent_file_is_input_error(data_dir, capsys):
    code = main(["plan", *_args_detection(data_dir)[:-1], str(data_dir / "missing.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_plan_alpha_out_of_range(data_dir, capsys):
    code = main(["plan", *_args_detection(data_dir), "--alpha", "3"])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_plan_scripted_always_fail_exits_2(data_dir, tmp_path):
    mdt = json.loads((data_dir / "benchmark_detection_choice.json").read_text())
    script = [
        {"tool": row["tool"], "subtask": row["subtask"], "attempt": attempt, "time": 1.0, "quality": 0.1}
        for row in mdt
        for attempt in range(1, 6)
    ]
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps({"mode": "scripted", "script": script}))
    code = main(["plan", *_args_detection(data_dir), "--sim", str(spec_path)])
    assert code == 2


def test_plan_script_tool_names_collapse_whitespace(data_dir, tmp_path):
    # The MDT and benchmark loaders collapse whitespace in tool names; so does a script.
    rows = json.loads((data_dir / "benchmark_detection_choice.json").read_text())
    script = [
        {"tool": f" {row['tool']} ", "subtask": row["subtask"], "attempt": 1, "time": 1.0, "quality": 0.9}
        for row in rows
    ]
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps({"mode": "scripted", "script": script}))
    out = tmp_path / "plan.json"
    assert main(["plan", *_args_detection(data_dir), "--sim", str(spec_path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "found"


@pytest.mark.parametrize("name", REPEATED_LABEL_TREES)
def test_plan_repeated_tree_label_is_input_error(name, data_dir, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"task": "x", "subtask_tree": REPEATED_LABEL_TREES[name]}))
    code = main([
        "plan",
        "--mdt", str(data_dir / "mdt_full.json"),
        "--benchmark", str(data_dir / "benchmark_full.json"),
        "--tree", str(tree),
    ])
    assert code == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: duplicate node label ")


def test_plan_queue_overflow_exits_4(data_dir, monkeypatch, capsys):
    # shared_end's suffix fronts hold 2 points and its queue peaks at 3 entries,
    # so at a cap of 2 the search's queue, not a Pareto pass, overflows.
    monkeypatch.setattr(search, "QUEUE_CAP", 2)
    code = main([
        "plan",
        "--mdt", str(data_dir / "mdt_shared_end.json"),
        "--benchmark", str(data_dir / "benchmark_shared_end.json"),
        "--tree", str(data_dir / "tree_shared_end.json"),
        "--alpha", "1",
    ])
    assert code == EXIT_QUEUE_OVERFLOW == 4
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: search queue exceeded its capacity of 2 entries"]


@pytest.mark.parametrize("stages, code", [(15, 0), (16, EXIT_QUEUE_OVERFLOW), (24, EXIT_QUEUE_OVERFLOW)])
def test_tradeoff_chain_exits_4_above_the_capacity(stages, code, tmp_path, capsys):
    """Every path of an S-stage trade-off chain is Pareto-optimal.

    So the suffix-bounds pass keeps 2**(S+1) - 2 points and the playback
    front 2**(S+1) - 1 labels.  At S = 15 that is 65,535 at most, within
    the default capacity of 100,000, and every command succeeds; from
    S = 16 on it is 131,071 or more, and every command exits 4 with one
    error line naming the pass that overflowed, long before the 2**24
    paths of S = 24 could be built: plan and verify build the suffix
    bounds first, a deterministic sweep only the playback front.
    """
    assert 2 ** (15 + 1) - 1 <= search.QUEUE_CAP < 2 ** (16 + 1) - 2
    args = [f"--{name}={path}" for name, path in write_instance(tradeoff_chain_instance(stages), tmp_path).items()]
    for command, holder in (("plan", "suffix-bounds"), ("sweep", "playback-front"), ("verify", "suffix-bounds")):
        assert main([command, *args]) == code
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        if code:
            assert errors == [f"error: {holder} pass exceeded its capacity of {search.QUEUE_CAP} entries"]
        else:
            assert errors == []


def test_plan_json_reports_search_stats(data_dir, tmp_path):
    out = tmp_path / "plan.json"
    assert main(["plan", *_args_detection(data_dir), "--alpha", "0.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    stats = payload["stats"]
    assert set(stats) == {
        "executions",
        "expanded",
        "generated",
        "pruned_by_dominance",
        "stale_pops",
        "retries",
        "dropped_after_retries",
        "peak_frontier",
    }
    assert stats["expanded"] == payload["expanded_count"]
    assert stats["executions"] == stats["generated"] + stats["retries"]
    trace = json.loads(out.with_suffix(".json.trace.json").read_text())
    assert stats["executions"] == trace["totals"]["events"]


def test_plan_byte_identical_across_runs(data_dir, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        assert main(["plan", *_args_detection(data_dir), "--alpha", "1.5", "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (
        out_a.with_suffix(".json.trace.json").read_bytes()
        == out_b.with_suffix(".json.trace.json").read_bytes()
    )


def test_plan_stochastic_honors_seed(data_dir, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    out_c = tmp_path / "c.json"
    base = ["plan", *_args_detection(data_dir), "--sim", "stochastic"]
    assert main([*base, "--seed", "7", "--out", str(out_a)]) == 0
    assert main([*base, "--seed", "7", "--out", str(out_b)]) == 0
    assert main([*base, "--seed", "8", "--out", str(out_c)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != out_c.read_bytes()


def test_sweep_csv(data_dir, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", *_args_detection(data_dir), "--alphas", "0,2", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "alpha,total_time,quality_product,g_final,non_dominated"
    assert len(lines) == 3
    a0 = lines[1].split(",")
    a2 = lines[2].split(",")
    assert float(a2[1]) <= float(a0[1])  # total_time
    assert float(a2[2]) <= float(a0[2])  # quality_product


def test_sweep_csv_is_a_second_name_for_out(data_dir, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for first, second in ((a, b), (b, a)):
        argv = ["sweep", *_args_detection(data_dir), "--csv", str(first), "--out", str(second)]
        assert main(argv) == 0
        assert second.is_file() and not first.exists()
        second.unlink()
        second.with_suffix(".csv.manifest.json").unlink()


def test_sweep_duplicate_alphas(data_dir, capsys):
    code = main(["sweep", *_args_detection(data_dir), "--alphas", "1,1"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert out[1] == out[2]


def test_sweep_alpha_out_of_range(data_dir, capsys):
    code = main(["sweep", *_args_detection(data_dir), "--alphas", "3"])
    assert code == 1


def test_sweep_non_numeric_alpha_is_input_error(data_dir, capsys):
    code = main(["sweep", *_args_detection(data_dir), "--alphas", "0,abc"])
    assert code == 1
    assert "error: --alphas" in capsys.readouterr().err


def test_negative_zero_alpha_is_written_as_zero(data_dir, tmp_path, capsys):
    """`-0` lies in [0, 2]; sweep, plan and verify all write it as the alpha 0."""
    assert main(["sweep", *_args_detection(data_dir), "--alphas=-0,2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "2"]
    for command in ("plan", "verify"):
        out = tmp_path / f"{command}.json"
        assert main([command, *_args_detection(data_dir), "--alpha", "-0", "--out", str(out)]) == 0
        text = out.read_text()
        assert '"alpha": 0.0,' in text and "-0.0" not in text


@pytest.mark.parametrize("option", ["--alphas=,", "--alphas=", "--alphas= , "])
def test_sweep_alpha_list_naming_no_alpha_is_input_error(data_dir, tmp_path, capsys, option):
    """A list with no alpha in it would write a header-only CSV; it exits 1 and writes nothing."""
    code = main(["sweep", *_args_detection(data_dir), option, "--csv", str(tmp_path / "sweep.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --alphas names no alpha")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, option",
    [
        ("sweep", "--alphas=abc"),
        ("sweep", "--alphas=0,3"),
        ("sweep", "--alphas=nan"),
        ("sweep", "--alphas=,"),
        ("sweep", "--alphas="),
        ("verify", "--alpha=3"),
    ],
)
def test_alphas_are_checked_before_reading_inputs(data_dir, tmp_path, capsys, command, option):
    """A bad alpha is reported before a missing input file is, and nothing is written."""
    missing = str(tmp_path / "missing.json")
    args = ["--mdt", missing, "--benchmark", missing, "--tree", str(data_dir / "tree_detection_choice.json")]
    code = main([command, *args, option, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha" in err and "not found" not in err
    assert list(tmp_path.iterdir()) == []


def test_plan_quality_threshold_above_one_is_input_error(data_dir, capsys):
    code = main(["plan", *_args_detection(data_dir), "--quality-threshold", "1.5"])
    assert code == 1
    assert "error: quality_threshold" in capsys.readouterr().err


def test_plan_nan_quality_threshold_is_input_error(data_dir, capsys):
    code = main(["plan", *_args_detection(data_dir), "--quality-threshold", "nan"])
    assert code == 1
    assert "error: quality_threshold" in capsys.readouterr().err


def test_plan_negative_max_retries_is_input_error(data_dir, capsys):
    code = main(["plan", *_args_detection(data_dir), "--max-retries", "-1"])
    assert code == 1
    assert "error: max_retries" in capsys.readouterr().err


def test_sweep_exhaustion_exits_2(data_dir, tmp_path):
    rows = json.loads((data_dir / "benchmark_detection_choice.json").read_text())
    script = [
        {"tool": row["tool"], "subtask": row["subtask"], "attempt": attempt, "time": 1.0, "quality": 0.1}
        for row in rows
        for attempt in range(1, 6)
    ]
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(json.dumps({"mode": "scripted", "script": script}))
    code = main(["sweep", *_args_detection(data_dir), "--alphas", "1", "--sim", str(spec_path)])
    assert code == 2


def test_sweep_byte_identical(data_dir, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", *_args_detection(data_dir), "--alphas", "0,1,2", "--csv", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_fixture_gap_zero(data_dir, capsys):
    code = main(["verify", *_args_detection(data_dir), "--alpha", "2", "--gap-tolerance", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] == 0.0
    assert payload["paths_enumerated"] == 2


def test_zero_time_path_scores_its_quality_at_alpha_0(tmp_path, capsys):
    """At alpha 0, g reads quality alone: a 0-second tool of quality 0.85 scores
    (2 - 0.85)**2 = 1.3225, so a 1-second tool of quality 1, at 1.0, beats it.

    Only the bare root, at time 0 and quality 1, scores 0.
    """
    tools = {"Good": (1.0, 1.0), "Zero": (0.0, 0.85)}
    payload = {
        "mdt": [
            {"tool": tool, "subtasks": ["Image Deblurring"], "inputs": ["Input Image"], "outputs": ["Sharp Image"]}
            for tool in tools
        ],
        "benchmark": [
            {"tool": tool, "subtask": "Image Deblurring", "time_seconds": time_seconds, "quality": quality}
            for tool, (time_seconds, quality) in tools.items()
        ],
        "tree": {"task": "Sharpen the photo", "subtask_tree": [{"subtask": "Image Deblurring(1)", "parent": []}]},
    }
    args = [f"--{name}={path}" for name, path in write_instance(payload, tmp_path).items()]
    assert main(["plan", *args, "--alpha", "0"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert [row["tool"] for row in plan["path"]] == ["ROOT", "Good"]
    assert plan["totals"] == {"time": 1.0, "quality_product": 1.0, "g": 1.0, "f": 1.0}
    assert main(["sweep", *args, "--alphas", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0,1,1,1,true", "1,0,0.85,0,true"]
    assert main(["verify", *args, "--alpha", "0", "--gap-tolerance", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["best_path"], report["best_objective"], report["gap"]) == ([0, 1], 1.0, 0.0)
    graph, bt, *_ = build_payload(payload)
    assert graph.nodes[1].tool == "Good"
    assert search.compute_g(0.0, 0.85, 0.0) == pytest.approx(1.3225)


def test_verify_paths_cap_is_no_longer_an_option(data_dir, capsys):
    """The path cap is retired with exit 3: the option is a usage error, exit 1."""
    assert main(["verify", *_args_detection(data_dir), "--paths-cap", "1000000"]) == 1
    assert "unrecognized arguments: --paths-cap 1000000" in capsys.readouterr().err


def test_verify_checks_a_chain_above_the_default_cap(tmp_path, capsys):
    """An 8 x 8 chain holds 16,777,216 paths, which verify checks at its default settings.

    verify reads its least g off one label-setting front and counts the
    paths without walking them.  The reference front totals each suffix
    from its end, so the least g it gives agrees to rounding, not bit for
    bit.
    """
    payload = chain_instance(1, stages=8, tools=8)
    args = [f"--{name}={path}" for name, path in write_instance(payload, tmp_path).items()]
    graph, bt, *_ = build_payload(payload)
    root_front = reference_fronts(graph, bt)[0]
    capsys.readouterr()
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
        argv = ["verify", *args, "--alpha", str(alpha), "--gap-tolerance", "0"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["paths_enumerated"] == 16_777_216
        least = min(search.compute_g(t, q, alpha) for t, q in root_front)
        assert math.isclose(report["best_objective"], least, rel_tol=1e-12)


def _full_example1(data_dir) -> list[str]:
    return [
        "--mdt", str(data_dir / "mdt_full.json"),
        "--benchmark", str(data_dir / "benchmark_full.json"),
        "--tree", str(data_dir / "tree_example1.json"),
    ]


@pytest.mark.parametrize("option, value", [
    ("--gap-tolerance", "nan"),
    ("--gap-tolerance", "-1"),
])
def test_verify_setting_that_can_never_apply_is_input_error(option, value, data_dir, tmp_path, capsys):
    # On full/example1 at a threshold of 1 the gap is 0.777, so a NaN tolerance that
    # turned the check off would exit 0.
    out = tmp_path / "verify.json"
    argv = ["verify", *_full_example1(data_dir), "--quality-threshold", "1", option, value, "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"error: {option} must be ")
    assert captured.out == "" and not out.exists() and not Path(f"{out}.manifest.json").exists()


def _plan_and_verify(tables: list[str], tmp_path, capsys) -> tuple[dict, dict]:
    out = tmp_path / "plan.json"
    assert main(["plan", *tables, "--alpha", "1", "--out", str(out)]) == 0
    assert main(["verify", *tables, "--alpha", "1", "--gap-tolerance", "0"]) == 0
    return json.loads(out.read_text()), json.loads(capsys.readouterr().out)


def _shared_end_tables(data_dir) -> list[str]:
    return [
        "--mdt", str(data_dir / "mdt_shared_end.json"),
        "--benchmark", str(data_dir / "benchmark_shared_end.json"),
        "--tree", str(data_dir / "tree_shared_end.json"),
    ]


def test_candidate_end_is_not_shared_with_a_prerequisite(data_dir, tmp_path, capsys):
    """Bar is a candidate on its own and Foo's prerequisite: two nodes, both paths kept."""
    tables = _shared_end_tables(data_dir)
    plan, report = _plan_and_verify(tables, tmp_path, capsys)
    assert [row["tool"] for row in plan["path"]] == ["ROOT", "Bar"]
    assert plan["totals"]["g"] == pytest.approx(0.55)
    assert report["paths_enumerated"] == 3 and report["gap"] == 0.0

    assert main(["graph", "--mdt", tables[1], "--tree", tables[5], "--format", "json"]) == 0
    graph = json.loads(capsys.readouterr().out)
    tools = {n["id"]: n["tool"] for n in graph["nodes"]}
    successors = {i: [b for a, b in graph["edges"] if a == i] for i in tools}
    bars = [i for i, tool in tools.items() if tool == "Bar"]
    # One Bar ends a plan (a sink), the other feeds Foo.
    assert sorted([tools[j] for j in successors[i]] for i in bars) == [[], ["Foo"]]


def test_lone_candidate_that_is_also_a_prerequisite_ends_a_plan(data_dir, tmp_path, capsys):
    """Without Bar, YOLO is a candidate on its own and Foo's prerequisite."""
    tables = _shared_end_tables(data_dir)
    for name in ("mdt", "benchmark"):
        rows = json.loads((data_dir / f"{name}_shared_end.json").read_text())
        (tmp_path / f"{name}.json").write_text(json.dumps([r for r in rows if r["tool"] != "Bar"]))
    tables[1], tables[3] = str(tmp_path / "mdt.json"), str(tmp_path / "benchmark.json")
    plan, report = _plan_and_verify(tables, tmp_path, capsys)
    assert [row["tool"] for row in plan["path"]] == ["ROOT", "YOLO"]
    assert plan["totals"]["f"] == plan["totals"]["g"]
    assert report["paths_enumerated"] == 2 and report["gap"] == 0.0


def test_verify_manifest_hashes_the_quality_settings(data_dir, tmp_path):
    tables = [
        "--mdt", str(data_dir / "mdt_full.json"),
        "--benchmark", str(data_dir / "benchmark_full.json"),
        "--tree", str(data_dir / "tree_example1.json"),
        "--alpha", "1",
    ]
    reports, manifests = [], []
    for threshold in ("0.8", "1.0"):
        out = tmp_path / f"verify-{threshold}.json"
        assert main(["verify", *tables, "--quality-threshold", threshold, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
        manifests.append(json.loads(out.with_suffix(".json.manifest.json").read_text()))
    assert reports[0]["gap"] == 0.0 and reports[1]["gap"] > 0.0
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
    assert manifests[0]["seed"] is None  # verify takes no --seed


def test_verify_rejects_sim(data_dir, capsys):
    code = main(["verify", *_args_detection(data_dir), "--sim", "/nonexistent.json"])
    assert code == 1
    assert "unrecognized arguments: --sim" in capsys.readouterr().err


def test_verify_rejects_seed(data_dir, capsys):
    code = main(["verify", *_args_detection(data_dir), "--seed", "1"])
    assert code == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_commands_reuse_the_module_parser(data_dir, tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    out = str(tmp_path / "out")
    assert main(["plan", *_args_detection(data_dir), "--out", out]) == 0
    assert main(["sweep", *_args_detection(data_dir), "--csv", out]) == 0
    assert main(["verify", *_args_detection(data_dir), "--out", out]) == 0


def test_parser_reuse_keeps_the_default_seed(data_dir, tmp_path):
    out = tmp_path / "plan.json"
    plan = ["plan", *_args_detection(data_dir), "--out", str(out)]
    assert main([*plan, "--sim", "stochastic", "--seed", "8"]) == 0
    assert main(plan) == 0
    assert json.loads(out.with_suffix(".json.manifest.json").read_text())["seed"] == 0xC057A


# Options that name an input or an output rather than a setting.
_FILE_OPTIONS = {"--mdt", "--benchmark", "--tree", "--out", "--csv", "--task", "--planner-endpoint"}

# (command, option) -> (further arguments, two values whose runs differ in output bytes or exit code).
# Seed 1 makes a plan on full/example1 at alpha 2 retry, so the retry budget shows.
_STOCHASTIC = ("--sim", "stochastic", "--seed", "1")
_OPTION_CASES = {
    ("plan", "--alpha"): ((), "0", "2"),
    ("plan", "--quality-threshold"): ((), "0", "1"),
    ("plan", "--max-retries"): ((*_STOCHASTIC, "--alpha", "2"), "0", "3"),
    ("plan", "--sim"): ((), "deterministic", "stochastic"),
    ("plan", "--seed"): (("--sim", "stochastic"), "1", "2"),
    ("sweep", "--alphas"): ((), "0", "2"),
    ("sweep", "--quality-threshold"): ((), "0", "1"),
    ("sweep", "--max-retries"): ((*_STOCHASTIC, "--alphas", "2"), "0", "3"),
    ("sweep", "--sim"): ((), "deterministic", "stochastic"),
    ("sweep", "--seed"): (("--sim", "stochastic"), "1", "2"),
    ("verify", "--alpha"): ((), "0", "2"),
    ("verify", "--quality-threshold"): ((), "0.8", "1"),
    ("verify", "--gap-tolerance"): (("--quality-threshold", "1"), "0", "1000"),
    ("graph", "--format"): ((), "dot", "json"),
}

# verify replays benchmark values deterministically, so every attempt returns
# the same row and the retry budget cannot change the report; perfbench
# passes --max-retries to every command, so verify keeps accepting it.
_UNREAD_OPTIONS = {("verify", "--max-retries")}


def _registered_options() -> set[tuple[str, str]]:
    subparsers = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (command, option)
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }


def test_every_setting_option_has_a_case():
    settings = {key for key in _registered_options() if key[1] not in _FILE_OPTIONS}
    assert settings == set(_OPTION_CASES) | _UNREAD_OPTIONS


def _outputs(argv: list[str], out: Path) -> tuple[int, list[bytes | None]]:
    """Exit code and the bytes of each output but the manifest, which holds a timestamp."""
    code = main([*argv, "--out", str(out)])
    files = [Path(f"{out}{suffix}") for suffix in ("", ".trace.json")]
    data = [path.read_bytes() if path.is_file() else None for path in files]
    for path in files:
        path.unlink(missing_ok=True)
    return code, data


@pytest.mark.parametrize("command, option", sorted(_OPTION_CASES))
def test_setting_option_is_read(command, option, data_dir, tmp_path, capsys):
    mdt = ["--mdt", str(data_dir / "mdt_full.json")]
    tables = [
        *mdt,
        "--benchmark", str(data_dir / "benchmark_full.json"),
        "--tree", str(data_dir / "tree_example1.json"),
    ]
    extra, first, second = _OPTION_CASES[command, option]
    argv = [command, *(mdt if command == "graph" else tables), *extra, option]
    out = tmp_path / "out"
    assert _outputs([*argv, first], out) != _outputs([*argv, second], out)


@pytest.mark.parametrize("command, option", sorted(_OPTION_CASES))
def test_setting_option_is_hashed(command, option):
    # The hash is taken from the parsed options, so no file is read.
    extra, first, second = _OPTION_CASES[command, option]
    tables = ["--mdt", "m.json"]
    if command != "graph":
        tables += ["--benchmark", "b.json", "--tree", "t.json"]
    hashes = set()
    for value in (first, second):
        argv = [command, *tables, *extra, option, value]
        hashes.add(cli.build_manifest(argv, cli._PARSER.parse_args(argv), {})["config_hash"])
    assert len(hashes) == 2


def test_config_hash_ignores_where_the_inputs_live(data_dir, tmp_path):
    manifests = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        tables = _full_example1(data_dir)
        for i in (1, 3, 5):
            tables[i] = shutil.copy(tables[i], tmp_path / name)
        out = tmp_path / name / "plan.json"
        assert main(["plan", *tables, "--alpha", "0.5", "--out", str(out)]) == 0
        manifests.append(json.loads(out.with_suffix(".json.manifest.json").read_text()))
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
    assert list(manifests[0]["inputs"].values()) == list(manifests[1]["inputs"].values())
    assert manifests[0]["inputs"] != manifests[1]["inputs"]


def test_config_hash_ignores_where_the_sim_spec_lives(data_dir, tmp_path):
    manifests = []
    for name in ("a", "b"):
        spec = tmp_path / name / "sim.json"
        spec.parent.mkdir()
        spec.write_text('{"mode": "stochastic"}')
        out = tmp_path / name / "plan.json"
        assert main(["plan", *_full_example1(data_dir), "--sim", str(spec), "--out", str(out)]) == 0
        manifests.append(json.loads(out.with_suffix(".json.manifest.json").read_text()))
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
    assert manifests[0]["inputs"][str(tmp_path / "a" / "sim.json")] == manifests[1]["inputs"][
        str(tmp_path / "b" / "sim.json")
    ]


def test_verify_random_corner_instances(tmp_path):
    for seed in (0, 1, 2):
        payload = random_pipeline_instance(seed, unit_quality=True)
        paths = write_instance(payload, tmp_path / f"inst{seed}")
        code = main([
            "verify",
            "--mdt", str(paths["mdt"]),
            "--benchmark", str(paths["benchmark"]),
            "--tree", str(paths["tree"]),
            "--alpha", "1",
            "--gap-tolerance", "0",
            "--out", str(tmp_path / f"report{seed}.json"),
        ])
        assert code == 0
        report = json.loads((tmp_path / f"report{seed}.json").read_text())
        assert report["gap"] == 0.0


def test_verify_deep_chain_tree(tmp_path):
    paths = write_instance(deep_chain_instance(1500), tmp_path / "deep")
    out = tmp_path / "report.json"
    code = main([
        "verify",
        "--mdt", str(paths["mdt"]),
        "--benchmark", str(paths["benchmark"]),
        "--tree", str(paths["tree"]),
        "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["paths_enumerated"] == 1


def test_plan_deep_prerequisite_chain_is_input_error(tmp_path, capsys):
    paths = write_instance(deep_prerequisite_instance(1200), tmp_path / "deep")
    code = main([
        "plan",
        "--mdt", str(paths["mdt"]),
        "--benchmark", str(paths["benchmark"]),
        "--tree", str(paths["tree"]),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too deeply" in err


def test_plan_short_prerequisite_chain_is_spliced(tmp_path):
    paths = write_instance(deep_prerequisite_instance(3), tmp_path / "short")
    out = tmp_path / "plan.json"
    code = main([
        "plan",
        "--mdt", str(paths["mdt"]),
        "--benchmark", str(paths["benchmark"]),
        "--tree", str(paths["tree"]),
        "--out", str(out),
    ])
    assert code == 0
    assert [row["tool"] for row in json.loads(out.read_text())["path"]] == ["ROOT", "H2", "H1", "H0", "Deblur"]


def test_plan_sweep_verify_never_build_the_tdg(data_dir, tmp_path, monkeypatch):
    def refuse(mdt):
        raise AssertionError("the dependency graph was built")

    monkeypatch.setattr(cli, "build_tdg", refuse)
    out = str(tmp_path / "out")
    assert main(["plan", *_args_detection(data_dir), "--out", out]) == 0
    assert main(["sweep", *_args_detection(data_dir), "--csv", out]) == 0
    assert main(["verify", *_args_detection(data_dir), "--out", out]) == 0


def test_graph_tdg_dot(data_dir, capsys):
    code = main(["graph", "--mdt", str(data_dir / "mdt_table1.json")])
    assert code == 0
    dot = capsys.readouterr().out
    assert '"YOLO" -> "SAM";' in dot
    assert dot.count("->") == 3


def test_graph_subgraph_json(data_dir, capsys):
    code = main([
        "graph",
        "--mdt", str(data_dir / "mdt_table1.json"),
        "--tree", str(data_dir / "tree_replacement.json"),
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"][0]["tool"] == "ROOT"
    assert len(payload["nodes"]) == 5


def test_plan_and_trace_name_nodes_as_graph_json(data_dir, tmp_path, capsys):
    """Plan rows and trace events name each node as `graph --format json` does."""
    tables = ["--mdt", str(data_dir / "mdt_full.json"), "--tree", str(data_dir / "tree_example2.json")]
    assert main(["graph", *tables, "--format", "json"]) == 0
    graph = json.loads(capsys.readouterr().out)
    names = {n["id"]: {k: n[k] for k in ("tool", "subtask", "argument", "ordinal")} for n in graph["nodes"]}
    successors = {i: [] for i in names}
    for a, b in graph["edges"]:
        successors[a].append(b)
    out = tmp_path / "plan.json"
    argv = ["plan", *tables, "--benchmark", str(data_dir / "benchmark_full.json"),
            "--sim", "stochastic", "--seed", "2", "--alpha", "2", "--out", str(out)]
    assert main(argv) == 0
    events = json.loads(out.with_suffix(".json.trace.json").read_text())["events"]
    assert any(e["attempt"] > 1 for e in events)  # the plan retries
    for event in events:
        assert {k: event[k] for k in names[event["node"]]} == names[event["node"]]
    # Plan rows carry no id: each row after ROOT is the one successor of the
    # previous row's node that bears its names.
    rows = json.loads(out.read_text())["path"]
    node = 0
    assert {k: rows[0][k] for k in names[node]} == names[node]
    for row in rows[1:]:
        matches = [j for j in successors[node] if names[j] == {k: row[k] for k in names[j]}]
        assert len(matches) == 1
        node = matches[0]


def test_graph_missing_tree_is_input_error(data_dir, capsys):
    code = main([
        "graph",
        "--mdt", str(data_dir / "mdt_table1.json"),
        "--tree", str(data_dir / "missing.json"),
    ])
    assert code == 1
    assert "error: tree file not found" in capsys.readouterr().err


def test_graph_full_mdt_edge_count_matches_oracle(data_dir, capsys):
    from oracles import load_json, pairwise_tdg_edges

    code = main(["graph", "--mdt", str(data_dir / "mdt_full.json"), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["edges"]) == len(pairwise_tdg_edges(load_json(data_dir / "mdt_full.json")))


class _PlannerHandler(BaseHTTPRequestHandler):
    canned = ""

    def do_POST(self):
        body = json.dumps({"text": self.canned}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_plan_via_planner_endpoint(data_dir, tmp_path, monkeypatch):
    _PlannerHandler.canned = (data_dir / "tree_detection_choice.json").read_text()
    server = HTTPServer(("127.0.0.1", 0), _PlannerHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("COSTA_PLANNER_URL", f"http://127.0.0.1:{server.server_port}")
        manifests = []
        for task in ("detect the car and remove it", "remove the car"):
            out = tmp_path / "plan.json"
            code = main([
                "plan",
                "--mdt", str(data_dir / "mdt_detection_choice.json"),
                "--benchmark", str(data_dir / "benchmark_detection_choice.json"),
                "--task", task,
                "--alpha", "2",
                "--out", str(out),
            ])
            assert code == 0
            payload = json.loads(out.read_text())
            assert payload["path"][1]["tool"] == "YOLOv7"
            manifests.append(json.loads(out.with_suffix(".json.manifest.json").read_text()))
        reply = hashlib.sha256(_PlannerHandler.canned.encode("utf-8")).hexdigest()
        assert manifests[0]["inputs"]["planner reply"] == reply
        assert manifests[0]["inputs"] == manifests[1]["inputs"]
        assert manifests[0]["config_hash"] != manifests[1]["config_hash"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_plan_task_without_endpoint_fails(data_dir, monkeypatch, capsys):
    monkeypatch.delenv("COSTA_PLANNER_URL", raising=False)
    code = main([
        "plan",
        "--mdt", str(data_dir / "mdt_detection_choice.json"),
        "--benchmark", str(data_dir / "benchmark_detection_choice.json"),
        "--task", "detect the car",
    ])
    assert code == 1


def test_graph_out_file_and_manifest(data_dir, tmp_path):
    out = tmp_path / "tdg.dot"
    code = main(["graph", "--mdt", str(data_dir / "mdt_full.json"), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("digraph")
    assert json.loads(out.with_suffix(".dot.manifest.json").read_text())["seed"] is None


# Run in a fresh interpreter: this session has imported numpy already (synth.py uses it).
_IMPORTS_PROBE = """
import contextlib, io, json, sys
from toolpath.cli import main

# Imported by a call that needs it; never imported by toolpath.
ON_DEMAND = ("urllib.request",)
NEVER = ("numpy", "dataclasses", "inspect", "platform", "datetime", "importlib.metadata")

def loaded(names=ON_DEMAND):
    return [name for name in names if name in sys.modules]

seen = {"import": [loaded(), loaded(NEVER)]}
inputs, out = sys.argv[1:4], sys.argv[4]
flags = ["--mdt", inputs[0], "--benchmark", inputs[1], "--tree", inputs[2]]
with contextlib.redirect_stdout(io.StringIO()):
    seen["stdout"] = [main(["plan", *flags]), loaded(), loaded(NEVER)]
seen["plan"] = [main(["plan", *flags, "--out", out + ".det"]), loaded(), loaded(NEVER)]
seen["stochastic"] = [main(["plan", *flags, "--sim", "stochastic", "--seed", "3", "--out", out + ".sto"]), loaded(), loaded(NEVER)]
print(json.dumps(seen))
"""


def test_a_call_imports_only_what_it_runs(data_dir, tmp_path):
    """urllib loads only for --task.

    No call imports numpy, dataclasses, inspect, platform, datetime or importlib.metadata, a
    stochastic plan included.  The probe runs under -S, so that no .pth file in site-packages
    preloads a module and hides its import.
    """
    src = Path(cli.__file__).resolve().parents[1]
    inputs = [str(data_dir / name) for name in ("mdt_full.json", "benchmark_full.json", "tree_example1.json")]
    out = tmp_path / "plan.json"
    run = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORTS_PROBE, *inputs, str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), *site.getsitepackages(), site.getusersitepackages()])},
    )
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert seen["import"] == [[], []]
    assert seen["stdout"] == [0, [], []]
    assert seen["plan"] == [0, [], []]
    assert seen["stochastic"] == [0, [], []]
    for suffix in (".det", ".sto"):
        manifest = json.loads((tmp_path / f"plan.json{suffix}.manifest.json").read_text())
        assert set(manifest["versions"]) == {"toolpath", "python"}


def test_manifest_names_the_python_version_and_a_utc_instant(data_dir, tmp_path):
    out = tmp_path / "plan.json"
    assert main(["plan", *_args_detection(data_dir), "--out", str(out)]) == 0
    manifest = json.loads(out.with_suffix(".json.manifest.json").read_text())
    assert manifest["versions"]["python"] == platform.python_version()
    assert datetime.fromisoformat(manifest["timestamp"]).utcoffset() == timedelta(0)


@given(st.floats(min_value=0.0, max_value=2.0**34))
@example(0.0)
@example(1_700_000_000.0)  # no fraction is written when the microsecond is 0
@example(1_700_000_000.25)
@example(1_700_000_000.000001)
@example(1_700_000_000.9999996)  # rounds up into the next second
@example(951_782_399.9999999)  # rounds up into a leap day
def test_utc_timestamp_matches_datetime_isoformat(seconds):
    assert cli._utc_timestamp(seconds) == datetime.fromtimestamp(seconds, timezone.utc).isoformat()
