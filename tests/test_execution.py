from __future__ import annotations

import json
import math
import re
import statistics

import pytest

from oracles import attempts_for
from synth import _assemble
from toolpath.errors import DuplicateEntry, MissingBenchmark, ParseError, ScriptGap
from toolpath.execution import (
    DEFAULT_SEED,
    MAX_TIME_SIGMA,
    ExecutionOutcome,
    ExecutionTrace,
    Simulator,
    SimulatorSpec,
    TraceEvent,
    simulator_spec_from_json,
    validate_quality,
)
from toolpath.graphs import PlanNode
from toolpath.planning import SubtaskInstance
from toolpath.registry import BenchmarkRow, BenchmarkTable

INST = SubtaskInstance(kind="Object Detection", argument="Cat", ordinal=1)
NODE = PlanNode(node_id=3, tool="YOLOv7", kind="Object Detection", instance=INST, role="candidate")
ROOT = PlanNode(node_id=0, tool=None, kind=None, instance=None, role="root")
# Node ids index the graph's node list, so ids 1 and 2 are filled with copies of NODE.
GRAPH = _assemble([ROOT, *(NODE._replace(node_id=i) for i in (1, 2)), NODE], {(0, 1), (0, 2), (0, 3)})
BT = BenchmarkTable(rows={("YOLOv7", "Object Detection"): BenchmarkRow(0.0062, 0.82)})


def test_deterministic_playback():
    out = Simulator(SimulatorSpec(mode="deterministic"), BT, seed=1)(NODE, 1)
    assert out == ExecutionOutcome(time_seconds=0.0062, quality=0.82)


def test_missing_benchmark_raises():
    other = PlanNode(node_id=4, tool="SAM", kind="Object Segmentation", instance=INST, role="candidate")
    with pytest.raises(MissingBenchmark):
        Simulator(SimulatorSpec(mode="deterministic"), BT, seed=1)(other, 1)


def test_zero_noise_stochastic_equals_deterministic():
    spec = SimulatorSpec(mode="stochastic", time_noise_sigma=0.0, quality_noise_sigma=0.0)
    out = Simulator(spec, BT, seed=42)(NODE, 1)
    assert out.time_seconds == 0.0062
    assert out.quality == 0.82


def test_stochastic_replay_is_bit_stable():
    spec = SimulatorSpec(mode="stochastic")
    a = Simulator(spec, BT, seed=99)(NODE, 2)
    b = Simulator(spec, BT, seed=99)(NODE, 2)
    assert a == b
    c = Simulator(spec, BT, seed=99)(NODE, 3)
    d = Simulator(spec, BT, seed=100)(NODE, 2)
    assert c != a and d != a


def test_stochastic_keying_is_order_independent():
    spec = SimulatorSpec(mode="stochastic")
    sim = Simulator(spec, BT, seed=7)
    first = sim(NODE, 1)
    # interleave other draws; the keyed draw must not move
    for attempt in range(2, 10):
        sim(NODE, attempt)
    assert sim(NODE, 1) == first


def test_stochastic_quality_clamped():
    rows = {("T", "Object Detection"): BenchmarkRow(1.0, 0.99)}
    node = PlanNode(node_id=1, tool="T", kind="Object Detection", instance=INST, role="candidate")
    spec = SimulatorSpec(mode="stochastic", quality_noise_sigma=0.8)
    sim = Simulator(spec, BenchmarkTable(rows=rows), seed=5)
    qualities = [sim(node, attempt).quality for attempt in range(1, 2001)]
    assert all(0.0 <= q <= 1.0 for q in qualities)
    assert any(q == 1.0 for q in qualities)


def test_stochastic_time_mean_matches_lognormal():
    sigma = 0.25
    spec = SimulatorSpec(mode="stochastic", time_noise_sigma=sigma)
    sim = Simulator(spec, BT, seed=11)
    times = [sim(NODE, attempt).time_seconds for attempt in range(1, 10001)]
    expected_mean = 0.0062 * math.exp(sigma**2 / 2)
    lognormal_sd = 0.0062 * math.sqrt((math.exp(sigma**2) - 1) * math.exp(sigma**2))
    stderr = lognormal_sd / math.sqrt(len(times))
    assert abs(statistics.fmean(times) - expected_mean) < 3 * stderr
    assert all(t >= 0 for t in times)


def test_stochastic_quality_is_a_gaussian_around_the_benchmark():
    # At quality 0.5 a sigma of 0.1 clamps less than once in 10^6 draws.
    sigma, n = 0.1, 20_000
    node = NODE._replace(tool="T")
    bt = BenchmarkTable(rows={("T", "Object Detection"): BenchmarkRow(1.0, 0.5)})
    sim = Simulator(SimulatorSpec(mode="stochastic", quality_noise_sigma=sigma), bt, seed=13)
    outcomes = [sim(node, attempt) for attempt in range(1, n + 1)]
    qualities = [out.quality for out in outcomes]
    assert abs(statistics.fmean(qualities) - 0.5) < 3 * sigma / math.sqrt(n)
    # The standard error of a sample sd is about sigma / sqrt(2 (n - 1)).
    assert abs(statistics.stdev(qualities) - sigma) < 3 * sigma / math.sqrt(2 * (n - 1))
    # Time and quality are the two normals of one Box-Muller pair: uncorrelated.
    log_times = [math.log(out.time_seconds) for out in outcomes]
    assert abs(statistics.correlation(log_times, qualities)) < 3 / math.sqrt(n)


@pytest.mark.parametrize(
    "seed, node_id, attempt, expected",
    [
        (0, 3, 1, (0.005999655515284151, 0.7434576991845983)),
        (DEFAULT_SEED, 3, 1, (0.007869628627876294, 0.8207173924061753)),
        (DEFAULT_SEED, 3, 2, (0.006305112346044892, 0.8229477982779061)),
        (DEFAULT_SEED, 17, 1, (0.006740028187971813, 0.8075031295498536)),
        # The seed enters the key masked to 64 bits.
        (-1, 3, 1, (0.007118867771807638, 0.8348034610412262)),
        (2**64 - 1, 3, 1, (0.007118867771807638, 0.8348034610412262)),
    ],
)
def test_stochastic_draw_of_a_key_is_pinned(seed, node_id, attempt, expected):
    """A change to the key's encoding or the digest's reading moves these values."""
    sim = Simulator(SimulatorSpec(mode="stochastic"), BT, seed)
    assert tuple(sim(NODE._replace(node_id=node_id), attempt)) == expected


def test_scripted_mode_and_gap():
    spec = SimulatorSpec(
        mode="scripted",
        script={("YOLOv7", "Object Detection", 1): (0.5, 0.3)},
    )
    out = Simulator(spec, BT, seed=0)(NODE, 1)
    assert (out.time_seconds, out.quality) == (0.5, 0.3)
    with pytest.raises(ScriptGap):
        Simulator(spec, BT, seed=0)(NODE, 2)


def test_spec_json_roundtrip():
    text = json.dumps(
        {
            "mode": "scripted",
            "time_noise_sigma": 0.2,
            "quality_noise_sigma": 0.1,
            "script": [
                {"tool": "YOLOv7", "subtask": "Object Detection", "attempt": 1, "time": 0.5, "quality": 0.3}
            ],
        }
    )
    spec = simulator_spec_from_json(text)
    assert spec.mode == "scripted"
    assert spec.script[("YOLOv7", "Object Detection", 1)] == (0.5, 0.3)
    with pytest.raises(ParseError):
        simulator_spec_from_json('{"mode": "warp-drive"}')
    with pytest.raises(ParseError):
        simulator_spec_from_json('{"mode": "scripted"}')


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_spec_json_rejects_non_finite_values(value):
    # json.dumps writes NaN / Infinity / -Infinity, which json.loads accepts
    for field in ("time_noise_sigma", "quality_noise_sigma"):
        with pytest.raises(ParseError):
            simulator_spec_from_json(json.dumps({"mode": "stochastic", field: value}))
    for field in ("time", "quality"):
        row = {"tool": "YOLOv7", "subtask": "Object Detection", "attempt": 1, "time": 0.5, "quality": 0.3}
        row[field] = value
        with pytest.raises(ParseError):
            simulator_spec_from_json(json.dumps({"mode": "scripted", "script": [row]}))


class _ExtremeDigest:
    """Stands in for blake2b: the least uniform, so the largest radius, and an angle of 0 or pi."""

    def __init__(self, angle_bits: int):
        self.value = ((2**53 - 1) << 75) | (angle_bits << 11)

    def __call__(self, key, digest_size):
        return self

    def digest(self) -> bytes:
        return self.value.to_bytes(16, "little")


@pytest.mark.parametrize("angle_bits", [0, 2**52])  # cos(angle) = 1, then -1
def test_extreme_draw_at_the_largest_time_sigma_is_finite_and_positive(angle_bits, monkeypatch):
    monkeypatch.setattr("toolpath.execution.hashlib.blake2b", _ExtremeDigest(angle_bits))
    spec = SimulatorSpec(mode="stochastic", time_noise_sigma=MAX_TIME_SIGMA)
    factor = Simulator(spec, BT, seed=0)(NODE, 1).time_seconds / 0.0062
    assert 0.0 < factor < math.inf
    # the draw is the extreme one: |z| = sqrt(106 ln 2)
    assert abs(math.log(factor) / MAX_TIME_SIGMA) == pytest.approx(math.sqrt(106 * math.log(2)), rel=1e-12)


def test_time_sigma_above_the_largest_is_refused():
    SimulatorSpec(mode="stochastic", time_noise_sigma=MAX_TIME_SIGMA)
    with pytest.raises(ParseError, match="time_noise_sigma must be at most 80, got 80.00000000000001"):
        SimulatorSpec(mode="stochastic", time_noise_sigma=math.nextafter(MAX_TIME_SIGMA, math.inf))


def _script_spec(*rows):
    return json.dumps({"mode": "scripted", "script": [
        {"tool": "YOLOv7", "subtask": "Object Detection", "attempt": 1, "time": 0.5, "quality": 0.3, **row}
        for row in rows
    ]})


def test_spec_json_rejects_a_repeated_script_row():
    text = _script_spec({}, {"tool": " YOLOv7", "subtask": "object detection", "time": 5.0, "quality": 0.1})
    with pytest.raises(DuplicateEntry, match=re.escape("duplicate script row for ('YOLOv7', 'Object Detection', 1)")):
        simulator_spec_from_json(text)
    assert len(simulator_spec_from_json(_script_spec({}, {"attempt": 2})).script) == 2


@pytest.mark.parametrize("attempt", [0, -1])
def test_spec_json_rejects_attempts_below_one(attempt):
    with pytest.raises(ParseError, match=re.escape(f"script row 1 has attempt {attempt}; attempts count from 1")):
        simulator_spec_from_json(_script_spec({}, {"attempt": attempt}))


def test_validate_quality_threshold_is_inclusive():
    assert validate_quality(ExecutionOutcome(1.0, 0.9), 0.8)
    assert validate_quality(ExecutionOutcome(1.0, 0.8), 0.8)
    assert not validate_quality(ExecutionOutcome(1.0, 0.79), 0.8)


def test_empty_trace_totals():
    trace = ExecutionTrace(())
    assert trace.total_time == 0.0
    assert trace.events == ()
    payload = trace.to_json_dict(GRAPH)
    assert payload["totals"] == {"events": 0, "time_seconds": 0.0, "retried_nodes": []}


def test_trace_counts_attempts_and_retries():
    trace = ExecutionTrace(
        (
            TraceEvent(NODE.node_id, 1, 0.5, 0.3, "fail"),
            TraceEvent(NODE.node_id, 2, 0.6, 0.4, "fail"),
            TraceEvent(NODE.node_id, 3, 0.7, 0.9, "pass"),
        )
    )
    assert attempts_for(trace, NODE.node_id) == 3
    assert trace.retried_nodes() == {NODE.node_id}
    assert trace.total_time == pytest.approx(1.8, abs=1e-12)


def test_trace_total_time_adds_left_to_right():
    """The same bytes on every Python: sum() rounds 0.1 ten times to 1.0 from 3.12 on."""
    trace = ExecutionTrace(tuple(TraceEvent(NODE.node_id, 1, 0.1, 0.9, "fail") for _ in range(10)))
    assert trace.total_time == 0.9999999999999999


def test_trace_json_field_order_stable():
    trace = ExecutionTrace((TraceEvent(NODE.node_id, 1, 0.5, 0.9, "pass"),))
    a = json.dumps(trace.to_json_dict(GRAPH), sort_keys=True)
    b = json.dumps(trace.to_json_dict(GRAPH), sort_keys=True)
    assert a == b


def test_load_simulator_spec_missing_file(tmp_path):
    from toolpath.execution import load_simulator_spec

    with pytest.raises(ParseError):
        load_simulator_spec(tmp_path / "nope.json")
