"""Simulated tool execution backends.

Real models are stood in for by three interchangeable executors:
deterministic benchmark playback, seeded stochastic perturbation of the
benchmark values, and a fully scripted mode for failure-injection tests.
Random draws are keyed by (seed, node, attempt) rather than taken from a
shared sequential stream, so a change in search order never perturbs the
outcome of an unrelated node and replays are bit-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ScriptGap
from .graphs import PlanNode, ToolSubgraph
from .registry import BenchmarkTable, canonical_subtask

MODES = ("deterministic", "stochastic", "scripted")

DEFAULT_TIME_SIGMA = 0.1
DEFAULT_QUALITY_SIGMA = 0.05


@dataclass(frozen=True)
class ExecutionOutcome:
    time_seconds: float
    quality: float
    attempt: int


@dataclass(frozen=True)
class SimulatorSpec:
    mode: str = "deterministic"
    time_noise_sigma: float = DEFAULT_TIME_SIGMA
    quality_noise_sigma: float = DEFAULT_QUALITY_SIGMA
    script: dict[tuple[str, str, int], tuple[float, float]] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParseError(f"unknown simulator mode {self.mode!r}; expected one of {MODES}")
        for sigma in (self.time_noise_sigma, self.quality_noise_sigma):
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ParseError("noise sigmas must be finite and non-negative")
        if self.mode == "scripted" and not self.script:
            raise ParseError("scripted mode requires a script")


def simulator_spec_from_json(text: str) -> SimulatorSpec:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"simulator spec is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "mode" not in raw:
        raise ParseError('simulator spec must be an object with a "mode" field')
    script = None
    if raw.get("script") is not None:
        script = {}
        for i, row in enumerate(raw["script"]):
            try:
                key = (row["tool"], canonical_subtask(row["subtask"]), int(row["attempt"]))
                outcome = (float(row["time"]), float(row["quality"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"script row {i} is malformed: {exc}") from exc
            if not all(math.isfinite(v) for v in outcome):
                raise ParseError(f"script row {i} has a non-finite time or quality")
            script[key] = outcome
    return SimulatorSpec(
        mode=raw["mode"],
        time_noise_sigma=float(raw.get("time_noise_sigma", DEFAULT_TIME_SIGMA)),
        quality_noise_sigma=float(raw.get("quality_noise_sigma", DEFAULT_QUALITY_SIGMA)),
        script=script,
    )


def load_simulator_spec(path: str | Path) -> SimulatorSpec:
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"simulator spec file not found: {p}")
    return simulator_spec_from_json(p.read_text(encoding="utf-8"))


def execute(
    spec: SimulatorSpec,
    bt: BenchmarkTable,
    node: PlanNode,
    attempt: int,
    seed: int,
) -> ExecutionOutcome:
    """Simulate one invocation of the tool `node`; attempt counts from 1.

    Stochastic time is lognormal around the benchmark time, stochastic
    quality a clamped gaussian around the benchmark quality.
    """
    if spec.mode == "scripted":
        key = (node.tool, node.kind, attempt)
        if key not in spec.script:
            raise ScriptGap(f"script has no entry for {key}")
        time_s, quality = spec.script[key]
        return ExecutionOutcome(time_seconds=time_s, quality=quality, attempt=attempt)
    row = bt.row(node.tool, node.kind)
    if spec.mode == "deterministic":
        return ExecutionOutcome(row.time_seconds, row.quality_norm, attempt)
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, node.node_id, attempt])
    )
    time_s = row.time_seconds * float(np.exp(rng.normal(0.0, spec.time_noise_sigma)))
    quality = float(np.clip(row.quality_norm + rng.normal(0.0, spec.quality_noise_sigma), 0.0, 1.0))
    return ExecutionOutcome(time_seconds=time_s, quality=quality, attempt=attempt)


class Simulator:
    """Executor handle binding a spec, benchmark table, and base seed."""

    def __init__(self, spec: SimulatorSpec, bt: BenchmarkTable, seed: int):
        self.spec = spec
        self.bt = bt
        self.seed = seed

    def __call__(self, node: PlanNode, attempt: int) -> ExecutionOutcome:
        return execute(self.spec, self.bt, node, attempt, self.seed)


def validate_quality(outcome: ExecutionOutcome, threshold: float) -> bool:
    """Quality check: pass at or above the threshold (>=, not >)."""
    return outcome.quality >= threshold


@dataclass(frozen=True)
class TraceEvent:
    """One executed attempt as the search observed it; names come from the graph at output."""

    node_id: int
    attempt: int
    time_seconds: float
    quality: float
    decision: str  # "pass" | "fail"
    g_literal: float | None = None
    g_path: float | None = None


@dataclass(frozen=True)
class ExecutionTrace:
    events: tuple[TraceEvent, ...]

    @property
    def total_time(self) -> float:
        return sum(e.time_seconds for e in self.events)

    def retried_nodes(self) -> set[int]:
        return {e.node_id for e in self.events if e.attempt > 1}

    def to_json_dict(self, graph: ToolSubgraph) -> dict:
        return {
            "events": [
                {
                    "node": e.node_id,
                    **graph.nodes[e.node_id].view(),
                    "attempt": e.attempt,
                    "time_seconds": e.time_seconds,
                    "quality": e.quality,
                    "decision": e.decision,
                    "g_literal": e.g_literal,
                    "g_path": e.g_path,
                }
                for e in self.events
            ],
            "totals": {
                "events": len(self.events),
                "time_seconds": self.total_time,
                "retried_nodes": sorted(self.retried_nodes()),
            },
        }
