"""Simulated tool execution backends.

Real models are stood in for by three interchangeable executors:
deterministic benchmark playback, seeded stochastic perturbation of the
benchmark values, and a fully scripted mode for failure-injection tests.
Random draws are keyed by (seed, node, attempt) rather than taken from a
shared sequential stream, so a change in search order never perturbs the
outcome of an unrelated node and replays are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DuplicateEntry, ParseError, ScriptGap
from .graphs import PlanNode, ToolSubgraph
from .registry import BenchmarkTable, _squash, canonical_subtask, json_field, parse_json, read_text

MODES = ("deterministic", "stochastic", "scripted")

DEFAULT_SEED = 0xC057A
DEFAULT_TIME_SIGMA = 0.1
DEFAULT_QUALITY_SIGMA = 0.05


@dataclass(frozen=True)
class ExecutionOutcome:
    time_seconds: float
    quality: float


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
    raw = parse_json(text, "simulator spec")
    mode = json_field(raw, "mode", str, "simulator spec")
    script = None
    if raw.get("script") is not None:
        script = {}
        for i, row in enumerate(json_field(raw, "script", list, "simulator spec")):
            key = (
                _squash(json_field(row, "tool", str, "script row", i)),
                canonical_subtask(json_field(row, "subtask", str, "script row", i)),
                json_field(row, "attempt", int, "script row", i),
            )
            time_s = json_field(row, "time", float, "script row", i)
            quality = json_field(row, "quality", float, "script row", i)
            if time_s < 0 or not 0.0 <= quality <= 1.0:
                raise ParseError(f"script row {i} needs a time >= 0 and a quality in [0, 1]")
            if key[2] < 1:
                raise ParseError(f"script row {i} has attempt {key[2]}; attempts count from 1")
            if key in script:
                raise DuplicateEntry(f"duplicate script row for {key}")
            script[key] = (time_s, quality)
    names = ("time_noise_sigma", "quality_noise_sigma")
    sigmas = {key: json_field(raw, key, float, "simulator spec") for key in names if key in raw}
    return SimulatorSpec(mode=mode, script=script, **sigmas)


def load_simulator_spec(path: str | Path, digests: dict[str, str] | None = None) -> SimulatorSpec:
    return simulator_spec_from_json(read_text(path, "simulator spec", digests))


class Simulator:
    """Executor handle binding a spec, benchmark table, and base seed."""

    def __init__(self, spec: SimulatorSpec, bt: BenchmarkTable, seed: int):
        self.spec = spec
        self.bt = bt
        self.seed = seed

    def __call__(self, node: PlanNode, attempt: int) -> ExecutionOutcome:
        """Simulate one invocation of the tool `node`; attempt counts from 1.

        Stochastic time is lognormal around the benchmark time, stochastic
        quality a clamped gaussian around the benchmark quality.
        """
        spec = self.spec
        if spec.mode == "scripted":
            key = (node.tool, node.kind, attempt)
            if key not in spec.script:
                raise ScriptGap(f"script has no entry for {key}")
            time_s, quality = spec.script[key]
            return ExecutionOutcome(time_s, quality)
        row = self.bt.row(node.tool, node.kind)
        if spec.mode == "deterministic":
            return ExecutionOutcome(row.time_seconds, row.quality_norm)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF, node.node_id, attempt])
        )
        # A huge sigma can overflow exp to inf; the output check reports that, not numpy.
        with np.errstate(over="ignore"):
            factor = float(np.exp(rng.normal(0.0, spec.time_noise_sigma)))
        time_s = row.time_seconds * factor if row.time_seconds else 0.0  # not 0 * inf = nan
        quality = float(np.clip(row.quality_norm + rng.normal(0.0, spec.quality_noise_sigma), 0.0, 1.0))
        return ExecutionOutcome(time_s, quality)


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
    g_path: float | None = None  # on a passing retry: realized g of the path through it


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
