"""Cost-sensitive toolpath planning over simulated tool executions."""

__version__ = "0.1.0"

from .errors import ToolpathError
from .evaluation import (
    OracleReport,
    ParetoPoint,
    brute_force_optimal,
    overall_accuracy,
    pareto_filter,
    sweep_alpha,
    task_accuracy,
)
from .execution import ExecutionTrace, Simulator, SimulatorSpec, validate_quality
from .graphs import (
    PlanNode,
    ToolDependencyGraph,
    ToolSubgraph,
    build_tdg,
    build_tool_subgraph,
)
from .planning import SubtaskInstance, SubtaskTree, build_planner_prompt, parse_subtask_tree
from .registry import (
    BenchmarkTable,
    ModelDescriptionTable,
    load_benchmark,
    load_mdt,
    normalize_quality,
)
from .search import (
    PlanResult,
    SearchConfig,
    SearchStats,
    astar_search,
    compute_g,
    suffix_bounds,
)

__all__ = [
    "BenchmarkTable",
    "ExecutionTrace",
    "ModelDescriptionTable",
    "OracleReport",
    "ParetoPoint",
    "PlanNode",
    "PlanResult",
    "SearchConfig",
    "SearchStats",
    "Simulator",
    "SimulatorSpec",
    "SubtaskInstance",
    "SubtaskTree",
    "ToolDependencyGraph",
    "ToolSubgraph",
    "ToolpathError",
    "astar_search",
    "brute_force_optimal",
    "build_planner_prompt",
    "build_tdg",
    "build_tool_subgraph",
    "compute_g",
    "load_benchmark",
    "load_mdt",
    "normalize_quality",
    "overall_accuracy",
    "pareto_filter",
    "parse_subtask_tree",
    "suffix_bounds",
    "sweep_alpha",
    "task_accuracy",
    "validate_quality",
]
