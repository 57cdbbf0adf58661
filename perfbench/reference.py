"""Exact optima and output checks, computed without ``toolpath``.

The optimum comes from a Pareto-label dynamic programme over the
(total time, quality product) labels of each root-to-leaf ordering of the
generated instance: the objective grows with time and falls with quality
for every alpha in [0, 2], so the best plan for any alpha is one of the
non-dominated labels at the leaves.  Sums and products are taken in path
order, as a plan accumulates them, so a plan on the optimum matches it
exactly.
"""

from __future__ import annotations

import csv
import io
import itertools

INPUT_IMAGE = "Input Image"
REL_TOL = 1e-9


def objective(total_time: float, quality: float, alpha: float) -> float:
    """(sum of times) ** alpha * (2 - product of qualities) ** (2 - alpha)."""
    if total_time == 0.0:
        return 0.0
    return total_time**alpha * (2.0 - quality) ** (2.0 - alpha)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class Reference:
    """One generated instance: its model plus the parsed MDT and benchmark files the CLI read.

    `stages` maps a tree ordinal to (subtask kind, tool sequences), a tool
    sequence being the (tool, subtask) pairs a plan may run for that stage;
    `orderings` lists the ordinals of each root-to-leaf chain of the tree.
    """

    def __init__(self, stages: dict, orderings: list, mdt: list, bench: list, threshold: float):
        self.threshold = threshold
        self.io = {e["tool"]: (set(e["inputs"]), set(e["outputs"])) for e in mdt}
        maxima: dict[str, float] = {}
        for r in bench:
            maxima[r["subtask"]] = max(maxima.get(r["subtask"], 0.0), float(r["quality"]))
        self.rows = {
            (r["tool"], r["subtask"]): (float(r["time_seconds"]), float(r["quality"]) / maxima[r["subtask"]])
            for r in bench
        }
        self.stages = {k: (kind, [[tuple(x) for x in seq] for seq in options]) for k, (kind, options) in stages.items()}
        self.orderings = orderings
        self._fronts: dict[bool, list[tuple[float, float]]] = {}
        self._labels: list[tuple[float, float]] | None = None

    def options(self, ordinal: int, with_threshold: bool) -> list[list[tuple[float, float]]]:
        _, sequences = self.stages[ordinal]
        out = []
        for seq in sequences:
            rows = [self.rows[key] for key in seq]
            if with_threshold and any(q < self.threshold for _, q in rows):
                continue
            out.append(rows)
        return out

    def front(self, with_threshold: bool = True) -> list[tuple[float, float]]:
        """Non-dominated (time, quality) labels over every ordering.

        With the threshold, stages may only use tool sequences whose every
        benchmark quality meets it: under deterministic execution any other
        tool fails all its retries and drops the path.
        """
        if with_threshold not in self._fronts:
            leaves: list[tuple[float, float]] = []
            for ordering in self.orderings:
                labels = [(0.0, 1.0)]
                for ordinal in ordering:
                    options = self.options(ordinal, with_threshold)
                    labels = _pareto([_extend(label, rows) for label in labels for rows in options])
                leaves.extend(labels)
            self._fronts[with_threshold] = _pareto(leaves)
        return self._fronts[with_threshold]

    def optimum(self, alpha: float, with_threshold: bool = True) -> float:
        front = self.front(with_threshold)
        return min(objective(t, q, alpha) for t, q in front) if front else float("inf")

    def all_labels(self) -> list[tuple[float, float]]:
        """(time, quality) of every root-to-leaf path, ignoring the threshold."""
        if self._labels is None:
            self._labels = []
            for ordering in self.orderings:
                for combo in itertools.product(*(self.options(o, with_threshold=False) for o in ordering)):
                    label = (0.0, 1.0)
                    for rows in combo:
                        label = _extend(label, rows)
                    self._labels.append(label)
        return self._labels

    def path_count(self) -> int:
        total = 0
        for ordering in self.orderings:
            count = 1
            for o in ordering:
                count *= len(self.stages[o][1])
            total += count
        return total


def _extend(label: tuple[float, float], rows) -> tuple[float, float]:
    t, q = label
    for ct, cq in rows:
        t = t + ct
        q = q * cq
    return t, q


def _pareto(labels):
    """Labels not beaten on both time (lower) and quality (higher)."""
    out: list[tuple[float, float]] = []
    best_q = -1.0
    for t, q in sorted(set(labels), key=lambda x: (x[0], -x[1])):
        if q > best_q:
            out.append((t, q))
            best_q = q
    return out


class Problems(list):
    """Messages of the checks that failed."""

    def need(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def check_plan(
    ref: Reference,
    plan: dict,
    trace: dict,
    alpha: float,
    deterministic: bool,
    max_retries: int,
    executions: int,
    sim_time: float,
) -> tuple[Problems, float]:
    """Check one `plan` output; returns (problems, optimality score).

    A deterministic plan scores 1 when it reaches the exact optimum and 0
    otherwise.  Stochastic execution has no exact optimum to reach, so such
    a plan scores the ratio of the optimum to the objective of its tools at
    their benchmark values (1 when it picked an optimal set).  That optimum
    ignores the threshold, because noise can let a tool whose expected
    quality misses it pass.
    """
    bad = Problems()
    bad.need(plan.get("status") == "found", f"status {plan.get('status')!r}")
    bad.need(plan.get("alpha") == alpha, f"alpha {plan.get('alpha')} != {alpha}")
    rows = plan.get("path") or []
    if not bad.need(rows and rows[0].get("tool") == "ROOT", "path does not start at ROOT"):
        return bad, 0.0
    steps = rows[1:]
    groups: list[list[dict]] = []
    for row in steps:
        if groups and groups[-1][-1]["ordinal"] == row["ordinal"]:
            groups[-1].append(row)
        else:
            groups.append([row])
    ordinals = [g[0]["ordinal"] for g in groups]
    bad.need(ordinals in ref.orderings, f"stage order {ordinals} is not an ordering of the tree")
    available = {INPUT_IMAGE}
    total_time, quality = 0.0, 1.0
    bench_label = (0.0, 1.0)
    for group in groups:
        kind = ref.stages.get(group[0]["ordinal"], (None,))[0]
        bad.need(group[-1]["subtask"] == kind, f"stage {group[0]['ordinal']} ends in {group[-1]['subtask']!r}, not {kind!r}")
        for row in group:
            key = (row["tool"], row["subtask"])
            if not bad.need(key in ref.rows, f"unknown tool {key}"):
                return bad, 0.0
            inputs, outputs = ref.io[row["tool"]]
            bad.need(inputs <= available, f"{key} runs before its inputs {sorted(inputs - available)} exist")
            available |= outputs
            bench_label = _extend(bench_label, [ref.rows[key]])
            c, q, attempts = row["c"], row["q"], row["attempts"]
            if deterministic:
                bad.need((c, q, attempts) == (*ref.rows[key], 1), f"{key} row {(c, q, attempts)} != table {ref.rows[key]}")
            else:
                bad.need(c > 0 and 1 <= attempts <= max_retries + 1, f"{key} has c={c} after {attempts} attempts")
            bad.need(q >= ref.threshold, f"{key} accepted at quality {q} below the threshold")
            total_time = total_time + c
            quality = quality * q
    totals = plan.get("totals") or {}
    bad.need(close(totals.get("time", -1.0), total_time), f"totals.time {totals.get('time')} != row sum {total_time}")
    bad.need(close(totals.get("quality_product", -1.0), quality), "totals.quality_product != row product")
    bad.need(close(totals.get("g", -1.0), objective(total_time, quality, alpha)), "totals.g does not match the rows")
    bad.need(isinstance(plan.get("expanded_count"), int) and plan["expanded_count"] >= 1, "bad expanded_count")
    bad.extend(check_trace(ref, trace, deterministic, executions, sim_time))
    best = ref.optimum(alpha, with_threshold=deterministic)
    achieved = objective(*bench_label, alpha)
    bad.need(achieved >= best * (1 - REL_TOL), f"plan objective {achieved} beats the exact optimum {best}")
    if deterministic:
        return bad, float(achieved <= best * (1 + REL_TOL))
    return bad, min(1.0, best / achieved)


def check_trace(ref: Reference, trace: dict, deterministic: bool, executions: int, sim_time: float) -> Problems:
    bad = Problems()
    events = trace.get("events", [])
    bad.need(len(events) == executions, f"trace has {len(events)} events for {executions} executions")
    bad.need(trace.get("totals", {}).get("events") == len(events), "trace totals.events mismatch")
    bad.need(close(trace.get("totals", {}).get("time_seconds", -1.0), sim_time), "trace total time != simulated time")
    for e in events:
        key = (e["tool"], e["subtask"])
        if deterministic and (e["time_seconds"], e["quality"]) != ref.rows.get(key):
            bad.append(f"trace event {key} differs from the table")
            break
        if (e["decision"] == "pass") != (e["quality"] >= ref.threshold):
            bad.append(f"trace event {key} decision {e['decision']} at quality {e['quality']}")
            break
    return bad


def check_sweep(ref: Reference, text: str, alphas: list[float]) -> tuple[Problems, list[bool]]:
    """Check the sweep CSV; returns (problems, per-row optimality)."""
    bad = Problems()
    rows = list(csv.DictReader(io.StringIO(text)))
    header = text.splitlines()[0] if text else ""
    bad.need(header == "alpha,total_time,quality_product,g_final,non_dominated", f"sweep header {header!r}")
    if not bad.need([float(r["alpha"]) for r in rows] == sorted(alphas), "sweep alphas differ from the request"):
        return bad, []
    by_text: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for label in ref.all_labels():
        by_text.setdefault((format(label[0], ".9g"), format(label[1], ".9g")), []).append(label)
    points = [(float(r["total_time"]), float(r["quality_product"])) for r in rows]
    optimal = []
    for r, (t, q) in zip(rows, points):
        alpha = float(r["alpha"])
        bad.need(close(float(r["g_final"]), objective(t, q, alpha), 1e-7), f"g_final {r['g_final']} at alpha {alpha}")
        dominated = any(t2 <= t and q2 >= q and (t2 < t or q2 > q) for t2, q2 in points)
        bad.need(r["non_dominated"] == ("false" if dominated else "true"), f"non_dominated flag at alpha {alpha}")
        labels = by_text.get((r["total_time"], r["quality_product"]))
        if not bad.need(labels is not None, f"sweep point at alpha {alpha} is not the label of any path"):
            optimal.append(False)
            continue
        achieved = min(objective(lt, lq, alpha) for lt, lq in labels)
        optimal.append(achieved <= ref.optimum(alpha) * (1 + REL_TOL))
    return bad, optimal


def check_verify(ref: Reference, report: dict, alpha: float, exit_code: int) -> tuple[Problems, bool]:
    """Check one `verify --gap-tolerance 0` report; returns (problems, search was optimal)."""
    bad = Problems()
    best = ref.optimum(alpha)
    bad.need(report.get("alpha") == alpha, "verify alpha mismatch")
    bad.need(close(report.get("best_objective", -1.0), best), f"best_objective {report.get('best_objective')} != {best}")
    bad.need(report.get("paths_enumerated") == ref.path_count(), "paths_enumerated != number of paths")
    astar = report.get("astar_objective", float("inf"))
    bad.need(astar >= best * (1 - REL_TOL), "search objective beats the exact optimum")
    gap = report.get("gap", -1.0)
    bad.need(abs(gap - (astar - report.get("best_objective", 0.0))) <= 1e-12 * max(1.0, abs(astar)), "gap != astar - best")
    bad.need(exit_code == (2 if gap > 0 else 0), f"verify exit {exit_code} with gap {gap}")
    return bad, astar <= best * (1 + REL_TOL)
