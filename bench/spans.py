"""In-memory span recorder for the traced benchmark run.

Layer spans come from wrapping the package's public functions from the
outside: each wrapper replaces a module attribute at the place where callers
look the name up, so nothing under ``src/`` changes.  A span records its
name, start, end, parent span and task id; spans stay in memory until the
run writes them out at exit.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

TASK = "task"
# A span is a list [name, start, end, parent index, task id, counts or None].
NAME, START, END, PARENT, TASK_ID, COUNTS = range(6)
FIELDS = ("name", "start", "end", "parent", "task", "counts")

# (module, attribute, span name).  A name imported with ``from x import f``
# is a separate binding in the importing module, so every binding a caller
# actually uses is patched on its own.  ``mdiscord.discord.simplex_refine``
# is the binding ``discord._minimize`` uses for its polish passes, while
# ``optimizer.optimize`` reaches ``mdiscord.optimizer.simplex_refine``.
PATCHES = (
    ("mdiscord.discord", "discord", "discord"),
    ("mdiscord.discord", "optimize", "optimizer.optimize"),
    ("mdiscord.discord", "simplex_refine", "discord.polish"),
    ("mdiscord.discord", "entropy", "qstate.entropy"),
    ("mdiscord.optimizer", "grid_scan", "optimizer.grid_scan"),
    ("mdiscord.optimizer", "simplex_refine", "optimizer.simplex_refine"),
    ("mdiscord.entropy_flux", "flux_report", "entropy_flux.flux_report"),
    ("mdiscord.entropy_flux", "flux_csv", "entropy_flux.flux_csv"),
    ("mdiscord.entropy_flux", "delta_cond_discord", "entropy_flux.decomposition"),
    ("mdiscord.entropy_flux", "delta_post_discord", "entropy_flux.decomposition"),
    ("mdiscord.entropy_flux", "delta_monogamy", "entropy_flux.decomposition"),
    ("mdiscord.entropy_flux", "apply_tree", "measure.apply_tree"),
    ("mdiscord.entropy_flux", "entropy", "qstate.entropy"),
    ("mdiscord.measure", "apply_tree", "measure.apply_tree"),
    ("mdiscord.oracle", "apply_tree", "measure.apply_tree"),
    ("mdiscord.oracle", "verification_suite", "oracle.verification_suite"),
    ("mdiscord.qstate", "partial_trace", "qstate.partial_trace"),
    ("mdiscord.qstate", "entropy", "qstate.entropy"),
)


def _refine_counts(result):
    return {"evals": result.evaluations, "converged": int(result.converged)}


def _suite_samples(result):
    return {"samples": result[0].samples if result else 0}


# Counts read off a span's return value, recorded on the span.
COUNTERS = {
    "optimizer.grid_scan": lambda result: {"points": result.evaluations},
    "optimizer.simplex_refine": _refine_counts,
    "discord.polish": _refine_counts,
    "oracle.verification_suite": _suite_samples,
}


class Tracer:
    """Records spans while a task is open; outside a task the wrappers call
    straight through, so the correctness gate is never traced."""

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def install(self):
        for module_name, attr, span_name in self.patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if self._task is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index][COUNTS] = counter(result)
            return result

        return wrapper

    def _open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self._task, None]
        self.spans.append(span)
        self._stack.append(index)
        span[START] = perf_counter()
        return index

    def _close(self, index):
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def begin_task(self, task_id: int):
        self._task = task_id
        self._open(TASK)

    def end_task(self):
        self._close(self._stack[0])
        self._task = None

    def write(self, path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"header": header, "fields": FIELDS, "spans": self.spans}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def check_nesting(spans: list[list], self_s: list[float]) -> list[str]:
    """Every child lies inside its parent and no self time is negative.

    Self times then sum to each task's wall time by construction; whether
    the wrappers cover that time is what ``trace.unattributed_frac``
    measures."""
    problems = []
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent is not None:
            outer = spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                problems.append(f"span {index} ({span[NAME]}) leaves its parent")
        if self_s[index] < -1e-9:
            problems.append(f"span {index} ({span[NAME]}) has negative self time")
    return problems


def _ancestor_named(spans, index, name) -> bool:
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list], self_s: list[float], n_tasks: int) -> dict[str, float]:
    """Per-task layer figures from the spans of one traced run.

    Every ``.s`` figure is self time per task, so the figures of one task
    add up to its wall time; counts are per task too.
    ``trace.unattributed_frac`` is the share of task time spent in the task
    loop itself or in ``discord()`` outside every layer it calls: a binding
    the wrappers miss (say, a polish pass through an unpatched name) shows
    up there, and the run fails when it passes ``run.UNATTRIBUTED_MAX``.
    """
    calls = defaultdict(int)
    own = defaultdict(float)
    total = defaultdict(float)
    counts = defaultdict(float)
    apply_in_reports = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        own[name] += self_s[index]
        total[name] += span[END] - span[START]
        for key, value in (span[COUNTS] or {}).items():
            counts[f"{name}.{key}"] += value
        if (name == "measure.apply_tree"
                and _ancestor_named(spans, index, "entropy_flux.flux_report")):
            apply_in_reports += 1

    def per_task(value):
        return value / n_tasks

    def ratio(num, den):
        return num / den if den else 0.0

    wall = total[TASK]
    refine_calls = calls["optimizer.simplex_refine"]
    return {
        "optimizer.grid_scan.s": per_task(own["optimizer.grid_scan"]),
        "optimizer.grid_scan.points": per_task(counts["optimizer.grid_scan.points"]),
        "optimizer.grid_scan.us_per_point": 1e6 * ratio(
            own["optimizer.grid_scan"], counts["optimizer.grid_scan.points"]),
        "optimizer.simplex_refine.s": per_task(own["optimizer.simplex_refine"]),
        "optimizer.simplex_refine.evals": per_task(counts["optimizer.simplex_refine.evals"]),
        "optimizer.simplex_refine.us_per_eval": 1e6 * ratio(
            own["optimizer.simplex_refine"], counts["optimizer.simplex_refine.evals"]),
        "optimizer.simplex_refine.converged_frac": ratio(
            counts["optimizer.simplex_refine.converged"], refine_calls),
        "optimizer.optimize.self_s": per_task(own["optimizer.optimize"]),
        "discord.polish.s": per_task(own["discord.polish"]),
        "discord.polish.evals": per_task(counts["discord.polish.evals"]),
        "discord.self_s": per_task(own["discord"]),
        "entropy_flux.flux_report.s": per_task(own["entropy_flux.flux_report"]),
        "entropy_flux.flux_report.total_s": per_task(total["entropy_flux.flux_report"]),
        "entropy_flux.flux_csv.s": per_task(own["entropy_flux.flux_csv"]),
        "entropy_flux.decomposition.s": per_task(own["entropy_flux.decomposition"]),
        "entropy_flux.decomposition.total_s": per_task(total["entropy_flux.decomposition"]),
        "measure.apply_tree.calls": per_task(calls["measure.apply_tree"]),
        "measure.apply_tree.s": per_task(own["measure.apply_tree"]),
        "measure.apply_tree.calls_per_report": ratio(
            apply_in_reports, calls["entropy_flux.flux_report"]),
        "qstate.partial_trace.calls": per_task(calls["qstate.partial_trace"]),
        "qstate.partial_trace.s": per_task(own["qstate.partial_trace"]),
        "qstate.entropy.calls": per_task(calls["qstate.entropy"]),
        "qstate.entropy.s": per_task(own["qstate.entropy"]),
        "oracle.verification_suite.s": per_task(own["oracle.verification_suite"]),
        "oracle.verification_suite.samples_per_s": ratio(
            counts["oracle.verification_suite.samples"], total["oracle.verification_suite"]),
        "trace.unattributed_frac": ratio(own[TASK] + own["discord"], wall),
    }


# Every per-layer metric of a traced run, with its unit; layer_metrics plus
# the figures run.py adds from the task outputs.
UNITS = {
    "optimizer.grid_scan.s": "s/task",
    "optimizer.grid_scan.points": "count/task",
    "optimizer.grid_scan.us_per_point": "us",
    "optimizer.simplex_refine.s": "s/task",
    "optimizer.simplex_refine.evals": "count/task",
    "optimizer.simplex_refine.us_per_eval": "us",
    "optimizer.simplex_refine.converged_frac": "ratio",
    "optimizer.optimize.self_s": "s/task",
    "discord.polish.s": "s/task",
    "discord.polish.evals": "count/task",
    "discord.self_s": "s/task",
    "discord.evals_per_task": "count/task",
    "discord.unconverged_frac": "ratio",
    "entropy_flux.flux_report.s": "s/task",
    "entropy_flux.flux_report.total_s": "s/task",
    "entropy_flux.flux_csv.s": "s/task",
    "entropy_flux.decomposition.s": "s/task",
    "entropy_flux.decomposition.total_s": "s/task",
    "measure.apply_tree.calls": "count/task",
    "measure.apply_tree.s": "s/task",
    "measure.apply_tree.calls_per_report": "count",
    "qstate.partial_trace.calls": "count/task",
    "qstate.partial_trace.s": "s/task",
    "qstate.entropy.calls": "count/task",
    "qstate.entropy.s": "s/task",
    "oracle.verification_suite.s": "s/task",
    "oracle.verification_suite.samples_per_s": "1/s",
    "trace.task_s_p50": "s",
    "trace.unattributed_frac": "ratio",
}
