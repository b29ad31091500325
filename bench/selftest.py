"""Self-tests of the benchmark harness itself.

    python3 bench/selftest.py

- The gate fails corrupted outputs: a discord value raised by 1e-6, an
  altered decomposition term, one altered flux delta, one altered CSV field
  and a failed verification report.
- Deterministic counts repeat exactly across two same-seed runs: grid
  points, evaluations, apply_tree / partial_trace / entropy calls and the
  discord numbers of every task.
- In a traced run spans nest, the layer spans cover each workload's task
  time, and the polish passes are attributed to ``discord.polish``.
- The coverage check fails a traced run that misses the polish binding.
- The speed probe samples while a task runs, and a slowdown is taken over
  the probes near an interval.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import sys
from collections import defaultdict

import run

run.load_package()

import gate  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from mdiscord import states  # noqa: E402
from mdiscord.optimizer import OptimizerConfig  # noqa: E402

SEED = 20261017
FAILURES = []


def expect(condition: bool, label: str):
    print(f"{'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        FAILURES.append(label)


def corrupted_discord():
    small = OptimizerConfig(grid_points_per_angle=4, refine_starts=1)
    task = workloads.DiscordTask("werner_ghz", states.werner_ghz(0.7), small)
    result = task.run()
    expect(gate.check(task, result) == [], "gate passes a true discord result")
    raised = dataclasses.replace(result, value=result.value + 1e-6)
    expect(gate.check(task, raised) != [], "gate fails a discord value raised by 1e-6")
    terms = dict(result.decomposition)
    terms["Delta_ABC"] += 1e-6
    altered = dataclasses.replace(result, decomposition=terms)
    expect(gate.check(task, altered) != [], "gate fails an altered decomposition term")
    measured = dataclasses.replace(task, kind="measured")
    expect(gate.check(measured, result) != [], "gate fails a measured state with discord > 1e-6")


def corrupted_ledger():
    task = workloads.make_input("ledger", SEED, 0)
    output = task.run()
    expect(gate.check(task, output) == [], "gate passes a true ledger task")

    delta = copy.deepcopy(output)
    delta.reports[0][2].deltas["Delta_BPiAC"] += 1e-6
    expect(gate.check(task, delta) != [], "gate fails one altered flux delta")

    csv = copy.deepcopy(output)
    header, row = csv.csv[1]
    row[5] = repr(float(row[5]) + 1e-6)
    expect(gate.check(task, csv) != [], "gate fails one altered CSV field")

    verify = copy.deepcopy(output)
    first = verify.verify[0]
    verify.verify = (dataclasses.replace(first, max_violation=2 * first.tolerance),
                     ) + verify.verify[1:]
    expect(gate.check(task, verify) != [], "gate fails a failed verification report")


def traced(workload: str, max_tasks: int, patches=spans.PATCHES):
    tracer = spans.Tracer(patches)
    tracer.install()
    try:
        records, _ = run.run_tasks(workload, SEED, math.inf, tracer, max_tasks=max_tasks)
    finally:
        tracer.uninstall()
    return tracer, records


def signature(tracer, records):
    """Per task: call counts per span name, span counters and discord bits."""
    per_task = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        name = span[spans.NAME]
        counts = per_task[span[spans.TASK_ID]]
        counts[name + ".calls"] += 1
        for key, value in (span[spans.COUNTS] or {}).items():
            counts[f"{name}.{key}"] += value
    for record in records:
        per_task[record.index]["bits"] = tuple(
            workloads.discord_bits(record.task, record.output))
        diagnostics = getattr(record.output, "diagnostics", None)
        if diagnostics is not None:
            per_task[record.index]["evaluations"] = diagnostics["evaluations"]
    return {task: dict(counts) for task, counts in per_task.items()}


def determinism_and_coverage():
    for workload, max_tasks in (("sweep", 2), ("densegrid", 1), ("ledger", 4)):
        first = traced(workload, max_tasks)
        second = traced(workload, max_tasks)
        sig = signature(*first)
        expect(sig == signature(*second),
               f"{workload}: counts repeat exactly across two same-seed runs")
        own = spans.self_times(first[0].spans)
        expect(spans.check_nesting(first[0].spans, own) == [], f"{workload}: spans nest")
        metrics = spans.layer_metrics(first[0].spans, own, max_tasks)
        expect(metrics["trace.unattributed_frac"] < run.UNATTRIBUTED_MAX,
               f"{workload}: {metrics['trace.unattributed_frac']:.2%} of task time "
               "outside layer spans")
        if workload != "ledger":
            expect(all(counts.get("discord.polish.evals", 0) > 0 for counts in sig.values()),
                   f"{workload}: polish evaluations are attributed to discord.polish")
            expect(all(counts.get("optimizer.grid_scan.points", 0) > 0 for counts in sig.values()),
                   f"{workload}: grid points are counted")
        else:
            expect(all(counts.get("measure.apply_tree.calls", 0) > 0 for counts in sig.values()),
                   f"{workload}: apply_tree calls are counted")


def missed_binding():
    """Tracing without the wrapper of ``discord``'s own ``simplex_refine``
    binding leaves the polish time in ``discord()``; the coverage check must
    see it."""
    patches = [patch for patch in spans.PATCHES if patch[2] != "discord.polish"]
    tracer, records = traced("sweep", 1, patches)
    metrics, problems = run.traced_metrics(tracer, records)
    expect(any("attributed to no layer" in problem for problem in problems),
           f"coverage check fails a run that misses the polish binding "
           f"({metrics['trace.unattributed_frac']:.2%} unattributed)")


def speed_probe():
    with speed.SpeedProbe() as probe:
        start = run.thread_time()
        while run.thread_time() - start < 10 * speed.INTERVAL_S:
            sum(range(1000))
    expect(len(probe.durations) >= 5, f"the speed probe took {len(probe.durations)} "
           "samples in 10 intervals of CPU time")

    fake = speed.SpeedProbe()
    fake.stamps = [float(t) for t in range(20)]
    fake.durations = [speed.NOMINAL_S] * 10 + [2 * speed.NOMINAL_S] * 10
    expect(math.isclose(fake.slowdown(10.0, 19.0), 2.0),
           "slowdown is the mean probe time inside an interval over NOMINAL_S")
    expect(math.isclose(fake.slowdown(4.5, 4.6), 1.0) and
           math.isclose(fake.slowdown(9.4, 9.6), 1.5),
           f"a short interval takes the {speed.MIN_SAMPLES} probes nearest to it")


def main() -> int:
    corrupted_discord()
    corrupted_ledger()
    speed_probe()
    determinism_and_coverage()
    missed_binding()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
