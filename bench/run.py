"""mdiscord benchmark: seeded closed-loop workloads with one caller and one
thread, every output checked against the independent oracle path.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):
  sweep      level-3 discord() with the default OptimizerConfig over the
             four catalog mu-families, random states of ranks 4, 6 and 8
             and a measured state
  densegrid  level-3 discord() of random states of ranks 1, 3, 5 and 8 on a
             10-point grid (1e6 grid points per task) with one refinement
             start
  ledger     flux_report + flux_csv on random 3- and 2-qubit (state, tree)
             pairs plus verification_suite at a task seed

``--trace 0`` times the tasks untraced and reports the end-to-end metrics;
``--trace 1`` is a separate run that wraps the package's layer functions,
reports the per-layer split and writes its spans to ``.bench_out/``.
``--workload all`` runs the three workloads, each in its own process.

A run executes whole cycles of its workload's task mix until the tasks
have used ``--seconds`` of CPU time.  Task and set-up times are CPU time of
the benchmark's one thread (``time.thread_time``; BLAS is pinned to one
thread), which leaves out the time the process waits for a CPU on a shared
host.  An untraced run also scales them to a reference speed by the
slowdown ``speed.SpeedProbe`` measures while they run, because the shared
host's CPU itself runs faster or slower for seconds to minutes at a time;
the summary prints the unscaled figures next to the scaled ones.

A summary with units goes to stdout; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every process this one starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time, thread_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "densegrid", "ledger")
IMPORT_SAMPLES = 3      # one in this process, the rest in fresh interpreters
INPUT_SAMPLES = 3
SETUP_INPUTS = 8        # inputs generated per set-up sample: one sweep cycle
# A traced run fails when more than this share of task time is attributed
# to no layer (see spans.layer_metrics).
UNATTRIBUTED_MAX = 0.02
_IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.process_time()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, mdiscord\n"
    "print(time.process_time() - start)\n"
)

# The bounded metrics of the JSON line.  task_s_p50, fail_frac and
# unconverged_frac are printed in the summary only (see README.md).
END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "discord_bits_mean": "bits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Record:
    index: int
    task: object
    output: object
    seconds: float          # CPU time, less the speed probe's
    wall: float
    start: float            # thread CPU time at start and end
    end: float
    error: str | None = None
    scaled: float | None = None     # seconds at the reference speed


def load_package():
    """Import numpy and the package from this checkout's ``src``; returns the
    import time in CPU seconds."""
    if not (SRC / "mdiscord" / "__init__.py").is_file():
        raise SystemExit(f"error: no mdiscord sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = process_time()
    import numpy  # noqa: F401
    import mdiscord
    elapsed = process_time() - start
    if Path(mdiscord.__file__).resolve().parent != (SRC / "mdiscord").resolve():
        raise SystemExit(f"error: imported mdiscord from {mdiscord.__file__}, not {SRC}")
    return elapsed


def _probe_import() -> float:
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None when not found."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(load_start: float) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "loadavg_start": load_start,
    }


def work_time(probe=None) -> float:
    """CPU time of this thread, less the time spent in ``probe``."""
    return thread_time() - (probe.spent if probe is not None else 0.0)


def run_tasks(workload: str, seed: int, seconds: float, tracer=None,
              max_tasks: int | None = None, probe=None) -> tuple[list[Record], float]:
    """Closed loop: the next task starts when the previous one returns.
    Whole cycles of the workload's task mix run until the tasks have used
    ``seconds`` of CPU time (or ``max_tasks`` are done).  Input generation
    stays outside the task timer, and so does the time ``probe`` (an active
    ``speed.SpeedProbe`` or None) spends.  Returns the records and the peak
    RSS in MB once the first cycle was done."""
    import workloads

    records = []
    busy = 0.0
    cycle = workloads.CYCLE_TASKS[workload]
    cycle_rss = None
    while ((busy < seconds or len(records) % cycle)
           and (max_tasks is None or len(records) < max_tasks)):
        index = len(records)
        task = workloads.make_input(workload, seed, index)
        if tracer is not None:
            tracer.begin_task(index)
        output, error = None, None
        start, wall, cpu = thread_time(), perf_counter(), work_time(probe)
        try:
            output = task.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        cpu, wall = work_time(probe) - cpu, perf_counter() - wall
        if tracer is not None:
            tracer.end_task()
        busy += cpu
        records.append(Record(index, task, output, cpu, wall, start, thread_time(), error))
        if len(records) == cycle:
            cycle_rss = peak_rss_mb()
    return records, cycle_rss if cycle_rss is not None else peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(record: Record) -> list[str]:
    import gate

    if record.error is not None:
        return [record.error]
    try:
        return gate.check(record.task, record.output)
    except Exception:
        return ["gate raised:\n" + traceback.format_exc(limit=3)]


def gate_records(records: list[Record]) -> list[tuple[int, list[str]]]:
    """Failures as (task index, problems); a task that raised fails.  The
    gate runs after the timed loop."""
    checked = [(record.index, _check(record)) for record in records]
    return [(index, problems) for index, problems in checked if problems]


def unconverged_frac(records: list[Record]):
    flags = [record.output.converged for record in records
             if record.output is not None and hasattr(record.output, "converged")]
    return None if not flags else sum(not flag for flag in flags) / len(flags)


def setup(workload: str, seed: int, import_s: float, probe=None) -> dict:
    """Imports, input generation and one untimed warm-up task, in CPU
    seconds; with ``probe``, less the time it spends.  Import and
    generation are sampled several times and their medians taken; the
    warm-up runs once, because a second run in the same process no longer
    pays the first-call costs it is there to absorb (the first dense-grid
    task of a process is markedly slower than later ones)."""
    import workloads

    imports = [import_s] + [_probe_import() for _ in range(IMPORT_SAMPLES - 1)]
    inputs = []
    for _ in range(INPUT_SAMPLES):
        start = work_time(probe)
        for index in range(SETUP_INPUTS):
            workloads.make_input(workload, seed, index)
        warm = workloads.warmup_input(workload)
        inputs.append(work_time(probe) - start)
    start = work_time(probe)
    warm.run()
    warmup = work_time(probe) - start
    return {"import_s": statistics.median(imports),
            "inputs_s": statistics.median(inputs), "warmup_s": warmup}


def end_to_end(workload, records, failures, setup_s, rss_mb) -> dict[str, float]:
    import workloads

    busy = sum(record.scaled for record in records)
    bits = [value for record in records[:workloads.CYCLE_TASKS[workload]]
            if record.output is not None
            for value in workloads.discord_bits(record.task, record.output)]
    passed = len(records) - len(failures)
    return {
        "tasks_per_s": passed / busy,
        "tasks_per_s_cpu": passed / sum(record.seconds for record in records),
        "tasks_per_s_wall": passed / sum(record.wall for record in records),
        "task_s_p50": statistics.median(record.scaled for record in records),
        "discord_bits_mean": statistics.fmean(bits) if bits else 0.0,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def traced_metrics(tracer, records) -> tuple[dict[str, float], list[str]]:
    import spans

    own = spans.self_times(tracer.spans)
    problems = spans.check_nesting(tracer.spans, own)
    metrics = spans.layer_metrics(tracer.spans, own, len(records))
    if metrics["trace.unattributed_frac"] > UNATTRIBUTED_MAX:
        problems.append(f"{metrics['trace.unattributed_frac']:.2%} of task time is "
                        f"attributed to no layer (limit {UNATTRIBUTED_MAX:.0%})")
    diagnostics = [record.output.diagnostics for record in records
                   if record.output is not None and hasattr(record.output, "diagnostics")]
    metrics["discord.evals_per_task"] = (
        statistics.fmean(d["evaluations"] for d in diagnostics) if diagnostics else 0.0)
    metrics["discord.unconverged_frac"] = unconverged_frac(records) or 0.0
    metrics["trace.task_s_p50"] = statistics.median(record.seconds for record in records)
    return metrics, problems


def run_one(args) -> int:
    load_start = os.getloadavg()[0]
    import_s = load_package()
    import spans

    env = environment(load_start)
    tracer = probe = None
    if args.trace:
        setup_parts = setup(args.workload, args.seed, import_s)
        tracer = spans.Tracer()
        tracer.install()
        records, rss_mb = run_tasks(args.workload, args.seed, args.seconds, tracer)
        tracer.uninstall()
        setup_slowdown = slowdown = 1.0
        for record in records:
            record.scaled = record.seconds
    else:
        import speed

        with speed.SpeedProbe() as probe:
            setup_start = thread_time()
            setup_parts = setup(args.workload, args.seed, import_s, probe)
            setup_end = thread_time()
            records, rss_mb = run_tasks(args.workload, args.seed, args.seconds,
                                        probe=probe)
        setup_slowdown = probe.slowdown(setup_start, setup_end)
        for record in records:
            record.scaled = record.seconds / probe.slowdown(record.start, record.end)
        slowdown = sum(record.seconds for record in records) / sum(
            record.scaled for record in records)
    setup_raw = sum(setup_parts.values())
    setup_s = setup_raw / setup_slowdown
    failures = gate_records(records)
    for index, problems in failures[:5]:
        for problem in problems:
            print(f"FAIL task {index}: {problem}", file=sys.stderr)

    correct = not failures
    summary = end_to_end(args.workload, records, failures, setup_s, rss_mb)
    unconverged = unconverged_frac(records)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} tasks={len(records)}")
    print("env: " + " ".join(f"{key}={value}" for key, value in env.items()))
    if probe is not None:
        print(f"speed: slowdown {slowdown:.4g} over the tasks, {setup_slowdown:.4g} "
              f"over set-up ({len(probe.durations)} probes); times below are at "
              "the reference speed")
    print(f"  {'tasks_per_s':<20}{summary['tasks_per_s']:.6g} 1/s  (unscaled: "
          f"{summary['tasks_per_s_cpu']:.6g} by CPU time, "
          f"{summary['tasks_per_s_wall']:.6g} by wall clock)")
    print(f"  {'task_s_p50':<20}{summary['task_s_p50']:.6g} s  (unscaled "
          f"{statistics.median(record.seconds for record in records):.6g})")
    print(f"  {'fail_frac':<20}{len(failures) / len(records):.6g} ratio")
    print(f"  {'unconverged_frac':<20}"
          + ("n/a (no optimizer)" if unconverged is None else f"{unconverged:.6g} ratio"))
    print(f"  {'discord_bits_mean':<20}{summary['discord_bits_mean']:.9g} bits")
    print(f"  {'peak_rss_mb':<20}{summary['peak_rss_mb']:.6g} MB")
    print(f"  {'setup_s':<20}{summary['setup_s']:.6g} s  (unscaled {setup_raw:.4g}: "
          + ", ".join(f"{key} {value:.4g}" for key, value in setup_parts.items()) + ")")

    if tracer is None:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        values, problems = traced_metrics(tracer, records)
        for problem in problems:
            print(f"TRACE {problem}", file=sys.stderr)
        correct = correct and not problems
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.UNITS.items()}
        for name, entry in metrics.items():
            print(f"  {name:<44}{entry['value']:.6g} {entry['unit']}")
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "env": env,
                      "tasks": len(records)})

    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=900)
        status = status or done.returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
