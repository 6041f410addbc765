"""One benchmark run in this process: ``python -m perfbench.runner``.

``perfbench/run.py`` starts this module in a child process and audits it
(stderr tracebacks, surviving processes); run it directly only to debug.
Arguments are those of ``run.py``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy

from repro.kernels import active_kernel
from repro.service import leaked_segments
from repro.wire.codec import HAVE_MSGPACK

from perfbench.layers import LayerProbe, RegistryView, compute_layer_metrics
from perfbench.scenarios import SCENARIOS, Phase, Scenario, System
from perfbench.spec import END_TO_END, NOT_MEASURED, PER_LAYER
from perfbench.stats import median, tail
from perfbench.verify import replay_sample

__all__ = ["main", "parse_args"]

#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
SETUPS = 3

#: Environment variables the program reads; pinned or cleared for every run.
PINNED_ENV = {"REPRO_KERNEL": "numpy", "REPRO_SHM": None, "REPRO_POOL_RUNNER_CACHE": None}

clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set size of ``pid`` in kB, from ``/proc`` (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "msgpack": "present" if HAVE_MSGPACK else "absent",
        "kernel": active_kernel(),
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
    }


def admission(system: System) -> dict[str, float]:
    coordinator = system.coordinator
    totals = coordinator.admission_totals()
    return {
        "rejected": totals.rejected,
        "shed": totals.shed,
        "lost": coordinator.lost_batches,
        "duplicates": coordinator.duplicate_results,
    }


def qps(phase: Phase) -> float:
    return len(phase.completed) / phase.elapsed


def end_to_end(phase: Phase, setup_seconds: list[float], peak_kb: int) -> tuple[dict, dict]:
    """The end-to-end metric values, plus notes (sample counts, tail percentile)."""
    done = phase.completed
    latencies = [phase.latency(query) for query in phase.queries]
    percentile, tail_value = tail(latencies)
    rounds_by_graph = {query.graph: query.outcome.preprocess_rounds for query in done}
    values = {
        "queries_per_s": len(done) / phase.elapsed,
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "setup_s": median(setup_seconds),
        "completed_fraction": len(done) / len(phase.queries),
        "peak_rss_mb": peak_kb / 1024.0,
        "query_rounds_mean": statistics.fmean(q.outcome.query_rounds for q in done),
        "preprocess_rounds_mean": statistics.fmean(rounds_by_graph.values()),
    }
    notes = {
        "queries_per_s": f"{len(done)} queries in {phase.elapsed:.3f} s",
        "latency_p50_ms": f"n={len(latencies)}",
        "latency_tail_ms": f"p{percentile:g}, n={len(latencies)}",
        "setup_s": f"median of {len(setup_seconds)}: "
        + ", ".join(f"{s:.3f}" for s in setup_seconds),
        "completed_fraction": f"{len(done)}/{len(phase.queries)}",
        "query_rounds_mean": f"n={len(done)}",
        "preprocess_rounds_mean": f"{len(rounds_by_graph)} distinct graphs",
    }
    return values, notes


def run(args: argparse.Namespace) -> int:
    scenario: Scenario = SCENARIOS[args.workload]
    scratch = Path(".bench_tmp") / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)  # the cluster's socket directories land here
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    segments_before = set(leaked_segments())

    inputs = scenario.make_inputs(random.Random(f"{args.seed}:inputs"))
    graphs = inputs[0]
    load_rng = random.Random(f"{args.seed}:load")
    setup_seconds: list[float] = []
    children_kb = 0
    phases: list[Phase] = []
    probe: LayerProbe | None = None
    system: System | None = None
    try:
        for attempt in range(SETUPS):
            started = clock()
            system = scenario.setup(inputs, scratch / f"setup-{attempt}")
            setup_seconds.append(clock() - started)
            if attempt < SETUPS - 1:
                children_kb = max(children_kb, sum(map(vm_hwm_kb, system.child_pids())))
                system.close()
                system = None
        before = admission(system)
        if args.trace:
            phases.append(scenario.run(system, inputs, args.seconds / 2, load_rng))
            view = RegistryView(system.registry)
            counters_before = view.snapshot()
            traced_admission_before = admission(system)
            probe = LayerProbe()
            probe.install()
            try:
                phases.append(scenario.run(system, inputs, args.seconds / 2, load_rng))
            finally:
                probe.restore()
            counters_after = view.snapshot()
            traced_admission = {
                key: value - traced_admission_before[key]
                for key, value in admission(system).items()
            }
        else:
            phases.append(scenario.run(system, inputs, args.seconds, load_rng))
        after = admission(system)
        children_kb = max(children_kb, sum(map(vm_hwm_kb, system.child_pids())))
    finally:
        if system is not None:
            system.close()
    shutil.rmtree(scratch, ignore_errors=True)
    leaked = sorted(set(leaked_segments()) - segments_before)

    queries = [query for phase in phases for query in phase.queries]
    checked, mismatched = replay_sample(queries, graphs, random.Random(f"{args.seed}:replay"))
    duplicates = after["duplicates"] - before["duplicates"]
    unexpected = sum(phase.ledger.unexpected_results for phase in phases)
    failed = sum(1 for query in queries if not query.ok) + unexpected + duplicates
    errors = sorted({query.error for query in queries if query.error})
    correct = failed == 0 and checked > 0 and not leaked

    record: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": scenario.config,
        "environment": environment(),
        "plans_served": sorted({query.plan for query in queries if query.plan}),
        "checks": {
            "attempted": len(queries),
            "failed": failed,
            "errors": errors,
            "unexpected_results": unexpected,
            "duplicate_results": duplicates,
            "lost": after["lost"] - before["lost"],
            "replayed_on_reference": checked,
            "replay_mismatches": len(mismatched),
            "leaked_shm_segments": leaked,
        },
    }
    if args.trace:
        untraced, traced = phases
        layer_values = compute_layer_metrics(
            probe,
            queries=len(traced.completed),
            counters_before=counters_before,
            counters_after=counters_after,
            admission_delta=traced_admission,
            transport=scenario.transport,
            preprocess_builds=traced.ledger.cold_builds,
            lags_ms=[lag * 1e3 for lag in traced.lags],
            overhead_ratio=qps(traced) / qps(untraced),
        )
        metrics = {m.name: {"value": layer_values[m.name], "unit": m.unit} for m in PER_LAYER}
        notes = {
            name: "not measured on this workload"
            for name, value in layer_values.items()
            if value == NOT_MEASURED
        }
        probe.tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        peak_kb = vm_hwm_kb() + children_kb
        values, notes = end_to_end(phases[0], setup_seconds, peak_kb)
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}
        if scenario.transport == "tcp":
            limit = scenario.LATENCY_LIMIT_MS
            met = values["latency_tail_ms"] <= limit
            notes["latency_tail_ms"] += f", limit {limit:g} ms {'met' if met else 'MISSED'}"
    record["metrics"] = metrics
    record["notes"] = notes
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("config " + json.dumps(scenario.config, sort_keys=True))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("plans served " + json.dumps(record["plans_served"]))
    print("checks " + json.dumps(record["checks"], sort_keys=True))
    for name, metric in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']:7s} {note}")
    print(
        json.dumps(
            {"correct": correct, "attempted": len(queries), "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for name, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
