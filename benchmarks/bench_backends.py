"""E6: all registered backends x workload shapes, as one JSON-emitting comparison.

The paper's headline claim is a comparison — deterministic expander routing
(Theorem 1.1) against a CS20-style rebuild-per-query strategy and the
randomized GKS baseline — and this benchmark runs it end to end through the
serving layer: every registered backend routes the same workload shapes
(permutation, hot-spot, adversarial bipartite, multi-token) on the benchmark
expander via :meth:`RoutingService.compare_batch`, and one JSON results row
per (backend, workload) is written to ``bench-backends.json`` (uploaded as a
CI artifact by the bench-smoke job).

The warm-repeat assertion is the amortization headline: on a second
comparison over the same graph, the deterministic backend preprocesses
*nothing* — its artifact is served from the cache — while the
rebuild-per-query comparator pays its full rebuild inside every query's
rounds, every time.
"""

import json
from pathlib import Path

from conftest import QUICK

from repro.analysis.reporting import format_table
from repro.backends import available_backends
from repro.graphs.generators import random_regular_expander
from repro.service import RoutingService
from repro.workloads import make_workload

BENCH_N = 64 if QUICK else 128
WORKLOAD_SPECS = [
    ("permutation", {"shift": 3}),
    ("hotspot", {"load": 2, "seed": 1}),
    ("adversarial-bipartite", {"seed": 2}),
    ("multi-token", {"load": 2}),
]
RESULTS_PATH = Path(__file__).resolve().parent.parent / "bench-backends.json"


def test_backend_workload_matrix(benchmark):
    graph = random_regular_expander(BENCH_N, degree=8, seed=1)
    workloads = [make_workload(name, graph, **params) for name, params in WORKLOAD_SPECS]
    service = RoutingService(epsilon=0.5)

    def compare():
        return service.compare_batch(graph, workloads)

    cold = benchmark.pedantic(compare, rounds=1, iterations=1)
    warm = service.compare_batch(graph, workloads)

    rows = []
    for entry in warm.entries:
        row = entry.as_row()
        row["n"] = BENCH_N
        row["quick"] = QUICK
        rows.append(row)
    RESULTS_PATH.write_text(json.dumps(rows, indent=2, default=str) + "\n")

    print(f"\n[E6] backends x workloads on n={BENCH_N} (cold batch, then warm repeat)")
    print(warm.render())
    print(f"wrote {len(rows)} rows to {RESULTS_PATH.name}")

    assert set(warm.backends) == set(available_backends())
    assert len(rows) == len(available_backends()) * len(WORKLOAD_SPECS)
    assert cold.all_delivered and warm.all_delivered

    # The tradeoff, measured: the cold comparison pays the deterministic
    # preprocessing once; the warm repeat reuses the cached artifact and
    # incurs zero additional preprocessing rounds.
    assert cold.batch_reports["deterministic"].preprocess_rounds_incurred > 0
    assert warm.batch_reports["deterministic"].preprocess_rounds_incurred == 0
    assert warm.batch_reports["deterministic"].preprocess_rounds_reused > 0

    # The rebuild-per-query comparator has no reusable state: its per-query
    # rounds dwarf the deterministic backend's on every workload.
    pivot = {row["workload"]: row for row in warm.pivot("query_rounds")}
    for workload in pivot.values():
        assert workload["rebuild-per-query"] > workload["deterministic"]
    print(format_table(warm.summary_rows()))
