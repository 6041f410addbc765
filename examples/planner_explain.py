"""EXPLAIN-style query planning on a 4-shard cluster.

The planner tour, end to end:

1. a 4-shard :class:`~repro.cluster.ClusterCoordinator` with
   ``policy="adaptive"`` plans every query centrally — backend, kernel,
   fusion, and the shard placement hint all land in one
   :class:`~repro.planner.ExecutionPlan` shipped with the query;
2. the adaptive policy first *explores* (every candidate backend is probed
   per workload class), feeding observed timings into one cluster-wide
   :class:`~repro.planner.CostModel`;
3. once calibrated, :meth:`ClusterCoordinator.explain` renders the decision
   like a database EXPLAIN: the candidate cost table (asymptotic priors vs
   EWMA calibration), the chosen plan, and the reason;
4. the dispatch report shows which plans actually served traffic
   (``plan_counts`` / ``backend_counts``) — the four knobs are now one
   observable decision point.

Run with ``PYTHONPATH=src python examples/planner_explain.py`` (or after
``pip install -e .``).
"""

from repro.backends import available_backends
from repro.cluster import ClusterCoordinator
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.workloads import make_workload


def main() -> None:
    graph = random_regular_expander(64, degree=8, seed=11)
    workloads = [
        make_workload("permutation", graph, shift=3),
        make_workload("hotspot", graph, load=2, seed=1),
        make_workload("broadcast", graph, fanout=8),
        make_workload("adversarial-bipartite", graph, seed=2),
    ]
    metrics = MetricsRegistry()

    with ClusterCoordinator(
        shard_count=4, cache_capacity=8, policy="adaptive", metrics=metrics
    ) as coordinator:
        print("== un-calibrated: the asymptotic priors decide ==")
        print(coordinator.explain(graph, workloads[0]).render())

        print("\n== calibration: the adaptive policy probes every backend ==")
        probes = 2 * len(available_backends()) + 1
        for _ in range(probes):
            for workload in workloads:
                coordinator.submit(graph, workload)
            report = coordinator.dispatch()
            assert report.all_delivered
        print(
            f"{probes} passes x {len(workloads)} workloads dispatched; "
            f"cost model version {coordinator.planner.cost_model.version}"
        )

        print("\n== EXPLAIN per workload (calibrated) ==")
        for workload in workloads:
            explanation = coordinator.explain(graph, workload)
            print(f"\n-- {workload.name} --")
            print(explanation.render())

        print("\n== one more dispatch: plans visible in the cluster report ==")
        for workload in workloads:
            coordinator.submit(graph, workload)
        report = coordinator.dispatch()
        print(f"backend_counts: {report.backend_counts}")
        print(f"plan_counts:    {report.plan_counts}")
        print(report.render())


if __name__ == "__main__":
    main()
