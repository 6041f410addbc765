"""Elastic cluster tour: autoscaling and chaos failover.

The elastic control plane end to end, on one seeded run:

1. a queue-depth :class:`~repro.elastic.Autoscaler` grows a 2-shard cluster
   under a bursty arrival process and shrinks it back in the quiet tail,
   handing warm artifacts to their new owners as files, so scale events
   cost zero re-preprocessing;
2. a seeded :class:`~repro.elastic.FaultPlan` crashes a shard mid-run and
   rejoins it later — the coordinator's health check observes the crash,
   re-owns the dead shard's admitted batches, and the SLO report proves
   ``lost_batches == 0`` with the failover windows' latency split out.

Run with ``PYTHONPATH=src python examples/elastic_chaos_demo.py`` (or after
``pip install -e .``).
"""

from repro.cluster import ClusterCoordinator, OpenLoopLoadGenerator
from repro.elastic import Autoscaler, AutoscalerConfig, FaultPlan
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan

PLAN = ExecutionPlan(backend="deterministic", max_workers=2)


def chaos_run() -> None:
    print("== bursty autoscale + seeded kill/rejoin, zero lost batches ==")
    graphs = [random_regular_expander(64, degree=8, seed=seed) for seed in range(4)]
    with ClusterCoordinator(
        shard_count=2, cache_capacity=8, default_plan=PLAN, metrics=MetricsRegistry()
    ) as coordinator:
        autoscaler = Autoscaler(
            coordinator,
            AutoscalerConfig(
                policy="queue-depth",
                min_shards=2,
                max_shards=5,
                scale_up_depth=3.0,
                scale_down_depth=1.0,
                evaluate_interval=0.05,
                cooldown=0.05,
            ),
        )
        plan = FaultPlan.kill_and_rejoin("shard-1", kill_at=0.35, rejoin_at=0.7)
        generator = OpenLoopLoadGenerator(
            graphs,
            rate=220.0,
            duration=1.0,
            arrival="bursty",
            burst_factor=3.0,
            dispatch_interval=0.05,
            seed=13,
        )
        report = generator.run(coordinator, fault_plan=plan, autoscaler=autoscaler)
        print(report.render())
        assert report.lost_batches == 0, "failover must never drop admitted batches"
        assert report.completed == report.admitted
        print(
            f"\nsurvived {report.failovers} failover(s): "
            f"{report.requeued_batches} batches requeued, 0 lost; "
            f"{len(report.scale_events)} scale events"
        )


def main() -> None:
    chaos_run()


if __name__ == "__main__":
    main()
