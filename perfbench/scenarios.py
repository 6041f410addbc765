"""The three workloads: seeded inputs, pinned configuration, set-up and load.

Each workload fixes its whole configuration (transport, shard count, cache
size, journal, and the :class:`~repro.planner.ExecutionPlan` with kernel,
parallelism and fusion); nothing depends on the machine's core count.  The
program receives only the graphs and requests generated here from the seed.

Closed loops submit a round of queries, dispatch, and wait; each query is
timed from its submit to the return of the report that served it.  The open
loop submits on a precomputed schedule from one connection while a second
connection dispatches every window; each query is timed from the moment its
submit was *due*, so a stall is charged to every query queued behind it.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

import networkx as nx

from repro import ExecutionPlan, RoutingRequest
from repro.cluster import DEFAULT_WORKLOAD_MIX, ClusterCoordinator
from repro.durability import CoordinatorJournal
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.net import ClusterClient, ClusterGateway
from repro.workloads import make_workload

__all__ = ["Served", "Query", "Ledger", "Phase", "System", "Scenario", "SCENARIOS", "EPSILON"]

#: The router's tradeoff parameter; the reference replay must use the same.
EPSILON = 0.5

clock = time.perf_counter


class Served(NamedTuple):
    """What the cluster reported for one query.

    Only the counts are kept: holding every routed token would make the
    benchmark's own memory, and so ``peak_rss_mb``, grow with throughput.
    """

    delivered: int
    total_tokens: int
    query_rounds: int
    preprocess_rounds: int


@dataclass
class Query:
    """One submission and what became of it."""

    graph: int
    requests: tuple[RoutingRequest, ...]
    load: int | None = None
    workload: str = ""
    due: float | None = None  # open loop: seconds after the phase start
    issued: float = 0.0
    shard: str = ""
    done: float | None = None
    outcome: Served | None = None
    plan: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        outcome = self.outcome
        return (
            not self.error
            and outcome is not None
            and outcome.delivered == outcome.total_tokens == len(self.requests)
        )


class Ledger:
    """Matches dispatch reports back to the submissions they served.

    Admission is first-in first-out and a drain takes everything admitted so
    far, so one report serves the oldest ``report.query_count`` accepted
    submissions; inside a shard's report, results come back in submission
    order.  Anything that does not line up is marked failed, never guessed.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._pending: deque[Query] = deque()
        self.unexpected_results = 0
        self.cold_builds = 0

    def admit(self, query: Query, decision) -> None:
        query.shard = decision.shard_id
        if not decision.accepted:
            query.error = "duplicate" if getattr(decision, "duplicate", False) else "rejected"
            return
        with self._cond:
            self._pending.append(query)
            self._cond.notify_all()

    def serve(self, report, done: float, wait: float = 5.0) -> None:
        count = report.query_count
        with self._cond:
            # Over a socket the submit reply can trail the drain that served it.
            self._cond.wait_for(lambda: len(self._pending) >= count, timeout=wait)
            served = [self._pending.popleft() for _ in range(min(count, len(self._pending)))]
        self.unexpected_results += count - len(served)
        by_shard: dict[str, list[Query]] = {}
        for query in served:
            by_shard.setdefault(query.shard, []).append(query)
        for shard_id, shard_report in report.shard_reports.items():
            expected = by_shard.pop(shard_id, [])
            results = sorted(shard_report.results, key=lambda result: result.query_id)
            self.cold_builds += len({r.fingerprint for r in results if not r.cache_hit})
            if len(results) != len(expected):
                for query in expected:
                    query.error = "misaligned"
                continue
            for query, result in zip(expected, results):
                outcome = result.outcome
                query.done = done
                query.outcome = Served(
                    outcome.delivered,
                    outcome.total_tokens,
                    outcome.query_rounds,
                    outcome.preprocess_rounds,
                )
                query.plan = result.plan.describe() if result.plan is not None else ""
                if outcome.total_tokens != len(query.requests):
                    query.error = "misaligned"
        for leftovers in by_shard.values():
            for query in leftovers:
                query.error = "misaligned"

    @property
    def outstanding(self) -> int:
        with self._cond:
            return len(self._pending)

    def abandon(self) -> None:
        """Mark every admitted-but-never-served query as lost."""
        with self._cond:
            while self._pending:
                self._pending.popleft().error = "lost"


@dataclass
class Phase:
    """One measured stretch of load."""

    queries: list[Query]
    start: float
    elapsed: float
    ledger: Ledger
    lags: list[float] = field(default_factory=list)

    @property
    def completed(self) -> list[Query]:
        return [query for query in self.queries if query.ok]

    def latency(self, query: Query) -> float:
        """Seconds from due (open loop) or issue (closed loop) to the report."""
        if not query.ok:
            return self.elapsed  # a failed query misses any latency limit
        began = self.start + query.due if query.due is not None else query.issued
        return query.done - began


@dataclass
class System:
    """A running cluster plus the handles the load drives."""

    coordinator: ClusterCoordinator
    registry: MetricsRegistry
    submitter: Any
    dispatcher: Any
    closers: list[Callable[[], None]]
    workdir: Path

    def child_pids(self) -> list[int]:
        return [
            worker.child.pid
            for worker in self.coordinator.workers.values()
            if getattr(worker, "child", None) is not None
        ]

    def close(self) -> None:
        for closer in self.closers:
            closer()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _plan(fused: bool) -> ExecutionPlan:
    return ExecutionPlan(
        backend="deterministic",
        kernel="numpy",
        parallelism="threads",
        max_workers=2,
        fused=fused,
        policy="fixed",
        reason="pinned by the benchmark",
    )


def _random_requests(graph: nx.Graph, rng: random.Random, low: int, high: int) -> tuple:
    """``low..high`` requests with distinct sources and distinct destinations (load 1)."""
    vertices = sorted(graph.nodes())
    count = rng.randint(low, high)
    sources = rng.sample(vertices, count)
    destinations = rng.sample(vertices, count)
    return tuple(RoutingRequest(s, d) for s, d in zip(sources, destinations))


def _warm(system: System, graphs: list[nx.Graph], indexes) -> None:
    """One small query per graph, dispatched once: builds and caches them."""
    for index in indexes:
        graph = graphs[index]
        vertices = sorted(graph.nodes())
        system.submitter.submit(graph, [RoutingRequest(vertices[0], vertices[-1])])
    report = system.dispatcher.dispatch()
    if report.query_count != len(indexes) or not report.all_delivered:
        raise RuntimeError(f"warm-up served {report.query_count} of {len(indexes)} queries")


def _closed_loop(
    system: System, graphs: list[nx.Graph], rounds: Iterator[list[Query]], seconds: float
) -> Phase:
    ledger = Ledger()
    queries: list[Query] = []
    coordinator = system.coordinator
    start = clock()
    while clock() - start < seconds:
        for query in next(rounds):
            queries.append(query)
            query.issued = clock()
            decision = coordinator.submit(
                graphs[query.graph], query.requests, load=query.load, workload=query.workload
            )
            ledger.admit(query, decision)
        ledger.serve(coordinator.dispatch(), clock())
    elapsed = clock() - start
    ledger.abandon()
    return Phase(queries, start, elapsed, ledger)


class Scenario:
    """One named workload: its inputs, configuration, set-up and load.

    A workload's graphs are a fixed set, the same for every seed, like a
    competition's benchmark set: random graphs differ enough in hierarchy
    shape that a per-seed graph draw would swamp every comparison.  The seed
    varies the traffic on those graphs: the request instances, and on
    tcp-serving the graph picks and arrival times.
    """

    name = ""
    transport = "local"
    config: dict[str, object] = {}

    def graph_seeds(self, count: int) -> list[int]:
        """Seeds of the workload's fixed graph set."""
        rng = random.Random(f"{self.name}:graph-set")
        return [rng.randrange(1 << 30) for _ in range(count)]

    def make_inputs(self, rng: random.Random) -> Any:
        raise NotImplementedError

    def setup(self, inputs: Any, workdir: Path) -> System:
        raise NotImplementedError

    def run(self, system: System, inputs: Any, seconds: float, rng: random.Random) -> Phase:
        raise NotImplementedError


class WarmFused(Scenario):
    """Kernel-bound closed loop: fused ``route_many`` on resident n=128 expanders."""

    name = "warm-fused"
    GRAPHS = 6
    N = 128
    DEGREE = 8
    PER_SHAPE = 4  # per graph per round: 4 shapes x 4 = 16 same-graph queries
    POOL = 12  # pre-generated instances per (graph, shape)
    config = {
        "loop": "closed, 1 caller",
        "transport": "local",
        "shards": 2,
        "cache_capacity": 8,
        "journal": False,
        "plan": _plan(fused=True).describe(),
        "graphs": f"{GRAPHS} x random {DEGREE}-regular n={N}",
        "round": f"{PER_SHAPE * len(DEFAULT_WORKLOAD_MIX)} queries per graph, then dispatch",
    }

    def make_inputs(self, rng: random.Random):
        graphs = [
            random_regular_expander(self.N, degree=self.DEGREE, seed=seed)
            for seed in self.graph_seeds(self.GRAPHS)
        ]
        pools = []  # pools[graph][shape] -> workload instances
        for graph in graphs:
            shapes = []
            for name, params in DEFAULT_WORKLOAD_MIX:
                instances = []
                for _ in range(self.POOL):
                    varied = dict(params)
                    if name == "permutation":
                        varied["shift"] = rng.randrange(1, self.N)
                    elif name == "hotspot":
                        varied["seed"] = rng.randrange(1 << 30)
                    instances.append(make_workload(name, graph, **varied))
                shapes.append(instances)
            pools.append(shapes)
        return graphs, pools

    def setup(self, inputs, workdir: Path) -> System:
        graphs, _ = inputs
        registry = MetricsRegistry()
        coordinator = ClusterCoordinator(
            shard_count=2,
            epsilon=EPSILON,
            cache_capacity=8,
            default_plan=_plan(fused=True),
            metrics=registry,
            transport="local",
        )
        system = System(
            coordinator, registry, coordinator, coordinator, [coordinator.close], workdir
        )
        _warm(system, graphs, range(len(graphs)))
        return system

    def run(self, system, inputs, seconds, rng) -> Phase:
        graphs, pools = inputs

        def rounds():
            while True:
                batch = []
                for index, shapes in enumerate(pools):
                    for instances in shapes:
                        for workload in rng.sample(instances, self.PER_SHAPE):
                            batch.append(
                                Query(index, workload.requests, workload.load, workload.name)
                            )
                yield batch

        return _closed_loop(system, graphs, rounds(), seconds)


class TcpServing(Scenario):
    """Stack-bound open loop: client -> gateway -> journaled coordinator -> shard servers."""

    name = "tcp-serving"
    transport = "tcp"
    SIZES = (16, 20, 24)
    GRAPHS = 24
    DEGREE = 4
    RATE = 45.0  # offered submits per second
    WINDOW = 0.02  # seconds between dispatches
    LATENCY_LIMIT_MS = 250.0
    config = {
        "loop": f"open, Poisson {RATE:g}/s, dispatch every {WINDOW * 1e3:g} ms",
        "connections": "2 (one submits, one dispatches)",
        "transport": "tcp (unix sockets), 2 shard-server processes",
        "shards": 2,
        "cache_capacity": 32,
        "journal": "CoordinatorJournal defaults (flushed, no fsync)",
        "plan": _plan(fused=False).describe(),
        "graphs": f"{GRAPHS} x random {DEGREE}-regular n in {SIZES}",
        "requests_per_submit": "1-4",
        "latency_limit_ms": LATENCY_LIMIT_MS,
    }

    def make_inputs(self, rng: random.Random):
        sizes = self.SIZES
        graphs = [
            random_regular_expander(sizes[index % len(sizes)], degree=self.DEGREE, seed=seed)
            for index, seed in enumerate(self.graph_seeds(self.GRAPHS))
        ]
        return graphs, None

    def setup(self, inputs, workdir: Path) -> System:
        graphs, _ = inputs
        workdir.mkdir(parents=True, exist_ok=True)
        registry = MetricsRegistry()
        coordinator = ClusterCoordinator(
            shard_count=2,
            epsilon=EPSILON,
            cache_capacity=32,
            default_plan=_plan(fused=False),
            metrics=registry,
            transport="tcp",
            net_family="unix",
            journal=CoordinatorJournal(workdir / "journal", metrics=registry),
        )
        closers = [coordinator.close]
        try:
            gateway = ClusterGateway(coordinator, socket_path=str(workdir / "gateway.sock"))
            closers.insert(0, gateway.close)
            submitter = ClusterClient(gateway.address, metrics=registry)
            closers.insert(0, submitter.close)
            dispatcher = ClusterClient(gateway.address, metrics=registry)
            closers.insert(0, dispatcher.close)
            system = System(coordinator, registry, submitter, dispatcher, closers, workdir)
            _warm(system, graphs, range(len(graphs)))
        except BaseException:
            for closer in closers:
                closer()
            raise
        return system

    def arrivals(self, graphs, seconds: float, rng: random.Random) -> list[Query]:
        """``RATE * seconds`` arrivals, uniform given their count (a Poisson process)."""
        count = max(1, round(self.RATE * seconds))
        times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        queries = []
        for due in times:
            index = rng.randrange(len(graphs))
            requests = _random_requests(graphs[index], rng, 1, 4)
            queries.append(Query(index, requests, due=due))
        return queries

    def run(self, system, inputs, seconds, rng) -> Phase:
        graphs, _ = inputs
        queries = self.arrivals(graphs, seconds, rng)
        return open_loop(system, graphs, queries, self.WINDOW)


def open_loop(system: System, graphs, queries: list[Query], window: float) -> Phase:
    """Submit ``queries`` on schedule while dispatching every ``window`` seconds."""
    ledger = Ledger()
    lags: list[float] = []
    submitted = threading.Event()
    errors: list[BaseException] = []
    start = clock() + window
    last_report = [start]

    def submit_all() -> None:
        try:
            for query in queries:
                due = start + query.due
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                query.issued = clock()
                lags.append(query.issued - due)
                try:
                    reply = system.submitter.submit(graphs[query.graph], query.requests)
                except Exception as error:  # noqa: BLE001 - counted as a failed query
                    query.error = f"{type(error).__name__}: {error}"
                    continue
                ledger.admit(query, reply)
        finally:
            submitted.set()

    def dispatch_all() -> None:
        tick = 0
        idle = 0
        while True:
            tick += 1
            delay = start + tick * window - clock()
            if delay > 0:
                time.sleep(delay)
            finished = submitted.is_set()  # read before the drain it must precede
            report = system.dispatcher.dispatch()
            last_report[0] = clock()
            ledger.serve(report, last_report[0])
            if finished and ledger.outstanding == 0:
                return
            idle = idle + 1 if finished and report.query_count == 0 else 0
            if idle >= 3:
                return  # nothing left is being served: the remainder is lost

    def guarded(target: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            try:
                target()
            except BaseException as error:  # noqa: BLE001 - re-raised on the main thread
                errors.append(error)
                submitted.set()

        return run

    threads = [
        threading.Thread(target=guarded(submit_all), name="perfbench-submit"),
        threading.Thread(target=guarded(dispatch_all), name="perfbench-dispatch"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    ledger.abandon()
    return Phase(queries, start, last_report[0] - start, ledger, lags)


class ColdChurn(Scenario):
    """Preprocess-bound closed loop: skewed draws over 3x the cluster's cache slots.

    The access sequence (which graph each query hits) is drawn once from the
    workload's own seed, like its graph set, so every run sees the same
    cache hits and misses; ``--seed`` varies the permutation each query
    routes.  A per-seed access order moves the hit ratio by several percent
    between seeds, and with it every timing.
    """

    name = "cold-churn"
    SIZES = (64, 80, 96, 112, 128)
    DEGREE = 8
    CACHE = 4  # per shard; 2 shards -> 8 slots
    GRAPHS = 24  # 3x the cache slots
    SKEW = 0.5  # Zipf exponent over the graphs' popularity ranks
    BLOCK = 48  # draws per shuffled block with exact Zipf counts
    POOL = 8  # pre-generated permutations per graph
    config = {
        "loop": "closed, 1 caller",
        "transport": "local",
        "shards": 2,
        "cache_capacity": CACHE,
        "journal": False,
        "plan": _plan(fused=False).describe(),
        "graphs": f"{GRAPHS} x random {DEGREE}-regular, n by popularity rank cycling {SIZES}",
        "draws": f"Zipf s={SKEW} over ranks, exact counts per shuffled block of {BLOCK}",
        "round": "1 full-permutation query, then dispatch",
    }

    def make_inputs(self, rng: random.Random):
        sizes = self.SIZES
        graphs = [
            random_regular_expander(sizes[rank % len(sizes)], degree=self.DEGREE, seed=seed)
            for rank, seed in enumerate(self.graph_seeds(self.GRAPHS))
        ]
        pools = [
            [
                make_workload("permutation", graph, shift=rng.randrange(1, len(graph)))
                for _ in range(self.POOL)
            ]
            for graph in graphs
        ]
        return graphs, pools

    def block_counts(self) -> list[int]:
        """Draws per popularity rank in one block (largest-remainder rounding)."""
        weights = [1.0 / (rank + 1) ** self.SKEW for rank in range(self.GRAPHS)]
        shares = [self.BLOCK * weight / sum(weights) for weight in weights]
        counts = [int(share) for share in shares]
        by_remainder = sorted(range(self.GRAPHS), key=lambda rank: counts[rank] - shares[rank])
        for rank in by_remainder[: self.BLOCK - sum(counts)]:
            counts[rank] += 1
        return counts

    def draws(self) -> Iterator[int]:
        """The access sequence: popularity ranks, in shuffled blocks of exact counts."""
        order = random.Random(f"{self.name}:draws")
        block = [rank for rank, count in enumerate(self.block_counts()) for _ in range(count)]
        while True:
            order.shuffle(block)
            yield from block

    def setup(self, inputs, workdir: Path) -> System:
        graphs, _ = inputs
        registry = MetricsRegistry()
        coordinator = ClusterCoordinator(
            shard_count=2,
            epsilon=EPSILON,
            cache_capacity=self.CACHE,
            default_plan=_plan(fused=False),
            metrics=registry,
            transport="local",
        )
        system = System(
            coordinator, registry, coordinator, coordinator, [coordinator.close], workdir
        )
        _warm(system, graphs, range(2 * self.CACHE))  # the hottest ranks fill the caches
        return system

    def run(self, system, inputs, seconds, rng) -> Phase:
        graphs, pools = inputs

        def rounds():
            for rank in self.draws():
                workload = rng.choice(pools[rank])
                yield [Query(rank, workload.requests, workload.load, workload.name)]

        return _closed_loop(system, graphs, rounds(), seconds)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario for scenario in (WarmFused(), TcpServing(), ColdChurn())
}
