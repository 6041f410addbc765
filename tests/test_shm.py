"""The shared-memory artifact plane: round-trips, lifecycle, and fallback.

``repro.service.shm`` flattens a :class:`PreprocessArtifact` into one pickle
skeleton plus out-of-band numpy buffers, publishes the pair in a
``multiprocessing.shared_memory`` segment, and reattaches it zero-copy.  The
tests here pin the three guarantees the serving tier builds on: an attached
view routes identically to the original, segments are unlinked when released
(no ``/dev/shm`` leaks), and the plane carries the cluster's warm handoff
while process-pool workers load their artifacts from the pickle spill
directory.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.core import tables
from repro.core.router import ExpanderRouter
from repro.core.tokens import RoutingRequest
from repro.kernels import batched
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import RoutingService, leaked_segments, shm_available
from repro.service import shm as shm_module
from repro.service.shm import (
    SEGMENT_PREFIX,
    ShmArtifactStore,
    attach,
    flatten_artifact,
    unflatten_artifact,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture(scope="module")
def artifact():
    graph = nx.random_regular_graph(4, 48, seed=9)
    router = ExpanderRouter(graph, epsilon=0.5)
    router.preprocess()
    return router.export_artifact(fingerprint="f" * 16)


def _workload(graph, seed):
    nodes = sorted(graph.nodes())
    rng = random.Random(seed)
    destinations = nodes[:]
    rng.shuffle(destinations)
    return [RoutingRequest(source=s, destination=d) for s, d in zip(nodes, destinations)]


def _route_facts(artifact, seed=0):
    graph = artifact.decomposition.graph
    router = ExpanderRouter.from_artifact(graph, artifact)
    outcome = router.route(_workload(graph, seed))
    return (
        outcome.delivered,
        outcome.total_tokens,
        outcome.query_rounds,
        outcome.preprocessing_rounds,
        tuple(sorted(outcome.breakdown.items())),
    )


def test_flatten_unflatten_round_trip(artifact):
    skeleton, buffers = flatten_artifact(artifact)
    clone = unflatten_artifact(skeleton, buffers)
    assert clone is not artifact
    assert clone.fingerprint == artifact.fingerprint
    assert clone.epsilon == artifact.epsilon
    assert _route_facts(clone) == _route_facts(artifact)


def test_flatten_ships_ragged_vertices_as_a_list():
    """Vertices numpy cannot stack (tuples of two lengths) still round-trip."""
    graph = nx.relabel_nodes(
        nx.random_regular_graph(4, 48, seed=9), lambda v: (v,) if v % 2 else (v, v)
    )
    router = ExpanderRouter(graph, epsilon=0.5)
    router.preprocess()
    ragged = router.export_artifact(fingerprint="r" * 16)
    clone = unflatten_artifact(*flatten_artifact(ragged))
    assert sorted(clone.decomposition.graph.nodes()) == sorted(graph.nodes())
    assert _route_facts(clone) == _route_facts(ragged)


def test_probe_and_cleanup_absorb_only_their_own_errors(monkeypatch):
    """The probe degrades on OS errors and cleanup skips a gone segment; bugs surface."""

    def unavailable():
        raise OSError(38, "Function not implemented")

    def buggy():
        raise RuntimeError("probe bug")

    monkeypatch.setattr(shm_module, "_available", None)
    monkeypatch.setattr(shm_module, "_shared_memory_module", unavailable)
    assert shm_module.shm_available() is False
    monkeypatch.setattr(shm_module, "_available", None)
    monkeypatch.setattr(shm_module, "_shared_memory_module", buggy)
    with pytest.raises(RuntimeError, match="probe bug"):
        shm_module.shm_available()
    monkeypatch.undo()

    from multiprocessing import shared_memory

    gone = shared_memory.SharedMemory(create=True, size=16)
    gone.unlink()
    segments = {gone.name: gone}
    shm_module._cleanup_segments(segments)  # unlinking again raises FileNotFoundError
    assert segments == {}


def test_flatten_prewarms_pair_tables_and_propagates_build_errors(monkeypatch):
    router = ExpanderRouter(nx.random_regular_graph(4, 48, seed=9), epsilon=0.5)
    router.preprocess()
    fresh = router.export_artifact()
    matchings = [
        matching
        for node in fresh.decomposition.all_nodes()
        if node.shuffler is not None
        for matching in node.shuffler.matchings
    ]
    assert matchings

    def broken_table(shuffler, matching):
        raise RuntimeError("pair table build failed")

    monkeypatch.setattr(batched, "PairTable", broken_table)
    with pytest.raises(RuntimeError, match="pair table build failed"):
        flatten_artifact(fresh)
    monkeypatch.undo()
    skeleton, buffers = flatten_artifact(fresh)
    assert all(isinstance(m._pair_table, batched.PairTable) for m in matchings)
    # The array engine's route tables ride along, so adopters never rebuild them.
    adopted = unflatten_artifact(skeleton, buffers)
    for artifact in (fresh, adopted):
        decomposition = artifact.decomposition
        assert isinstance(decomposition._vertex_index, tables.VertexIndex)
        for node in decomposition.all_nodes():
            table = node._route_table
            assert isinstance(table, tables.NodeTable)
            if node.is_leaf:
                assert len(table.leaf_best) == node.size
                continue
            assert len(table.best_ends) == len(table.part_size) == len(node.parts)
            assert len(table.part_of) == len(table.bad_part) == len(table.mate)
            assert len(table.part_flat) == node.size
            # Dummy cells for loads 1 and 2: 2 * max(1, 4^level * L) per vertex.
            assert {2 * 4**node.level, 4 * 4**node.level} <= set(table.dummies)


def test_publish_attach_round_trip(artifact):
    with ShmArtifactStore(metrics=MetricsRegistry()) as store:
        info = store.publish("f" * 16, artifact)
        assert info.nbytes > 0
        assert info.buffer_count > 0
        # Idempotent: a second publish reuses the segment.
        assert store.publish("f" * 16, artifact).name == info.name
        assert store.segment_for("f" * 16).name == info.name
        attached = attach(info.name)
        assert _route_facts(attached, seed=1) == _route_facts(artifact, seed=1)
    assert leaked_segments() == []


def test_release_unlinks_at_zero(artifact):
    store = ShmArtifactStore()
    info = store.publish("a" * 16, artifact)
    store.publish("a" * 16, artifact)  # refcount 2
    assert store.release("a" * 16) is False  # still held
    assert store.segment_for("a" * 16) is not None
    assert store.release("a" * 16) is True  # unlinked
    assert store.segment_for("a" * 16) is None
    with pytest.raises(FileNotFoundError):
        attach(info.name)
    assert leaked_segments() == []


def test_trim_protects_kept_fingerprints(artifact):
    store = ShmArtifactStore()
    for index in range(4):
        store.publish(f"{index:016d}", artifact)
    unlinked = store.trim(2, keep={"0000000000000003"})
    assert unlinked == 2
    assert store.segment_for("0000000000000003") is not None
    assert len(store) == 2
    store.close()
    assert leaked_segments() == []


def test_store_close_unlinks_everything(artifact):
    store = ShmArtifactStore()
    store.publish("b" * 16, artifact)
    store.publish("c" * 16, artifact)
    store.close()
    assert len(store) == 0
    assert leaked_segments() == []


def test_service_falls_back_when_shm_disabled():
    """Process-mode batches reach their workers without the shm plane.

    The pickle spill directory is the only artifact transport to pool
    workers, so a process-mode batch routes and publishes no segment.
    """
    graph = nx.random_regular_graph(4, 48, seed=2)
    plan = ExecutionPlan(backend="deterministic", parallelism="processes")
    metrics = MetricsRegistry()
    with RoutingService(metrics=metrics) as service:
        for seed in range(2):
            service.submit(graph, _workload(graph, seed), plan=plan)
        report = service.route_batch()
    assert report.all_delivered
    assert metrics.get("repro_shm_published_total") is None
    assert leaked_segments() == []


def test_process_batches_spill_each_fingerprint_once():
    """Every artifact is written to the spill directory once, then reused."""
    graphs = [nx.random_regular_graph(4, 48, seed=seed) for seed in (4, 5)]
    plan = ExecutionPlan(backend="deterministic", parallelism="processes")
    spills = []
    with RoutingService(max_workers=2, metrics=MetricsRegistry()) as service:
        for _ in range(2):
            for graph in graphs:
                for seed in range(2):
                    service.submit(graph, _workload(graph, seed), plan=plan)
            assert service.route_batch().all_delivered
            # An atomic re-spill would replace the file: new inode, new mtime.
            spills.append(
                {
                    path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
                    for path in service._spill_dir.iterdir()
                }
            )
    assert len(spills[0]) == len(graphs)
    assert all(name.endswith(".artifact.pkl") for name in spills[0])
    assert spills[1] == spills[0]
    assert leaked_segments() == []


def test_cluster_warm_handoff_uses_shm_plane():
    """Rebalanced warm keys migrate via shm and keep serving as cache hits."""
    from repro.cluster import ClusterCoordinator
    from repro.workloads import make_workload

    graphs = [nx.random_regular_graph(4, 48, seed=s) for s in range(3)]
    metrics = MetricsRegistry()
    with ClusterCoordinator(shard_count=2, metrics=metrics) as coordinator:
        for graph in graphs:
            coordinator.submit(graph, make_workload("permutation", graph, shift=1))
        coordinator.dispatch()
        coordinator.add_shard()
        for graph in graphs:
            coordinator.submit(graph, make_workload("permutation", graph, shift=2))
        report = coordinator.dispatch()
        assert report.cache_hits == report.query_count
        assert report.preprocess_rounds_incurred == 0
        handoffs = metrics.as_dict().get("repro_cluster_warm_handoffs_total", {})
        moved = sum(handoffs.values())
        assert handoffs.get("path=shm", 0.0) == moved
    assert leaked_segments() == []


def test_publish_degrades_only_when_the_plane_is_unavailable(artifact, monkeypatch):
    """No space or no /dev/shm means "no segment"; any other error surfaces."""

    def out_of_space(self, fingerprint, artifact):
        raise OSError(28, "No space left on device")

    def buggy(self, fingerprint, artifact):
        raise RuntimeError("flatten bug")

    with RoutingService(metrics=MetricsRegistry()) as service:
        monkeypatch.setattr(ShmArtifactStore, "publish", out_of_space)
        assert service.publish_segment("d" * 16, artifact) is None
        monkeypatch.setattr(ShmArtifactStore, "publish", buggy)
        with pytest.raises(RuntimeError, match="flatten bug"):
            service.publish_segment("d" * 16, artifact)
    assert leaked_segments() == []


_TCP_HANDOFF_SCRIPT = """
from repro.cluster import ClusterCoordinator
from repro.graphs import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.workloads import permutation_workload

if __name__ == "__main__":
    graphs = [random_regular_expander(32, degree=4, seed=seed) for seed in range(6)]
    with ClusterCoordinator(
        shard_count=2, transport="tcp", metrics=MetricsRegistry()
    ) as coordinator:
        for graph in graphs:
            coordinator.submit(graph, permutation_workload(graph, shift=1))
        coordinator.dispatch()
        coordinator.add_shard()
        for graph in graphs:
            coordinator.submit(graph, permutation_workload(graph, shift=2))
        report = coordinator.dispatch()
        assert report.cache_hits == report.query_count
        handoffs = coordinator.metrics.as_dict().get("repro_cluster_warm_handoffs_total", {})
        assert handoffs.get("path=shm", 0.0) > 0, handoffs
        pids = [worker.child.pid for worker in coordinator.workers.values()]
    print(" ".join(map(str, pids)))
"""


def test_tcp_warm_handoff_leaves_no_tracebacks_or_segments(tmp_path):
    """Shard servers attaching a sibling's segment keep the shared tracker intact.

    Spawned shard servers share their parent's resource tracker, which keeps
    one entry per segment name.  An attach that unregistered its (shared)
    entry made the publisher's later unlink fail inside the tracker with a
    ``KeyError`` traceback on stderr.
    """
    script = tmp_path / "tcp_handoff.py"
    script.write_text(_TCP_HANDOFF_SCRIPT)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr
    pids = completed.stdout.split()
    assert len(pids) == 3
    survivors = [
        name
        for name in leaked_segments()
        if any(name.startswith(f"{SEGMENT_PREFIX}-{pid}-") for pid in pids)
    ]
    assert survivors == []
