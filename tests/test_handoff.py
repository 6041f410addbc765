"""The warm handoff: one artifact file per moved key, in the disk-tier format.

Adopted keys stay warm with no extra preprocessing; the coordinator's
``repro-handoff-*`` directory is gone afterwards whatever failed; a bad file
or an unreachable source is counted, and its key rebuilds instead.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import networkx as nx
import pytest

from repro.cluster import ClusterCoordinator, ShardWorker
from repro.core.router import PreprocessArtifact
from repro.metrics import MetricsRegistry
from repro.service import leaked_segments
from repro.service.cache import write_artifact
from repro.workloads import make_workload

GRAPHS = [nx.random_regular_graph(4, 48, seed=seed) for seed in range(4)]


@pytest.fixture()
def handoff_root(tmp_path, monkeypatch):
    """Point :mod:`tempfile` at ``tmp_path`` so leftover handoff dirs are visible."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def _handoffs(metrics) -> dict[str, float]:
    return metrics.as_dict().get("repro_cluster_warm_handoffs_total", {})


def _dispatch(coordinator, shift):
    for graph in GRAPHS:
        coordinator.submit(graph, make_workload("permutation", graph, shift=shift))
    return coordinator.dispatch()


def _results(report):
    return [result for shard in report.shard_reports.values() for result in shard.results]


def _facts(report):
    """Per-query results that must not depend on where an artifact came from."""
    return sorted(
        (result.fingerprint, result.outcome.delivered, result.outcome.query_rounds)
        for result in _results(report)
    )


def _scale_up(export=None):
    """Warm 2 shards, add a third (with ``export`` patched in), dispatch again."""
    metrics = MetricsRegistry()
    with ClusterCoordinator(shard_count=2, cache_capacity=8, metrics=metrics) as coordinator:
        cold = _dispatch(coordinator, 1)
        rounds = {
            result.fingerprint: result.outcome.preprocess_rounds for result in _results(cold)
        }
        with pytest.MonkeyPatch.context() as patch:
            if export is not None:
                patch.setattr(ShardWorker, "export_artifact", export)
            stats = coordinator.add_shard()
        moved = {key for key in rounds if coordinator.ring.assign(key) == "shard-2"}
        grown = _dispatch(coordinator, 2)
    assert stats.moved == len(moved) > 0
    return metrics, grown, moved, rounds


def test_local_scale_up_adopts_every_moved_key_and_leaves_nothing(handoff_root):
    segments_before = set(leaked_segments())
    metrics, grown, moved, _ = _scale_up()
    assert _handoffs(metrics) == {"result=adopted": float(len(moved))}
    assert grown.cache_hits == grown.query_count
    assert grown.preprocess_rounds_incurred == 0
    assert list(handoff_root.glob("repro-handoff-*")) == []
    assert set(leaked_segments()) <= segments_before


def _export_then(damage):
    original = ShardWorker.export_artifact

    def export(self, fingerprint, path):
        if not original(self, fingerprint, path):
            return False
        damage(self, fingerprint, Path(path))
        return True

    return export


def _stamp(**fields):
    def damage(worker, fingerprint, path):
        artifact = copy.copy(worker.service.cache.peek(fingerprint))
        for name, value in fields.items():
            setattr(artifact, name, value)
        write_artifact(path, artifact)

    return damage


def _truncate(worker, fingerprint, path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


@pytest.mark.parametrize(
    "damage",
    [
        _stamp(fingerprint="0" * 64),
        _stamp(format_version=PreprocessArtifact.FORMAT_VERSION + 1),
        _truncate,
    ],
    ids=["wrong-fingerprint", "wrong-format-version", "truncated"],
)
def test_bad_handoff_file_is_refused_counted_and_rebuilt(handoff_root, damage):
    _, baseline, _, _ = _scale_up()
    metrics, grown, moved, rounds = _scale_up(export=_export_then(damage))
    assert _handoffs(metrics) == {"result=refused": float(len(moved))}
    # The refused keys rebuild with their normal preprocessing, nothing else.
    assert grown.query_count - grown.cache_hits == len(moved)
    assert grown.preprocess_rounds_incurred == sum(rounds[key] for key in moved)
    assert _facts(grown) == _facts(baseline)
    assert list(handoff_root.glob("repro-handoff-*")) == []


def test_unreachable_source_leaves_no_handoff_directory(handoff_root):
    def export(self, fingerprint, path):
        raise ConnectionError("source shard unreachable")

    metrics, grown, moved, rounds = _scale_up(export=export)
    assert _handoffs(metrics) == {"result=missing": float(len(moved))}
    assert grown.all_delivered
    assert grown.preprocess_rounds_incurred == sum(rounds[key] for key in moved)
    assert list(handoff_root.glob("repro-handoff-*")) == []


_TCP_HANDOFF_SCRIPT = """
import os

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
        stats = coordinator.add_shard()
        for graph in graphs:
            coordinator.submit(graph, permutation_workload(graph, shift=2))
        report = coordinator.dispatch()
        assert report.cache_hits == report.query_count
        assert report.preprocess_rounds_incurred == 0
        handoffs = coordinator.metrics.as_dict().get("repro_cluster_warm_handoffs_total", {})
        # Cache capacity 8 holds all 6 keys, so every moved key was warm.
        assert stats.moved > 0 and handoffs == {"result=adopted": float(stats.moved)}, handoffs
        assert not [entry for entry in os.listdir(os.environ["TMPDIR"])
                    if entry.startswith("repro-handoff-")]
"""


def test_tcp_warm_handoff_leaves_no_tracebacks_or_segments(tmp_path):
    """Shard servers hand warm keys off through files, quietly and without leftovers.

    The run's stderr carries no traceback, no ``repro-handoff-*`` directory
    is left in its temporary directory, and ``/dev/shm`` gains no entry.
    """
    script = tmp_path / "tcp_handoff.py"
    script.write_text(_TCP_HANDOFF_SCRIPT)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(scratch)
    segments_before = set(leaked_segments())
    completed = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr
    assert list(scratch.glob("repro-handoff-*")) == []
    assert set(leaked_segments()) <= segments_before
