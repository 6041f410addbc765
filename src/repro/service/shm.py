"""Zero-copy shared-memory artifact plane for the cluster's warm-key handoff.

When the cluster rebalances, a warm :class:`~repro.core.router.PreprocessArtifact`
moves from one shard server to another.  This module carries it in one
``multiprocessing.shared_memory`` segment per fingerprint:

* :meth:`ShmArtifactStore.publish` flattens the artifact once — a pickle-5
  *skeleton* whose numpy payloads (CSR adjacency of every graph, dispersion
  pair tables, route tables) are carried as out-of-band raw
  buffers — and lays skeleton + buffer table + aligned buffers out in a
  single named segment;
* :func:`attach` maps the segment and rebuilds the artifact with
  ``pickle.loads(..., buffers=...)`` over memoryviews *into the segment*:
  the heavy arrays are zero-copy views of shared pages, never duplicated
  per adopter;
* the store keeps a refcounted registry per fingerprint with
  ``create → attach → unlink`` lifecycle, finalizer-backed leak protection
  (a dropped store unlinks its segments), and ``repro_shm_*`` metrics
  (segments, bytes, attaches, unlink latency).

Process-pool workers do not use this plane: measured against the pickle
spill directory of :mod:`repro.service.pool` it tied on warm batches and lost
on cold ones, so the spill directory is their only artifact transport.  Where
``/dev/shm`` is unavailable (:func:`shm_available` is false) the handoff
carries the artifact object itself.  ``tests/test_shm.py`` asserts
round-trip equality, unlink-on-close, and the handoff.
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
import struct
import time
import weakref
from dataclasses import dataclass
from typing import Any, Iterable

import networkx as nx

from repro.metrics import MetricsRegistry, default_registry

__all__ = [
    "SEGMENT_PREFIX",
    "shm_available",
    "flatten_artifact",
    "unflatten_artifact",
    "attach",
    "ShmArtifactStore",
    "ShmSegmentInfo",
    "leaked_segments",
]

SEGMENT_PREFIX = "repro-shm"
_MAGIC = b"RSHM"
_LAYOUT_VERSION = 1
_ALIGN = 64


def _shared_memory_module():
    from multiprocessing import shared_memory

    return shared_memory


_available: bool | None = None


def shm_available() -> bool:
    """Whether named shared-memory segments work on this platform (probed once)."""
    global _available
    if _available is None:
        try:
            shared_memory = _shared_memory_module()
            probe = shared_memory.SharedMemory(create=True, size=16)
            try:
                probe.buf[:4] = _MAGIC
                _AttachedSegment(probe.name).close()
            finally:
                probe.close()
                probe.unlink()
            _available = True
        except Exception:
            _available = False
    return _available


# -- flattening -----------------------------------------------------------------


def _graph_is_plain(graph: nx.Graph) -> bool:
    """True for undirected simple graphs with no node/edge/graph attributes."""
    if graph.is_directed() or graph.is_multigraph() or graph.graph:
        return False
    if any(data for _, data in graph.nodes(data=True)):
        return False
    return not any(data for _, _, data in graph.edges(data=True))


def _rebuild_plain_graph(nodes: Any, indptr: Any, indices: Any) -> nx.Graph:
    """Inverse of the CSR reduction in :class:`_ArtifactPickler`."""
    import numpy as np

    node_list = nodes.tolist() if hasattr(nodes, "tolist") else list(nodes)
    graph = nx.Graph()
    graph.add_nodes_from(node_list)
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    edges = []
    for position, u in enumerate(node_list):
        for slot in range(int(indptr[position]), int(indptr[position + 1])):
            edges.append((u, node_list[int(indices[slot])]))
    graph.add_edges_from(edges)
    return graph


class _ArtifactPickler(pickle.Pickler):
    """Protocol-5 pickler that lowers plain graphs to CSR numpy arrays.

    Vertex identity and the edge set are preserved exactly (nodes in sorted
    order, neighbors in sorted-index order — every query-path consumer orders
    vertices itself); the payoff is that adjacency ships as two int64 arrays
    in the shared segment instead of nested python dicts in the skeleton.
    """

    def reducer_override(self, obj):  # noqa: D102 - pickle protocol hook
        if type(obj) is nx.Graph and _graph_is_plain(obj):
            import numpy as np

            nodes = sorted(obj.nodes(), key=repr)
            index = {vertex: position for position, vertex in enumerate(nodes)}
            indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
            flat: list[int] = []
            for position, vertex in enumerate(nodes):
                neighbors = sorted(index[other] for other in obj.neighbors(vertex))
                flat.extend(neighbors)
                indptr[position + 1] = len(flat)
            indices = np.asarray(flat, dtype=np.int64)
            try:
                node_payload = np.asarray(nodes)
                if node_payload.dtype == object:
                    node_payload = nodes
            except Exception:
                node_payload = nodes
            return (_rebuild_plain_graph, (node_payload, indptr, indices))
        return NotImplemented


def _prewarm(artifact: Any) -> None:
    """Materialize the deterministic numpy-mode caches before flattening.

    The per-matching pair tables of the dispersion kernel and the array
    engine's route tables (:mod:`repro.core.tables`) are pure functions of
    the artifact; building them on the publisher side turns them into shared
    out-of-band arrays every attaching worker reuses instead of recomputing
    per process.
    """
    from repro.core.tables import build_route_tables
    from repro.kernels import use_numpy
    from repro.kernels.batched import pair_table

    decomposition = getattr(artifact, "decomposition", None)
    if decomposition is None or not use_numpy():
        return
    for node in decomposition.all_nodes():
        shuffler = node.shuffler
        if shuffler is None:
            continue
        for matching in shuffler.matchings:
            pair_table(shuffler, matching)
    build_route_tables(decomposition, artifact.best_index)


def flatten_artifact(artifact: Any, prewarm: bool = True) -> tuple[bytes, list[memoryview]]:
    """One artifact as (skeleton pickle, out-of-band buffers)."""
    if prewarm:
        _prewarm(artifact)
    buffers: list[memoryview] = []

    def _collect(buffer: pickle.PickleBuffer) -> bool:
        view = buffer.raw()
        buffers.append(view)
        return False  # keep out-of-band

    sink = io.BytesIO()
    pickler = _ArtifactPickler(sink, protocol=5, buffer_callback=_collect)
    pickler.dump(artifact)
    return sink.getvalue(), buffers


def unflatten_artifact(skeleton: bytes, buffers: Iterable[memoryview]) -> Any:
    """Inverse of :func:`flatten_artifact` (buffers in original order)."""
    return pickle.loads(skeleton, buffers=list(buffers))


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _segment_layout(skeleton: bytes, buffers: list[memoryview]) -> tuple[int, list[int]]:
    """Total segment size and per-buffer offsets for the header layout."""
    header = len(_MAGIC) + 4 + 8 + 8 + 8 * len(buffers)
    offset = _aligned(header + len(skeleton))
    offsets = []
    for view in buffers:
        offsets.append(offset)
        offset = _aligned(offset + view.nbytes)
    return max(offset, 1), offsets


def _write_segment(buf: memoryview, skeleton: bytes, buffers: list[memoryview]) -> None:
    cursor = 0
    buf[cursor : cursor + 4] = _MAGIC
    cursor += 4
    struct.pack_into("<I", buf, cursor, _LAYOUT_VERSION)
    cursor += 4
    struct.pack_into("<Q", buf, cursor, len(skeleton))
    cursor += 8
    struct.pack_into("<Q", buf, cursor, len(buffers))
    cursor += 8
    for view in buffers:
        struct.pack_into("<Q", buf, cursor, view.nbytes)
        cursor += 8
    buf[cursor : cursor + len(skeleton)] = skeleton
    _, offsets = _segment_layout(skeleton, buffers)
    for view, offset in zip(buffers, offsets):
        flat = view.cast("B") if view.ndim != 1 or view.format != "B" else view
        buf[offset : offset + view.nbytes] = flat

def _parse_segment(buf: memoryview) -> tuple[bytes, list[memoryview]]:
    """Skeleton bytes + zero-copy buffer views of one mapped segment."""
    if bytes(buf[:4]) != _MAGIC:
        raise ValueError("not a repro shm artifact segment")
    cursor = 4
    (version,) = struct.unpack_from("<I", buf, cursor)
    cursor += 4
    if version != _LAYOUT_VERSION:
        raise ValueError(f"unsupported shm segment layout version {version}")
    (skeleton_len,) = struct.unpack_from("<Q", buf, cursor)
    cursor += 8
    (buffer_count,) = struct.unpack_from("<Q", buf, cursor)
    cursor += 8
    sizes = [struct.unpack_from("<Q", buf, cursor + 8 * i)[0] for i in range(buffer_count)]
    cursor += 8 * buffer_count
    skeleton = bytes(buf[cursor : cursor + skeleton_len])
    offset = _aligned(cursor + skeleton_len)
    views: list[memoryview] = []
    for size in sizes:
        views.append(buf[offset : offset + size])
        offset = _aligned(offset + size)
    return skeleton, views


@dataclass(frozen=True)
class ShmSegmentInfo:
    """One published segment: its name (the attach key) and byte size."""

    name: str
    nbytes: int
    buffer_count: int


def _close_quietly(shm) -> None:
    """Unmap an attached segment, tolerating late-GC buffer exports.

    Artifacts hold numpy views *into* the mapping; at interpreter shutdown
    the finalizer can fire while those views are still alive, making
    ``close()`` raise ``BufferError``.  Leaving the mapping to the process
    teardown is harmless — skipping the close must never crash shutdown.
    """
    try:
        shm.close()
    except BufferError:
        pass  # the surviving views keep the mapping; it unmaps when they go


class _AttachedSegment:
    """A mapping of a published segment that no resource tracker knows about.

    ``SharedMemory(name=...)`` registers each attach with the process's
    resource tracker, which keeps one entry per segment name and unlinks
    whatever is still registered when it exits.  An attach must not touch
    that entry: spawned shard servers share their parent's tracker, so
    registering and then unregistering would drop the *publisher's* entry
    (its unlink then fails inside the tracker with a ``KeyError``), and an
    attacher with a tracker of its own would get the segment unlinked when
    it exits.  The publisher's registration is the only one, and the
    publisher's unlink removes it.
    """

    def __init__(self, name: str) -> None:
        import _posixshmem

        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            self._mmap = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        if self.buf is not None:
            self.buf.release()
            self.buf = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None


def attach(name: str, metrics: MetricsRegistry | None = None) -> Any:
    """Map a published segment and rebuild the artifact over its buffers.

    The returned artifact's numpy payloads are views *into* the shared
    segment (no copy); the mapping handle stays open for the artifact's
    lifetime and closes when the artifact is garbage collected.
    """
    started = time.perf_counter()
    shm = _AttachedSegment(name)
    try:
        skeleton, views = _parse_segment(shm.buf)
        artifact = unflatten_artifact(skeleton, views)
    except Exception:
        shm.close()
        raise
    # Keep the mapping alive exactly as long as the artifact; a finalizer
    # (rather than __del__) so interpreter shutdown cannot resurrect it.
    weakref.finalize(artifact, _close_quietly, shm)
    registry = metrics if metrics is not None else default_registry()
    registry.counter(
        "repro_shm_attaches_total", "Artifact attaches from shared-memory segments."
    ).inc()
    registry.histogram(
        "repro_shm_attach_seconds", "Wall-clock per shm artifact attach."
    ).observe(time.perf_counter() - started)
    return artifact


def _cleanup_segments(segments: dict[str, Any]) -> None:
    """Finalizer target: unlink everything a dropped store still owns."""
    for shm in list(segments.values()):
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass
    segments.clear()


class ShmArtifactStore:
    """Publisher-side refcounted registry of shared-memory artifact segments.

    One store per serving process (the :class:`~repro.service.RoutingService`
    owns one).  ``publish`` is idempotent per fingerprint and bumps a
    refcount; ``release`` drops it and unlinks at zero; ``close`` unlinks
    everything.  A ``weakref.finalize`` on the store guarantees the segments
    are unlinked even when the owner forgets to close (leak protection) —
    and :func:`leaked_segments` lets harnesses audit ``/dev/shm`` anyway.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else default_registry()
        self._segments: dict[str, Any] = {}  # segment name -> SharedMemory
        self._by_fingerprint: dict[str, ShmSegmentInfo] = {}
        self._refcounts: dict[str, int] = {}
        self._counter = 0
        self._finalizer = weakref.finalize(self, _cleanup_segments, self._segments)
        self._m_segments = self.metrics.gauge(
            "repro_shm_segments", "Shared-memory artifact segments currently published."
        )
        self._m_bytes = self.metrics.gauge(
            "repro_shm_bytes", "Total bytes of published shared-memory segments."
        )
        self._m_published = self.metrics.counter(
            "repro_shm_published_total", "Segments published over the store's lifetime."
        )
        self._m_publish_seconds = self.metrics.histogram(
            "repro_shm_publish_seconds", "Wall-clock per artifact publish."
        )
        self._m_unlink_seconds = self.metrics.histogram(
            "repro_shm_unlink_seconds", "Wall-clock per segment unlink."
        )

    def __len__(self) -> int:
        return len(self._by_fingerprint)

    def segment_for(self, fingerprint: str) -> ShmSegmentInfo | None:
        """The published segment for ``fingerprint`` (``None`` if absent)."""
        return self._by_fingerprint.get(fingerprint)

    def publish(self, fingerprint: str, artifact: Any) -> ShmSegmentInfo:
        """Flatten ``artifact`` into a named segment (idempotent per fingerprint)."""
        info = self._by_fingerprint.get(fingerprint)
        if info is not None:
            self._refcounts[fingerprint] += 1
            return info
        shared_memory = _shared_memory_module()
        started = time.perf_counter()
        skeleton, buffers = flatten_artifact(artifact)
        total, _ = _segment_layout(skeleton, buffers)
        self._counter += 1
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{self._counter}-{fingerprint[:8]}"
        shm = shared_memory.SharedMemory(create=True, size=total, name=name)
        try:
            _write_segment(shm.buf, skeleton, buffers)
        except Exception:
            shm.close()
            shm.unlink()
            raise
        info = ShmSegmentInfo(name=shm.name, nbytes=total, buffer_count=len(buffers))
        self._segments[shm.name] = shm
        self._by_fingerprint[fingerprint] = info
        self._refcounts[fingerprint] = 1
        self._m_published.inc()
        self._m_segments.set(len(self._segments))
        self._m_bytes.set(sum(entry.nbytes for entry in self._by_fingerprint.values()))
        self._m_publish_seconds.observe(time.perf_counter() - started)
        return info

    def release(self, fingerprint: str) -> bool:
        """Drop one reference; unlink the segment when the count reaches zero."""
        if fingerprint not in self._by_fingerprint:
            return False
        self._refcounts[fingerprint] -= 1
        if self._refcounts[fingerprint] > 0:
            return False
        self._unlink(fingerprint)
        return True

    def _unlink(self, fingerprint: str) -> None:
        info = self._by_fingerprint.pop(fingerprint)
        self._refcounts.pop(fingerprint, None)
        shm = self._segments.pop(info.name, None)
        if shm is None:
            return
        started = time.perf_counter()
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external interference
            pass
        self._m_unlink_seconds.observe(time.perf_counter() - started)
        self._m_segments.set(len(self._segments))
        self._m_bytes.set(sum(entry.nbytes for entry in self._by_fingerprint.values()))

    def trim(self, cap: int, keep: Iterable[str] = ()) -> int:
        """Unlink the oldest segments until at most ``cap`` remain.

        Fingerprints in ``keep`` (e.g. the current batch's keys) are never
        evicted.  Unlinking while workers still hold attached views is safe:
        the mapping survives the unlink and the pages free once the last
        attach closes.  Returns how many segments were unlinked.
        """
        protected = set(keep)
        unlinked = 0
        for fingerprint in list(self._by_fingerprint):
            if len(self._by_fingerprint) <= max(cap, len(protected)):
                break
            if fingerprint in protected:
                continue
            self._unlink(fingerprint)
            unlinked += 1
        return unlinked

    def close(self) -> None:
        """Unlink every published segment; idempotent."""
        for fingerprint in list(self._by_fingerprint):
            self._unlink(fingerprint)

    def __enter__(self) -> "ShmArtifactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _segment_owner_pid(name: str, prefix: str) -> int | None:
    """The owning pid encoded in a segment name, or ``None`` if unparseable.

    Segment names are ``{prefix}-{pid}-{counter}-{fp8}`` (see
    :meth:`ShmArtifactStore.publish`); anything else is not ours to touch.
    """
    remainder = name[len(prefix) + 1 :] if name.startswith(prefix + "-") else ""
    pid_part = remainder.split("-", 1)[0]
    return int(pid_part) if pid_part.isdigit() else None


def leaked_segments(prefix: str = SEGMENT_PREFIX, *, reap: bool = False) -> list[str]:
    """Names of repro segments still present in ``/dev/shm`` (harness audit).

    With ``reap=True``, segments whose *owner process is dead* — the pid
    baked into the segment name no longer exists — are unlinked and only
    those reaped names are returned.  A SIGKILLed shard server never unlinks
    its published segments and its resource tracker dies with it, so the
    coordinator's failover path and journal recovery both call this to stop
    the leak; segments with a live owner are always left alone.

    Returns an empty list on platforms without a ``/dev/shm`` filesystem —
    the audit is then simply inconclusive rather than failing.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    present = sorted(entry for entry in os.listdir(root) if entry.startswith(prefix))
    if not reap:
        return present
    from multiprocessing import resource_tracker

    reaped = []
    for name in present:
        pid = _segment_owner_pid(name, prefix)
        if pid is None:
            continue
        try:
            os.kill(pid, 0)  # signal 0: existence probe only
            continue  # the owner is alive; not a leak
        except ProcessLookupError:
            pass  # dead owner: the segment is orphaned
        except PermissionError:
            continue  # alive, but owned by another user
        try:
            os.unlink(os.path.join(root, name))
        except OSError:
            continue
        # The dead owner may have registered the segment with a resource
        # tracker it shared with this process; drop that entry so the tracker
        # does not re-unlink it at exit.
        try:
            resource_tracker.unregister("/" + name, "shared_memory")
        except (KeyError, ValueError, OSError):
            pass
        reaped.append(name)
    return reaped
