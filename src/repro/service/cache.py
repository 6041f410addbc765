"""Artifact cache: in-memory LRU with cost-weighted admission, plus disk tier.

The paper's amortization story — expensive preprocessing, cheap queries — only
materialises when the preprocessed structures survive between queries.  The
cache is where they survive:

* a bounded in-memory LRU (``capacity`` artifacts) with cost-weighted
  admission: once the cache is full, a newly built artifact replaces the
  least-recently-used one only if ``lookups x preprocessing rounds`` is at
  least as large for the newcomer as for that victim (ties admit).  Lookups
  are counted per fingerprint and halved every ``10 x capacity`` lookups,
  TinyLFU's reset (Einziger, Friedman and Manes, arXiv:1512.00727), so the
  counts follow recent demand and the table stays bounded.  A rejected
  artifact still serves the batch that built it and still goes to disk.
  Warm handoffs (:meth:`ArtifactCache.adopt`) and disk promotions insert
  without the check;
* an optional on-disk pickle store (one ``<fingerprint>.pkl`` per artifact)
  that outlives the process; memory misses fall through to disk and promote
  back into memory on a hit.  The disk tier is bounded too when
  ``disk_capacity`` is set: oldest files (by modification time) are evicted
  first, counted in :attr:`CacheStats.evictions_disk`.

:func:`write_artifact` and :func:`read_artifact` are that tier's file format,
and the only one: the cluster's warm handoff writes and loads artifact files
through the same two functions.  An
artifact is a plain tree (no reference cycles), and the file keeps it one:
graphs are written without the views networkx caches on them, so a loaded
copy is freed by reference counting like a freshly built one.

When a :class:`~repro.metrics.MetricsRegistry` is attached, every lookup,
store, admission decision and eviction is also recorded as ``repro_cache_*``
metrics, so the cluster tier's per-shard caches show up in the shared
exposition.

Entries are keyed by the canonical fingerprint of
:func:`repro.service.fingerprint.graph_fingerprint`, so invalidation is
structural: a changed graph or parameter set simply hashes to a new key, and
stale artifacts age out of the LRU (or sit inert on disk) instead of ever
being served for the wrong graph.  Disk entries additionally re-check the
stored fingerprint and format version at load time; anything inconsistent or
unreadable is treated as a miss and deleted.

All public methods are thread-safe — the serving layer resolves artifacts from
worker threads.
"""

from __future__ import annotations

import copyreg
import functools
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

from repro.core.router import PreprocessArtifact
from repro.metrics import MetricsRegistry

__all__ = ["CacheStats", "ArtifactCache", "artifact_path", "read_artifact", "write_artifact"]

#: Lookups between two halvings of the admission counts, per slot of
#: ``capacity`` (TinyLFU's sample size; Caffeine also uses 10x its maximum).
_SAMPLE_PER_SLOT = 10

#: What ``pickle.load`` raises on a disk entry that cannot be served: an
#: unreadable file (``OSError``), truncated bytes (``EOFError``,
#: ``UnpicklingError``), a class since renamed or moved (``AttributeError``,
#: ``ImportError``), and flipped bytes, which corrupt opcodes, lengths and
#: string payloads (the remaining types; each was observed when flipping 1-4
#: random bytes of a pickled artifact).
_UNSERVABLE_PICKLE_ERRORS = (
    OSError,
    EOFError,
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    OverflowError,
    MemoryError,
)


def _reduce_graph(graph: nx.Graph):
    """Pickle a networkx graph without the views networkx caches on it.

    ``graph.edges`` and ``graph.degree`` are ``cached_property`` views that
    refer back to the graph; pickled along, they would make every loaded
    copy a reference cycle.  A view is rebuilt on its first read.
    """
    cls = type(graph)
    state = {
        key: value
        for key, value in vars(graph).items()
        if not isinstance(getattr(cls, key, None), functools.cached_property)
    }
    return copyreg.__newobj__, (cls,), state


class _ArtifactPickler(pickle.Pickler):
    dispatch_table = {
        **copyreg.dispatch_table,
        **{cls: _reduce_graph for cls in (nx.Graph, nx.DiGraph, nx.MultiGraph, nx.MultiDiGraph)},
    }


def artifact_path(directory: str | os.PathLike, fingerprint: str) -> Path:
    """Where an artifact file for ``fingerprint`` lives in ``directory``."""
    return Path(directory) / f"{fingerprint}.pkl"


def write_artifact(path: str | os.PathLike, artifact: PreprocessArtifact) -> None:
    """Pickle ``artifact`` to ``path`` atomically (tmp file, then ``os.replace``).

    Graphs are written without networkx's cached views (:func:`_reduce_graph`),
    so the file loads as acyclic as the artifact was built.  The tmp name
    carries the pid and thread id, so concurrent writers of the same path
    never interleave bytes; readers see the old file or the new one.
    """
    tmp = Path(path).with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
    with open(tmp, "wb") as handle:
        _ArtifactPickler(handle, protocol=pickle.HIGHEST_PROTOCOL).dump(artifact)
    os.replace(tmp, path)


def read_artifact(path: str | os.PathLike, fingerprint: str) -> PreprocessArtifact | None:
    """The artifact pickled at ``path`` if it may serve ``fingerprint``, else ``None``.

    ``None`` covers a missing or unreadable file, truncated or corrupt bytes
    (:data:`_UNSERVABLE_PICKLE_ERRORS`), an object that is not a
    :class:`PreprocessArtifact`, a stale ``FORMAT_VERSION`` and an artifact
    stamped with another fingerprint.
    """
    try:
        with open(path, "rb") as handle:
            artifact = pickle.load(handle)
    except _UNSERVABLE_PICKLE_ERRORS:
        return None
    if (
        not isinstance(artifact, PreprocessArtifact)
        or artifact.format_version != PreprocessArtifact.FORMAT_VERSION
        or artifact.fingerprint != fingerprint
    ):
        return None
    return artifact


@dataclass
class CacheStats:
    """Counters the cache accumulates across its lifetime.

    Attributes:
        hits: memory hits.
        disk_hits: misses in memory that were served from the disk tier.
        misses: lookups nothing could serve (caller must preprocess).
        evictions: artifacts dropped from the LRU because of capacity.
        evictions_disk: disk files dropped because of ``disk_capacity``.
        stores: artifacts written via :meth:`ArtifactCache.put`, admitted or not.
        rejections: stores the admission rule kept out of the memory tier.
        disk_rejects: disk entries discarded as corrupt, stale, or mismatched.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    evictions_disk: int = 0
    stores: int = 0
    rejections: int = 0
    disk_rejects: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without preprocessing (memory or disk)."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.disk_hits) / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "evictions_disk": self.evictions_disk,
            "stores": self.stores,
            "rejections": self.rejections,
            "disk_rejects": self.disk_rejects,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ArtifactCache:
    """Bounded LRU of preprocessed artifacts, cost-weighted admission, optional disk tier.

    The victim is always the least-recently-used entry; :meth:`put` decides
    whether a new artifact may take its slot (see the module docstring).
    :meth:`adopt` and promotions from disk insert without that check.

    Attributes:
        capacity: maximum number of artifacts held in memory (>= 1).
        disk_dir: directory for the pickle tier; ``None`` disables it.
        disk_capacity: maximum number of pickles kept on disk (``None`` =
            unbounded); oldest files are evicted first when exceeded.
        stats: lifetime :class:`CacheStats`.
        metrics: optional registry the cache also records ``repro_cache_*``
            metrics into (``None`` keeps the cache metrics-silent).
    """

    capacity: int = 8
    disk_dir: str | os.PathLike | None = None
    disk_capacity: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    metrics: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        if self.disk_capacity is not None and self.disk_capacity < 1:
            raise ValueError("disk capacity must be at least 1 (or None for unbounded)")
        self._entries: OrderedDict[str, PreprocessArtifact] = OrderedDict()
        # Admission counts: get() lookups per fingerprint since the last halving.
        self._frequency: dict[str, int] = {}
        self._sampled = 0
        self._lock = threading.RLock()
        self._disk_lock = threading.Lock()
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        if self.metrics is not None:
            self._m_lookups = self.metrics.counter(
                "repro_cache_lookups_total", "Artifact cache lookups by result.", labels=("result",)
            )
            self._m_stores = self.metrics.counter(
                "repro_cache_stores_total", "Artifacts stored in the cache."
            )
            self._m_evictions = self.metrics.counter(
                "repro_cache_evictions_total", "Artifacts evicted, by tier.", labels=("tier",)
            )
            self._m_admissions = self.metrics.counter(
                "repro_cache_admissions_total",
                "Admission decisions on stored artifacts, by result.",
                labels=("result",),
            )
        else:
            self._m_lookups = self._m_stores = self._m_evictions = None
            self._m_admissions = None

    def _record_lookup(self, result: str) -> None:
        if self._m_lookups is not None:
            self._m_lookups.labels(result=result).inc()

    # -- lookups -------------------------------------------------------------

    def get(self, fingerprint: str) -> PreprocessArtifact | None:
        """The cached artifact for ``fingerprint``, or ``None`` (a miss)."""
        with self._lock:
            self._count_lookup(fingerprint)
            artifact = self._entries.get(fingerprint)
            if artifact is not None:
                self._entries.move_to_end(fingerprint)
                self.stats.hits += 1
                self._record_lookup("hit")
                return artifact
        # Pickle I/O happens outside the lock so concurrent workers are not
        # serialized behind it; worst case two workers both read the same disk
        # entry, which is harmless.
        artifact = self._load_from_disk(fingerprint)
        with self._lock:
            if artifact is not None:
                self.stats.disk_hits += 1
                self._record_lookup("disk_hit")
                self._insert(fingerprint, artifact)
                return artifact
            self.stats.misses += 1
            self._record_lookup("miss")
            return None

    def peek(self, fingerprint: str) -> PreprocessArtifact | None:
        """The in-memory entry without stats, LRU, or disk side effects.

        The cluster's warm-key handoff uses this to export artifacts during
        rebalances — an administrative read that should not distort the
        hit-rate the operators watch.
        """
        with self._lock:
            return self._entries.get(fingerprint)

    def fingerprints(self) -> list[str]:
        """Every in-memory fingerprint, coldest first (LRU order)."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._entries:
                return True
            path = self._disk_path(fingerprint)
            return path is not None and path.exists()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- stores --------------------------------------------------------------

    def put(self, fingerprint: str, artifact: PreprocessArtifact) -> bool:
        """Cache ``artifact`` under ``fingerprint``; whether memory admitted it.

        The disk tier (if enabled) is written either way.
        """
        artifact.fingerprint = fingerprint
        with self._lock:
            self.stats.stores += 1
            if self._m_stores is not None:
                self._m_stores.inc()
            admitted = self._admits(fingerprint, artifact)
            if admitted:
                self._insert(fingerprint, artifact)
            else:
                self.stats.rejections += 1
            if self._m_admissions is not None:
                self._m_admissions.labels(result="admitted" if admitted else "rejected").inc()
        # Disk write outside the lock: the atomic tmp-file rename keeps
        # concurrent writers of the same fingerprint consistent.
        self._store_to_disk(fingerprint, artifact)
        return admitted

    def adopt(self, fingerprint: str, artifact: PreprocessArtifact) -> None:
        """Insert an artifact handed off from another cache, memory tier only.

        Unlike :meth:`put` this neither counts as a store nor writes the disk
        tier: an adopted artifact was built elsewhere and moves here during a
        cluster rebalance, so it is no new store, and the handoff already
        paid one pickle write and load for it; a second write here would
        only lengthen the scale event.
        """
        artifact.fingerprint = fingerprint
        with self._lock:
            self._insert(fingerprint, artifact)

    def clear(self, *, disk: bool = False) -> None:
        """Drop every in-memory entry (and the disk tier too if ``disk``)."""
        with self._lock:
            self._entries.clear()
            if disk and self.disk_dir is not None:
                for path in Path(self.disk_dir).glob("*.pkl"):
                    path.unlink(missing_ok=True)

    # -- internals -----------------------------------------------------------

    def _count_lookup(self, fingerprint: str) -> None:
        self._frequency[fingerprint] = self._frequency.get(fingerprint, 0) + 1
        self._sampled += 1
        if self._sampled >= _SAMPLE_PER_SLOT * self.capacity:
            self._sampled = 0
            self._frequency = {
                key: count // 2 for key, count in self._frequency.items() if count > 1
            }

    def _admits(self, fingerprint: str, artifact: PreprocessArtifact) -> bool:
        """May ``artifact`` take the LRU victim's slot? Always, while a slot is free."""
        if fingerprint in self._entries or len(self._entries) < self.capacity:
            return True
        victim_fingerprint, victim = next(iter(self._entries.items()))
        frequency = self._frequency.get
        return (
            frequency(fingerprint, 0) * artifact.preprocessing_rounds
            >= frequency(victim_fingerprint, 0) * victim.preprocessing_rounds
        )

    def _insert(self, fingerprint: str, artifact: PreprocessArtifact) -> None:
        self._entries[fingerprint] = artifact
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self._m_evictions is not None:
                self._m_evictions.labels(tier="memory").inc()

    def _disk_path(self, fingerprint: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return artifact_path(self.disk_dir, fingerprint)

    def _store_to_disk(self, fingerprint: str, artifact: PreprocessArtifact) -> None:
        path = self._disk_path(fingerprint)
        if path is None:
            return
        write_artifact(path, artifact)
        self._enforce_disk_capacity()

    def _enforce_disk_capacity(self) -> None:
        """Evict the oldest disk pickles until the tier fits ``disk_capacity``."""
        if self.disk_capacity is None or self.disk_dir is None:
            return
        # One enforcement pass at a time; concurrent writers would otherwise
        # race the directory scan and double-count evictions.
        with self._disk_lock:
            entries = []
            for path in Path(self.disk_dir).glob("*.pkl"):
                try:
                    entries.append((path.stat().st_mtime_ns, path.name, path))
                except OSError:
                    continue  # concurrently evicted or cleared
            entries.sort()
            evicted = 0
            for _, _, path in entries[: max(0, len(entries) - self.disk_capacity)]:
                path.unlink(missing_ok=True)
                evicted += 1
            if evicted:
                with self._lock:
                    self.stats.evictions_disk += evicted
                if self._m_evictions is not None:
                    self._m_evictions.labels(tier="disk").inc(evicted)

    def _load_from_disk(self, fingerprint: str) -> PreprocessArtifact | None:
        path = self._disk_path(fingerprint)
        if path is None or not path.exists():
            return None
        artifact = read_artifact(path, fingerprint)
        if artifact is None:
            self._reject_disk_entry(path)
        return artifact

    def _reject_disk_entry(self, path: Path) -> None:
        with self._lock:
            self.stats.disk_rejects += 1
        path.unlink(missing_ok=True)
