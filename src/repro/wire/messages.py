"""Versioned, transport-neutral message dataclasses for the cluster tier.

Before this module the coordinator, the shard workers, and every report
consumer exchanged *live Python objects* (``ShardQuery`` carrying an
``nx.Graph``, ``BatchReport`` carrying backend-native result objects) — fine
inside one interpreter, impossible across a socket.  The wire layer redraws
that API: every message that crosses a layer boundary has a transport-neutral
dataclass here with

* an explicit ``schema_version`` field (payloads carry it as ``"v"``; a
  mismatched version is rejected at decode time with
  :class:`~repro.wire.codec.SchemaVersionError`);
* ``to_wire()`` / ``from_wire()`` — bytes via the JSON codec of
  :mod:`repro.wire.codec` (one codec id byte + body; framing lives in
  :mod:`repro.net.frames`);
* **one field-driven codec** — a payload is derived from the dataclass
  fields and their element-typed annotations (see :class:`WireMessage`), so
  a message type is declared once, not written out twice by hand;
* **unknown-field tolerance** — ``from_payload`` reads only the fields it
  knows, so a same-version peer that has grown extra fields (a rolling
  upgrade) still interoperates.

Two groups of messages are defined:

1. **Schema mirrors** of the in-process serving types —
   :class:`WireGraph`, :class:`WireRequest`, :class:`WirePlan`,
   :class:`WireShardQuery`, :class:`WireRouteResult`,
   :class:`WireQueryResult`, :class:`WireBatchReport`,
   :class:`WireAdmissionStats`, :class:`WireClusterReport` — each with
   ``from_*``/``to_*`` converters.  The mirrors preserve every field that
   :meth:`~repro.service.BatchReport.signature` and
   :meth:`~repro.cluster.ClusterReport.signature` cover, which is what makes
   signatures byte-identical across ``transport="local"`` and
   ``transport="tcp"`` (``raw`` backend objects and non-scalar ``extra``
   diagnostics are deliberately dropped — they are process-local).
2. **Protocol messages** for the transports in :mod:`repro.net` — shard RPC
   (:class:`ShardProcessRequest` / :class:`ShardProcessReply`), the gateway's
   client API (:class:`SubmitRequest` .. :class:`DispatchDoneReply`), and the
   control plane (:class:`Ping`, :class:`Shutdown`, :class:`ErrorReply`).

Wire values are restricted to JSON-safe trees (str keys; str / int / float /
bool / None leaves; nested lists and dicts).  Graph vertices and edge data
must be JSON-safe scalars — every graph the generators produce qualifies, and
the restriction is what guarantees the *reconstructed* graph has the same
canonical fingerprint as the original (the parity the placement layer needs).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from types import NoneType, UnionType
from typing import (
    Any,
    Callable,
    ClassVar,
    Mapping,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import networkx as nx

from repro.cluster.admission import AdmissionStats
from repro.cluster.worker import ShardQuery
from repro.core.tokens import RoutingRequest
from repro.planner import ExecutionPlan
from repro.service.service import BatchReport, QueryResult
from repro.wire.codec import (
    WIRE_VERSION,
    SchemaVersionError,
    WireDecodeError,
    WireEncodeError,
    decode_payload,
    encode_payload,
)

__all__ = [
    "WireMessage",
    "decode_message",
    "message_from_wire",
    "WireGraph",
    "WireRequest",
    "WirePlan",
    "WireShardQuery",
    "WireRouteResult",
    "WireQueryResult",
    "WireBatchReport",
    "WireAdmissionStats",
    "WireClusterReport",
    "Ping",
    "Pong",
    "Shutdown",
    "ShutdownAck",
    "NeedGraphReply",
    "ErrorReply",
    "ShardProcessRequest",
    "ShardProcessReply",
    "ShardStatsRequest",
    "ShardStatsReply",
    "SubmitRequest",
    "SubmitReply",
    "DispatchRequest",
    "DispatchShardReply",
    "DispatchDoneReply",
    "StatsRequest",
    "StatsReply",
    "JournalAdmit",
    "JournalComplete",
    "JournalCheckpoint",
]

_SCALARS = (str, int, float, bool)


def _scalar(value: Any, what: str) -> Any:
    """``value`` as a JSON-safe scalar (unwraps numpy scalars), or raise."""
    if value is None or isinstance(value, _SCALARS):
        return value
    item = getattr(value, "item", None)  # numpy scalar -> python scalar
    if callable(item):
        unwrapped = item()
        if unwrapped is None or isinstance(unwrapped, _SCALARS):
            return unwrapped
    raise WireEncodeError(f"{what} {value!r} ({type(value).__name__}) is not wire-safe")


def _tree(value: Any, what: str) -> Any:
    """``value`` as a JSON-safe tree (scalars, lists, str-keyed dicts)."""
    if isinstance(value, (list, tuple)):
        return [_tree(entry, what) for entry in value]
    if isinstance(value, Mapping):
        out = {}
        for key, entry in value.items():
            if not isinstance(key, str):
                raise WireEncodeError(f"{what} key {key!r} is not a string")
            out[key] = _tree(entry, what)
        return out
    return _scalar(value, what)


def _safe_tree(value: Any) -> tuple[bool, Any]:
    """Best-effort :func:`_tree`; ``(ok, encoded)`` instead of raising."""
    try:
        return True, _tree(value, "value")
    except WireEncodeError:
        return False, None


_M = TypeVar("_M", bound="WireMessage")
_Codec = Callable[[Any], Any]

#: Decode-time coercions of scalar leaves: a peer's non-numeric garbage in a
#: numeric field fails the decode instead of flowing into the router.
_COERCE: dict[Any, _Codec] = {int: int, float: float, bool: bool}

# How a field's payload key is read (see WireMessage._fields_from_payload).
_DEFAULTED, _OPTIONAL, _REQUIRED = "defaulted", "optional", "required"


def _skip_none(codec: _Codec | None) -> _Codec | None:
    if codec is None:
        return None
    return lambda value: None if value is None else codec(value)


def _each(container: type, codec: _Codec | None) -> _Codec:
    if codec is None:
        return container
    return lambda values: container(map(codec, values))


def _values(codec: _Codec | None) -> _Codec:
    if codec is None:
        return dict
    return lambda mapping: {key: codec(value) for key, value in mapping.items()}


def _field_codecs(hint: Any) -> tuple[_Codec | None, _Codec | None]:
    """``(encode, decode)`` derived from one field annotation (``None``: as is).

    Nested messages travel as their payloads, ``tuple[X, ...]`` as lists,
    ``dict[str, X]`` as objects, and ``int``/``float``/``bool`` leaves are
    coerced on decode.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is None and isinstance(hint, type) and issubclass(hint, WireMessage):
        return hint.to_payload, hint.from_payload
    if origin in (Union, UnionType):
        (inner,) = [arg for arg in args if arg is not NoneType]
        encode, decode = _field_codecs(inner)
        return _skip_none(encode), _skip_none(decode)
    if origin is tuple:
        encode, decode = _field_codecs(args[0])
        return _each(list, encode), _each(tuple, decode)
    if hint is dict or origin is dict:
        encode, decode = _field_codecs(args[1]) if args else (None, None)
        return _values(encode), _values(decode)
    return None, _COERCE.get(hint)


@dataclass(frozen=True)
class WireMessage:
    """Base class: version checking, the type registry, and the one codec.

    Subclasses are frozen dataclasses that declare a unique ``type`` tag and
    are registered via :func:`_register`, which derives each field's payload
    codec from its annotation once per class (a field whose metadata holds
    ``"wire": (encode, decode)`` supplies its own).  A payload is ``type``, then
    ``v`` (the schema version), then every other field in declaration order.
    Decoding ignores unknown keys, gives a missing or ``None`` field its
    default (``None`` for optional fields), and rejects a payload that lacks
    one of the class's ``required`` keys.
    """

    type: ClassVar[str] = ""
    #: Payload keys decoding never defaults: a payload without one is malformed.
    required: ClassVar[tuple[str, ...]] = ()
    #: ``(name, encode, decode, read)`` per payload field, set by :func:`_register`.
    _wire_fields: ClassVar[tuple] = ()

    schema_version: int = field(default=WIRE_VERSION, kw_only=True)

    def to_payload(self) -> dict[str, Any]:
        """This message as one JSON-safe payload dict."""
        payload: dict[str, Any] = {"type": self.type, "v": self.schema_version}
        for name, encode, _decode, _read in self._wire_fields:
            value = getattr(self, name)
            payload[name] = value if encode is None else encode(value)
        return payload

    @classmethod
    def _fields_from_payload(cls, payload: Mapping[str, Any]) -> dict[str, Any]:
        """The constructor kwargs encoded in ``payload`` (known fields only)."""
        kwargs: dict[str, Any] = {}
        for name, _encode, decode, read in cls._wire_fields:
            if read == _REQUIRED:
                value = payload[name]
            else:
                value = payload.get(name)
                if value is None:
                    if read == _OPTIONAL:
                        kwargs[name] = None
                    continue
            kwargs[name] = value if decode is None else decode(value)
        return kwargs

    @classmethod
    def from_payload(cls: type[_M], payload: Mapping[str, Any]) -> _M:
        """Decode one payload dict (version-checked, unknown fields ignored)."""
        version = payload.get("v")
        if version != WIRE_VERSION:
            raise SchemaVersionError(
                f"{cls.type or cls.__name__}: wire schema v{version!r} is not "
                f"supported (this peer speaks v{WIRE_VERSION})"
            )
        declared = payload.get("type")
        if declared is not None and cls.type and declared != cls.type:
            raise WireDecodeError(f"expected message type {cls.type!r}, got {declared!r}")
        try:
            return cls(schema_version=version, **cls._fields_from_payload(payload))
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise WireDecodeError(f"malformed {cls.type!r} payload: {error}") from error

    def to_wire(self) -> bytes:
        """This message as bytes: the codec id byte followed by the JSON body."""
        return encode_payload(self.to_payload())

    @classmethod
    def from_wire(cls: type[_M], data: bytes) -> _M:
        """Decode :meth:`to_wire` bytes; subclasses additionally check the type."""
        message = decode_message(decode_payload(data))
        if cls is not WireMessage and not isinstance(message, cls):
            raise WireDecodeError(
                f"expected a {cls.type!r} message, got {message.type!r}"
            )
        return message


_MESSAGE_TYPES: dict[str, type[WireMessage]] = {}


def _register(cls: type[_M]) -> type[_M]:
    """Add a message class to the registry and derive its field codecs."""
    if not cls.type or cls.type in _MESSAGE_TYPES:
        raise ValueError(f"wire message type {cls.type!r} is missing or duplicated")
    hints = get_type_hints(cls)
    wire_fields = []
    for spec in fields(cls):
        if spec.name == "schema_version":
            continue
        hint = hints[spec.name]
        encode, decode = spec.metadata.get("wire") or _field_codecs(hint)
        if spec.name in cls.required:
            read = _REQUIRED
        elif hint is Any or NoneType in get_args(hint):
            read = _OPTIONAL
        else:
            read = _DEFAULTED
        wire_fields.append((spec.name, encode, decode, read))
    unknown = set(cls.required) - {name for name, *_ in wire_fields}
    if unknown:
        raise ValueError(f"{cls.__name__}.required names unknown fields {sorted(unknown)}")
    cls._wire_fields = tuple(wire_fields)
    _MESSAGE_TYPES[cls.type] = cls
    return cls


def decode_message(payload: Mapping[str, Any]) -> WireMessage:
    """Dispatch one decoded payload dict to its registered message class."""
    tag = payload.get("type")
    cls = _MESSAGE_TYPES.get(tag)
    if cls is None:
        raise WireDecodeError(f"unknown wire message type {tag!r}")
    return cls.from_payload(payload)


def message_from_wire(data: bytes) -> WireMessage:
    """Decode any registered message from :meth:`WireMessage.to_wire` bytes."""
    return WireMessage.from_wire(data)


# -- schema mirrors ----------------------------------------------------------------


@_register
@dataclass(frozen=True)
class WireGraph(WireMessage):
    """A graph as plain data: vertex list plus ``(u, v, data)`` edge rows.

    Vertices and edge-data values must be JSON-safe scalars; the reconstructed
    graph then produces the *same canonical fingerprint payload* as the
    original, so placement keys and cache keys agree across the wire.
    """

    type: ClassVar[str] = "graph"
    required: ClassVar[tuple[str, ...]] = ("nodes", "edges")

    nodes: tuple[Any, ...] = ()
    #: Fixed-shape ``(u, v, data)`` rows: the one field whose codec is not
    #: derived from its annotation (each row must unpack into three parts).
    edges: tuple[tuple[Any, Any, dict], ...] = field(
        default=(),
        metadata={
            "wire": (
                lambda edges: [[u, v, dict(data)] for u, v, data in edges],
                lambda rows: tuple((u, v, dict(data)) for u, v, data in rows),
            )
        },
    )

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "WireGraph":
        nodes = tuple(_scalar(node, "graph vertex") for node in graph.nodes())
        edges = tuple(
            (
                _scalar(u, "graph vertex"),
                _scalar(v, "graph vertex"),
                {str(key): _scalar(value, "edge data") for key, value in data.items()},
            )
            for u, v, data in graph.edges(data=True)
        )
        return cls(nodes=nodes, edges=edges)

    def to_graph(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        for u, v, data in self.edges:
            graph.add_edge(u, v, **data)
        return graph

    def fingerprint(self) -> str:
        """Content hash of the canonical payload (stable across peers).

        Both ends of a connection compute this over the *encoded* graph, so a
        client's fingerprint-only submit and the server's negotiation-cache
        key agree byte for byte.  Memoized per instance — graphs are replayed
        query after query and hashing a payload is not free.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            payload = self.to_payload()
            payload.pop("v", None)
            cached = hashlib.sha256(
                json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
            ).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@_register
@dataclass(frozen=True)
class WireRequest(WireMessage):
    """One routing request (source, destination, optional scalar payload)."""

    type: ClassVar[str] = "request"
    required: ClassVar[tuple[str, ...]] = ("source", "destination")

    source: Any = None
    destination: Any = None
    payload: Any = None

    @classmethod
    def from_request(cls, request: RoutingRequest) -> "WireRequest":
        return cls(
            source=_scalar(request.source, "request source"),
            destination=_scalar(request.destination, "request destination"),
            payload=_tree(request.payload, "request payload"),
        )

    def to_request(self) -> RoutingRequest:
        return RoutingRequest(
            source=self.source, destination=self.destination, payload=self.payload
        )


@_register
@dataclass(frozen=True)
class WirePlan(WireMessage):
    """An :class:`~repro.planner.ExecutionPlan` as plain data.

    Every field of the plan is carried — including placement and provenance —
    so the reconstructed plan is ``==`` to the original and its
    ``semantic_id`` / ``plan_id`` hashes are byte-identical (backend
    parameters are JSON-safe scalars, whose ``repr`` survives the round
    trip).  A legacy ``parallelism="processes"`` decodes as ``"threads"``:
    the field is physical, so the plan computes the same results.
    """

    type: ClassVar[str] = "plan"
    required: ClassVar[tuple[str, ...]] = ("backend",)

    backend: str = ""
    backend_params: dict = field(default_factory=dict)
    kernel: str = "numpy"
    parallelism: str = "threads"
    max_workers: int | None = None
    fused: bool = False
    shard_hint: str | None = None
    policy: str = "fixed"
    reason: str = ""

    @classmethod
    def from_plan(cls, plan: ExecutionPlan) -> "WirePlan":
        return cls(
            backend=plan.backend,
            backend_params=_tree(dict(plan.backend_params), "backend params"),
            kernel=plan.kernel,
            parallelism=plan.parallelism,
            max_workers=plan.max_workers,
            fused=plan.fused,
            shard_hint=plan.shard_hint,
            policy=plan.policy,
            reason=plan.reason,
        )

    def to_plan(self) -> ExecutionPlan:
        return ExecutionPlan(
            backend=self.backend,
            backend_params=dict(self.backend_params),
            kernel=self.kernel,
            parallelism="threads" if self.parallelism == "processes" else self.parallelism,
            max_workers=self.max_workers,
            fused=self.fused,
            shard_hint=self.shard_hint,
            policy=self.policy,
            reason=self.reason,
        )


@_register
@dataclass(frozen=True)
class WireShardQuery(WireMessage):
    """The coordinator→shard hand-off (:class:`~repro.cluster.ShardQuery`) on the wire.

    ``graph`` may be ``None`` when the peer is expected to resolve the graph
    from ``graph_ref`` (the :meth:`WireGraph.fingerprint` content hash) —
    either a per-request graph table (:attr:`ShardProcessRequest.graphs`) or
    the server's negotiation cache.  Journal records always carry the full
    graph: replay must never depend on a peer's cache.
    """

    type: ClassVar[str] = "shard-query"
    required: ClassVar[tuple[str, ...]] = ("fingerprint", "backend")

    fingerprint: str = ""
    graph: WireGraph | None = field(default_factory=WireGraph)
    graph_ref: str = ""
    requests: tuple[WireRequest, ...] = ()
    load: int | None = None
    backend: str = ""
    backend_params: dict = field(default_factory=dict)
    workload: str = ""
    plan: WirePlan | None = None
    idempotency_key: str = ""

    @classmethod
    def from_shard_query(
        cls,
        query: ShardQuery,
        wire_graph: WireGraph | None = None,
        omit_graph: bool = False,
    ) -> "WireShardQuery":
        """Encode one hand-off; ``wire_graph`` reuses a pre-encoded graph.

        With ``omit_graph`` the query ships only ``graph_ref`` — the sender
        must guarantee the receiver can resolve it (graph table or a
        previously acknowledged upload).
        """
        graph = wire_graph if wire_graph is not None else WireGraph.from_graph(query.graph)
        return cls(
            fingerprint=query.fingerprint,
            graph=None if omit_graph else graph,
            graph_ref=graph.fingerprint() if (omit_graph or wire_graph is not None) else "",
            requests=tuple(WireRequest.from_request(request) for request in query.requests),
            load=query.load,
            backend=query.backend,
            backend_params=_tree(dict(query.backend_params), "backend params"),
            workload=query.workload,
            plan=WirePlan.from_plan(query.plan) if query.plan is not None else None,
            idempotency_key=query.idempotency_key,
        )

    def to_shard_query(self, graph: nx.Graph | None = None) -> ShardQuery:
        """Decode back to a live query; ``graph`` supplies a resolved graph
        when the wire form shipped only ``graph_ref``."""
        if graph is None:
            if self.graph is None:
                raise WireDecodeError(
                    f"shard query {self.fingerprint!r} shipped no graph and no "
                    f"resolved graph was supplied for ref {self.graph_ref!r}"
                )
            graph = self.graph.to_graph()
        return ShardQuery(
            fingerprint=self.fingerprint,
            graph=graph,
            requests=tuple(request.to_request() for request in self.requests),
            load=self.load,
            backend=self.backend,
            backend_params=dict(self.backend_params),
            workload=self.workload,
            plan=self.plan.to_plan() if self.plan is not None else None,
            idempotency_key=self.idempotency_key,
        )


@_register
@dataclass(frozen=True)
class WireRouteResult(WireMessage):
    """The shared :class:`~repro.backends.RouteResult` schema on the wire.

    ``raw`` (the backend-native outcome object) never crosses the wire, and
    ``extra`` keeps only its JSON-safe entries — both are diagnostics; every
    field the batch signature covers is preserved exactly.
    """

    type: ClassVar[str] = "route-result"
    required: ClassVar[tuple[str, ...]] = (
        "backend",
        "delivered",
        "total_tokens",
        "query_rounds",
        "preprocess_rounds",
    )

    backend: str = ""
    delivered: int = 0
    total_tokens: int = 0
    query_rounds: int = 0
    preprocess_rounds: int = 0
    load: int = 1
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_result(cls, result) -> "WireRouteResult":
        extra = {}
        for key, value in getattr(result, "extra", {}).items():
            ok, encoded = _safe_tree(value)
            if ok:
                extra[str(key)] = encoded
        return cls(
            backend=result.backend,
            delivered=int(result.delivered),
            total_tokens=int(result.total_tokens),
            query_rounds=int(result.query_rounds),
            preprocess_rounds=int(result.preprocess_rounds),
            load=int(result.load),
            extra=extra,
        )

    def to_result(self):
        from repro.backends.base import RouteResult

        return RouteResult(
            backend=self.backend,
            delivered=self.delivered,
            total_tokens=self.total_tokens,
            query_rounds=self.query_rounds,
            preprocess_rounds=self.preprocess_rounds,
            load=self.load,
            extra=dict(self.extra),
        )


@_register
@dataclass(frozen=True)
class WireQueryResult(WireMessage):
    """One :class:`~repro.service.QueryResult` on the wire."""

    type: ClassVar[str] = "query-result"
    required: ClassVar[tuple[str, ...]] = (
        "query_id",
        "fingerprint",
        "backend",
        "outcome",
        "cache_hit",
    )

    query_id: int = 0
    fingerprint: str = ""
    backend: str = ""
    outcome: WireRouteResult = field(default_factory=WireRouteResult)
    cache_hit: bool = False
    seconds: float = 0.0
    workload: str = ""
    plan: WirePlan | None = None

    @classmethod
    def from_result(cls, result: QueryResult) -> "WireQueryResult":
        return cls(
            query_id=int(result.query_id),
            fingerprint=result.fingerprint,
            backend=result.backend,
            outcome=WireRouteResult.from_result(result.outcome),
            cache_hit=bool(result.cache_hit),
            seconds=float(result.seconds),
            workload=result.workload,
            plan=WirePlan.from_plan(result.plan) if result.plan is not None else None,
        )

    def to_result(self) -> QueryResult:
        return QueryResult(
            query_id=self.query_id,
            fingerprint=self.fingerprint,
            backend=self.backend,
            outcome=self.outcome.to_result(),
            cache_hit=self.cache_hit,
            seconds=self.seconds,
            workload=self.workload,
            plan=self.plan.to_plan() if self.plan is not None else None,
        )


@_register
@dataclass(frozen=True)
class WireBatchReport(WireMessage):
    """A shard's reply — :class:`~repro.service.BatchReport` — on the wire.

    ``from_report(report).to_report().signature() == report.signature()``
    byte for byte: every count, round total, and per-result field the
    signature covers is carried exactly.
    """

    type: ClassVar[str] = "batch-report"

    results: tuple[WireQueryResult, ...] = ()
    distinct_graphs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    preprocess_rounds_incurred: int = 0
    preprocess_rounds_reused: int = 0
    preprocess_seconds: float = 0.0
    route_seconds: float = 0.0
    wall_seconds: float = 0.0

    @classmethod
    def from_report(cls, report: BatchReport) -> "WireBatchReport":
        return cls(
            results=tuple(WireQueryResult.from_result(result) for result in report.results),
            distinct_graphs=int(report.distinct_graphs),
            cache_hits=int(report.cache_hits),
            cache_misses=int(report.cache_misses),
            preprocess_rounds_incurred=int(report.preprocess_rounds_incurred),
            preprocess_rounds_reused=int(report.preprocess_rounds_reused),
            preprocess_seconds=float(report.preprocess_seconds),
            route_seconds=float(report.route_seconds),
            wall_seconds=float(report.wall_seconds),
        )

    def to_report(self) -> BatchReport:
        return BatchReport(
            results=[result.to_result() for result in self.results],
            distinct_graphs=self.distinct_graphs,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            preprocess_rounds_incurred=self.preprocess_rounds_incurred,
            preprocess_rounds_reused=self.preprocess_rounds_reused,
            preprocess_seconds=self.preprocess_seconds,
            route_seconds=self.route_seconds,
            wall_seconds=self.wall_seconds,
        )


@_register
@dataclass(frozen=True)
class WireAdmissionStats(WireMessage):
    """The admission ledger (:class:`~repro.cluster.AdmissionStats`) on the wire."""

    type: ClassVar[str] = "admission-stats"

    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    shed: int = 0

    @classmethod
    def from_stats(cls, stats: AdmissionStats) -> "WireAdmissionStats":
        return cls(
            offered=int(stats.offered),
            accepted=int(stats.accepted),
            rejected=int(stats.rejected),
            shed=int(stats.shed),
        )

    def to_stats(self) -> AdmissionStats:
        return AdmissionStats(
            offered=self.offered,
            accepted=self.accepted,
            rejected=self.rejected,
            shed=self.shed,
        )


@_register
@dataclass(frozen=True)
class WireClusterReport(WireMessage):
    """A merged dispatch cycle (:class:`~repro.cluster.ClusterReport`) on the wire."""

    type: ClassVar[str] = "cluster-report"

    shard_reports: dict[str, WireBatchReport] = field(default_factory=dict)
    dispatch_seconds: float = 0.0
    admission: WireAdmissionStats = field(default_factory=WireAdmissionStats)
    lost_batches: int = 0
    requeued_batches: int = 0

    @classmethod
    def from_report(cls, report) -> "WireClusterReport":
        return cls(
            shard_reports={
                shard_id: WireBatchReport.from_report(shard_report)
                for shard_id, shard_report in report.shard_reports.items()
            },
            dispatch_seconds=float(report.dispatch_seconds),
            admission=WireAdmissionStats.from_stats(report.admission),
            lost_batches=int(report.lost_batches),
            requeued_batches=int(report.requeued_batches),
        )

    def to_report(self):
        from repro.cluster.coordinator import ClusterReport

        return ClusterReport(
            shard_reports={
                shard_id: wire_report.to_report()
                for shard_id, wire_report in self.shard_reports.items()
            },
            dispatch_seconds=self.dispatch_seconds,
            admission=self.admission.to_stats(),
            lost_batches=self.lost_batches,
            requeued_batches=self.requeued_batches,
        )


# -- protocol messages -------------------------------------------------------------


@_register
@dataclass(frozen=True)
class Ping(WireMessage):
    """Liveness probe."""

    type: ClassVar[str] = "ping"


@_register
@dataclass(frozen=True)
class Pong(WireMessage):
    """Liveness reply."""

    type: ClassVar[str] = "pong"


@_register
@dataclass(frozen=True)
class Shutdown(WireMessage):
    """Orderly server shutdown request."""

    type: ClassVar[str] = "shutdown"


@_register
@dataclass(frozen=True)
class ShutdownAck(WireMessage):
    """The server acknowledges shutdown and will stop."""

    type: ClassVar[str] = "shutdown-ack"


@_register
@dataclass(frozen=True)
class ShardStatsRequest(WireMessage):
    """Ask a shard server for its lifetime stats row."""

    type: ClassVar[str] = "shard-stats-request"


@_register
@dataclass(frozen=True)
class StatsRequest(WireMessage):
    """Ask the gateway for cluster-level admission/queue stats."""

    type: ClassVar[str] = "stats-request"


@_register
@dataclass(frozen=True)
class ErrorReply(WireMessage):
    """A request-level failure (``code`` is machine-readable, e.g. ``deadline``)."""

    type: ClassVar[str] = "error"

    code: str = "error"
    message: str = ""


@_register
@dataclass(frozen=True)
class NeedGraphReply(WireMessage):
    """Server → peer: the named graph fingerprints are not cached here.

    Answers a fingerprint-only submit (or a deduped shard slice) whose graph
    the server cannot resolve — the peer re-sends with the full graph payload
    attached.  Not an error: it is the one-time-upload half of the
    fingerprint negotiation.
    """

    type: ClassVar[str] = "need-graph"

    fingerprints: tuple[str, ...] = ()


@_register
@dataclass(frozen=True)
class ShardProcessRequest(WireMessage):
    """Coordinator → shard server: serve one scatter slice as a batch.

    ``graphs`` maps a :meth:`WireGraph.fingerprint` content hash to its graph,
    shipped **once per distinct graph** for the queries that omit theirs.  A
    query whose ``graph_ref`` is in neither the table nor the server's cache
    makes the server answer :class:`NeedGraphReply` instead of a report.
    """

    type: ClassVar[str] = "shard-process"

    queries: tuple[WireShardQuery, ...] = ()
    graphs: dict[str, WireGraph] = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class ShardProcessReply(WireMessage):
    """Shard server → coordinator: the slice's :class:`WireBatchReport`."""

    type: ClassVar[str] = "shard-report"
    required: ClassVar[tuple[str, ...]] = ("report",)

    report: WireBatchReport = field(default_factory=WireBatchReport)


@_register
@dataclass(frozen=True)
class ShardStatsReply(WireMessage):
    """Shard server → coordinator: the shard's lifetime serving row."""

    type: ClassVar[str] = "shard-stats"

    row: dict = field(default_factory=dict)


@_register
@dataclass(frozen=True)
class SubmitRequest(WireMessage):
    """Client → gateway: plan, place, and enqueue one routing query.

    ``deadline`` is a *relative* budget in seconds (client and server clocks
    never compare absolute times); the gateway stamps arrival and refuses the
    submit once the budget has lapsed.

    ``graph`` may be ``None`` when ``graph_fingerprint`` names a graph the
    gateway's negotiation cache has seen (the steady-state fast path: request
    bytes are metadata only).  A fingerprint the gateway does not know is
    answered with :class:`NeedGraphReply`, and the client re-sends with the
    full graph attached — a one-time upload per graph per gateway.
    """

    type: ClassVar[str] = "submit"

    graph: WireGraph | None = None
    graph_fingerprint: str = ""
    requests: tuple[WireRequest, ...] = ()
    load: int | None = None
    backend: str | None = None
    backend_params: dict | None = None
    workload: str = ""
    deadline: float | None = None
    idempotency_key: str | None = None


@_register
@dataclass(frozen=True)
class SubmitReply(WireMessage):
    """Gateway → client: the admission outcome of one submit."""

    type: ClassVar[str] = "submit-reply"

    shard_id: str = ""
    accepted: bool = False
    shed: int = 0
    duplicate: bool = False


@_register
@dataclass(frozen=True)
class DispatchRequest(WireMessage):
    """Client → gateway: drain the queues and scatter/gather once.

    The gateway *streams* one :class:`DispatchShardReply` per busy shard as
    each completes, then a :class:`DispatchDoneReply`.  ``deadline`` is a
    relative budget; shards not started by the deadline have their admitted
    work requeued (never lost) and are listed in the done frame.
    """

    type: ClassVar[str] = "dispatch"

    deadline: float | None = None


@_register
@dataclass(frozen=True)
class DispatchShardReply(WireMessage):
    """Gateway → client: one shard's batch report, streamed on completion."""

    type: ClassVar[str] = "dispatch-shard"
    required: ClassVar[tuple[str, ...]] = ("report",)

    shard_id: str = ""
    report: WireBatchReport = field(default_factory=WireBatchReport)


@_register
@dataclass(frozen=True)
class DispatchDoneReply(WireMessage):
    """Gateway → client: the dispatch cycle is complete.

    ``expired`` lists shards whose slice hit the request deadline before it
    was started; their work was requeued, not lost.
    """

    type: ClassVar[str] = "dispatch-done"

    dispatch_seconds: float = 0.0
    admission: WireAdmissionStats = field(default_factory=WireAdmissionStats)
    expired: tuple[str, ...] = ()


@_register
@dataclass(frozen=True)
class StatsReply(WireMessage):
    """Gateway → client: cluster-level admission totals and queue depths."""

    type: ClassVar[str] = "stats-reply"

    admission: WireAdmissionStats = field(default_factory=WireAdmissionStats)
    queue_depths: dict[str, int] = field(default_factory=dict)
    shard_count: int = 0


# -- elastic-tier messages: heartbeats, fault injection, artifact handoff ----------


@_register
@dataclass(frozen=True)
class HeartbeatRequest(WireMessage):
    """Coordinator → shard: liveness probe expecting a heartbeat reply."""

    type: ClassVar[str] = "heartbeat"


@_register
@dataclass(frozen=True)
class HeartbeatReply(WireMessage):
    """Shard → coordinator: alive, plus the serving counters a health check reads."""

    type: ClassVar[str] = "heartbeat-reply"

    shard_id: str = ""
    healthy: bool = True
    batches_served: int = 0
    queries_served: int = 0


@_register
@dataclass(frozen=True)
class FaultInjectRequest(WireMessage):
    """Coordinator → shard: apply one chaos fault inside the server process.

    Only the faults the *server* can simulate travel over the wire (``slow``
    and ``heal``); a tcp ``crash`` kills the real process from the coordinator
    side, and a ``partition`` is enforced at the coordinator's connection.
    """

    type: ClassVar[str] = "fault-inject"

    kind: str = ""
    seconds: float = 0.0


@_register
@dataclass(frozen=True)
class FaultInjectReply(WireMessage):
    """Shard → coordinator: the fault was applied."""

    type: ClassVar[str] = "fault-inject-reply"

    applied: bool = True


@_register
@dataclass(frozen=True)
class ArtifactExportRequest(WireMessage):
    """Coordinator → shard: write one warm artifact to ``path`` for its new owner.

    ``path`` lies in a handoff directory the coordinator owns, and its
    basename must be ``<fingerprint>.pkl``; the shard refuses any other path.
    The artifact bytes travel in that file, never on this connection.
    """

    type: ClassVar[str] = "artifact-export"

    fingerprint: str = ""
    path: str = ""


@_register
@dataclass(frozen=True)
class ArtifactExportReply(WireMessage):
    """Shard → coordinator: whether the artifact file was written.

    ``found`` is false when the fingerprint is not warm on this shard or the
    request's path was refused; the new owner then rebuilds on first use.
    """

    type: ClassVar[str] = "artifact-export-reply"

    fingerprint: str = ""
    found: bool = False


@_register
@dataclass(frozen=True)
class ArtifactAdoptRequest(WireMessage):
    """Coordinator → shard: load the artifact file at ``path`` into the cache.

    The same basename rule as :class:`ArtifactExportRequest` holds; an empty
    path (what a peer's older ``segment`` field decodes to) is refused.
    """

    type: ClassVar[str] = "artifact-adopt"

    fingerprint: str = ""
    path: str = ""


@_register
@dataclass(frozen=True)
class ArtifactAdoptReply(WireMessage):
    """Shard → coordinator: whether the file passed the read checks and was adopted."""

    type: ClassVar[str] = "artifact-adopt-reply"

    adopted: bool = False


# -- durability: write-ahead journal records ---------------------------------------


@_register
@dataclass(frozen=True)
class JournalAdmit(WireMessage):
    """Journal record: one submit's admission outcome, durable before dispatch.

    Accepted submissions carry the full wire-versioned :class:`WireShardQuery`
    (recovery re-admits it verbatim); rejected ones carry only the accounting.
    ``shed_keys`` lists idempotency keys dropped from the target queue under
    the ``shed-oldest`` policy — recovery must not resurrect them.
    """

    type: ClassVar[str] = "journal-admit"

    key: str = ""
    shard_id: str = ""
    accepted: bool = False
    shed_keys: tuple[str, ...] = ()
    query: WireShardQuery | None = None


@_register
@dataclass(frozen=True)
class JournalComplete(WireMessage):
    """Journal record: one admitted batch served to completion on ``shard_id``.

    A key with a durable complete record is *done*: recovery dedups any later
    submit or replayed admit for it — exactly-once results, never
    re-execution.
    """

    type: ClassVar[str] = "journal-complete"

    key: str = ""
    fingerprint: str = ""
    shard_id: str = ""


@_register
@dataclass(frozen=True)
class JournalCheckpoint(WireMessage):
    """Journal record: the coordinator's full recoverable state at one instant.

    Written at journal-segment rotation, on membership changes, and every
    ``checkpoint_interval`` records; replay starts from the last checkpoint
    and folds the records after it.  Carries ring membership, the pending and
    completed idempotency-key state, warm-cache exemplars (in last-use order,
    so re-warmed LRU caches end up byte-identical), per-shard admission
    stats, the elastic lifetime counters, and the planner's cost-model
    calibration.  Checkpoints written before hot-key replication was removed
    also carry its two maps; decoding ignores them.
    """

    type: ClassVar[str] = "journal-checkpoint"

    shard_ids: tuple[str, ...] = ()
    next_shard_index: int = 0
    seen_fingerprints: tuple[str, ...] = ()
    pending: tuple[WireShardQuery, ...] = ()  # admission order
    completed_keys: tuple[str, ...] = ()
    warm: tuple[WireShardQuery, ...] = ()  # exemplars, last-use order
    auto_key_counter: int = 0
    admission: dict[str, dict] = field(default_factory=dict)  # shard -> stats dict
    lost_batches: int = 0
    requeued_batches: int = 0
    failovers: int = 0
    duplicate_results: int = 0
    planner_state: dict[str, dict] | None = None
    planner_version: int = 0
