"""Golden wire bytes: the encoded form of every message type is pinned.

Journals on disk and peers on the other end of a socket read these bytes, so
any change to them is a wire-format change (and needs a ``WIRE_VERSION``
bump).  Each registered message type has one fixed, representative instance
here whose ``to_wire()`` output must equal the pinned bytes exactly — key
order, separators, nesting and all — and which must decode back to an equal
message.  A second group pins the payload keys a decoder refuses to default
(dropping one is a malformed message, not an old peer) and the numeric
coercions that reject garbage from a peer.
"""

import json
import struct
import zlib

import pytest

from repro import RoutingRequest
from repro.durability import recover
from repro.metrics import MetricsRegistry
from repro.net.shard_server import ShardServerConfig, start_shard_server
from repro.wire import (
    WIRE_VERSION,
    ArtifactAdoptReply,
    ArtifactAdoptRequest,
    ArtifactExportReply,
    ArtifactExportRequest,
    DispatchDoneReply,
    DispatchRequest,
    DispatchShardReply,
    ErrorReply,
    FaultInjectReply,
    FaultInjectRequest,
    HeartbeatReply,
    HeartbeatRequest,
    JournalAdmit,
    JournalCheckpoint,
    JournalComplete,
    NeedGraphReply,
    Ping,
    Pong,
    ShardProcessReply,
    ShardProcessRequest,
    ShardStatsReply,
    ShardStatsRequest,
    Shutdown,
    ShutdownAck,
    StatsReply,
    StatsRequest,
    SubmitReply,
    SubmitRequest,
    WireAdmissionStats,
    WireBatchReport,
    WireClusterReport,
    WireDecodeError,
    WireGraph,
    WirePlan,
    WireQueryResult,
    WireRequest,
    WireRouteResult,
    WireShardQuery,
    decode_message,
    message_from_wire,
)
from repro.wire.messages import _MESSAGE_TYPES

# -- one representative instance per registered type -------------------------------

GRAPH = WireGraph(
    nodes=(0, 1, 2, 3),
    edges=((0, 1, {}), (1, 2, {"weight": 2}), (2, 3, {}), (3, 0, {"weight": 1.5})),
)
GRAPH_REF = "c5b1e0d8b8c2d8bb"  # stands in for a WireGraph.fingerprint() hash
PLAN = WirePlan(
    backend="deterministic",
    backend_params={"epsilon": 0.5, "seed": 7},
    kernel="numpy",
    parallelism="threads",
    max_workers=2,
    fused=True,
    shard_hint="shard-1",
    policy="cost",
    reason="golden",
)
REQUESTS = (
    WireRequest(source=0, destination=2),
    WireRequest(source=1, destination=3, payload={"tag": [1, "x", None]}),
)
QUERY = WireShardQuery(
    fingerprint="fp-1",
    graph=GRAPH,
    graph_ref="",
    requests=REQUESTS,
    load=2,
    backend="deterministic",
    backend_params={"epsilon": 0.5},
    workload="permutation",
    plan=PLAN,
    idempotency_key="key-1",
)
REF_QUERY = WireShardQuery(
    fingerprint="fp-1",
    graph=None,
    graph_ref=GRAPH_REF,
    requests=REQUESTS[:1],
    load=None,
    backend="deterministic",
    workload="permutation",
    idempotency_key="key-2",
)
ROUTE = WireRouteResult(
    backend="deterministic",
    delivered=2,
    total_tokens=2,
    query_rounds=7,
    preprocess_rounds=11,
    load=1,
    extra={"paths": 4, "label": "ok"},
)
QUERY_RESULT = WireQueryResult(
    query_id=3,
    fingerprint="fp-1",
    backend="deterministic",
    outcome=ROUTE,
    cache_hit=True,
    seconds=0.25,
    workload="permutation",
    plan=PLAN,
)
BATCH = WireBatchReport(
    results=(QUERY_RESULT,),
    distinct_graphs=1,
    cache_hits=1,
    cache_misses=0,
    preprocess_rounds_incurred=0,
    preprocess_rounds_reused=11,
    preprocess_seconds=0.0,
    route_seconds=0.125,
    wall_seconds=0.5,
)
ADMISSION = WireAdmissionStats(offered=5, accepted=4, rejected=1, shed=2)

INSTANCES = {
    "graph": GRAPH,
    "request": REQUESTS[1],
    "plan": PLAN,
    "shard-query": QUERY,
    "route-result": ROUTE,
    "query-result": QUERY_RESULT,
    "batch-report": BATCH,
    "admission-stats": ADMISSION,
    "cluster-report": WireClusterReport(
        shard_reports={"shard-0": BATCH},
        dispatch_seconds=0.75,
        admission=ADMISSION,
        lost_batches=0,
        requeued_batches=1,
    ),
    "ping": Ping(),
    "pong": Pong(),
    "shutdown": Shutdown(),
    "shutdown-ack": ShutdownAck(),
    "shard-stats-request": ShardStatsRequest(),
    "stats-request": StatsRequest(),
    "error": ErrorReply(code="deadline", message="submit deadline expired"),
    "need-graph": NeedGraphReply(fingerprints=(GRAPH_REF, "other")),
    "shard-process": ShardProcessRequest(queries=(REF_QUERY, QUERY), graphs={GRAPH_REF: GRAPH}),
    "shard-report": ShardProcessReply(report=BATCH),
    "shard-stats": ShardStatsReply(row={"shard": "shard-0", "batches": 3, "hit_ratio": 0.5}),
    "submit": SubmitRequest(
        graph=None,
        graph_fingerprint=GRAPH_REF,
        requests=REQUESTS,
        load=None,
        backend="deterministic",
        backend_params={"epsilon": 0.5},
        workload="permutation",
        deadline=2.5,
        idempotency_key="client-abc-1",
    ),
    "submit-reply": SubmitReply(shard_id="shard-1", accepted=True, shed=1, duplicate=False),
    "dispatch": DispatchRequest(deadline=None),
    "dispatch-shard": DispatchShardReply(shard_id="shard-0", report=BATCH),
    "dispatch-done": DispatchDoneReply(
        dispatch_seconds=0.75, admission=ADMISSION, expired=("shard-2",)
    ),
    "stats-reply": StatsReply(
        admission=ADMISSION, queue_depths={"shard-0": 0, "shard-1": 3}, shard_count=2
    ),
    "heartbeat": HeartbeatRequest(),
    "heartbeat-reply": HeartbeatReply(
        shard_id="shard-0", healthy=True, batches_served=4, queries_served=9
    ),
    "fault-inject": FaultInjectRequest(kind="slow", seconds=0.5),
    "fault-inject-reply": FaultInjectReply(applied=True),
    "artifact-export": ArtifactExportRequest(fingerprint="fp-1", path="repro-handoff-x/fp-1.pkl"),
    "artifact-export-reply": ArtifactExportReply(fingerprint="fp-1", found=True),
    "artifact-adopt": ArtifactAdoptRequest(fingerprint="fp-1", path="repro-handoff-x/fp-1.pkl"),
    "artifact-adopt-reply": ArtifactAdoptReply(adopted=True),
    "journal-admit": JournalAdmit(
        key="key-1", shard_id="shard-1", accepted=True, shed_keys=("key-0",), query=QUERY
    ),
    "journal-complete": JournalComplete(key="key-1", fingerprint="fp-1", shard_id="shard-1"),
    "journal-checkpoint": JournalCheckpoint(
        shard_ids=("shard-0", "shard-1"),
        next_shard_index=2,
        seen_fingerprints=("fp-1",),
        pending=(REF_QUERY,),
        completed_keys=("key-0",),
        warm=(QUERY,),
        auto_key_counter=17,
        admission={"shard-0": {"offered": 5, "accepted": 4, "rejected": 1, "shed": 2}},
        lost_batches=0,
        requeued_batches=1,
        failovers=1,
        duplicate_results=0,
        planner_state={"deterministic": {"ms": 1.5, "samples": 3}},
        planner_version=3,
    ),
}

# -- the pinned bytes --------------------------------------------------------------

GOLDEN: dict[str, bytes] = {
    "admission-stats": (
        b'\x00{"type":"admission-stats","v":1,"offered":5,"accepted":4,"rejected":1,"shed":'
        b'2}'
    ),
    "artifact-adopt": (
        b'\x00{"type":"artifact-adopt","v":1,"fingerprint":"fp-1","path":"repro-handoff-x/f'
        b'p-1.pkl"}'
    ),
    "artifact-adopt-reply": b'\x00{"type":"artifact-adopt-reply","v":1,"adopted":true}',
    "artifact-export": (
        b'\x00{"type":"artifact-export","v":1,"fingerprint":"fp-1","path":"repro-handoff-x/'
        b'fp-1.pkl"}'
    ),
    "artifact-export-reply": (
        b'\x00{"type":"artifact-export-reply","v":1,"fingerprint":"fp-1","found":true}'
    ),
    "batch-report": (
        b'\x00{"type":"batch-report","v":1,"results":[{"type":"query-result","v":1,"query_i'
        b'd":3,"fingerprint":"fp-1","backend":"deterministic","outcome":{"type":"route-resu'
        b'lt","v":1,"backend":"deterministic","delivered":2,"total_tokens":2,"query_rounds"'
        b':7,"preprocess_rounds":11,"load":1,"extra":{"paths":4,"label":"ok"}},"cache_hit":'
        b'true,"seconds":0.25,"workload":"permutation","plan":{"type":"plan","v":1,"backend'
        b'":"deterministic","backend_params":{"epsilon":0.5,"seed":7},"kernel":"numpy","par'
        b'allelism":"threads","max_workers":2,"fused":true,"shard_hint":"shard-1","policy":'
        b'"cost","reason":"golden"}}],"distinct_graphs":1,"cache_hits":1,"cache_misses":0,"'
        b'preprocess_rounds_incurred":0,"preprocess_rounds_reused":11,"preprocess_seconds":'
        b'0.0,"route_seconds":0.125,"wall_seconds":0.5}'
    ),
    "cluster-report": (
        b'\x00{"type":"cluster-report","v":1,"shard_reports":{"shard-0":{"type":"batch-repo'
        b'rt","v":1,"results":[{"type":"query-result","v":1,"query_id":3,"fingerprint":"fp-'
        b'1","backend":"deterministic","outcome":{"type":"route-result","v":1,"backend":"de'
        b'terministic","delivered":2,"total_tokens":2,"query_rounds":7,"preprocess_rounds":'
        b'11,"load":1,"extra":{"paths":4,"label":"ok"}},"cache_hit":true,"seconds":0.25,"wo'
        b'rkload":"permutation","plan":{"type":"plan","v":1,"backend":"deterministic","back'
        b'end_params":{"epsilon":0.5,"seed":7},"kernel":"numpy","parallelism":"threads","ma'
        b'x_workers":2,"fused":true,"shard_hint":"shard-1","policy":"cost","reason":"golden'
        b'"}}],"distinct_graphs":1,"cache_hits":1,"cache_misses":0,"preprocess_rounds_incur'
        b'red":0,"preprocess_rounds_reused":11,"preprocess_seconds":0.0,"route_seconds":0.1'
        b'25,"wall_seconds":0.5}},"dispatch_seconds":0.75,"admission":{"type":"admission-st'
        b'ats","v":1,"offered":5,"accepted":4,"rejected":1,"shed":2},"lost_batches":0,"requ'
        b'eued_batches":1}'
    ),
    "dispatch": b'\x00{"type":"dispatch","v":1,"deadline":null}',
    "dispatch-done": (
        b'\x00{"type":"dispatch-done","v":1,"dispatch_seconds":0.75,"admission":{"type":"ad'
        b'mission-stats","v":1,"offered":5,"accepted":4,"rejected":1,"shed":2},"expired":["'
        b'shard-2"]}'
    ),
    "dispatch-shard": (
        b'\x00{"type":"dispatch-shard","v":1,"shard_id":"shard-0","report":{"type":"batch-r'
        b'eport","v":1,"results":[{"type":"query-result","v":1,"query_id":3,"fingerprint":"'
        b'fp-1","backend":"deterministic","outcome":{"type":"route-result","v":1,"backend":'
        b'"deterministic","delivered":2,"total_tokens":2,"query_rounds":7,"preprocess_round'
        b's":11,"load":1,"extra":{"paths":4,"label":"ok"}},"cache_hit":true,"seconds":0.25,'
        b'"workload":"permutation","plan":{"type":"plan","v":1,"backend":"deterministic","b'
        b'ackend_params":{"epsilon":0.5,"seed":7},"kernel":"numpy","parallelism":"threads",'
        b'"max_workers":2,"fused":true,"shard_hint":"shard-1","policy":"cost","reason":"gol'
        b'den"}}],"distinct_graphs":1,"cache_hits":1,"cache_misses":0,"preprocess_rounds_in'
        b'curred":0,"preprocess_rounds_reused":11,"preprocess_seconds":0.0,"route_seconds":'
        b'0.125,"wall_seconds":0.5}}'
    ),
    "error": b'\x00{"type":"error","v":1,"code":"deadline","message":"submit deadline expired"}',
    "fault-inject": b'\x00{"type":"fault-inject","v":1,"kind":"slow","seconds":0.5}',
    "fault-inject-reply": b'\x00{"type":"fault-inject-reply","v":1,"applied":true}',
    "graph": (
        b'\x00{"type":"graph","v":1,"nodes":[0,1,2,3],"edges":[[0,1,{}],[1,2,{"weight":2}],'
        b'[2,3,{}],[3,0,{"weight":1.5}]]}'
    ),
    "heartbeat": b'\x00{"type":"heartbeat","v":1}',
    "heartbeat-reply": (
        b'\x00{"type":"heartbeat-reply","v":1,"shard_id":"shard-0","healthy":true,"batches_'
        b'served":4,"queries_served":9}'
    ),
    "journal-admit": (
        b'\x00{"type":"journal-admit","v":1,"key":"key-1","shard_id":"shard-1","accepted":t'
        b'rue,"shed_keys":["key-0"],"query":{"type":"shard-query","v":1,"fingerprint":"fp-1'
        b'","graph":{"type":"graph","v":1,"nodes":[0,1,2,3],"edges":[[0,1,{}],[1,2,{"weight'
        b'":2}],[2,3,{}],[3,0,{"weight":1.5}]]},"graph_ref":"","requests":[{"type":"request'
        b'","v":1,"source":0,"destination":2,"payload":null},{"type":"request","v":1,"sourc'
        b'e":1,"destination":3,"payload":{"tag":[1,"x",null]}}],"load":2,"backend":"determi'
        b'nistic","backend_params":{"epsilon":0.5},"workload":"permutation","plan":{"type":'
        b'"plan","v":1,"backend":"deterministic","backend_params":{"epsilon":0.5,"seed":7},'
        b'"kernel":"numpy","parallelism":"threads","max_workers":2,"fused":true,"shard_hint'
        b'":"shard-1","policy":"cost","reason":"golden"},"idempotency_key":"key-1"}}'
    ),
    "journal-checkpoint": (
        b'\x00{"type":"journal-checkpoint","v":1,"shard_ids":["shard-0","shard-1"],"next_sh'
        b'ard_index":2,"seen_fingerprints":["fp-1"],"pending":[{"type":"shard-query","v":1,'
        b'"fingerprint":"fp-1","graph":null,"graph_ref":"c5b1e0d8b8c2d8bb","requests":[{"ty'
        b'pe":"request","v":1,"source":0,"destination":2,"payload":null}],"load":null,"back'
        b'end":"deterministic","backend_params":{},"workload":"permutation","plan":null,"id'
        b'empotency_key":"key-2"}],"completed_keys":["key-0"],"warm":[{"type":"shard-query"'
        b',"v":1,"fingerprint":"fp-1","graph":{"type":"graph","v":1,"nodes":[0,1,2,3],"edge'
        b's":[[0,1,{}],[1,2,{"weight":2}],[2,3,{}],[3,0,{"weight":1.5}]]},"graph_ref":"","r'
        b'equests":[{"type":"request","v":1,"source":0,"destination":2,"payload":null},{"ty'
        b'pe":"request","v":1,"source":1,"destination":3,"payload":{"tag":[1,"x",null]}}],"'
        b'load":2,"backend":"deterministic","backend_params":{"epsilon":0.5},"workload":"pe'
        b'rmutation","plan":{"type":"plan","v":1,"backend":"deterministic","backend_params"'
        b':{"epsilon":0.5,"seed":7},"kernel":"numpy","parallelism":"threads","max_workers":'
        b'2,"fused":true,"shard_hint":"shard-1","policy":"cost","reason":"golden"},"idempot'
        b'ency_key":"key-1"}],"auto_key_counter":17,"admission":{"shard-0":{"offered":5,"ac'
        b'cepted":4,"rejected":1,"shed":2}},"lost_batches":0,"requeued_batches":1,"failover'
        b's":1,"duplicate_results":0,"planner_state":{"deterministic":{"ms":1.5,"samples":3'
        b'}},"planner_version":3}'
    ),
    "journal-complete": (
        b'\x00{"type":"journal-complete","v":1,"key":"key-1","fingerprint":"fp-1","shard_id'
        b'":"shard-1"}'
    ),
    "need-graph": b'\x00{"type":"need-graph","v":1,"fingerprints":["c5b1e0d8b8c2d8bb","other"]}',
    "ping": b'\x00{"type":"ping","v":1}',
    "plan": (
        b'\x00{"type":"plan","v":1,"backend":"deterministic","backend_params":{"epsilon":0.'
        b'5,"seed":7},"kernel":"numpy","parallelism":"threads","max_workers":2,"fused":true'
        b',"shard_hint":"shard-1","policy":"cost","reason":"golden"}'
    ),
    "pong": b'\x00{"type":"pong","v":1}',
    "query-result": (
        b'\x00{"type":"query-result","v":1,"query_id":3,"fingerprint":"fp-1","backend":"det'
        b'erministic","outcome":{"type":"route-result","v":1,"backend":"deterministic","del'
        b'ivered":2,"total_tokens":2,"query_rounds":7,"preprocess_rounds":11,"load":1,"extr'
        b'a":{"paths":4,"label":"ok"}},"cache_hit":true,"seconds":0.25,"workload":"permutat'
        b'ion","plan":{"type":"plan","v":1,"backend":"deterministic","backend_params":{"eps'
        b'ilon":0.5,"seed":7},"kernel":"numpy","parallelism":"threads","max_workers":2,"fus'
        b'ed":true,"shard_hint":"shard-1","policy":"cost","reason":"golden"}}'
    ),
    "request": (
        b'\x00{"type":"request","v":1,"source":1,"destination":3,"payload":{"tag":[1,"x",nu'
        b'll]}}'
    ),
    "route-result": (
        b'\x00{"type":"route-result","v":1,"backend":"deterministic","delivered":2,"total_t'
        b'okens":2,"query_rounds":7,"preprocess_rounds":11,"load":1,"extra":{"paths":4,"lab'
        b'el":"ok"}}'
    ),
    "shard-process": (
        b'\x00{"type":"shard-process","v":1,"queries":[{"type":"shard-query","v":1,"fingerp'
        b'rint":"fp-1","graph":null,"graph_ref":"c5b1e0d8b8c2d8bb","requests":[{"type":"req'
        b'uest","v":1,"source":0,"destination":2,"payload":null}],"load":null,"backend":"de'
        b'terministic","backend_params":{},"workload":"permutation","plan":null,"idempotenc'
        b'y_key":"key-2"},{"type":"shard-query","v":1,"fingerprint":"fp-1","graph":{"type":'
        b'"graph","v":1,"nodes":[0,1,2,3],"edges":[[0,1,{}],[1,2,{"weight":2}],[2,3,{}],[3,'
        b'0,{"weight":1.5}]]},"graph_ref":"","requests":[{"type":"request","v":1,"source":0'
        b',"destination":2,"payload":null},{"type":"request","v":1,"source":1,"destination"'
        b':3,"payload":{"tag":[1,"x",null]}}],"load":2,"backend":"deterministic","backend_p'
        b'arams":{"epsilon":0.5},"workload":"permutation","plan":{"type":"plan","v":1,"back'
        b'end":"deterministic","backend_params":{"epsilon":0.5,"seed":7},"kernel":"numpy","'
        b'parallelism":"threads","max_workers":2,"fused":true,"shard_hint":"shard-1","polic'
        b'y":"cost","reason":"golden"},"idempotency_key":"key-1"}],"graphs":{"c5b1e0d8b8c2d'
        b'8bb":{"type":"graph","v":1,"nodes":[0,1,2,3],"edges":[[0,1,{}],[1,2,{"weight":2}]'
        b',[2,3,{}],[3,0,{"weight":1.5}]]}}}'
    ),
    "shard-query": (
        b'\x00{"type":"shard-query","v":1,"fingerprint":"fp-1","graph":{"type":"graph","v":'
        b'1,"nodes":[0,1,2,3],"edges":[[0,1,{}],[1,2,{"weight":2}],[2,3,{}],[3,0,{"weight":'
        b'1.5}]]},"graph_ref":"","requests":[{"type":"request","v":1,"source":0,"destinatio'
        b'n":2,"payload":null},{"type":"request","v":1,"source":1,"destination":3,"payload"'
        b':{"tag":[1,"x",null]}}],"load":2,"backend":"deterministic","backend_params":{"eps'
        b'ilon":0.5},"workload":"permutation","plan":{"type":"plan","v":1,"backend":"determ'
        b'inistic","backend_params":{"epsilon":0.5,"seed":7},"kernel":"numpy","parallelism"'
        b':"threads","max_workers":2,"fused":true,"shard_hint":"shard-1","policy":"cost","r'
        b'eason":"golden"},"idempotency_key":"key-1"}'
    ),
    "shard-report": (
        b'\x00{"type":"shard-report","v":1,"report":{"type":"batch-report","v":1,"results":'
        b'[{"type":"query-result","v":1,"query_id":3,"fingerprint":"fp-1","backend":"determ'
        b'inistic","outcome":{"type":"route-result","v":1,"backend":"deterministic","delive'
        b'red":2,"total_tokens":2,"query_rounds":7,"preprocess_rounds":11,"load":1,"extra":'
        b'{"paths":4,"label":"ok"}},"cache_hit":true,"seconds":0.25,"workload":"permutation'
        b'","plan":{"type":"plan","v":1,"backend":"deterministic","backend_params":{"epsilo'
        b'n":0.5,"seed":7},"kernel":"numpy","parallelism":"threads","max_workers":2,"fused"'
        b':true,"shard_hint":"shard-1","policy":"cost","reason":"golden"}}],"distinct_graph'
        b's":1,"cache_hits":1,"cache_misses":0,"preprocess_rounds_incurred":0,"preprocess_r'
        b'ounds_reused":11,"preprocess_seconds":0.0,"route_seconds":0.125,"wall_seconds":0.'
        b'5}}'
    ),
    "shard-stats": (
        b'\x00{"type":"shard-stats","v":1,"row":{"shard":"shard-0","batches":3,"hit_ratio":'
        b'0.5}}'
    ),
    "shard-stats-request": b'\x00{"type":"shard-stats-request","v":1}',
    "shutdown": b'\x00{"type":"shutdown","v":1}',
    "shutdown-ack": b'\x00{"type":"shutdown-ack","v":1}',
    "stats-reply": (
        b'\x00{"type":"stats-reply","v":1,"admission":{"type":"admission-stats","v":1,"offe'
        b'red":5,"accepted":4,"rejected":1,"shed":2},"queue_depths":{"shard-0":0,"shard-1":'
        b'3},"shard_count":2}'
    ),
    "stats-request": b'\x00{"type":"stats-request","v":1}',
    "submit": (
        b'\x00{"type":"submit","v":1,"graph":null,"graph_fingerprint":"c5b1e0d8b8c2d8bb","r'
        b'equests":[{"type":"request","v":1,"source":0,"destination":2,"payload":null},{"ty'
        b'pe":"request","v":1,"source":1,"destination":3,"payload":{"tag":[1,"x",null]}}],"'
        b'load":null,"backend":"deterministic","backend_params":{"epsilon":0.5},"workload":'
        b'"permutation","deadline":2.5,"idempotency_key":"client-abc-1"}'
    ),
    "submit-reply": (
        b'\x00{"type":"submit-reply","v":1,"shard_id":"shard-1","accepted":true,"shed":1,"d'
        b'uplicate":false}'
    ),
}
#: The "plan" row as encoded before plans lost their chunk-size field.
#: Journals on disk and older peers still carry it, so it must keep decoding,
#: to the current PLAN (unknown fields are ignored).
CHUNKED_PLAN = (
    b'\x00{"type":"plan","v":1,"backend":"deterministic","backend_params":{"epsilon":0.'
    b'5,"seed":7},"kernel":"numpy","parallelism":"threads","max_workers":2,"chunk_size"'
    b':null,"fused":true,"shard_hint":"shard-1","policy":"cost","reason":"golden"}'
)
#: The same row from before plans also lost their artifact-transport field.
LEGACY_PLAN = (
    b'\x00{"type":"plan","v":1,"backend":"deterministic","backend_params":{"epsilon":0.'
    b'5,"seed":7},"kernel":"numpy","parallelism":"threads","max_workers":2,"chunk_size"'
    b':null,"fused":true,"artifact_transport":"shm","shard_hint":"shard-1","policy":"co'
    b'st","reason":"golden"}'
)
#: A plan as written before process mode was removed: ``PLAN`` with
#: ``parallelism="processes"``.  Journals on disk may hold plans like it; they
#: must keep decoding, to the equal thread plan.
PROCESS_PLAN = (
    b'\x00{"type":"plan","v":1,"backend":"deterministic","backend_params":{"epsilon":0.5,'
    b'"seed":7},"kernel":"numpy","parallelism":"processes","max_workers":2,"fused":tru'
    b'e,"shard_hint":"shard-1","policy":"cost","reason":"golden"}'
)
#: A checkpoint as written before hot-key replication was removed: a 2-shard
#: cluster whose one key had been replicated, so it still carries the
#: ``hot_ewma`` and ``replicas`` maps.  Journals on disk hold records like it;
#: they must keep decoding (unknown fields are ignored) and recovering.
LEGACY_CHECKPOINT = (
    b'\x00{"type":"journal-checkpoint","v":1,"shard_ids":["shard-0","shard-1"],"next_shar'
    b'd_index":2,"seen_fingerprints":["67c308c885530867f9a1164272e7044693d2885643be169'
    b'ceef584c4057909bc"],"pending":[],"completed_keys":["auto-0","auto-1","auto-2","a'
    b'uto-3","auto-4","auto-5"],"warm":[{"type":"shard-query","v":1,"fingerprint":"67c'
    b'308c885530867f9a1164272e7044693d2885643be169ceef584c4057909bc","graph":{"type":"'
    b'graph","v":1,"nodes":[0,1,2,3,4,5,6,7,8,9,10,11],"edges":[[0,7,{}],[0,2,{}],[0,8'
    b',{}],[1,5,{}],[1,6,{}],[1,9,{}],[2,3,{}],[2,6,{}],[3,4,{}],[3,7,{}],[4,7,{}],[4,'
    b'8,{}],[5,11,{}],[5,10,{}],[6,11,{}],[8,9,{}],[9,10,{}],[10,11,{}]]},"graph_ref":'
    b'"","requests":[{"type":"request","v":1,"source":1,"destination":6,"payload":null'
    b'}],"load":null,"backend":"deterministic","backend_params":{},"workload":"","plan'
    b'":{"type":"plan","v":1,"backend":"deterministic","backend_params":{},"kernel":"n'
    b'umpy","parallelism":"threads","max_workers":null,"chunk_size":null,"fused":false'
    b',"shard_hint":"shard-0","policy":"fixed","reason":"cluster default plan"},"idemp'
    b'otency_key":"auto-5"}],"auto_key_counter":6,"admission":{"shard-1":{"offered":4,'
    b'"accepted":4,"rejected":0,"shed":0},"shard-0":{"offered":2,"accepted":2,"rejecte'
    b'd":0,"shed":0}},"lost_batches":0,"requeued_batches":0,"failovers":0,"duplicate_r'
    b'esults":0,"hot_ewma":{"67c308c885530867f9a1164272e7044693d2885643be169ceef584c40'
    b'57909bc":1.75},"replicas":{"67c308c885530867f9a1164272e7044693d2885643be169ceef5'
    b'84c4057909bc":["shard-0"]},"planner_state":null,"planner_version":0}'
)
#: The "artifact-adopt" row from before warm handoffs moved to artifact files:
#: it names a shared-memory segment.  It still decodes (unknown fields are
#: ignored) to an empty ``path``, which every shard refuses to adopt.
LEGACY_ADOPT = (
    b'\x00{"type":"artifact-adopt","v":1,"fingerprint":"fp-1","segment":"repro-shm-1-1-'
    b'fp1"}'
)
GRAPH_FINGERPRINT = "ef7b1a690e6e0e02bbd4ab553f97b80e95ac009db79e876ef8c57b63fcdcfeee"


def test_every_registered_type_is_pinned():
    assert set(INSTANCES) == set(_MESSAGE_TYPES)
    assert set(GOLDEN) == set(_MESSAGE_TYPES)


@pytest.mark.parametrize("tag", sorted(INSTANCES))
def test_wire_bytes_are_pinned(tag):
    message = INSTANCES[tag]
    assert message.to_wire() == GOLDEN[tag]
    assert message_from_wire(GOLDEN[tag]) == message


def test_legacy_plan_bytes_decode_to_the_current_plan():
    for legacy in (CHUNKED_PLAN, LEGACY_PLAN):
        decoded = message_from_wire(legacy)
        assert decoded == PLAN
        assert decoded.to_plan() == PLAN.to_plan()
        assert decoded.to_plan().plan_id == PLAN.to_plan().plan_id


def test_legacy_process_plan_decodes_to_the_thread_plan():
    decoded = message_from_wire(PROCESS_PLAN)
    assert decoded.parallelism == "processes"
    plan = decoded.to_plan()
    assert plan == PLAN.to_plan()
    assert plan.parallelism == "threads"
    assert plan.semantic_id == PLAN.to_plan().semantic_id == "802b7b22e3db8aad"


def test_legacy_checkpoint_decodes_without_the_replication_maps():
    decoded = message_from_wire(LEGACY_CHECKPOINT)
    legacy_fields = json.loads(LEGACY_CHECKPOINT[1:])
    assert legacy_fields.pop("hot_ewma") and legacy_fields.pop("replicas")
    # Its plans predate the removal of the chunk-size field as well.
    for warm in legacy_fields["warm"]:
        assert warm["plan"].pop("chunk_size") is None
    assert json.loads(decoded.to_wire()[1:]) == legacy_fields


def test_legacy_adopt_bytes_decode_and_a_shard_refuses_them(tmp_path):
    legacy = message_from_wire(LEGACY_ADOPT)
    assert legacy == ArtifactAdoptRequest(fingerprint="fp-1", path="")
    config = ShardServerConfig(shard_id="shard-0", socket_path=str(tmp_path / "shard-0.sock"))
    shard = start_shard_server(config, metrics=MetricsRegistry())
    try:
        assert shard._request(legacy) == ArtifactAdoptReply(adopted=False)
        # Any path whose basename is not <fingerprint>.pkl is refused too,
        # before the shard reads or writes it.
        outside = tmp_path / "elsewhere.pkl"
        assert shard.export_artifact("fp-1", outside) is False
        assert shard.adopt_artifact("fp-1", outside) is False
        assert not outside.exists()
    finally:
        shard.close()


def test_legacy_checkpoint_journal_recovers_a_serving_coordinator(tmp_path):
    """A journal whose last checkpoint predates the removal still recovers."""
    payload = LEGACY_CHECKPOINT
    frame = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
    (tmp_path / "wal-00000000.log").write_bytes(frame)
    coordinator, report = recover(tmp_path, {"metrics": MetricsRegistry()})
    with coordinator:
        assert report.checkpoint_found and report.rewarmed == 1
        assert coordinator.shard_ids == ["shard-0", "shard-1"]
        assert coordinator.completed_key_count() == 6
        [warm] = message_from_wire(LEGACY_CHECKPOINT).warm
        graph = warm.graph.to_graph()
        assert coordinator.fingerprint(graph) == warm.fingerprint
        decision = coordinator.submit(graph, [RoutingRequest(source=2, destination=9)])
        assert decision.accepted and decision.shard_id == "shard-1"
        result = coordinator.dispatch()
        assert result.all_delivered
        assert result.cache_hits == result.query_count == 1  # the re-warmed artifact


def test_graph_fingerprint_is_pinned():
    assert GRAPH.fingerprint() == GRAPH_FINGERPRINT


# -- required keys and numeric coercion --------------------------------------------

#: Payload keys a decoder indexes unconditionally: a payload without one is
#: malformed, never silently defaulted.
REQUIRED_KEYS = [
    ("graph", "nodes"),
    ("graph", "edges"),
    ("request", "source"),
    ("request", "destination"),
    ("plan", "backend"),
    ("shard-query", "fingerprint"),
    ("shard-query", "backend"),
    ("route-result", "backend"),
    ("route-result", "delivered"),
    ("route-result", "total_tokens"),
    ("route-result", "query_rounds"),
    ("route-result", "preprocess_rounds"),
    ("query-result", "query_id"),
    ("query-result", "fingerprint"),
    ("query-result", "backend"),
    ("query-result", "outcome"),
    ("query-result", "cache_hit"),
    ("shard-report", "report"),
    ("dispatch-shard", "report"),
]


@pytest.mark.parametrize("tag, key", REQUIRED_KEYS)
def test_missing_required_key_is_rejected(tag, key):
    payload = INSTANCES[tag].to_payload()
    del payload[key]
    with pytest.raises(WireDecodeError):
        decode_message(payload)


@pytest.mark.parametrize(
    "tag, key",
    [
        ("route-result", "delivered"),
        ("query-result", "query_id"),
        ("admission-stats", "offered"),
        ("submit-reply", "shed"),
        ("heartbeat-reply", "batches_served"),
        ("journal-checkpoint", "next_shard_index"),
        ("batch-report", "preprocess_seconds"),
    ],
)
def test_non_numeric_value_in_numeric_field_is_rejected(tag, key):
    payload = INSTANCES[tag].to_payload()
    payload[key] = "many"
    with pytest.raises(WireDecodeError):
        decode_message(payload)


def test_missing_optional_keys_take_their_defaults():
    payload = {"type": "submit-reply", "v": WIRE_VERSION}
    assert decode_message(payload) == SubmitReply()
