"""The cluster's network front door: an asyncio gateway over the coordinator.

:class:`ClusterGateway` multiplexes client connections onto one
:class:`~repro.cluster.ClusterCoordinator`.  It owns an asyncio event loop in
a background thread (the coordinator keeps its blocking, thread-pooled
internals) and speaks the frame protocol of :mod:`repro.net.frames`:

* **Backpressure, twice.** Each connection is served one frame at a time —
  a client cannot have two requests in flight on one connection, and a slow
  reader stops being written to (TCP does the rest).  Across connections a
  global semaphore bounds in-flight requests, so a connection storm queues at
  the door instead of overwhelming the admission tier.
* **Coalescing.** Submits from *all* connections feed one admission queue
  drained by a single-writer loop.  The loop never waits on a timer: a
  window holds whatever is already queued (up to ``max_batch`` submits —
  typically the submits that arrived while the previous window was being
  admitted) and closes the moment the queue is empty.  It admits the whole
  window in one coordinator pass
  (:meth:`~repro.cluster.ClusterCoordinator.submit_many`, which
  group-commits the window's journal records in one fsync).  Replies are
  split back per connection afterwards.  Admission order is queue arrival
  order, so placement stays a pure function of frame arrival order exactly
  as it was under the old per-submit lock.
* **Fingerprint dedup.** A client submits with only its graph's
  fingerprint; the gateway resolves it from an LRU-bounded cache and answers
  ``NeedGraphReply`` on a miss (first sight, eviction, or a membership
  change, which invalidates the cache) so the client re-sends the full
  payload once.  ``repro_net_payloads_deduped_total`` counts the elided
  uploads.
* **Deadlines.** ``SubmitRequest.deadline`` / ``DispatchRequest.deadline``
  are *relative* second budgets (client clocks are never trusted).  An
  expired submit is refused with an ``ErrorReply(code="deadline")``; a
  dispatch slice whose shard has not *started* by the deadline is requeued —
  admitted work is never lost — and named in the done frame's ``expired``
  list.  Both paths count ``repro_net_deadline_expirations_total``.
* **Streaming.** A dispatch cycle answers with one
  :class:`~repro.wire.messages.DispatchShardReply` per busy shard *as each
  completes* — the client renders results shard by shard instead of waiting
  for the stragglers — then one :class:`~repro.wire.messages.DispatchDoneReply`.

Dispatch drains and the admission loop serialise on one mutex only around
their coordinator calls, so a drain no longer blocks submits from *queueing*
(they coalesce into the next window) and shard processing overlaps admission
entirely.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import networkx as nx

from repro.cluster.coordinator import ClusterCoordinator
from repro.net import address as net_address
from repro.net.frames import NetInstruments, read_frame, write_frame
from repro.wire.messages import (
    DispatchDoneReply,
    DispatchRequest,
    DispatchShardReply,
    ErrorReply,
    NeedGraphReply,
    Ping,
    Pong,
    Shutdown,
    ShutdownAck,
    StatsReply,
    StatsRequest,
    SubmitReply,
    SubmitRequest,
    WireAdmissionStats,
    WireBatchReport,
    WireGraph,
    WireMessage,
)

__all__ = ["ClusterGateway"]


@dataclass
class _Ticket:
    """One queued submit: the coordinator kwargs plus the reply future."""

    kwargs: dict[str, Any]
    future: asyncio.Future = field(repr=False)


class ClusterGateway:
    """Serve a coordinator over unix or TCP sockets; one instance per cluster.

    Args:
        coordinator: the (already configured) cluster front door to expose.
        family: ``"unix"`` (default — binds ``socket_path``) or ``"inet"``
            (binds ``host`` on an ephemeral port).
        socket_path: listening path for the unix family.
        host: listening host for the inet family.
        max_inflight: global bound on concurrently served requests.
        max_batch: most submits one coalescing window admits; a window
            otherwise closes as soon as the admission queue is empty, so no
            submit waits for company.
        graph_cache_size: LRU capacity of the fingerprint-negotiation cache
            (distinct graphs resolvable without a payload); evicting an entry
            costs the next fingerprint-only submit one ``NeedGraphReply``
            round trip.
        metrics: registry for the ``repro_net_*{role="gateway"}`` series
            (default: the coordinator's registry).

    The constructor blocks until the listener is bound; :attr:`address` then
    holds the actual address (``("unix", path)`` or ``("inet", host, port)``).
    ``close()`` stops the loop and thread (idempotent); the coordinator itself
    is *not* closed — the caller owns it.
    """

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        family: str = "unix",
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        max_inflight: int = 64,
        max_batch: int = 16,
        graph_cache_size: int = 128,
        metrics=None,
    ) -> None:
        if family not in net_address.FAMILIES:
            raise ValueError(f"unknown family {family!r}; use one of {net_address.FAMILIES}")
        if family == "unix" and not socket_path:
            raise ValueError("a unix gateway needs socket_path")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if graph_cache_size < 1:
            raise ValueError("graph_cache_size must be at least 1")
        self.coordinator = coordinator
        self._family = family
        self._socket_path = socket_path
        self._host = host
        self._max_inflight = max_inflight
        self._max_batch = max_batch
        self._graph_cache_size = graph_cache_size
        self._instruments = NetInstruments(
            metrics if metrics is not None else coordinator.metrics, role="gateway"
        )
        self.address: tuple = ()
        # fingerprint -> reconstructed graph, LRU by last use.  One cache
        # serves two duties: per-content graph-object memoization (the
        # coordinator's per-object fingerprint cache needs stable objects)
        # and fingerprint negotiation (a hit is a payload the client may
        # elide).  A coordinator membership change clears it wholesale.
        self._graph_cache: "OrderedDict[str, nx.Graph]" = OrderedDict()
        self._membership_seen = coordinator.membership_version
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._closed = False
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, name="repro-gateway", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("gateway failed to start") from self._startup_error
        if not self.address:
            raise TimeoutError("gateway did not bind in time")

    # -- the serving loop ------------------------------------------------------

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # noqa: BLE001 - surfaced to the constructor
            self._startup_error = error
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        # All submits flow through one queue into one single-writer admission
        # loop: placement and admission order is then a pure function of
        # queue (= frame) arrival order, exactly like call order on the
        # in-process coordinator.  The mutex serialises the admission loop
        # against dispatch drains — the only two coordinator writers.
        self._admit_queue: asyncio.Queue[_Ticket] = asyncio.Queue()
        self._admit_mutex = asyncio.Lock()
        self._inflight = asyncio.Semaphore(self._max_inflight)
        admitter = asyncio.create_task(self._admission_loop())
        if self._family == "unix":
            server = await asyncio.start_unix_server(self._handle, path=self._socket_path)
            self.address = ("unix", self._socket_path)
        else:
            server = await asyncio.start_server(self._handle, host=self._host, port=0)
            self.address = ("inet", self._host, server.sockets[0].getsockname()[1])
        self._ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            admitter.cancel()
            try:
                await admitter
            except asyncio.CancelledError:
                pass

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._instruments.connection_opened()
        try:
            while True:
                message = await read_frame(reader, self._instruments)
                if message is None:
                    break
                async with self._inflight:
                    try:
                        done = await self._answer(message, writer)
                    except Exception as error:  # noqa: BLE001 - reported to the peer
                        await self._send(
                            writer,
                            ErrorReply(
                                code="gateway-error",
                                message=f"{type(error).__name__}: {error}",
                            ),
                        )
                        done = False
                if done:
                    break
        finally:
            self._instruments.connection_closed()
            writer.close()
            # CancelledError included: loop shutdown cancels handler tasks
            # mid-wait, and an unhandled cancellation here is just log noise.
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, message: WireMessage) -> None:
        await write_frame(writer, message, instruments=self._instruments)

    async def _answer(self, message: WireMessage, writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns True when the connection should close."""
        if isinstance(message, SubmitRequest):
            await self._send(writer, await self._submit(message))
        elif isinstance(message, DispatchRequest):
            await self._dispatch(message, writer)
        elif isinstance(message, StatsRequest):
            await self._send(writer, self._stats())
        elif isinstance(message, Ping):
            await self._send(writer, Pong())
        elif isinstance(message, Shutdown):
            await self._send(writer, ShutdownAck())
            if self._stop is not None:
                self._stop.set()
            return True
        else:
            await self._send(
                writer,
                ErrorReply(code="unsupported", message=f"gateway cannot serve {message.type!r}"),
            )
        return False

    # -- the admission loop ----------------------------------------------------

    async def _admission_loop(self) -> None:
        """Single writer: coalesce queued submits and admit them in one pass."""
        while True:
            batch = [await self._admit_queue.get()]
            # The window closes as soon as the queue is empty: no submit ever
            # waits for company, yet submits that queued while the previous
            # window was being admitted still share one pass and one fsync.
            while len(batch) < self._max_batch:
                try:
                    batch.append(self._admit_queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            async with self._admit_mutex:
                outcomes = await asyncio.to_thread(
                    self.coordinator.submit_many, [ticket.kwargs for ticket in batch]
                )
            if len(batch) > 1:
                self._instruments.coalesced_batch(len(batch))
            for ticket, outcome in zip(batch, outcomes):
                if not ticket.future.done():  # the submitter may have gone away
                    ticket.future.set_result(outcome)

    # -- request handlers ------------------------------------------------------

    def _graph_for(self, wire_graph: WireGraph) -> nx.Graph:
        """Reconstruct (and LRU-memoize) an uploaded graph by fingerprint.

        Clients replay the same graphs query after query; caching on the
        canonical fingerprint keeps one graph *object* per distinct graph, so
        the coordinator's per-object fingerprint memoization works exactly as
        it does in process — and the same entry answers the next
        fingerprint-only submit without a payload.
        """
        key = wire_graph.fingerprint()
        graph = self._graph_cache.get(key)
        if graph is None:
            graph = wire_graph.to_graph()
            self._graph_cache[key] = graph
            while len(self._graph_cache) > self._graph_cache_size:
                self._graph_cache.popitem(last=False)
        self._graph_cache.move_to_end(key)
        return graph

    def _check_membership(self) -> None:
        """Drop every negotiated fingerprint when cluster membership changed.

        A membership change rebinds placements; entries negotiated against
        the old ring must not silently satisfy post-change submits, so the
        client re-uploads (one ``NeedGraphReply`` round trip per live graph).
        """
        version = self.coordinator.membership_version
        if version != self._membership_seen:
            self._membership_seen = version
            self._graph_cache.clear()

    async def _submit(self, request: SubmitRequest) -> WireMessage:
        if request.deadline is not None and request.deadline <= 0:
            self._instruments.deadline_expired("submit")
            return ErrorReply(code="deadline", message="submit deadline expired")
        self._check_membership()
        if request.graph is not None:
            graph = self._graph_for(request.graph)
            self._instruments.graph_uploaded()
        elif request.graph_fingerprint:
            graph = self._graph_cache.get(request.graph_fingerprint)
            if graph is None:
                # Never seen (or evicted, or invalidated): one round trip
                # buys the full payload; the client retries with it.
                self._instruments.need_graph()
                return NeedGraphReply(fingerprints=(request.graph_fingerprint,))
            self._graph_cache.move_to_end(request.graph_fingerprint)
            self._instruments.payload_deduped()
        else:
            return ErrorReply(
                code="bad-request", message="submit carries neither graph nor fingerprint"
            )
        future: asyncio.Future = self._loop.create_future()
        await self._admit_queue.put(
            _Ticket(
                kwargs=dict(
                    graph=graph,
                    requests=tuple(entry.to_request() for entry in request.requests),
                    load=request.load,
                    backend=request.backend,
                    backend_params=request.backend_params,
                    workload=request.workload,
                    idempotency_key=request.idempotency_key,
                ),
                future=future,
            )
        )
        decision = await future
        if isinstance(decision, Exception):
            raise decision
        return SubmitReply(
            shard_id=decision.shard_id,
            accepted=decision.accepted,
            shed=len(decision.shed),
            duplicate=decision.duplicate,
        )

    async def _dispatch(self, request: DispatchRequest, writer: asyncio.StreamWriter) -> None:
        started = time.perf_counter()
        expires_at = started + request.deadline if request.deadline is not None else None
        # The mutex covers only the drain: queued submits keep coalescing
        # while shards grind through the drained slices below.
        async with self._admit_mutex:
            busy = await asyncio.to_thread(self.coordinator.drain_slices)
        expired: list[str] = []
        running: set[asyncio.Task] = set()
        for shard_id in sorted(busy):
            if expires_at is not None and time.perf_counter() >= expires_at:
                # Not started in time: the slice goes back to the head of its
                # queue (it was admitted once — it is never lost) and the
                # shard is reported as expired.
                self.coordinator.admission.requeue(shard_id, busy[shard_id])
                self._instruments.deadline_expired("dispatch")
                expired.append(shard_id)
                continue

            async def serve(shard_id: str = shard_id, items=busy[shard_id]):
                report = await asyncio.to_thread(
                    self.coordinator.process_shard, shard_id, items
                )
                return shard_id, report

            running.add(asyncio.create_task(serve()))
        shard_reports = {}
        while running:
            done, running = await asyncio.wait(running, return_when=asyncio.FIRST_COMPLETED)
            for task in done:
                shard_id, report = task.result()
                shard_reports[shard_id] = report
                await self._send(
                    writer,
                    DispatchShardReply(
                        shard_id=shard_id, report=WireBatchReport.from_report(report)
                    ),
                )
        merged = self.coordinator.merge_reports(
            shard_reports, dispatch_seconds=time.perf_counter() - started
        )
        await self._send(
            writer,
            DispatchDoneReply(
                dispatch_seconds=merged.dispatch_seconds,
                admission=WireAdmissionStats.from_stats(merged.admission),
                expired=tuple(expired),
            ),
        )

    def _stats(self) -> StatsReply:
        return StatsReply(
            admission=WireAdmissionStats.from_stats(self.coordinator.admission_totals()),
            queue_depths=dict(self.coordinator.queue_depths()),
            shard_count=self.coordinator.shard_count,
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the listener and join the loop thread; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._thread.join(timeout=10)
        if self._family == "unix" and self._socket_path:
            try:
                os.unlink(self._socket_path)
            except OSError:
                pass

    def __enter__(self) -> "ClusterGateway":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False
