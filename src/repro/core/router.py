"""The deterministic expander router (Theorem 1.1, Corollary 1.2).

:class:`ExpanderRouter` is the library's front door.  It separates the two
phases the paper's tradeoff is about:

* :meth:`ExpanderRouter.preprocess` builds the hierarchical decomposition
  (Theorem 3.2), the best-vertex delegation (Appendix D), and a shuffler for
  every internal node (Lemma 5.5).  Cost: ``n^{O(eps)} + poly(psi^-1) *
  (log n)^{O(1/eps)}`` rounds, charged to the preprocessing ledger.
* :meth:`ExpanderRouter.route` answers one routing query (Task 1) re-using the
  preprocessed structures.  Cost: ``L * poly(psi^-1) * (log n)^{O(1/eps)}``
  rounds, charged to a fresh per-query ledger.

The recursion follows Sections 4 and 6 exactly: Task 1 is reduced to Task 2 by
delegating destinations to best vertices; Task 2 on an internal node rewrites
destination markers into part marks, solves Task 3 through the node's shuffler
(dispersion + meet-in-the-middle merge), walks tokens off the bad vertices via
the precomputed part matchings, and recurses into the children; leaf
components are finished with the precomputed sorting network (Lemma 6.5).

Queries run on one of two paths with identical outcomes, chosen once per
:meth:`ExpanderRouter.route`/:meth:`~ExpanderRouter.route_many` call:

* the numpy kernel's *array engine* carries every query's tokens as rows of
  flat int arrays (query, token id, vertex number, destination marker, part
  mark) through the whole recursion, looks them up against per-node route
  tables (:mod:`repro.core.tables`), solves Task 3 for all queries at a node
  in one :func:`~repro.core.merge.solve_task3_many` call, places the rows of
  all of a node's leaf children in one pass, and keeps the batch's final
  rows (the requests stay in input order): each outcome builds its
  :class:`~repro.core.tokens.Token` objects only when its ``tokens`` is read;
* the reference kernel walks :class:`~repro.core.tokens.Token` objects
  through :meth:`ExpanderRouter._solve_task2`, the executable specification
  the tests compare the engine against.

A process runs one array-engine call at a time: ``route`` and ``route_many``
take one module-level lock around it, across all routers.  The engine is a
chain of short numpy calls that hold the GIL, so threads routing at once
gain no parallelism and pay for switching.  The service and the local
cluster therefore route on the caller's thread; the lock is for the callers
that still share a router across threads (the gateway's per-shard
``asyncio.to_thread`` calls, a shard server's worker threads).
Preprocessing and the reference kernel take no lock.
"""

from __future__ import annotations

import operator
import os
import struct
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Hashable, NamedTuple, Sequence

import networkx as nx
import numpy as np

from repro.core.cost import CostLedger, send_round_cost, sort_round_cost
from repro.core.leaf import route_in_leaf
from repro.core.merge import Task3Batch, solve_task3, solve_task3_many
from repro.core.tables import LeafBlock, VertexIndex, node_table, vertex_index
from repro.core.tasks import Task1Instance
from repro.core.tokens import RoutingRequest, Token, tokens_from_requests
from repro.cutmatching.game import CutMatchingGame
from repro.graphs.conductance import estimate_conductance
from repro.graphs.index import GraphIndex
from repro.graphs.validation import max_degree, require_connected
from repro.hierarchy.best import BestVertexIndex, build_best_index, locate_best_rank
from repro.hierarchy.builder import HierarchyParameters, build_hierarchy
from repro.hierarchy.node import HierarchicalDecomposition, HierarchyNode
from repro.kernels import use_numpy

__all__ = ["PreprocessArtifact", "PreprocessSummary", "RoutingOutcome", "ExpanderRouter"]

#: Serializes array-engine calls in this process across the threads that can
#: still share a router, e.g. gateway and shard-server threads (see the module
#: docstring).
_ENGINE_LOCK = threading.Lock()


def _reset_engine_lock() -> None:
    # A fork while another thread holds the lock would leave the child's copy
    # held for good.
    global _ENGINE_LOCK
    _ENGINE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_engine_lock)


@dataclass
class PreprocessSummary:
    """What preprocessing built and what it cost.

    Attributes:
        rounds: total preprocessing rounds (Theorem 1.1's first term).
        hierarchy_levels: number of levels of the decomposition.
        node_count: number of good nodes.
        shuffler_count: number of shufflers built.
        best_vertex_count: ``|Vbest|``.
        rho_best: the delegation factor (Definition 3.7).
        breakdown: per-phase round counts.
    """

    rounds: int
    hierarchy_levels: int
    node_count: int
    shuffler_count: int
    best_vertex_count: int
    rho_best: float
    breakdown: dict[str, int] = field(default_factory=dict)


class _TokensField:
    """:attr:`RoutingOutcome.tokens`: an eager list, or a row span built on first read.

    A data descriptor, so the dataclass ``__init__``, ``__eq__`` and
    ``__repr__`` go through it, while pickling and copying see the stored
    value: a list, or a :class:`_TokenSpan` that pickles as its batch's
    arrays.
    """

    def __get__(self, outcome: "RoutingOutcome | None", owner: type | None = None):
        if outcome is None:
            return None  # the dataclass default: no tokens
        tokens = outcome.__dict__["tokens"]
        if isinstance(tokens, _TokenSpan):
            tokens = outcome.__dict__["tokens"] = tokens.build()
        return tokens

    def __set__(self, outcome: "RoutingOutcome", tokens: "list[Token] | _TokenSpan | None") -> None:
        outcome.__dict__["tokens"] = [] if tokens is None else tokens


@dataclass
class RoutingOutcome:
    """Result of answering one routing query.

    Attributes:
        delivered: number of tokens that reached their requested destination.
        total_tokens: number of tokens routed.
        query_rounds: CONGEST rounds charged to this query (Theorem 1.1's
            second term; excludes preprocessing).
        preprocessing_rounds: rounds of the preprocessing phase in effect.
        load: the load parameter ``L`` of the instance.
        max_intermediate_part_load: diagnostic from the dispersion phases.
        dispersion_window_fraction: fraction of (part, mark) cells inside the
            Definition 6.1 window, averaged over all dispersions of the query.
        fallback_assignments: tokens placed by the merge fallback instead of a
            dummy pairing (0 in the common case).
        breakdown: per-phase round counts of the query ledger.
        tokens: the routed tokens (with their traces), for inspection.  The
            reference kernel builds them eagerly; the numpy array engine keeps
            its batch's final rows and builds a query's tokens on the first
            read of this attribute (then caches them), so outcomes nobody
            inspects never pay for :class:`Token` objects.
    """

    delivered: int
    total_tokens: int
    query_rounds: int
    preprocessing_rounds: int
    load: int
    max_intermediate_part_load: int = 0
    dispersion_window_fraction: float = 1.0
    fallback_assignments: int = 0
    breakdown: dict[str, int] = field(default_factory=dict)
    tokens: list[Token] = _TokensField()  # type: ignore[assignment]

    @property
    def all_delivered(self) -> bool:
        return self.delivered == self.total_tokens

    @property
    def total_rounds_including_preprocessing(self) -> int:
        """Corollary 1.2's single-instance cost: preprocessing + one query."""
        return self.query_rounds + self.preprocessing_rounds


@dataclass
class PreprocessArtifact:
    """Everything :meth:`ExpanderRouter.preprocess` builds, as one picklable value.

    The paper's tradeoff only pays off when the expensive preprocessing is
    reused across many queries.  The artifact is the unit of that reuse: it can
    be pickled to disk, shipped between processes, cached by fingerprint
    (:mod:`repro.service`), and re-attached to a fresh router with
    :meth:`ExpanderRouter.from_artifact` — which skips preprocessing entirely.

    Attributes:
        decomposition: the hierarchical decomposition (Theorem 3.2), including
            every node's shuffler (Lemma 5.5).
        best_index: the best-vertex delegation structure (Appendix D).
        summary: the :class:`PreprocessSummary` reported when it was built.
        preprocess_phases: the preprocessing ledger's per-phase round counts,
            so a router restored from the artifact reports the same
            ``preprocessing_rounds`` as the one that built it.
        epsilon: tradeoff parameter the hierarchy was built with.
        psi: sparsity parameter the shufflers were built with.
        hierarchy_params: the full :class:`HierarchyParameters` used.
        fingerprint: canonical graph+parameter hash (set by the service layer;
            ``None`` for artifacts exported outside the cache).
        format_version: bumped on incompatible layout changes so stale on-disk
            pickles can be rejected instead of mis-read.  Version 2 holds
            the hierarchy top-down only (no parent pointers), so an artifact
            has no reference cycles.  Version 3's node route tables hold
            their leaf children as one block, and shufflers pickle without
            their dispersal plans.
    """

    FORMAT_VERSION: ClassVar[int] = 3

    decomposition: HierarchicalDecomposition
    best_index: BestVertexIndex
    summary: PreprocessSummary
    preprocess_phases: dict[str, int]
    epsilon: float
    psi: float
    hierarchy_params: HierarchyParameters
    fingerprint: str | None = None
    format_version: int = FORMAT_VERSION

    @property
    def preprocessing_rounds(self) -> int:
        """Total preprocessing rounds recorded in the artifact."""
        return sum(self.preprocess_phases.values())

    def vertex_set(self) -> frozenset:
        """The vertex set the artifact was preprocessed for."""
        return frozenset(self.decomposition.graph.nodes())


class ExpanderRouter:
    """Deterministic expander routing with a preprocessing/query tradeoff."""

    def __init__(
        self,
        graph: nx.Graph,
        epsilon: float = 0.5,
        psi: float | None = None,
        hierarchy_params: HierarchyParameters | None = None,
        max_constant_degree: int = 64,
    ) -> None:
        """Create a router for a (roughly constant-degree) expander ``graph``.

        Args:
            graph: connected expander with hashable, orderable vertex ids.
            epsilon: the tradeoff parameter of Theorem 1.1 (``k = n^epsilon``).
            psi: sparsity parameter; estimated from the graph when omitted.
            hierarchy_params: full control over the decomposition parameters.
            max_constant_degree: guard — graphs with larger maximum degree
                should go through :class:`repro.core.general.GeneralGraphRouter`
                (the expander-split reduction of Appendix E).
        """
        require_connected(graph)
        worst_degree = max_degree(graph)
        if worst_degree > max_constant_degree:
            raise ValueError(
                f"maximum degree {worst_degree} exceeds {max_constant_degree}; "
                "use repro.core.general.GeneralGraphRouter (expander split, Appendix E)"
            )
        self.graph = graph
        self.epsilon = epsilon
        if psi is None:
            estimated = estimate_conductance(graph, exact_threshold=10)
            psi = max(min(estimated / 2.0, 0.5), 0.01)
        self.psi = psi
        if hierarchy_params is None:
            hierarchy_params = HierarchyParameters(epsilon=epsilon, psi=min(psi, 0.25))
        self.hierarchy_params = hierarchy_params

        self.decomposition: HierarchicalDecomposition | None = None
        self.best_index: BestVertexIndex | None = None
        self.preprocess_ledger = CostLedger()
        self.preprocessed = False
        self.artifact: PreprocessArtifact | None = None

    # -- preprocessing -------------------------------------------------------

    def preprocess(self) -> PreprocessSummary:
        """Build the hierarchy, the delegation index, and every shuffler (Theorem 1.1)."""
        ledger = self.preprocess_ledger
        with ledger.phase("preprocess"):
            # Each internal node's GraphIndex, reused by its shuffler's game
            # below and dropped with this frame (never part of the artifact).
            indexes: dict[int, GraphIndex] = {}
            decomposition = build_hierarchy(
                self.graph, params=self.hierarchy_params, indexes=indexes
            )
            ledger.charge("hierarchy", decomposition.build_rounds)
            best_index = build_best_index(decomposition)

            # Nodes at the same level live on disjoint vertex sets, so their
            # preprocessing steps run in parallel in CONGEST: within a level we
            # charge the maximum node cost, across levels we sum.
            nodes_by_level: dict[int, list[HierarchyNode]] = {}
            for node in decomposition.all_nodes():
                nodes_by_level.setdefault(node.level, []).append(node)

            # Appendix D: computing |Xbest| per node plus propagating it costs a
            # bottom-up/top-down sweep of every virtual graph.
            sweep_rounds = sum(
                max(
                    node.virtual_diameter() * max(1, node.flatten_quality())
                    for node in level_nodes
                )
                for level_nodes in nodes_by_level.values()
            )
            ledger.charge("best-index", sweep_rounds)

            shuffler_count = 0
            for level in sorted(nodes_by_level):
                level_rounds = 0
                for node in nodes_by_level[level]:
                    if node.is_leaf or len(node.parts) <= 1:
                        continue
                    parts = [sorted(part.vertices) for part in node.parts]
                    game = CutMatchingGame(
                        node.virtual_graph,
                        parts,
                        psi=self.hierarchy_params.psi,
                        index=indexes[id(node)],
                    )
                    outcome = game.play()
                    if outcome.shuffler is None:
                        raise RuntimeError(
                            "cut-matching game reported a sparse cut during preprocessing; "
                            "the input graph does not have the expected expansion"
                        )
                    node.shuffler = outcome.shuffler
                    level_rounds = max(level_rounds, outcome.rounds)
                    shuffler_count += 1
                if level_rounds:
                    ledger.charge("shuffler", level_rounds)

            # Leaf components gather their whole topology during preprocessing
            # (Lemma 6.5): |X|^2 words through the flattened virtual graph.
            leaf_rounds = 0
            for node in decomposition.leaves():
                leaf_rounds = max(
                    leaf_rounds, node.size * node.size * max(1, node.flatten_quality())
                )
            ledger.charge("leaf-topology", leaf_rounds)

            # All-to-best routes (Appendix D): one constant-load Task 2 style
            # pass per level, reusing the structures just built.
            delegation_rounds = sum(
                max(
                    sort_round_cost(node.size, 1, node.flatten_quality())
                    for node in level_nodes
                )
                for level_nodes in nodes_by_level.values()
            )
            ledger.charge("all-to-best-routes", delegation_rounds)

        self.decomposition = decomposition
        self.best_index = best_index
        self.preprocessed = True
        summary = PreprocessSummary(
            rounds=ledger.total("preprocess"),
            hierarchy_levels=decomposition.levels(),
            node_count=len(decomposition.all_nodes()),
            shuffler_count=shuffler_count,
            best_vertex_count=best_index.size,
            rho_best=decomposition.rho_best(),
            breakdown=ledger.breakdown(),
        )
        self.artifact = PreprocessArtifact(
            decomposition=decomposition,
            best_index=best_index,
            summary=summary,
            preprocess_phases=ledger.breakdown(),
            epsilon=self.epsilon,
            psi=self.psi,
            hierarchy_params=self.hierarchy_params,
        )
        return summary

    def export_artifact(self, fingerprint: str | None = None) -> PreprocessArtifact:
        """The preprocessed state as a picklable artifact (preprocessing first if needed).

        Args:
            fingerprint: optional canonical graph hash to stamp onto the
                artifact (the service layer keys its cache with it).
        """
        if not self.preprocessed:
            self.preprocess()
        assert self.artifact is not None
        if fingerprint is not None:
            self.artifact.fingerprint = fingerprint
        return self.artifact

    @classmethod
    def from_artifact(cls, graph: nx.Graph, artifact: PreprocessArtifact) -> "ExpanderRouter":
        """A query-ready router that reuses ``artifact`` instead of preprocessing.

        This is the lightweight query path: no connectivity check, no
        conductance estimation, no hierarchy build — the router is ready to
        :meth:`route` immediately, and reports the artifact's preprocessing
        rounds in every outcome.  The caller is responsible for ``graph``
        actually being the graph the artifact was preprocessed for (the
        service layer guarantees this via fingerprinting); only the vertex set
        is cross-checked here because that check is cheap.

        Raises:
            ValueError: if the artifact has an incompatible format version or
                was built for a different vertex set.
        """
        if artifact.format_version != PreprocessArtifact.FORMAT_VERSION:
            raise ValueError(
                f"artifact format version {artifact.format_version} is not supported "
                f"(expected {PreprocessArtifact.FORMAT_VERSION})"
            )
        if frozenset(graph.nodes()) != artifact.vertex_set():
            raise ValueError("artifact was preprocessed for a different vertex set")
        router = cls.__new__(cls)
        router.graph = graph
        router.epsilon = artifact.epsilon
        router.psi = artifact.psi
        router.hierarchy_params = artifact.hierarchy_params
        router.decomposition = artifact.decomposition
        router.best_index = artifact.best_index
        router.preprocess_ledger = CostLedger(phases=dict(artifact.preprocess_phases))
        router.preprocessed = True
        router.artifact = artifact
        return router

    # -- queries ---------------------------------------------------------------

    def route(
        self,
        requests: Sequence[RoutingRequest],
        load: int | None = None,
    ) -> RoutingOutcome:
        """Answer one routing query (Task 1) using the preprocessed structures.

        Args:
            requests: the tokens to deliver; every vertex may appear as the
                source of at most ``L`` requests and the destination of at most
                ``L`` requests.
            load: the load parameter ``L``; inferred from the requests when
                omitted (the doubling trick of Appendix E makes this harmless).
        """
        if not self.preprocessed:
            self.preprocess()
        if not use_numpy():
            return self._route_tokens(requests, load)
        with _ENGINE_LOCK:
            return self._route_arrays([requests], [load])[0]

    def route_many(
        self,
        request_groups: Sequence[Sequence[RoutingRequest]],
        loads: Sequence[int | None] | None = None,
    ) -> list[RoutingOutcome]:
        """Answer several routing queries through one fused recursion.

        The fused twin of calling :meth:`route` once per group: all queries
        walk the hierarchy together as rows of the same arrays, so at every
        node one :func:`~repro.core.merge.solve_task3_many` call serves them
        all.  Every outcome — deliveries, tokens with their traces, per-phase
        round breakdowns, diagnostics — is identical to the sequential
        result; only the wall-clock cost is amortized.  Under the reference
        kernel this loops over the object recursion.
        """
        if loads is None:
            loads = [None] * len(request_groups)
        if len(loads) != len(request_groups):
            raise ValueError("loads must match request_groups in length")
        if not self.preprocessed:
            self.preprocess()
        if not use_numpy():
            return [
                self._route_tokens(requests, load)
                for requests, load in zip(request_groups, loads)
            ]
        with _ENGINE_LOCK:
            return self._route_arrays(request_groups, loads)

    # -- the array engine -----------------------------------------------------

    def _route_arrays(
        self,
        request_groups: Sequence[Sequence[RoutingRequest]],
        loads: Sequence[int | None],
    ) -> list[RoutingOutcome]:
        """Route every group as rows of flat arrays; keep the final rows for the tokens.

        A row is one token: its query, token id, current vertex number,
        destination marker and part mark live in int arrays that the Task 2
        recursion (:meth:`_task2_arrays`) rewrites level by level, and each
        phase a row passes through is logged once per node as a ``(phase,
        rows)`` event.  Per query, ids, moves, traces, charges and
        diagnostics are those of the object recursion (:meth:`_solve_task2`).
        """
        assert self.decomposition is not None and self.best_index is not None
        index = vertex_index(self.decomposition, self.best_index)
        batch = _Batch(index, request_groups)

        # Task 1 preconditions and load inference, query by query.
        resolved: list[int] = []
        for query, load in enumerate(loads):
            load, problems = batch.validate(query, load)
            if problems:
                # A sequential loop reaches earlier queries first; route them
                # so that their errors, if any, win.
                if query:
                    self._route_arrays(request_groups[:query], loads[:query])
                raise ValueError("invalid Task 1 instance: " + "; ".join(problems))
            resolved.append(load)

        rows = _Rows(index, batch)
        root = self.decomposition.root
        queries = len(loads)
        # Task 1 -> Task 1': destination IDs to ranks (one expander sort over
        # the root per query, Lemma D.1, priced once per distinct load); the
        # rows already carry the markers of their delegated best vertices
        # (Task 1' -> Task 2).
        translation = {
            load: sort_round_cost(root.size, load, root.flatten_quality()) for load in set(resolved)
        }
        charges: list[_Charge] = [
            (
                "id-translation",
                np.arange(queries),
                np.array([translation[load] for load in resolved], dtype=np.int64),
            )
        ]
        if batch.count:
            charges += self._task2_arrays(
                root, np.arange(batch.count), np.array(resolved, dtype=np.int64), rows
            )
        # Final leg (Appendix D): walk the tokens off the delegated best
        # vertices along the reversed all-to-best routes.
        reversal = np.flatnonzero(rows.vertex != batch.dst)
        if reversal.size:
            query = rows.query[reversal]
            reversed_queries = query[_first_of_runs(query)]
            most = _most_per_group(query, rows.vertex[reversal], queries)[reversed_queries]
            costs = [send_round_cost(count, index.reversal_quality) for count in most.tolist()]
            charges.append(
                ("delegation-reversal", reversed_queries, np.array(costs, dtype=np.int64))
            )
            rows.vertex[reversal] = batch.dst[reversal]
            rows.events.append(("delegation-reversal", reversal))
        # Charges in phase order, so every breakdown fills in label order.
        breakdowns: list[dict[str, int]] = [{} for _ in range(queries)]
        for phase, charged, rounds in sorted(charges, key=lambda charge: charge[0]):
            label = "query/" + phase
            for query, amount in zip(charged.tolist(), rounds.tolist()):
                breakdown = breakdowns[query]
                breakdown[label] = breakdown.get(label, 0) + amount
        return self._outcomes(batch, rows, reversal, resolved, breakdowns)

    def _outcomes(
        self,
        batch: "_Batch",
        rows: "_Rows",
        reversal: np.ndarray,
        loads: list[int],
        breakdowns: list[dict[str, int]],
    ) -> list[RoutingOutcome]:
        """Every query's outcome; its tokens stay rows of the batch until read."""
        final = _FinalRows(
            batch.groups,
            batch.order,
            rows.vertex,
            rows.marker,
            rows.mark,
            rows.events,
            reversal,
            rows.index.vertices,
        )
        delivered = np.bincount(
            batch.group[rows.vertex == batch.dst], minlength=len(loads)
        ).tolist()
        preprocessing_rounds = self.preprocess_ledger.total("preprocess")
        return [
            RoutingOutcome(
                delivered=delivered[query],
                total_tokens=stop - start,
                query_rounds=sum(breakdowns[query].values()),
                preprocessing_rounds=preprocessing_rounds,
                load=loads[query],
                max_intermediate_part_load=peak,
                dispersion_window_fraction=hits / cells if cells else 1.0,
                fallback_assignments=fallbacks,
                breakdown=breakdowns[query],
                tokens=_TokenSpan(final, query, start, stop),
            )
            for query, ((start, stop), peak, hits, cells, fallbacks) in enumerate(
                zip(
                    batch.spans,
                    rows.max_part_load.tolist(),
                    rows.window_hits.tolist(),
                    rows.window_cells.tolist(),
                    rows.fallbacks.tolist(),
                )
            )
        ]

    def _task2_arrays(
        self,
        node: HierarchyNode,
        active: np.ndarray,
        loads: np.ndarray,
        rows: "_Rows",
    ) -> list["_Charge"]:
        """Task 2 (Definition 4.2) on ``node`` for the ``active`` rows.

        ``active`` is ascending (query, then token order); ``loads`` holds
        every query's load at this level.  Returns the charges of the node's
        subtree, one ``(phase, queries, rounds)`` entry per phase.
        """
        table = node_table(node, rows.index)
        query = rows.query[active]
        first = _first_of_runs(query)
        queries = query[first]
        markers = rows.marker[active]
        if node.is_leaf:
            costs = self._leaf_pass(
                table.leaves, active, np.zeros_like(active), markers, loads, rows
            )
            return [("leaf", queries, costs[queries, 0])]

        # Rewrite destination markers into (part mark, next-level marker).
        part = np.searchsorted(table.best_ends, markers, side="right")
        stray = part >= len(table.best_ends)
        if stray.any():
            total = int(table.best_ends[-1]) if len(table.best_ends) else 0
            raise IndexError(
                f"marker {int(markers[np.argmax(stray)])} out of range for node"
                f" with {total} best vertices"
            )
        remainder = markers - table.best_starts[part]
        rows.mark[active] = part

        # Task 3: deliver every token to a vertex of its marked part.
        task3 = solve_task3_many(
            node,
            table,
            np.cumsum(first) - 1,
            rows.vertex[active],
            part,
            loads[queries],
            rows.token_id[active],
        )
        charges: list[_Charge] = [(phase, queries, amounts) for phase, amounts in task3.charges]
        if task3.assigned:
            rows.vertex[active] = task3.vertex
            rows.events.append((f"task3-L{node.level}", active))
        rows.absorb_task3(queries, task3)

        # Property 3.1(3): walk tokens off the bad vertices into the good child.
        if table.has_bad:
            moved = table.bad_part[rows.vertex[active]] == part
            if moved.any():
                movers = active[moved]
                rows.vertex[movers] = table.mate[rows.vertex[movers]]
                rows.events.append((f"bad-to-good-L{node.level}", movers))
                moved_query = query[moved]
                moved_queries = moved_query[_first_of_runs(moved_query)]
                charges.append(
                    (
                        f"bad-to-good-L{node.level}",
                        moved_queries,
                        np.maximum(1, 2 * loads[moved_queries]) * table.matching_quality**2,
                    )
                )

        # Recurse into every part's good child with the rewritten markers.
        # Children run on disjoint subgraphs, so per query the level costs its
        # slowest child (Theorem 6.8's single T2(6|X|/k, 4L) term).
        child_loads = 4 * loads
        slowest = np.zeros(len(loads), dtype=np.int64)
        recursed = np.zeros(len(loads), dtype=bool)
        slot = table.leaf_slot[part]
        into_leaf = slot >= 0
        if into_leaf.any():
            # The leaf children all at once.
            chosen = np.flatnonzero(into_leaf)
            leaf_rows = active[chosen]
            rows.marker[leaf_rows] = remainder[chosen]
            costs = self._leaf_pass(
                table.leaves, leaf_rows, slot[chosen], remainder[chosen], child_loads, rows
            )
            np.maximum(slowest, costs.max(axis=1), out=slowest)
            recursed |= costs.any(axis=1)
        internal = [
            (position, node_part.child)
            for position, node_part in enumerate(node.parts)
            if node_part.child is not None and table.leaf_slot[position] < 0
        ]
        if internal:
            by_part = np.argsort(part, kind="stable")
            bounds = np.searchsorted(part[by_part], np.arange(len(node.parts) + 1))
        for position, child in internal:
            chosen = by_part[bounds[position] : bounds[position + 1]]
            if not chosen.size:
                continue
            child_rows = active[chosen]
            rows.marker[child_rows] = remainder[chosen]
            total = np.zeros(len(loads), dtype=np.int64)
            for _, child_queries, amounts in self._task2_arrays(
                child, child_rows, child_loads, rows
            ):
                total[child_queries] += amounts
                recursed[child_queries] = True
            np.maximum(slowest, total, out=slowest)
        if recursed.any():
            called = np.flatnonzero(recursed)
            charges.append((f"children-L{node.level + 1}", called, slowest[called]))
        return charges

    @staticmethod
    def _leaf_pass(
        leaves: LeafBlock,
        active: np.ndarray,
        slot: np.ndarray,
        markers: np.ndarray,
        loads: np.ndarray,
        rows: "_Rows",
    ) -> np.ndarray:
        """Lemma 6.5 for the ``active`` rows, row ``i`` in leaf ``slot[i]``, in one pass.

        Each row moves to the ``markers[i]``-th best vertex of its leaf, and
        the pass logs one ``"leaf"`` event.  Returns the ``(B, leaves)``
        rounds of every query in every leaf: three sorting-network passes at
        load ``2L``, 0 where the query has no row in the leaf.
        """
        size = leaves.size[slot]
        stray = (markers < 0) | (markers >= size)
        if stray.any():
            # The first leaf with a stray row reports its first one.
            wrong = np.flatnonzero(stray)
            row = wrong[np.argmin(slot[wrong])]
            raise ValueError(
                f"token {int(rows.token_id[active[row]])} carries marker {int(markers[row])!r},"
                f" outside the leaf's best range [0, {int(size[row])})"
            )
        rows.vertex[active] = leaves.best[leaves.start[slot] + markers]
        rows.events.append(("leaf", active))
        # sort_round_cost(|leaf|, 2L, quality) per (query, leaf), times three.
        load = 2 * np.maximum(1, loads)
        costs = 3 * np.maximum(1, 2 * load[:, None] * leaves.depth) * leaves.quality**2
        present = np.zeros(costs.shape, dtype=bool)
        present[rows.query[active], slot] = True
        return np.where(present, costs, 0)

    # -- the object recursion (reference kernel) ----------------------------------

    def _route_tokens(
        self,
        requests: Sequence[RoutingRequest],
        load: int | None = None,
    ) -> RoutingOutcome:
        """:meth:`route` over :class:`Token` objects, the reference kernel's path."""
        assert self.decomposition is not None and self.best_index is not None

        tokens = tokens_from_requests(requests)
        if load is None:
            source_counts: dict[Hashable, int] = {}
            destination_counts: dict[Hashable, int] = {}
            for token in tokens:
                source_counts[token.source] = source_counts.get(token.source, 0) + 1
                destination_counts[token.destination] = (
                    destination_counts.get(token.destination, 0) + 1
                )
            load = max(
                max(source_counts.values(), default=1),
                max(destination_counts.values(), default=1),
            )
        instance = Task1Instance(
            vertices=sorted(self.graph.nodes()), tokens=tokens, load=load
        )
        problems = instance.validate()
        if problems:
            raise ValueError("invalid Task 1 instance: " + "; ".join(problems))

        ledger = CostLedger()
        stats = _QueryStats()
        with ledger.phase("query"):
            # Task 1 -> Task 1': translate destination IDs to ranks (one
            # expander sort over the root, Lemma D.1).
            root = self.decomposition.root
            ledger.charge(
                "id-translation", sort_round_cost(root.size, load, root.flatten_quality())
            )
            # Task 1' -> Task 2: delegate each destination to a best vertex.
            best_index = self.best_index
            for token in tokens:
                delegate = best_index.delegate_of[token.destination]
                token.destination_marker = best_index.rank_of[delegate]
            self._solve_task2(root, tokens, load, ledger, stats)
            # Final leg (Appendix D): tokens now sit on the delegated best
            # vertices; walk them along the reversed all-to-best routes.
            needs_reversal = [
                token for token in tokens if token.current_vertex != token.destination
            ]
            if needs_reversal:
                per_best: dict[Hashable, int] = {}
                for token in needs_reversal:
                    per_best[token.current_vertex] = per_best.get(token.current_vertex, 0) + 1
                max_per_best = max(per_best.values(), default=1)
                reversal_quality = max(
                    (leaf.flatten_quality() for leaf in self.decomposition.leaves()), default=1
                )
                ledger.charge(
                    "delegation-reversal", send_round_cost(max_per_best, reversal_quality)
                )
                for token in needs_reversal:
                    token.move_to(token.destination, phase="delegation-reversal")

        delivered = sum(1 for token in tokens if token.delivered)
        return RoutingOutcome(
            delivered=delivered,
            total_tokens=len(tokens),
            query_rounds=ledger.total("query"),
            preprocessing_rounds=self.preprocess_ledger.total("preprocess"),
            load=load,
            max_intermediate_part_load=stats.max_part_load,
            dispersion_window_fraction=stats.window_fraction(),
            fallback_assignments=stats.fallbacks,
            breakdown=ledger.breakdown(),
            tokens=tokens,
        )

    def _solve_task2(
        self,
        node: HierarchyNode,
        tokens: Sequence[Token],
        load: int,
        ledger: CostLedger,
        stats: "_QueryStats",
    ) -> None:
        """Deliver each token to the node's marker-th best vertex (Definition 4.2)."""
        if not tokens:
            return
        if node.is_leaf:
            result = route_in_leaf(node, tokens, load, ledger)
            for token in tokens:
                token.move_to(result.placements[token.token_id], phase="leaf")
            return

        # Rewrite destination markers into (part mark, next-level marker).
        next_marker: dict[int, int] = {}
        for token in tokens:
            marker = token.destination_marker
            if marker is None:
                raise ValueError(f"token {token.token_id} has no destination marker")
            part_index, remainder = locate_best_rank(node, marker)
            token.part_mark = part_index
            next_marker[token.token_id] = remainder

        # Task 3: deliver every token to a vertex of its marked part.
        task3 = solve_task3(node, tokens, load, ledger)
        stats.absorb_task3(task3)
        for token in tokens:
            if token.token_id in task3.assignments:
                token.move_to(task3.assignments[token.token_id], phase=f"task3-L{node.level}")

        # Property 3.1(3): walk tokens off the bad vertices into the good child.
        matching_quality = max(1, node.part_matching_embedding.quality) * max(
            1, node.flatten_quality()
        )
        moved_off_bad = 0
        for part in node.parts:
            if not part.bad_vertices:
                continue
            for token in tokens:
                if token.part_mark == part.index and token.current_vertex in part.bad_vertices:
                    mate = part.matching.get(token.current_vertex)
                    if mate is None:
                        mate = min(part.good_vertices)
                    token.move_to(mate, phase=f"bad-to-good-L{node.level}")
                    moved_off_bad += 1
        if moved_off_bad:
            ledger.charge(
                f"bad-to-good-L{node.level}",
                send_round_cost(2 * load, matching_quality),
            )

        # Recurse into every part's good child with the rewritten markers.
        # Group before recursing: the recursive calls rewrite part marks for
        # their own level, so re-filtering inside the loop would double-route.
        # The children's instances run on disjoint subgraphs and therefore in
        # parallel in CONGEST; the level costs as much as its slowest child
        # (this is why Theorem 6.8's recurrence has a single T2(6|X|/k, 4L)
        # term), so we charge the maximum child cost, not the sum.
        tokens_by_part: dict[int, list[Token]] = {}
        for token in tokens:
            tokens_by_part.setdefault(token.part_mark, []).append(token)
        child_costs: list[int] = []
        for part in node.parts:
            child = part.child
            if child is None:
                continue
            child_tokens = tokens_by_part.get(part.index, [])
            if not child_tokens:
                continue
            for token in child_tokens:
                token.destination_marker = next_marker[token.token_id]
            child_ledger = CostLedger()
            self._solve_task2(child, child_tokens, 4 * load, child_ledger, stats)
            child_costs.append(child_ledger.total())
        if child_costs:
            ledger.charge(f"children-L{node.level + 1}", max(child_costs))


class _QueryStats:
    """Aggregates diagnostics across the recursion of one query."""

    def __init__(self) -> None:
        self.max_part_load = 0
        self.fallbacks = 0
        self._window_hits = 0
        self._window_cells = 0

    def absorb_task3(self, task3) -> None:
        self.max_part_load = max(
            self.max_part_load, task3.real_stats.max_part_load, task3.dummy_stats.max_part_load
        )
        self.fallbacks += task3.fallback_assignments
        for dispersion in (task3.real_stats, task3.dummy_stats):
            self._window_hits += dispersion.within_window
            self._window_cells += dispersion.total_cells

    def window_fraction(self) -> float:
        if self._window_cells == 0:
            return 1.0
        return self._window_hits / self._window_cells


#: One charge of the array engine: ``(phase, queries, rounds per query)``.
_Charge = tuple[str, np.ndarray, np.ndarray]


class _Batch:
    """A batch of request groups as rows in token order.

    Rows are ordered by query, then as :func:`tokens_from_requests` orders a
    query's requests: by ``(repr(source), repr(destination))``, ties in input
    order.  Endpoints are vertex numbers, ``n`` for one outside the graph.
    """

    def __init__(
        self, index: VertexIndex, request_groups: Sequence[Sequence[RoutingRequest]]
    ) -> None:
        n = len(index.vertices)
        queries = len(request_groups)
        #: each query's requests in input order.
        self.groups = [tuple(requests) for requests in request_groups]
        self.sizes = np.fromiter(map(len, self.groups), np.int64, queries)
        self.count = count = int(self.sizes.sum())
        # Every source, then every destination: one lookup pass over both.
        endpoints = [request.source for requests in self.groups for request in requests]
        endpoints += [request.destination for requests in self.groups for request in requests]
        try:
            # itemgetter over many keys returns a tuple (there are 0 or >= 2),
            # and packing it is the cheapest way into an int64 array.
            numbers = operator.itemgetter(*endpoints)(index.index_of) if count else ()
            numbers = np.frombuffer(struct.pack(f"{2 * count}q", *numbers), np.int64)
            inside = True
        except KeyError:
            # An endpoint outside the graph: such endpoints are numbered n.
            number = index.index_of.get
            numbers = np.array([number(vertex, n) for vertex in endpoints], dtype=np.int64)
            inside = False
        src, dst = numbers[:count], numbers[count:]
        group = np.repeat(np.arange(queries), self.sizes)
        if inside and _all_of_type(endpoints, index.plain_type):
            # One stable sort over (query, source rank, destination rank).
            ranks = index.repr_rank[numbers]
            key = (group * n + ranks[:count]) * n + ranks[count:]
            order = np.argsort(key, kind="stable")
        else:
            keys = [(repr(s), repr(d)) for s, d in zip(endpoints[:count], endpoints[count:])]
            groups = group.tolist()
            order = np.array(
                sorted(range(count), key=lambda row: (groups[row], keys[row])),
                dtype=np.int64,
            )
        starts = np.cumsum(self.sizes) - self.sizes
        #: row ``r`` of query ``q`` is ``groups[q][order[r] - starts[q]]``.
        self.order = order
        self.group = group
        self.src, self.dst = src[order], dst[order]
        self.token_id = np.arange(count) - starts[group]
        #: ``(start, stop)`` rows of each query.
        self.spans = list(zip(starts.tolist(), (starts + self.sizes).tolist()))
        #: per query, the first token destined outside the graph, if any.
        self.stray: dict[int, int] = {}
        if inside:
            # Sources count in groups 0 .. B - 1, destinations in B .. 2B - 1.
            most = _most_per_group(
                np.concatenate((group, group + queries)), numbers, 2 * queries, n
            )
            self.most_sourced = most[:queries].tolist()
            self.most_destined = most[queries:].tolist()
        else:
            # Distinct outside endpoints share the number n; count objects.
            self.most_sourced, self.most_destined = [], []
            for requests in self.groups:
                counts = Counter(request.source for request in requests).values()
                self.most_sourced.append(max(counts, default=0))
                counts = Counter(request.destination for request in requests).values()
                self.most_destined.append(max(counts, default=0))
            for row in np.flatnonzero(self.dst == n).tolist():
                self.stray.setdefault(int(group[row]), int(self.token_id[row]))

    def validate(self, query: int, load: int | None) -> tuple[int, list[str]]:
        """The query's load (inferred when ``None``) and violated Task 1 preconditions."""
        most_sourced = self.most_sourced[query]
        most_destined = self.most_destined[query]
        if load is None:
            load = max(most_sourced, most_destined, 1)
        problems: list[str] = []
        start, stop = self.spans[query]
        if stop > start and most_sourced > load:
            problems.append(f"a vertex holds {most_sourced} tokens > load {load}")
        if stop > start and most_destined > load:
            problems.append(f"a vertex is the destination of {most_destined} tokens > load {load}")
        if query in self.stray:
            problems.append(f"token {self.stray[query]} destined outside the graph")
        return load, problems


class _Rows:
    """The array engine's per-row state plus per-query diagnostics."""

    def __init__(self, index: VertexIndex, batch: _Batch) -> None:
        queries = len(batch.sizes)
        self.index = index
        self.query = batch.group
        self.token_id = batch.token_id
        self.vertex = batch.src.copy()
        self.marker = index.marker[batch.dst]
        self.mark = np.full(batch.count, -1, dtype=np.int64)
        #: ``(phase, rows)`` in the order the rows passed through the phase.
        self.events: list[tuple[str, np.ndarray]] = []
        self.max_part_load = np.zeros(queries, dtype=np.int64)
        self.fallbacks = np.zeros(queries, dtype=np.int64)
        self.window_hits = np.zeros(queries, dtype=np.int64)
        self.window_cells = np.zeros(queries, dtype=np.int64)

    def absorb_task3(self, queries: np.ndarray, task3: Task3Batch) -> None:
        self.max_part_load[queries] = np.maximum(self.max_part_load[queries], task3.max_part_load)
        self.fallbacks[queries] += task3.fallback_assignments
        self.window_hits[queries] += task3.within_window
        self.window_cells[queries] += task3.total_cells


@dataclass(frozen=True, eq=False)
class _FinalRows:
    """One routed batch's final rows, shared by the lazy tokens of its outcomes."""

    #: each query's requests in input order.
    groups: list[tuple[RoutingRequest, ...]]
    #: row ``r`` of a query starting at row ``start`` holds its request
    #: ``order[r] - start``.
    order: np.ndarray
    vertex: np.ndarray
    marker: np.ndarray
    mark: np.ndarray
    #: ``(phase, rows)`` in the order the rows passed through the phase.
    events: list[tuple[str, np.ndarray]]
    #: rows walked off their delegated best vertex, ascending.
    reversal: np.ndarray
    #: vertex number -> vertex.
    vertices: list[Hashable]

    def tokens(self, query: int, start: int, stop: int) -> list[Token]:
        """Query ``query``'s rows ``start:stop`` as :class:`Token` objects, traces in order."""
        traces: list[list[str]] = [[] for _ in range(start, stop)]
        for phase, moved in self.events:
            # Event rows are ascending: every event is (a subset of) an
            # ascending ``active`` array of the engine.
            low, high = np.searchsorted(moved, (start, stop)).tolist()
            for row in moved[low:high].tolist():
                traces[row - start].append(phase)
        vertices = self.vertices
        finals = [vertices[vertex] for vertex in self.vertex[start:stop].tolist()]
        group = self.groups[query]
        requests = [group[position] for position in (self.order[start:stop] - start).tolist()]
        low, high = np.searchsorted(self.reversal, (start, stop)).tolist()
        for row in self.reversal[low:high].tolist():
            finals[row - start] = requests[row - start].destination
        markers = self.marker[start:stop].tolist()
        marks = [None if mark < 0 else mark for mark in self.mark[start:stop].tolist()]
        return [
            Token(
                row,
                request.source,
                request.destination,
                request.payload,
                finals[row],
                markers[row],
                marks[row],
                False,
                traces[row],
            )
            for row, request in enumerate(requests)
        ]


class _TokenSpan(NamedTuple):
    """One query's rows ``start:stop`` of a batch's :class:`_FinalRows`."""

    rows: _FinalRows
    query: int
    start: int
    stop: int

    def build(self) -> list[Token]:
        return self.rows.tokens(self.query, self.start, self.stop)


def _most_per_group(
    group: np.ndarray, values: np.ndarray, groups: int, width: int | None = None
) -> np.ndarray:
    """``(groups,)`` largest multiplicity of one value within each group (0 if none).

    ``width`` bounds the values from above (default: their maximum plus one).
    """
    if not len(values):
        return np.zeros(groups, dtype=np.int64)
    if width is None:
        width = int(values.max()) + 1
    counts = np.bincount(group * width + values, minlength=groups * width)
    return counts.reshape(groups, width).max(axis=1)


def _all_of_type(values: list, kind: type | None) -> bool:
    """Whether every entry of ``values`` is exactly of type ``kind``."""
    kinds = list(map(type, values))
    return kinds.count(kind) == len(kinds)


def _first_of_runs(values: np.ndarray) -> np.ndarray:
    """Whether each entry of the ascending ``values`` is the first of its run."""
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first
