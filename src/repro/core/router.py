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
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import ClassVar, Hashable, Sequence

import networkx as nx

from repro.core.cost import CostLedger, send_round_cost, sort_round_cost
from repro.core.leaf import route_in_leaf
from repro.core.merge import solve_task3, solve_task3_many
from repro.core.tasks import Task1Instance
from repro.core.tokens import RoutingRequest, Token, tokens_from_requests
from repro.cutmatching.game import CutMatchingGame
from repro.graphs.conductance import estimate_conductance
from repro.graphs.validation import max_degree, require_connected
from repro.hierarchy.best import BestVertexIndex, build_best_index, locate_best_rank
from repro.hierarchy.builder import HierarchyParameters, build_hierarchy
from repro.hierarchy.node import HierarchicalDecomposition, HierarchyNode

__all__ = ["PreprocessArtifact", "PreprocessSummary", "RoutingOutcome", "ExpanderRouter"]


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
        tokens: the routed tokens (with their traces), for inspection.
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
    tokens: list[Token] = field(default_factory=list)

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
            pickles can be rejected instead of mis-read.
    """

    FORMAT_VERSION: ClassVar[int] = 1

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
            decomposition = build_hierarchy(self.graph, params=self.hierarchy_params)
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
                        node.virtual_graph, parts, psi=self.hierarchy_params.psi
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

    def route_many(
        self,
        request_groups: Sequence[Sequence[RoutingRequest]],
        loads: Sequence[int | None] | None = None,
    ) -> list[RoutingOutcome]:
        """Answer several routing queries through one fused recursion.

        The fused twin of calling :meth:`route` once per group: all queries
        walk the hierarchy together, and at every internal node their Task 3
        dispersions run as one batched kernel call
        (:func:`~repro.core.merge.solve_task3_many`) instead of a per-query
        Python loop.  Every outcome — deliveries, traces, per-phase round
        breakdowns, diagnostics — is identical to the sequential result;
        only the wall-clock cost is amortized.  Under the reference kernel
        (or for a single group) this simply loops over :meth:`route`.
        """
        from repro.kernels import use_numpy

        if loads is None:
            loads = [None] * len(request_groups)
        if len(loads) != len(request_groups):
            raise ValueError("loads must match request_groups in length")
        if not use_numpy() or len(request_groups) <= 1:
            return [
                self.route(requests, load)
                for requests, load in zip(request_groups, loads)
            ]
        if not self.preprocessed:
            self.preprocess()
        assert self.decomposition is not None and self.best_index is not None

        # Per-query setup, exactly as in route().
        vertices = sorted(self.graph.nodes())
        token_groups: list[list[Token]] = []
        resolved_loads: list[int] = []
        for requests, load in zip(request_groups, loads):
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
            instance = Task1Instance(vertices=vertices, tokens=tokens, load=load)
            problems = instance.validate()
            if problems:
                raise ValueError("invalid Task 1 instance: " + "; ".join(problems))
            token_groups.append(tokens)
            resolved_loads.append(load)

        ledgers = [CostLedger() for _ in token_groups]
        stats_list = [_QueryStats() for _ in token_groups]
        root = self.decomposition.root
        best_index = self.best_index
        id_translation_by_load: dict[int, int] = {}
        with ExitStack() as stack:
            for ledger in ledgers:
                stack.enter_context(ledger.phase("query"))
            for index, tokens in enumerate(token_groups):
                load = resolved_loads[index]
                if load not in id_translation_by_load:
                    id_translation_by_load[load] = sort_round_cost(
                        root.size, load, root.flatten_quality()
                    )
                ledgers[index].charge("id-translation", id_translation_by_load[load])
                for token in tokens:
                    delegate = best_index.delegate_of[token.destination]
                    token.destination_marker = best_index.rank_of[delegate]
            self._solve_task2_many(
                root,
                [
                    (index, tokens)
                    for index, tokens in enumerate(token_groups)
                    if tokens
                ],
                resolved_loads,
                ledgers,
                stats_list,
            )
            reversal_quality = max(
                (leaf.flatten_quality() for leaf in self.decomposition.leaves()), default=1
            )
            for index, tokens in enumerate(token_groups):
                needs_reversal = [
                    token for token in tokens if token.current_vertex != token.destination
                ]
                if needs_reversal:
                    per_best: dict[Hashable, int] = {}
                    for token in needs_reversal:
                        per_best[token.current_vertex] = (
                            per_best.get(token.current_vertex, 0) + 1
                        )
                    max_per_best = max(per_best.values(), default=1)
                    ledgers[index].charge(
                        "delegation-reversal",
                        send_round_cost(max_per_best, reversal_quality),
                    )
                    for token in needs_reversal:
                        token.move_to(token.destination, phase="delegation-reversal")

        preprocessing_rounds = self.preprocess_ledger.total("preprocess")
        return [
            RoutingOutcome(
                delivered=sum(1 for token in tokens if token.delivered),
                total_tokens=len(tokens),
                query_rounds=ledgers[index].total("query"),
                preprocessing_rounds=preprocessing_rounds,
                load=resolved_loads[index],
                max_intermediate_part_load=stats_list[index].max_part_load,
                dispersion_window_fraction=stats_list[index].window_fraction(),
                fallback_assignments=stats_list[index].fallbacks,
                breakdown=ledgers[index].breakdown(),
                tokens=tokens,
            )
            for index, tokens in enumerate(token_groups)
        ]

    # -- the Task 2 recursion ---------------------------------------------------

    def _solve_task2_many(
        self,
        node: HierarchyNode,
        groups: list[tuple[int, list[Token]]],
        loads: Sequence[int],
        ledgers: Sequence[CostLedger],
        stats_list: Sequence["_QueryStats"],
    ) -> None:
        """Fused :meth:`_solve_task2`: every query's tokens walk ``node`` together.

        ``groups`` carries ``(query_index, tokens)`` pairs with non-empty
        token lists; ``loads``/``ledgers``/``stats_list`` are indexed by the
        query index.  Per query, the moves and charges are exactly those of
        the solo recursion — queries never interact (tokens, ledgers, and
        diagnostics are all per-query; the shared node-level caches are
        deterministic pure functions of the node), the batching only stacks
        the Task 3 dispersions into single kernel calls.
        """
        if not groups:
            return
        if node.is_leaf:
            for index, tokens in groups:
                result = route_in_leaf(node, tokens, loads[index], ledgers[index])
                for token in tokens:
                    token.move_to(result.placements[token.token_id], phase="leaf")
            return

        # Rewrite destination markers into (part mark, next-level marker).
        next_marker: dict[int, dict[int, int]] = {}
        for index, tokens in groups:
            markers = next_marker[index] = {}
            for token in tokens:
                marker = token.destination_marker
                if marker is None:
                    raise ValueError(f"token {token.token_id} has no destination marker")
                part_index, remainder = locate_best_rank(node, marker)
                token.part_mark = part_index
                markers[token.token_id] = remainder

        # Task 3, batched: one dispersion kernel call for every query at once.
        task3_results = solve_task3_many(
            node,
            [tokens for _, tokens in groups],
            [loads[index] for index, _ in groups],
            [ledgers[index] for index, _ in groups],
        )
        for (index, tokens), task3 in zip(groups, task3_results):
            stats_list[index].absorb_task3(task3)
            for token in tokens:
                if token.token_id in task3.assignments:
                    token.move_to(
                        task3.assignments[token.token_id], phase=f"task3-L{node.level}"
                    )

        # Property 3.1(3): walk tokens off the bad vertices into the good child.
        matching_quality = max(1, node.part_matching_embedding.quality) * max(
            1, node.flatten_quality()
        )
        for index, tokens in groups:
            moved_off_bad = 0
            for part in node.parts:
                if not part.bad_vertices:
                    continue
                for token in tokens:
                    if (
                        token.part_mark == part.index
                        and token.current_vertex in part.bad_vertices
                    ):
                        mate = part.matching.get(token.current_vertex)
                        if mate is None:
                            mate = min(part.good_vertices)
                        token.move_to(mate, phase=f"bad-to-good-L{node.level}")
                        moved_off_bad += 1
            if moved_off_bad:
                ledgers[index].charge(
                    f"bad-to-good-L{node.level}",
                    send_round_cost(2 * loads[index], matching_quality),
                )

        # Recurse into every part's good child, all queries together.  The
        # children run on disjoint subgraphs (per query, the level costs its
        # slowest child), so per query we charge the max child-ledger total —
        # identical to the solo recursion's accounting.
        tokens_by_part: dict[int, dict[int, list[Token]]] = {}
        for index, tokens in groups:
            by_part = tokens_by_part[index] = {}
            for token in tokens:
                by_part.setdefault(token.part_mark, []).append(token)
        child_costs: dict[int, list[int]] = {index: [] for index, _ in groups}
        child_loads = list(loads)
        for index, _ in groups:
            child_loads[index] = 4 * loads[index]
        for part in node.parts:
            child = part.child
            if child is None:
                continue
            child_groups: list[tuple[int, list[Token]]] = []
            child_ledgers: dict[int, CostLedger] = {}
            for index, _ in groups:
                child_tokens = tokens_by_part[index].get(part.index, [])
                if not child_tokens:
                    continue
                for token in child_tokens:
                    token.destination_marker = next_marker[index][token.token_id]
                child_groups.append((index, child_tokens))
                child_ledgers[index] = CostLedger()
            if not child_groups:
                continue
            ledger_vector = [
                child_ledgers.get(index, ledgers[index]) for index in range(len(ledgers))
            ]
            self._solve_task2_many(child, child_groups, child_loads, ledger_vector, stats_list)
            for index, _ in child_groups:
                child_costs[index].append(child_ledgers[index].total())
        for index, _ in groups:
            if child_costs[index]:
                ledgers[index].charge(f"children-L{node.level + 1}", max(child_costs[index]))

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
