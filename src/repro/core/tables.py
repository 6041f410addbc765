"""Array route tables: the lookups the array-native query engine reads.

A query batch travels through the hierarchy as flat int arrays indexed by
vertex number (see :mod:`repro.core.router`).  Everything those arrays are
looked up against is a pure function of the preprocessed artifact, so it is
built on the first route that needs it, with numpy over the vertex numbers
(no per-pair loops), and attached to the artifact's objects (pickled with
it; the shufflers' dispersal plans are not).  The qualities the tables carry
were recorded when preprocessing built the embeddings, so building a table
recomputes none of them:

* :class:`VertexIndex`, per decomposition: the vertex numbering (sorted
  vertex order), each vertex's rank in ``repr`` order (the token order of
  :func:`~repro.core.tokens.tokens_from_requests`) and its delegated best
  rank (Appendix D);
* :class:`NodeTable`, per hierarchy node: vertex -> part, the cumulative
  best counts that rewrite markers (Section 4), the bad-vertex mates of
  Property 3.1(3), the sorted part vertices, the node's dispersed dummy
  cells per dummies-per-vertex count (Section 6.3; stacked by
  :func:`dummy_stack` for the batch engine, and not pickled), and a
  :class:`LeafBlock` of the children that are leaves (a leaf's own table
  holds the leaf alone), so one pass places the rows of all of them
  (Lemma 6.5).

Arrays indexed by vertex number have one extra trailing slot, ``n``, that
stands for "not a vertex of the graph".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cost import sorting_network_depth
from repro.hierarchy.best import best_counts_per_part
from repro.kernels.batched import disperse_many_numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hierarchy.best import BestVertexIndex
    from repro.hierarchy.node import HierarchicalDecomposition, HierarchyNode

__all__ = [
    "VertexIndex",
    "NodeTable",
    "LeafBlock",
    "DummyCells",
    "DummyStack",
    "vertex_index",
    "node_table",
    "dummy_cells",
    "dummy_stack",
]


class VertexIndex:
    """Vertex numbering of one decomposition plus per-vertex query lookups."""

    def __init__(
        self, decomposition: "HierarchicalDecomposition", best_index: "BestVertexIndex"
    ) -> None:
        vertices = sorted(decomposition.graph.nodes())
        #: vertex number -> vertex (sorted order).
        self.vertices = vertices
        #: vertex -> vertex number.
        self.index_of = {vertex: number for number, vertex in enumerate(vertices)}
        reprs = [repr(vertex) for vertex in vertices]
        rank_of_repr = {text: rank for rank, text in enumerate(sorted(set(reprs)))}
        #: ``(n,)`` rank of each vertex's ``repr`` (equal reprs share a rank).
        self.repr_rank = np.array([rank_of_repr[text] for text in reprs], dtype=np.int64)
        #: ``(n,)`` destination vertex -> its delegate's best rank.
        self.marker = np.array(
            [best_index.rank_of[best_index.delegate_of[vertex]] for vertex in vertices],
            dtype=np.int64,
        )
        types = {type(vertex) for vertex in vertices}
        #: The one vertex type when it is ``int`` or ``str`` (equal values
        #: then have equal reprs, so ranks order requests exactly), else None.
        self.plain_type = types.pop() if len(types) == 1 and types <= {int, str} else None
        #: quality of the reversed all-to-best routes (the worst leaf).
        self.reversal_quality = max(
            (leaf.flatten_quality() for leaf in decomposition.leaves()), default=1
        )


@dataclass
class DummyCells:
    """The dispersed dummy configuration of one node for one dummies count.

    ``vertex[start[c] : start[c] + count[c]]`` are the origin vertices of the
    dummies in cell ``c = part * t + mark``, in queue order.
    """

    vertex: np.ndarray
    start: np.ndarray
    count: np.ndarray
    #: ``(t,)`` dummies per part.
    part_load: np.ndarray
    rounds: int
    peak: int
    within_window: int
    total_cells: int


@dataclass
class DummyStack:
    """Every dispersed dummy configuration of one node so far, stacked by count.

    Row ``k`` is the configuration of ``counts[k]`` dummies per vertex: the
    dummies of its cell ``c = part * t + mark`` are
    ``vertex[start[k, c] : start[k, c] + count[k, c]]``, in queue order.
    """

    #: ``(K,)`` dummies-per-vertex counts, ascending.
    counts: np.ndarray
    vertex: np.ndarray
    #: ``(K, t * t)``.
    start: np.ndarray
    #: ``(K, t * t)``.
    count: np.ndarray
    #: ``(K, t)`` dummies per part.
    part_load: np.ndarray
    #: ``(K, 4)`` rounds, peak, cells inside the window, cells checked.
    stats: np.ndarray


class LeafBlock:
    """Leaves side by side: the arrays one pass over all of them reads (Lemma 6.5)."""

    def __init__(self, leaves: "list[HierarchyNode]", index: VertexIndex) -> None:
        number = index.index_of
        best = [
            np.array([number[v] for v in sorted(leaf.vertices)], dtype=np.int64) for leaf in leaves
        ]
        #: ``(leaves,)`` how many best vertices each leaf has.
        self.size = np.array([len(vertices) for vertices in best], dtype=np.int64)
        #: every leaf's best rank -> vertex number, concatenated; leaf ``i``
        #: starts at ``start[i]``.
        self.best = np.concatenate(best) if best else np.zeros(0, dtype=np.int64)
        self.start = np.cumsum(self.size) - self.size
        #: ``(leaves,)`` the sorting network's depth and exchange quality.
        self.depth = np.array(
            [sorting_network_depth(size) for size in self.size.tolist()], dtype=np.int64
        )
        self.quality = np.array([max(1, leaf.flatten_quality()) for leaf in leaves], dtype=np.int64)


class NodeTable:
    """The arrays one hierarchy node's query step reads."""

    def __init__(self, node: "HierarchyNode", index: VertexIndex) -> None:
        n = len(index.vertices)
        number = index.index_of
        quality = max(1, node.flatten_quality())
        self.flatten_quality = node.flatten_quality()
        if node.is_leaf:
            #: a leaf: itself as a block of one.
            self.leaves = LeafBlock([node], index)
            return
        parts = node.parts
        t = self.t = len(parts)
        # Vertex numbers follow sorted vertex order, so sorted numbers are
        # the numbers of the sorted part.
        members = [
            np.sort(np.array([number[v] for v in part.vertices], dtype=np.int64)) for part in parts
        ]
        part_size = np.array([len(vertices) for vertices in members], dtype=np.int64)
        part_flat = np.concatenate(members)
        #: ``(n + 1,)`` vertex -> part index, -1 outside the node.
        self.part_of = np.full(n + 1, -1, dtype=np.int64)
        self.part_of[part_flat] = np.repeat([part.index for part in parts], part_size)
        # Bad vertices are few: one (vertex, part, mate) row each.  A bad
        # vertex without a matching entry goes to its part's smallest good
        # vertex.
        rows = []
        for part in parts:
            for vertex in part.bad_vertices:
                mate = part.matching.get(vertex)
                if mate is None:
                    mate = min(part.good_vertices)
                rows.append((number[vertex], part.index, number[mate]))
        bad = np.array(rows, dtype=np.int64).reshape(-1, 3)
        #: ``(n + 1,)`` vertex -> the part it is bad in, -1 if none.
        self.bad_part = np.full(n + 1, -1, dtype=np.int64)
        self.bad_part[bad[:, 0]] = bad[:, 1]
        #: ``(n + 1,)`` bad vertex -> its good mate.
        self.mate = np.arange(n + 1, dtype=np.int64)
        self.mate[bad[:, 0]] = bad[:, 2]
        self.has_bad = bool((self.bad_part >= 0).any())
        counts = np.array(best_counts_per_part(node), dtype=np.int64)
        #: cumulative best counts per part and their starts (Section 4).
        self.best_ends = np.cumsum(counts)
        self.best_starts = self.best_ends - counts
        #: ``|X*_j|`` per part.
        self.part_size = part_size
        #: sorted part vertices, concatenated; part ``j`` starts at ``part_start[j]``.
        self.part_flat = part_flat
        self.part_start = np.cumsum(part_size) - part_size
        self.part_depth = np.array(
            [sorting_network_depth(size) for size in part_size.tolist()], dtype=np.int64
        )
        #: rank of each part mark in ``repr`` order (10 sorts before 2).
        self.mark_repr_rank = np.argsort(
            np.array(sorted(range(t), key=repr), dtype=np.int64), kind="stable"
        )
        shuffler = node.shuffler
        #: quality of the walk back along the dummies' routes (Section 6.3).
        self.walk_quality = (shuffler.quality if shuffler is not None else 0) * quality
        #: quality of the bad-to-good matching paths (Property 3.1(3)).
        self.matching_quality = max(1, node.part_matching_embedding.quality) * quality
        self.dummies: dict[int, DummyCells] = {}
        with_leaf = [
            j for j, part in enumerate(parts) if part.child is not None and part.child.is_leaf
        ]
        #: the children that are leaves, in part order.
        self.leaves = LeafBlock([parts[j].child for j in with_leaf], index)
        #: ``(t,)`` part -> its child's position in :attr:`leaves`, -1 if the
        #: part has no child or an internal one.
        self.leaf_slot = np.full(t, -1, dtype=np.int64)
        self.leaf_slot[with_leaf] = np.arange(len(with_leaf))

    def __getstate__(self) -> dict:
        # The stacked dummies are rebuilt from ``dummies`` on first use.
        state = dict(vars(self))
        state.pop("_dummy_stack", None)
        return state


def vertex_index(
    decomposition: "HierarchicalDecomposition", best_index: "BestVertexIndex"
) -> VertexIndex:
    """The decomposition's :class:`VertexIndex`, built on first use."""
    cached = getattr(decomposition, "_vertex_index", None)
    if cached is None:
        cached = decomposition._vertex_index = VertexIndex(decomposition, best_index)
    return cached


def node_table(node: "HierarchyNode", index: VertexIndex) -> NodeTable:
    """The node's :class:`NodeTable`, built on first use."""
    cached = getattr(node, "_route_table", None)
    if cached is None:
        cached = node._route_table = NodeTable(node, index)
    return cached


def dummy_cells(node: "HierarchyNode", table: NodeTable, dummies_per_vertex: int) -> DummyCells:
    """The node's dispersed dummies, ``dummies_per_vertex`` per vertex (cached).

    Every vertex of part ``j`` queues that many dummies marked ``j``, in
    sorted vertex order, and the node's shuffler disperses them (Section
    6.3) — a pure function of the node, so one replay serves every query.
    """
    cached = table.dummies.get(dummies_per_vertex)
    if cached is not None:
        return cached
    t = table.t
    repeats = table.part_size * dummies_per_vertex
    vertex = np.repeat(table.part_flat, dummies_per_vertex)
    row_cell = np.repeat(np.arange(t, dtype=np.int64) * (t + 1), repeats)
    shuffler = node.shuffler
    rounds = peak = within = cells = 0
    if shuffler is not None and len(shuffler) > 0:
        dispersal = disperse_many_numpy(
            row_cell, (1, t, t), shuffler, table.part_size.tolist(), table.flatten_quality
        )
        vertex = vertex[dispersal.order]
        row_cell = dispersal.row_cell
        own = dispersal.counts.sum(axis=1)[0] > 0
        rounds, peak = dispersal.rounds[0], dispersal.peaks[0]
        within, cells = int(dispersal.inside[0][own].sum()), t * int(own.sum())
    count = np.bincount(row_cell, minlength=t * t)
    cached = table.dummies[dummies_per_vertex] = DummyCells(
        vertex=vertex,
        start=np.cumsum(count) - count,
        count=count,
        part_load=count.reshape(t, t).sum(axis=1),
        rounds=rounds,
        peak=peak,
        within_window=within,
        total_cells=cells,
    )
    return cached


def dummy_stack(
    node: "HierarchyNode", table: NodeTable, dummies_per_vertex: np.ndarray
) -> tuple[DummyStack, np.ndarray]:
    """The node's dummy configurations stacked, and each entry's row in the stack.

    ``dummies_per_vertex`` holds one count per batch entry.  The stack holds
    every count the node has dispersed (:func:`dummy_cells`); it is kept on
    the table and rebuilt only when an entry asks for a new count.
    """
    stack = getattr(table, "_dummy_stack", None)
    if stack is not None:
        row = np.searchsorted(stack.counts, dummies_per_vertex)
        if (row < len(stack.counts)).all() and (stack.counts[row] == dummies_per_vertex).all():
            return stack, row
    for dummies in sorted(set(dummies_per_vertex.tolist())):
        dummy_cells(node, table, dummies)
    counts = sorted(table.dummies)
    configs = [table.dummies[dummies] for dummies in counts]
    offsets = np.cumsum([0] + [len(cells.vertex) for cells in configs[:-1]])
    stack = table._dummy_stack = DummyStack(
        counts=np.array(counts, dtype=np.int64),
        vertex=np.concatenate([cells.vertex for cells in configs]),
        start=np.stack([cells.start + offset for cells, offset in zip(configs, offsets)]),
        count=np.stack([cells.count for cells in configs]),
        part_load=np.stack([cells.part_load for cells in configs]),
        stats=np.array(
            [(c.rounds, c.peak, c.within_window, c.total_cells) for c in configs], dtype=np.int64
        ),
    )
    return stack, np.searchsorted(stack.counts, dummies_per_vertex)
