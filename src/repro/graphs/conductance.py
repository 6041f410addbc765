"""Cut and expansion measures used throughout the paper.

The paper (Section 2) works with two expansion measures:

* **Conductance** ``Phi(S) = |delta(S)| / min(vol(S), vol(V \\ S))`` and
  ``Phi(G) = min_S Phi(S)``.
* **Sparsity** (edge expansion) ``Psi(S) = |delta(S)| / min(|S|, |V \\ S|)``
  and ``Psi(G) = min_S Psi(S)``.

Computing the exact conductance of a graph is NP-hard, so — exactly as the
experimental literature does — we expose three levels of estimators:

* exact brute force for tiny graphs (used in tests),
* a spectral (Cheeger) lower bound via the normalized Laplacian, and
* a sweep-cut upper bound from the Fiedler vector.

All functions accept :class:`networkx.Graph` objects and treat them as
unweighted multigraph-free simple graphs unless stated otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import networkx as nx
import numpy as np

from repro.graphs.index import iter_edges, vertex_degree
from repro.kernels import use_numpy

__all__ = [
    "CutReport",
    "cut_edges",
    "volume",
    "cut_conductance",
    "cut_sparsity",
    "exact_conductance",
    "exact_sparsity",
    "normalized_laplacian",
    "spectral_gap",
    "cheeger_bounds",
    "sweep_cut",
    "estimate_conductance",
    "diameter_upper_bound",
    "is_expander",
]


@dataclass(frozen=True)
class CutReport:
    """A cut together with the measures the paper cares about.

    Attributes:
        side: the smaller side of the cut (by the relevant denominator).
        crossing_edges: number of edges leaving ``side``.
        conductance: ``Phi(side)``.
        sparsity: ``Psi(side)``.
    """

    side: frozenset
    crossing_edges: int
    conductance: float
    sparsity: float


def volume(graph: nx.Graph, nodes: Iterable) -> int:
    """Return ``vol(S) = sum_{v in S} deg(v)``."""
    return sum(vertex_degree(graph, v) for v in nodes)


def cut_edges(graph: nx.Graph, side: Iterable) -> int:
    """Return ``|delta(S)|``, the number of edges with exactly one endpoint in ``side``."""
    side_set = set(side)
    count = 0
    for u in side_set:
        for v in graph.neighbors(u):
            if v not in side_set:
                count += 1
    return count


def cut_conductance(graph: nx.Graph, side: Iterable) -> float:
    """Conductance ``Phi(S)`` of the cut ``(S, V \\ S)``.

    Returns ``math.inf`` for trivial cuts (empty or full vertex set).
    """
    side_set = set(side)
    if not side_set or len(side_set) >= graph.number_of_nodes():
        return math.inf
    boundary = cut_edges(graph, side_set)
    denom = min(volume(graph, side_set), volume(graph, set(graph.nodes()) - side_set))
    if denom == 0:
        return math.inf
    return boundary / denom


def cut_sparsity(graph: nx.Graph, side: Iterable) -> float:
    """Sparsity (edge expansion) ``Psi(S)`` of the cut ``(S, V \\ S)``."""
    side_set = set(side)
    n = graph.number_of_nodes()
    if not side_set or len(side_set) >= n:
        return math.inf
    boundary = cut_edges(graph, side_set)
    denom = min(len(side_set), n - len(side_set))
    return boundary / denom


def _cut_report(graph: nx.Graph, side: Iterable) -> CutReport:
    side_set = frozenset(side)
    return CutReport(
        side=side_set,
        crossing_edges=cut_edges(graph, side_set),
        conductance=cut_conductance(graph, side_set),
        sparsity=cut_sparsity(graph, side_set),
    )


def exact_conductance(graph: nx.Graph) -> float:
    """Exact graph conductance ``Phi(G)`` by brute force over all cuts.

    Exponential in ``n``; intended for graphs with at most ~16 vertices in
    tests and validation code.
    """
    nodes = list(graph.nodes())
    n = len(nodes)
    if n < 2:
        return math.inf
    if use_numpy():
        from repro.kernels.conductance import exact_conductance_numpy

        return exact_conductance_numpy(graph)
    best = math.inf
    # Enumerate subsets containing nodes[0] to avoid double counting.
    rest = nodes[1:]
    for r in range(0, n - 1):
        for combo in itertools.combinations(rest, r):
            side = {nodes[0], *combo}
            if len(side) == n:
                continue
            best = min(best, cut_conductance(graph, side))
    return best


def exact_sparsity(graph: nx.Graph) -> float:
    """Exact graph sparsity ``Psi(G)`` by brute force over all cuts."""
    nodes = list(graph.nodes())
    n = len(nodes)
    if n < 2:
        return math.inf
    if use_numpy():
        from repro.kernels.conductance import exact_sparsity_numpy

        return exact_sparsity_numpy(graph)
    best = math.inf
    rest = nodes[1:]
    for r in range(0, n - 1):
        for combo in itertools.combinations(rest, r):
            side = {nodes[0], *combo}
            if len(side) == n:
                continue
            best = min(best, cut_sparsity(graph, side))
    return best


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Dense normalized Laplacian ``D^-1/2 (D - A) D^-1/2`` of a symmetric adjacency matrix.

    ``adjacency`` is boolean or holds edge weights.  The helper performs
    networkx's floating-point operations in networkx's order, so for 0/1 and
    integer weights the result equals
    ``nx.normalized_laplacian_matrix(...).todense()`` bit for bit and
    ``eigvalsh``/``eigh`` see identical input.  With ``dh = deg^-1/2`` (0 for
    an isolated vertex) the diagonal is ``dh * ((deg - a_ii) * dh)`` — not
    ``1.0`` — an edge entry is ``dh[i] * (-a_ij * dh[j])``, and every other
    entry is ``+0.0``.
    """
    degrees = adjacency.sum(axis=1)
    with np.errstate(divide="ignore"):
        dh = 1.0 / np.sqrt(degrees)
    dh[np.isinf(dh)] = 0.0
    off_diagonal = dh[:, None] * (-adjacency.astype(np.float64) * dh[None, :])
    laplacian = np.where(adjacency != 0, off_diagonal, 0.0)
    np.fill_diagonal(laplacian, dh * ((degrees - np.diagonal(adjacency)) * dh))
    return laplacian


def _normalized_laplacian_eigs(graph: nx.Graph, k: int = 2) -> np.ndarray:
    """Return the ``k`` smallest eigenvalues of the normalized Laplacian."""
    if graph.number_of_nodes() == 0:
        return np.array([])
    eigenvalues = np.linalg.eigvalsh(normalized_laplacian(nx.to_numpy_array(graph)))
    return eigenvalues[:k]


def spectral_gap(graph: nx.Graph) -> float:
    """Second-smallest eigenvalue ``lambda_2`` of the normalized Laplacian.

    For a connected graph ``lambda_2 > 0``; by Cheeger's inequality
    ``lambda_2 / 2 <= Phi(G) <= sqrt(2 * lambda_2)``.
    """
    if graph.number_of_nodes() < 2:
        return 0.0
    eigenvalues = _normalized_laplacian_eigs(graph, k=2)
    return float(eigenvalues[1])


def cheeger_bounds(graph: nx.Graph) -> tuple[float, float]:
    """Return ``(lower, upper)`` bounds on ``Phi(G)`` from Cheeger's inequality."""
    gap = spectral_gap(graph)
    return gap / 2.0, math.sqrt(2.0 * gap)


def _adjacency_matrix(graph: nx.Graph, nodes: list) -> np.ndarray:
    """``nx.to_numpy_array(graph, nodelist=nodes)``, read without cached views.

    Entries are edge ``weight`` attributes (default 1.0), summed over the
    parallel edges of a multigraph.
    """
    position = {vertex: index for index, vertex in enumerate(nodes)}
    weights: dict[tuple[int, int], float] = {}
    for u, v, data in iter_edges(graph, data=True):
        key = (position[u], position[v])
        weights[key] = weights.get(key, 0) + data.get("weight", 1.0)
    adjacency = np.zeros((len(nodes), len(nodes)))
    if weights:
        rows, columns = zip(*weights)
        adjacency[rows, columns] = list(weights.values())
        if not graph.is_directed():
            adjacency[columns, rows] = list(weights.values())
    return adjacency


def sweep_cut(graph: nx.Graph) -> CutReport:
    """Return the best sweep cut along the Fiedler vector of the normalized Laplacian.

    This is the standard constructive companion to Cheeger's inequality: sort
    vertices by their Fiedler-vector entry (normalized by sqrt(deg)) and take
    the best prefix cut.  The returned cut's conductance is an *upper bound*
    on ``Phi(G)``.
    """
    nodes = list(graph.nodes())
    n = len(nodes)
    if n < 2:
        return _cut_report(graph, nodes[:1])
    adjacency = _adjacency_matrix(graph, nodes)
    laplacian = normalized_laplacian(adjacency)
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    fiedler = eigenvectors[:, 1]
    node_degrees = np.array([vertex_degree(graph, v) for v in nodes], dtype=np.int64)
    scores = fiedler / np.sqrt(np.maximum(node_degrees, 1).astype(float))
    order = sorted(range(n), key=lambda i: (scores[i], nodes[i]))
    if use_numpy():
        from repro.kernels.conductance import sweep_cut_best_prefix_numpy

        best_k = sweep_cut_best_prefix_numpy(
            adjacency.astype(np.int64), node_degrees, order
        )
        return _cut_report(graph, {nodes[i] for i in order[: best_k + 1]})
    best_report: CutReport | None = None
    prefix: set = set()
    for idx in order[:-1]:
        prefix.add(nodes[idx])
        report = _cut_report(graph, prefix)
        if best_report is None or report.conductance < best_report.conductance:
            best_report = report
    assert best_report is not None
    return best_report


def estimate_conductance(graph: nx.Graph, exact_threshold: int = 12) -> float:
    """Best available estimate of ``Phi(G)``.

    Uses brute force for graphs with at most ``exact_threshold`` vertices and
    the sweep-cut upper bound otherwise (sweep cuts are exact on the graph
    families used in the experiments up to small constants, and they are the
    estimator the distributed expander-decomposition literature itself uses).
    """
    if graph.number_of_nodes() <= exact_threshold:
        return exact_conductance(graph)
    return sweep_cut(graph).conductance


def diameter_upper_bound(n: int, phi: float) -> float:
    """Fact 2.1: the diameter of a phi-expander is ``O(phi^-1 log n)``.

    We use the explicit constant 2 from the standard ball-growing argument.
    """
    if n <= 1:
        return 0.0
    phi = max(phi, 1e-12)
    return 2.0 * math.log(max(n, 2)) / phi


def is_expander(graph: nx.Graph, phi: float, exact_threshold: int = 12) -> bool:
    """Return True if ``graph`` is (estimated to be) a ``phi``-expander.

    The check is conservative for large graphs: the spectral lower bound
    ``lambda_2 / 2`` must exceed ``phi`` or the sweep cut must fail to find a
    cut of conductance below ``phi``.
    """
    if graph.number_of_nodes() < 2:
        return True
    if not nx.is_connected(graph):
        return False
    if graph.number_of_nodes() <= exact_threshold:
        return exact_conductance(graph) >= phi
    lower, _ = cheeger_bounds(graph)
    if lower >= phi:
        return True
    return sweep_cut(graph).conductance >= phi
