"""Canonical graph fingerprints: the cache key of the serving layer.

The preprocessing of Theorem 1.1 is a function of (a) the input expander —
vertex set, edge set, edge data — and (b) the tradeoff parameters the
hierarchy is built with.  Two routers preprocess identical structures exactly
when those agree, so the serving cache keys artifacts by a SHA-256 hash over a
canonical serialisation of both.

The serialisation sorts everything by ``repr`` (the same deterministic order
the generators and the expander sort key off), so the fingerprint is stable
across Python processes, insertion orders, and networkx internals.  Any
topology change — adding or removing an edge, changing a weight, renaming a
vertex — changes the fingerprint and therefore invalidates cached artifacts
for the old graph automatically.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

import networkx as nx

from repro.graphs.index import iter_edges

__all__ = ["canonical_graph_payload", "graph_payload", "graph_fingerprint"]


def _canonical_value(value: Any) -> str:
    """Deterministic token for one parameter or edge-data value."""
    if isinstance(value, float):
        # repr of a float is exact in Python 3; hex avoids any doubt.
        return f"f:{value.hex()}"
    if isinstance(value, Mapping):
        inner = ",".join(
            f"{_canonical_value(k)}={_canonical_value(v)}" for k, v in sorted(value.items(), key=repr)
        )
        return f"m:{{{inner}}}"
    return f"{type(value).__name__}:{value!r}"


def graph_payload(graph: nx.Graph) -> str:
    """The graph-only part of the canonical payload (no parameter lines).

    This is the expensive part of fingerprinting — every node and edge is
    canonicalized — and it depends on nothing but the graph, so callers that
    fingerprint the same graph under many parameter sets (the serving layer
    keys one graph per backend and parameter combination) can compute it once
    and pass it to :func:`graph_fingerprint`.
    """
    nodes = sorted(graph.nodes(), key=repr)
    lines = ["v1", f"n={len(nodes)}"]
    lines.extend(f"node {node!r}" for node in nodes)
    edges = []
    for u, v, data in iter_edges(graph, data=True):
        a, b = sorted((u, v), key=repr)
        edges.append((repr(a), repr(b), _canonical_value(dict(data))))
    edges.sort()
    lines.extend(f"edge {a} {b} {data}" for a, b, data in edges)
    return "\n".join(lines)


def _parameter_lines(parameters: Mapping[str, Any] | None) -> list[str]:
    return [
        f"param {key}={_canonical_value((parameters or {})[key])}"
        for key in sorted(parameters or {})
    ]


def canonical_graph_payload(graph: nx.Graph, parameters: Mapping[str, Any] | None = None) -> str:
    """The canonical text the fingerprint hashes (exposed for tests/debugging)."""
    return "\n".join([graph_payload(graph), *_parameter_lines(parameters)])


def graph_fingerprint(
    graph: nx.Graph,
    parameters: Mapping[str, Any] | None = None,
    *,
    precomputed_graph_payload: str | None = None,
) -> str:
    """SHA-256 fingerprint of a graph plus preprocessing parameters.

    Args:
        graph: the expander the artifact is (or would be) preprocessed for.
        parameters: everything that influences preprocessing besides the graph
            (epsilon, psi, hierarchy parameters, backend name and parameters);
            differing parameters must yield different cache keys because they
            yield different preprocessed structures.
        precomputed_graph_payload: the value of :func:`graph_payload` for
            ``graph``, when the caller has it memoized; the caller guarantees
            it matches ``graph``.
    """
    if precomputed_graph_payload is None:
        precomputed_graph_payload = graph_payload(graph)
    payload = "\n".join([precomputed_graph_payload, *_parameter_lines(parameters)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
