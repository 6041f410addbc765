"""Node-algorithm abstraction and the synchronous runner.

A CONGEST algorithm is specified as per-node local code.  Each node owns a
:class:`NodeState` (its local memory) and the algorithm defines two hooks:

* :meth:`NodeAlgorithm.initialize` — executed once before round 0;
* :meth:`NodeAlgorithm.on_round` — executed for every node in every round with
  the node's inbox; the node sends messages for the *next* round through the
  provided :class:`Mailbox`.

The :class:`Runner` drives all nodes in lockstep until every node has halted
or a round limit is reached, and reports the number of rounds used.  This is
the genuinely-distributed layer of the library; the heavy recursive routing
machinery charges rounds through :mod:`repro.core.cost` instead (README,
"Deviations from the paper", item 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.congest.network import Message, Network

__all__ = ["NodeState", "Mailbox", "NodeAlgorithm", "Runner", "RunResult"]


@dataclass
class NodeState:
    """Local memory of a single node.

    Attributes:
        node: the node's identifier in the topology.
        memory: free-form local variables of the algorithm.
        halted: set by the algorithm when the node is done.
    """

    node: Hashable
    memory: dict[str, Any] = field(default_factory=dict)
    halted: bool = False

    def halt(self) -> None:
        """Mark this node as finished; it still receives messages but is not run."""
        self.halted = True


class Mailbox:
    """Restricted sending interface handed to a node during its round."""

    def __init__(self, network: Network, node: Hashable) -> None:
        self._network = network
        self._node = node

    def send(self, neighbor: Hashable, payload: Any) -> None:
        """Send ``payload`` to ``neighbor`` (delivered next round)."""
        self._network.send(self._node, neighbor, payload)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every neighbour (delivered next round)."""
        self._network.broadcast_to_neighbors(self._node, payload)

    def neighbors(self) -> list:
        """Sorted list of this node's neighbours."""
        return self._network.neighbors(self._node)


class NodeAlgorithm:
    """Base class for per-node CONGEST algorithms.

    Subclasses override :meth:`initialize` and :meth:`on_round`.  The same
    algorithm instance is shared by all nodes, so per-node data must live in
    the :class:`NodeState`, never on ``self``.
    """

    def initialize(self, state: NodeState, mailbox: Mailbox) -> None:
        """Set up local state and optionally send round-0 messages."""

    def on_round(self, state: NodeState, inbox: list[Message], mailbox: Mailbox) -> None:
        """Process one synchronous round for one node."""
        raise NotImplementedError


@dataclass
class RunResult:
    """Outcome of running a CONGEST algorithm to completion.

    Attributes:
        rounds: number of synchronous rounds executed.
        messages: total messages sent over the run.
        states: final per-node states keyed by node id.
        completed: False if the round limit was hit before all nodes halted.
    """

    rounds: int
    messages: int
    states: dict[Hashable, NodeState]
    completed: bool

    def memory_of(self, node: Hashable, key: str, default: Any = None) -> Any:
        """Convenience accessor into a node's final local memory."""
        return self.states[node].memory.get(key, default)


class Runner:
    """Drives a :class:`NodeAlgorithm` over a :class:`Network` synchronously."""

    def __init__(self, network: Network, algorithm: NodeAlgorithm) -> None:
        self.network = network
        self.algorithm = algorithm
        self.states: dict[Hashable, NodeState] = {
            node: NodeState(node=node) for node in network.nodes
        }

    def run(self, max_rounds: int = 10_000) -> RunResult:
        """Run until every node halts or ``max_rounds`` rounds have elapsed."""
        self.network.reset_counters()
        for node in self.network.nodes:
            self.algorithm.initialize(self.states[node], Mailbox(self.network, node))
        rounds = 0
        completed = all(state.halted for state in self.states.values())
        while not completed and rounds < max_rounds:
            self.network.deliver()
            rounds += 1
            for node in self.network.nodes:
                state = self.states[node]
                inbox = self.network.inbox(node)
                if state.halted:
                    continue
                self.algorithm.on_round(state, inbox, Mailbox(self.network, node))
            completed = all(state.halted for state in self.states.values())
        return RunResult(
            rounds=rounds,
            messages=self.network.total_messages,
            states=self.states,
            completed=completed,
        )
