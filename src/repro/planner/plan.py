"""The :class:`ExecutionPlan`: one object owning every execution knob.

An :class:`ExecutionPlan` is one immutable, hashable-by-content decision
record — routing backend, compute kernel, fusion and shard placement — that
the service, the cluster tier, and the benchmarks all consume:

* **semantic fields** — ``backend`` + ``backend_params`` determine *what* is
  computed (delivered tokens, rounds, load); they feed the artifact-cache
  fingerprint and :attr:`semantic_id`, which is what
  :meth:`~repro.service.BatchReport.signature` records (so signatures stay
  byte-identical across kernels and fusion of the same plan);
* **physical fields** — ``kernel`` and ``fused`` determine *how fast* it is
  computed; results are identical by construction (the kernels are
  equivalence-tested), only wall-clock changes.  ``parallelism`` (always
  ``"threads"``) and ``max_workers`` (no effect) remain only so plans keep
  their identities and wire bytes: every batch routes inline on the caller's
  thread;
* **placement** — ``shard_hint`` annotates which shard the cluster
  coordinator assigned; it is excluded from :attr:`plan_id` so the same
  decision keeps one identity wherever it lands.

Plans are produced by :class:`~repro.planner.QueryPlanner` (policies
``fixed`` / ``cost`` / ``adaptive``) or synthesized from legacy kwargs by the
compatibility shims in :class:`~repro.service.RoutingService`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.backends.base import canonical_backend_params

__all__ = ["ExecutionPlan"]


@dataclass(frozen=True)
class ExecutionPlan:
    """One unified execution decision for a routing query (or batch slice).

    Attributes:
        backend: registry name of the routing backend to execute through.
        backend_params: extra backend factory parameters (stored as given;
            canonicalized for identity hashing).
        kernel: compute kernel recorded for this plan (``reference`` or
            ``numpy``).  Kernel selection is process-global
            (:mod:`repro.kernels`); the plan records the kernel in effect at
            planning time.
        parallelism: must be ``"threads"``: every batch routes in-process
            on the caller's thread.  Kept so that plan identities and wire
            bytes stay stable.
        max_workers: has no effect; kept, like ``parallelism``, for plan
            identity.
        fused: route same-fingerprint query groups through the backend's
            fused batch kernel (``route_many``) when it has one.  Physical:
            fused results are identical to sequential by construction
            (``BatchReport.signature()`` parity), only wall-clock changes.
        shard_hint: the cluster shard the coordinator placed this plan on
            (``None`` outside the cluster tier; excluded from identity).
        policy: which planner policy produced the plan (``fixed`` plans come
            from explicit kwargs, ``cost``/``adaptive`` from the cost model).
        reason: one human-readable sentence on why this plan was chosen
            (deterministic given the same planner state; excluded from
            identity).
    """

    backend: str
    backend_params: Mapping[str, Any] = field(default_factory=dict)
    kernel: str = "numpy"
    parallelism: str = "threads"
    max_workers: int | None = None
    fused: bool = False
    shard_hint: str | None = None
    policy: str = "fixed"
    reason: str = ""

    def __post_init__(self) -> None:
        if self.parallelism != "threads":
            raise ValueError(
                f"unknown parallelism {self.parallelism!r}; expected 'threads'"
            )

    # -- identities ----------------------------------------------------------

    @property
    def canonical_params(self) -> tuple[tuple[str, str], ...]:
        """The backend parameters as a deterministic (key, repr) tuple."""
        return canonical_backend_params(self.backend_params)

    @property
    def semantic_id(self) -> str:
        """Hash of the *result-affecting* fields only (backend + params).

        Two plans with the same semantic id produce byte-identical routing
        outcomes (deliveries, rounds, loads) regardless of kernel or fusion —
        this is the identity batch signatures record.
        """
        payload = json.dumps(
            {"backend": self.backend, "params": self.canonical_params},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def plan_id(self) -> str:
        """Hash of the full decision (semantic + physical, no placement)."""
        payload = json.dumps(
            {
                "backend": self.backend,
                "params": self.canonical_params,
                "kernel": self.kernel,
                "parallelism": self.parallelism,
                "max_workers": self.max_workers,
                "fused": self.fused,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- derived views -------------------------------------------------------

    def with_shard(self, shard_id: str) -> "ExecutionPlan":
        """The same decision annotated with its placement (identity unchanged)."""
        return replace(self, shard_hint=shard_id)

    def to_dict(self) -> dict[str, object]:
        """The plan as a JSON-friendly dict (canonical params, both ids)."""
        return {
            "backend": self.backend,
            "backend_params": [list(pair) for pair in self.canonical_params],
            "kernel": self.kernel,
            "parallelism": self.parallelism,
            "max_workers": self.max_workers,
            "fused": self.fused,
            "shard_hint": self.shard_hint,
            "policy": self.policy,
            "reason": self.reason,
            "plan_id": self.plan_id,
            "semantic_id": self.semantic_id,
        }

    def canonical_json(self) -> str:
        """Byte-stable serialisation (what the determinism tests compare)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def describe(self) -> str:
        """One-line rendering for reports and EXPLAIN output.

        Interned: every query's result carries its plan, and equal plans
        render to one shared string, so a caller that keeps a description
        per served query holds one copy per distinct plan.
        """
        bits = [f"backend={self.backend}"]
        if self.canonical_params:
            bits.append(
                "params={" + ",".join(f"{k}={v}" for k, v in self.canonical_params) + "}"
            )
        bits.append(f"kernel={self.kernel}")
        bits.append(f"parallelism={self.parallelism}")
        if self.max_workers is not None:
            bits.append(f"max_workers={self.max_workers}")
        if self.fused:
            bits.append("fused")
        if self.shard_hint is not None:
            bits.append(f"shard={self.shard_hint}")
        bits.append(f"policy={self.policy}")
        return sys.intern(" ".join(bits))
