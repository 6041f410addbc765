"""Cost-model-driven query planning: one decision point for every execution knob.

``repro.planner`` unifies the execution choices that previously lived in
scattered kwargs — routing backend, compute kernel, fusion, and shard
placement — behind a single
:class:`ExecutionPlan` produced by a :class:`QueryPlanner`:

* :class:`ExecutionPlan` — the immutable decision record the serving layers
  execute (and report) against;
* :class:`CostModel` — asymptotic priors from
  :mod:`repro.analysis.complexity`, calibrated online by an EWMA of the
  per-query / per-preprocess timings the service already measures;
* :class:`QueryPlanner` — policies ``fixed`` / ``cost`` / ``adaptive``, a
  deterministic plan cache, and EXPLAIN-style :class:`PlanExplanation`
  reports.

See the README's "Query planning" section and ``examples/planner_explain.py``
for a tour.
"""

from repro.planner.cost import CostEstimate, CostModel, size_bucket
from repro.planner.plan import ExecutionPlan
from repro.planner.planner import (
    PLAN_POLICIES,
    PlanExplanation,
    QueryPlanner,
    workload_signature,
)

__all__ = [
    "CostEstimate",
    "CostModel",
    "size_bucket",
    "ExecutionPlan",
    "PLAN_POLICIES",
    "PlanExplanation",
    "QueryPlanner",
    "workload_signature",
]
