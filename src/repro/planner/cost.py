"""The planner's cost model: asymptotic priors + EWMA-calibrated observations.

Portfolio-style strategy selection only works with a defensible cost
estimate per candidate.  This model combines two signals:

* **Priors** — the paper's round-complexity claims, straight from
  :mod:`repro.analysis.complexity`: the deterministic router pays
  ``L · log^{O(1/ε)} n`` per warm query (Theorem 1.1), the CS20-style
  rebuild-per-query comparator pays its whole preprocessing bound *per
  query*, the randomized baseline pays ``2^{O(√(log n log log n))}``, and
  direct shortest-path routing pays per-request path work.  Priors are
  monotone in graph size for every backend (a property test enforces this)
  and break ties before any measurement exists.
* **Calibration** — an exponentially weighted moving average (EWMA) of the
  per-query and per-preprocess wall-clock the serving layer already
  measures (:class:`~repro.service.BatchReport` results and
  ``repro_service_*`` histograms), keyed by
  ``(backend, kernel, graph-size-bucket)``.  Graph sizes are bucketed by
  bit length (64–127 vertices share a bucket, 128–255 the next, …) so a
  handful of observations generalizes across same-scale graphs.  Every
  observation additionally refines a *workload-class* EWMA under the same
  key extended with the workload name — no single backend wins every
  workload shape (direct shortest-path routing flies on a broadcast and
  collapses under adversarial congestion), so estimates prefer the
  workload-specific curve and fall back to the aggregate.

Once a key has samples, its EWMA replaces the prior; keys without samples
fall back to the prior (scaled into nominal seconds), and the ``adaptive``
policy deliberately probes candidates un-calibrated *for the workload class
at hand* first, so comparisons are measurement-vs-measurement after warm-up.

Every mutation bumps :attr:`CostModel.version`, which the planner's plan
cache keys on — identical calibration state therefore reproduces
byte-identical plans and EXPLAIN output.  All methods are thread-safe (the
cluster tier shares one model across shards).
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass

from repro.analysis.complexity import (
    deterministic_single_instance_bound,
    preprocessing_bound,
    query_bound,
)

__all__ = ["size_bucket", "CostEstimate", "CostModel"]

#: Nominal seconds one abstract "round" of the priors costs.  Only the
#: *ordering* of priors matters (calibration supplies real seconds); the
#: scale just keeps prior magnitudes in the same ballpark as measurements.
PRIOR_ROUND_SECONDS = 2e-5


def size_bucket(n: int) -> int:
    """The calibration bucket for an ``n``-vertex graph (log2 bucketing)."""
    return max(int(n), 2).bit_length()


@dataclass(frozen=True)
class CostEstimate:
    """One candidate's estimated cost, with its provenance.

    Attributes:
        backend: candidate backend name.
        kernel: compute kernel the estimate applies to.
        bucket: graph-size bucket (see :func:`size_bucket`).
        phase: ``"query"`` or ``"preprocess"``.
        prior: the asymptotic prior in nominal seconds.
        calibrated: the EWMA of observed seconds (``None`` before any
            observation) — workload-specific when available, else the
            workload-agnostic aggregate.
        samples: how many observations the served EWMA has absorbed.
        cost: the effective estimate the planner compares (calibrated when
            available, else the prior).
        scope: where ``calibrated`` came from: ``"workload"`` (the specific
            class), ``"aggregate"``, or ``""`` (prior only).
        workload_samples: observations under the workload-specific key —
            the adaptive policy probes candidates where this is still 0.
    """

    backend: str
    kernel: str
    bucket: int
    phase: str
    prior: float
    calibrated: float | None
    samples: int
    cost: float
    scope: str = ""
    workload_samples: int = 0

    @property
    def source(self) -> str:
        if self.calibrated is None:
            return "prior"
        return f"ewma:{self.scope}" if self.scope else "ewma"

    def as_row(self) -> dict[str, object]:
        return {
            "backend": self.backend,
            "phase": self.phase,
            "source": self.source,
            "prior": f"{self.prior:.3e}",
            "calibrated": "-" if self.calibrated is None else f"{self.calibrated:.3e}",
            "samples": self.samples,
            "cost": f"{self.cost:.3e}",
        }


class CostModel:
    """Asymptotics-seeded, EWMA-calibrated cost estimates per execution choice.

    Args:
        epsilon: the service's tradeoff parameter (feeds the Theorem 1.1
            bounds the priors are built from).
        alpha: EWMA smoothing factor in ``(0, 1]`` — the weight of the newest
            observation (0.3 keeps roughly the last handful of samples
            relevant, which tracks cache warm-up quickly without thrashing on
            one noisy measurement).
    """

    def __init__(self, epsilon: float = 0.5, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.epsilon = epsilon
        self.alpha = alpha
        self._lock = threading.RLock()
        # (backend, kernel, bucket, phase, workload) -> [ewma_seconds, samples]
        self._state: dict[tuple[str, str, int, str, str], list[float]] = {}
        self._version = 0
        # state_signature() serializes the whole state; memoized per version
        # (every planner decision embeds the signature in its explanation).
        self._signature_cache: tuple[int, str] | None = None

    # -- priors --------------------------------------------------------------

    def prior_query_rounds(self, backend: str, n: int, load: int = 1) -> float:
        """The asymptotic per-query cost of ``backend`` in abstract rounds.

        Monotone nondecreasing in ``n`` for every backend (property-tested):
        each formula composes the monotone bounds of
        :mod:`repro.analysis.complexity` with nonnegative coefficients.
        """
        n = max(int(n), 4)
        load = max(int(load), 1)
        if backend == "deterministic":
            # Warm query under Theorem 1.1: L * polylog(n); preprocessing is
            # amortized by the artifact cache and charged separately.
            return query_bound(n, self.epsilon, load=load)
        if backend == "rebuild-per-query":
            # The CS20-style comparator rebuilds per query: its whole
            # preprocessing bound lands on every single query.
            return preprocessing_bound(n, self.epsilon) + query_bound(
                n, self.epsilon, load=load
            )
        if backend == "randomized-gks":
            # Two walk phases plus delivery; the doubled O-constant keeps the
            # un-calibrated prior honest about the repeated-phase overhead.
            return load * deterministic_single_instance_bound(n, constant=2.0)
        if backend == "direct":
            # Per-request shortest-path work; congestion makes it load- and
            # n-sensitive even though its round count looks tiny.
            return load * n * math.log2(n)
        # Unknown backends: a neutral polylog prior, so the planner still
        # orders them deterministically without claiming to know them.
        return 2.0 * query_bound(n, self.epsilon, load=load)

    def prior_preprocess_rounds(self, backend: str, n: int) -> float:
        """The asymptotic one-off preprocessing cost in abstract rounds."""
        n = max(int(n), 4)
        if backend == "deterministic":
            return preprocessing_bound(n, self.epsilon)
        # No other bundled backend keeps reusable preprocessed state.
        return 0.0

    # -- calibration ---------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter bumped on every observation (plan-cache key part)."""
        with self._lock:
            return self._version

    def observe(
        self,
        backend: str,
        kernel: str,
        n: int,
        phase: str,
        seconds: float,
        workload: str = "",
    ) -> None:
        """Fold one measured wall-clock into the EWMAs for its key.

        Always refines the workload-agnostic aggregate; with a ``workload``
        label it additionally refines the workload-class curve (estimates
        prefer the specific curve, see :meth:`estimate`).
        """
        if seconds < 0.0 or not math.isfinite(seconds):
            return
        bucket = size_bucket(n)
        keys = [(backend, kernel, bucket, phase, "")]
        if workload:
            keys.append((backend, kernel, bucket, phase, workload))
        with self._lock:
            for key in keys:
                entry = self._state.get(key)
                if entry is None:
                    self._state[key] = [seconds, 1]
                elif entry[1] == 1:
                    # The very first measurement after a cold start is
                    # provisional — it typically includes one-off warm-up
                    # (artifact reconstruction, the kernels' memoization
                    # caches filling).  The second observation replaces it
                    # outright instead of blending 70% of the cold outlier
                    # into the steady-state estimate.
                    entry[0] = seconds
                    entry[1] = 2
                else:
                    entry[0] = self.alpha * seconds + (1.0 - self.alpha) * entry[0]
                    entry[1] += 1
            self._version += 1

    def observe_query(
        self, backend: str, kernel: str, n: int, seconds: float, workload: str = ""
    ) -> None:
        self.observe(backend, kernel, n, "query", seconds, workload=workload)

    def observe_preprocess(
        self, backend: str, kernel: str, n: int, seconds: float
    ) -> None:
        # Preprocessing is workload-independent by definition (it happens
        # before any requests exist), so only the aggregate curve is refined.
        self.observe(backend, kernel, n, "preprocess", seconds)

    def samples(
        self,
        backend: str,
        kernel: str,
        n: int,
        phase: str = "query",
        workload: str = "",
    ) -> int:
        """How many observations the EWMA for this key has absorbed."""
        with self._lock:
            entry = self._state.get((backend, kernel, size_bucket(n), phase, workload))
            return 0 if entry is None else int(entry[1])

    # -- estimates -----------------------------------------------------------

    def estimate(
        self,
        backend: str,
        kernel: str,
        n: int,
        phase: str = "query",
        load: int = 1,
        workload: str = "",
    ) -> CostEstimate:
        """The effective cost estimate for one (backend, kernel, size) choice.

        The workload-class EWMA wins when it has samples; the
        workload-agnostic aggregate is the fallback; the asymptotic prior
        covers keys never observed at all.
        """
        bucket = size_bucket(n)
        if phase == "preprocess":
            prior = self.prior_preprocess_rounds(backend, n) * PRIOR_ROUND_SECONDS
        else:
            prior = self.prior_query_rounds(backend, n, load=load) * PRIOR_ROUND_SECONDS
        with self._lock:
            specific = self._state.get((backend, kernel, bucket, phase, workload))
            aggregate = self._state.get((backend, kernel, bucket, phase, ""))
        if specific is not None:
            entry, scope = specific, ("workload" if workload else "aggregate")
        else:
            entry, scope = aggregate, "aggregate"
        calibrated = None if entry is None else float(entry[0])
        samples = 0 if entry is None else int(entry[1])
        if calibrated is None:
            scope = ""
        return CostEstimate(
            backend=backend,
            kernel=kernel,
            bucket=bucket,
            phase=phase,
            prior=prior,
            calibrated=calibrated,
            samples=samples,
            cost=prior if calibrated is None else calibrated,
            scope=scope,
            workload_samples=0 if specific is None else int(specific[1]),
        )

    # -- state ---------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        """The calibration state as a canonical, JSON-friendly dict."""
        with self._lock:
            return {
                "|".join((backend, kernel, str(bucket), phase, workload)): {
                    "value": value,
                    "samples": samples,
                }
                for (backend, kernel, bucket, phase, workload), (
                    value,
                    samples,
                ) in sorted(self._state.items())
            }

    def restore(self, snapshot: dict[str, dict[str, float]], version: int = 0) -> None:
        """Overwrite the calibration state from a :meth:`snapshot` dict.

        The durability checkpoint carries the snapshot plus the version
        counter; restoring both makes a journal-recovered planner's
        :meth:`state_signature` (and therefore its plan cache) byte-identical
        to the crashed one's.
        """
        state: dict[tuple[str, str, int, str, str], list[float]] = {}
        for key, entry in snapshot.items():
            backend, kernel, bucket, phase, workload = key.split("|", 4)
            state[(backend, kernel, int(bucket), phase, workload)] = [
                float(entry["value"]),
                int(entry["samples"]),
            ]
        with self._lock:
            self._state = state
            self._version = int(version)
            self._signature_cache = None

    def state_signature(self) -> str:
        """Hash of (version, calibration state) — equal hashes ⇒ equal plans."""
        with self._lock:
            if self._signature_cache is not None and self._signature_cache[0] == self._version:
                return self._signature_cache[1]
            payload = json.dumps(
                {"version": self._version, "state": self.snapshot()},
                sort_keys=True,
                separators=(",", ":"),
            )
            signature = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            self._signature_cache = (self._version, signature)
            return signature
