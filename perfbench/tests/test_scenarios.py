"""Due-time latency accounting and matching reports back to submissions."""

import threading
import time
from pathlib import Path
from types import SimpleNamespace

from perfbench.scenarios import Ledger, Phase, Query, System, open_loop


def _result(query_id: int, tokens: int, fingerprint: str = "f", cache_hit: bool = True):
    return SimpleNamespace(
        query_id=query_id,
        fingerprint=fingerprint,
        cache_hit=cache_hit,
        plan=None,
        outcome=SimpleNamespace(
            delivered=tokens, total_tokens=tokens, query_rounds=9, preprocess_rounds=7
        ),
    )


def _report(by_shard: dict[str, list]):
    shard_reports = {shard: SimpleNamespace(results=results) for shard, results in by_shard.items()}
    return SimpleNamespace(
        query_count=sum(len(results) for results in by_shard.values()),
        shard_reports=shard_reports,
    )


def _accepted(shard: str):
    return SimpleNamespace(shard_id=shard, accepted=True, duplicate=False)


def _query(tokens: int, due: float | None = None) -> Query:
    return Query(graph=0, requests=tuple(range(tokens)), due=due)


def test_reports_match_the_oldest_admissions_per_shard_in_order():
    ledger = Ledger()
    queries = [_query(1), _query(2), _query(3), _query(4)]
    for query, shard in zip(queries, ["a", "b", "a", "b"]):
        ledger.admit(query, _accepted(shard))
    # Results are listed out of order; the ledger sorts them by query id.
    ledger.serve(_report({"a": [_result(7, 3), _result(5, 1)], "b": [_result(6, 2)]}), done=1.0)
    assert [q.ok for q in queries] == [True, True, True, False]
    assert ledger.outstanding == 1
    ledger.serve(_report({"b": [_result(9, 4, cache_hit=False)]}), done=2.0)
    assert queries[3].ok and queries[3].done == 2.0
    assert queries[3].outcome == (4, 4, 9, 7)
    assert ledger.cold_builds == 1
    assert ledger.unexpected_results == 0


def test_misaligned_rejected_unexpected_and_lost_queries_fail():
    ledger = Ledger()
    first, second, rejected, lost = _query(1), _query(2), _query(1), _query(1)
    ledger.admit(first, _accepted("a"))
    ledger.admit(second, _accepted("a"))
    ledger.admit(rejected, SimpleNamespace(shard_id="a", accepted=False, duplicate=False))
    # Token counts swapped: the report does not describe these submissions.
    ledger.serve(_report({"a": [_result(0, 2), _result(1, 1)]}), done=1.0)
    assert first.error == second.error == "misaligned"
    assert rejected.error == "rejected"
    ledger.serve(_report({"a": [_result(2, 1)]}), done=1.0, wait=0.01)
    assert ledger.unexpected_results == 1
    ledger.admit(lost, _accepted("a"))
    ledger.abandon()
    assert lost.error == "lost"
    assert not any(q.ok for q in (first, second, rejected, lost))


def test_open_loop_latency_counts_from_the_due_time():
    query = _query(1, due=0.25)
    phase = Phase([query], start=100.0, elapsed=2.0, ledger=Ledger())
    query.issued, query.done = 100.75, 101.0  # submitted half a second late
    query.outcome = SimpleNamespace(delivered=1, total_tokens=1)
    assert phase.latency(query) == 0.75  # not 0.25: the lateness is charged
    closed = Query(graph=0, requests=(0,), issued=5.0, done=5.5)
    closed.outcome = SimpleNamespace(delivered=1, total_tokens=1)
    assert Phase([closed], 0.0, 1.0, Ledger()).latency(closed) == 0.5
    failed = _query(1, due=0.0)
    failed.error = "rejected"
    assert phase.latency(failed) == phase.elapsed


class _StallingCluster:
    """Submit/dispatch fake: the first submit stalls, the rest are instant."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.lock = threading.Lock()
        self.queued: list[int] = []
        self.next_id = 0

    def submit(self, graph, requests):
        if self.next_id == 0:
            time.sleep(self.stall)
        with self.lock:
            self.queued.append(len(requests))
            self.next_id += 1
        return _accepted("a")

    def dispatch(self):
        with self.lock:
            drained, self.queued = self.queued, []
            first = self.next_id - len(drained)
        results = [_result(first + index, tokens) for index, tokens in enumerate(drained)]
        return _report({"a": results} if results else {})


def test_a_stall_is_charged_to_every_query_due_behind_it():
    cluster = _StallingCluster(stall=0.2)
    system = System(
        coordinator=None,
        registry=None,
        submitter=cluster,
        dispatcher=cluster,
        closers=[],
        workdir=Path("."),
    )
    queries = [_query(1, due=due) for due in (0.0, 0.02, 0.04, 0.3)]
    phase = open_loop(system, [None], queries, window=0.01)
    assert all(q.ok for q in queries)
    # Queries due during the stall were issued late, and their latency
    # includes that lateness: at least the stall minus how late they were due.
    for query in queries[1:3]:
        assert query.issued - (phase.start + query.due) >= 0.2 - query.due - 0.005
        assert phase.latency(query) >= 0.2 - query.due - 0.005
    # The query due after the stall was on time.
    assert phase.latency(queries[3]) < 0.15
    assert len(phase.lags) == 4 and max(phase.lags) >= 0.15
