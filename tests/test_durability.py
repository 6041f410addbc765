"""Tests for the durability tier: journal, crash recovery, exactly-once.

The correctness frame is the ISSUE's exactly-once guarantee: a coordinator
SIGKILLed mid-stream and recovered from its write-ahead journal must lose no
admitted batch (``lost_batches == 0``), serve no batch twice
(``duplicate_results == 0``), and produce the same merged
:meth:`ClusterReport.signature` as a crash-free run — on the local and the
tcp transport alike.  Around it: WAL framing and torn-tail replay, checkpoint
rotation/pruning, the truncate-at-every-boundary invariants of
:func:`read_journal_state`, submit dedup, and the shard-spawn failure
satellite.
"""

import gc
import tempfile

import pytest

from repro.cluster import ClusterCoordinator, ClusterReport, OpenLoopLoadGenerator
from repro.durability import (
    CoordinatorJournal,
    CoordinatorSupervisor,
    WriteAheadJournal,
    read_journal_state,
    recover,
)
from repro.durability.journal import SEGMENT_PREFIX as WAL_PREFIX
from repro.elastic import FaultPlan
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.net import ShardSpawnError
from repro.net.shard_server import ShardServerConfig, start_shard_server
from repro.planner import ExecutionPlan
from repro.service import leaked_segments
from repro.wire import JournalAdmit, JournalCheckpoint, JournalComplete, Ping, WireShardQuery
from repro.workloads import permutation_workload

PLAN = ExecutionPlan(backend="deterministic", max_workers=2)


@pytest.fixture(scope="module")
def graphs():
    return [random_regular_expander(48, degree=4, seed=seed) for seed in (1, 2)]


def _coordinator_kwargs(**overrides):
    defaults = dict(
        shard_count=3,
        cache_capacity=16,
        default_plan=PLAN,
        metrics=MetricsRegistry(),
    )
    defaults.update(overrides)
    return defaults


# -- WAL framing and replay --------------------------------------------------------


def test_wal_append_replay_round_trip(tmp_path):
    records = [
        JournalAdmit(key="k-1", shard_id="shard-0", accepted=True),
        JournalComplete(key="k-1", fingerprint="fp-1", shard_id="shard-0"),
        Ping(),  # any registered wire message journals
    ]
    with WriteAheadJournal(tmp_path, metrics=MetricsRegistry()) as wal:
        for record in records:
            assert wal.append(record) > 8  # header + payload
        assert list(wal.replay()) == records
        assert wal.size_bytes() == sum(p.stat().st_size for p in wal.segments())


def test_wal_rejects_tiny_segments_and_closed_appends(tmp_path):
    with pytest.raises(ValueError):
        WriteAheadJournal(tmp_path, segment_bytes=4)
    wal = WriteAheadJournal(tmp_path, metrics=MetricsRegistry())
    wal.close()
    wal.close()  # idempotent
    with pytest.raises(ValueError):
        wal.append(Ping())


def test_wal_replay_stops_at_torn_tail(tmp_path):
    wal = WriteAheadJournal(tmp_path, metrics=MetricsRegistry())
    wal.append(JournalAdmit(key="k-1", shard_id="shard-0", accepted=True))
    wal.append(JournalComplete(key="k-1", fingerprint="fp", shard_id="shard-0"))
    wal.abandon()
    [segment] = wal.segments()
    intact = segment.read_bytes()
    # Truncating anywhere strictly inside the second record must replay
    # exactly the first; corrupting a payload byte must stop before it.
    first_len = len(intact) // 2  # records are same-shaped; split point is inside rec 2
    for cut in (len(intact) - 1, len(intact) - 5, first_len + 1):
        segment.write_bytes(intact[:cut])
        replayed = list(WriteAheadJournal(tmp_path, metrics=MetricsRegistry()).replay())
        assert len(replayed) <= 1
        if replayed:
            assert replayed[0].key == "k-1"
    segment.write_bytes(intact[:-3] + b"???")
    replayed = list(WriteAheadJournal(tmp_path, metrics=MetricsRegistry()).replay())
    assert len(replayed) == 1  # checksum catches the flipped tail bytes


def test_wal_rotation_and_checkpoint_pruning(tmp_path):
    metrics = MetricsRegistry()
    wal = WriteAheadJournal(tmp_path, segment_bytes=256, metrics=metrics)
    for index in range(20):
        wal.append(JournalAdmit(key=f"k-{index}", shard_id="shard-0", accepted=True))
    assert len(wal.segments()) > 1  # tiny segment_bytes forces rotation
    wal.checkpoint(JournalCheckpoint(shard_ids=("shard-0",)))
    wal.append(JournalComplete(key="k-0", fingerprint="fp", shard_id="shard-0"))
    # Everything before the checkpoint is pruned; replay starts at it.
    replayed = list(wal.replay())
    assert isinstance(replayed[0], JournalCheckpoint)
    assert [type(r).__name__ for r in replayed] == ["JournalCheckpoint", "JournalComplete"]
    totals = metrics.as_dict()
    assert sum(totals["repro_journal_checkpoints_total"].values()) >= 1
    assert sum(totals["repro_journal_bytes_total"].values()) > 0
    wal.close()


# -- group commit ------------------------------------------------------------------


def _record_boundaries(data: bytes) -> list[int]:
    """Byte offsets where each journal record ends (header-walk, no decode)."""
    ends, offset = [], 0
    while offset + 8 <= len(data):
        length = int.from_bytes(data[offset : offset + 4], "big")
        offset += 8 + length
        ends.append(offset)
    return ends


def test_wal_group_commit_replays_like_individual_appends(tmp_path):
    """One buffered write, byte-identical framing, same replay — plus metrics."""
    records = [
        JournalAdmit(key=f"k-{index}", shard_id="shard-0", accepted=True)
        for index in range(4)
    ] + [JournalComplete(key="k-0", fingerprint="fp", shard_id="shard-0")]
    metrics = MetricsRegistry()
    with WriteAheadJournal(tmp_path / "grouped", metrics=metrics) as grouped:
        assert grouped.append_group(records) > 0
        assert grouped.append_group([]) == 0  # empty group: no write, no flush
        assert list(grouped.replay()) == records
        [grouped_segment] = grouped.segments()
        grouped_bytes = grouped_segment.read_bytes()
    with WriteAheadJournal(tmp_path / "single", metrics=MetricsRegistry()) as single:
        for record in records:
            single.append(record)
        [single_segment] = single.segments()
        # Replay cannot tell a group from individual appends: same bytes.
        assert single_segment.read_bytes() == grouped_bytes
    totals = metrics.as_dict()
    assert sum(totals["repro_journal_group_commits_total"].values()) == 1
    assert sum(totals["repro_journal_group_records_total"].values()) == len(records)


def test_wal_torn_group_loses_only_the_tail(tmp_path):
    wal = WriteAheadJournal(tmp_path, metrics=MetricsRegistry())
    wal.append(JournalAdmit(key="before", shard_id="s0", accepted=True))
    wal.append_group(
        [JournalAdmit(key=f"g-{index}", shard_id="s0", accepted=True) for index in range(3)]
    )
    wal.abandon()
    [segment] = wal.segments()
    intact = segment.read_bytes()
    ends = _record_boundaries(intact)
    assert len(ends) == 4
    # A crash mid-group truncates at an arbitrary byte: the group's intact
    # record prefix replays, the torn suffix is gone, nothing corrupts.
    segment.write_bytes(intact[: ends[2] + 3])
    replayed = list(WriteAheadJournal(tmp_path, metrics=MetricsRegistry()).replay())
    assert [record.key for record in replayed] == ["before", "g-0", "g-1"]


def test_submit_many_group_commits_one_flush(tmp_path, graphs):
    metrics = MetricsRegistry()
    journal = CoordinatorJournal(tmp_path, metrics=metrics)
    with ClusterCoordinator(**_coordinator_kwargs(), journal=journal) as coordinator:
        calls = [
            dict(
                graph=graphs[index % 2],
                requests=permutation_workload(graphs[index % 2], shift=1 + index),
            )
            for index in range(4)
        ]
        outcomes = coordinator.submit_many(calls)
        assert all(
            not isinstance(outcome, Exception) and outcome.accepted for outcome in outcomes
        )
        totals = metrics.as_dict()
        assert sum(totals["repro_journal_group_commits_total"].values()) == 1
        assert sum(totals["repro_journal_group_records_total"].values()) == len(calls)
        report = coordinator.dispatch()
        assert report.query_count == len(calls)
        assert report.all_delivered


@pytest.mark.chaos
def test_sigkill_mid_group_commit_loses_only_unacked_admissions(tmp_path, graphs):
    """Death inside a coalescing window: the torn group's admissions were
    never acknowledged, so losing them keeps exactly-once intact — acked work
    recovers and dedups, doomed keys resubmit fresh, nothing serves twice."""
    kwargs = _coordinator_kwargs()
    journal = CoordinatorJournal(tmp_path, metrics=MetricsRegistry())
    coordinator = ClusterCoordinator(**kwargs, journal=journal)
    for index in range(2):
        coordinator.submit(
            graphs[index],
            permutation_workload(graphs[index], shift=1),
            idempotency_key=f"acked-{index}",
        )
    # A group-commit window opens and buffers two admissions; the process is
    # SIGKILLed before the flush — simulated by entering the window and
    # abandoning the journal without ever exiting (kill -9 runs no exits).
    window = journal.group()
    window.__enter__()
    for index in range(2):
        coordinator.submit(
            graphs[index],
            permutation_workload(graphs[index], shift=2),
            idempotency_key=f"doomed-{index}",
        )
    journal.abandon()
    for worker in coordinator.workers.values():
        worker.close()
    # The buffered group can no longer reach disk (generator cleanup only;
    # a real SIGKILL never runs this at all).
    with pytest.raises(ValueError, match="closed"):
        window.__exit__(None, None, None)

    recovered, report = recover(tmp_path, kwargs)
    try:
        assert report.batches_recovered == 2  # the flushed admissions only
        assert set(recovered.pending_keys()) == {"acked-0", "acked-1"}
        # The doomed keys were never acked, so the client's crash-retry
        # resubmission is admitted fresh (not a duplicate)…
        retry = recovered.submit(
            graphs[0],
            permutation_workload(graphs[0], shift=2),
            idempotency_key="doomed-0",
        )
        assert retry.accepted and not retry.duplicate
        # …while flushed work dedups instead of double-enqueueing.
        assert recovered.submit(
            graphs[0],
            permutation_workload(graphs[0], shift=1),
            idempotency_key="acked-0",
        ).duplicate
        final = recovered.dispatch()
        assert final.query_count == 3
        assert final.all_delivered
        assert recovered.duplicate_results == 0
    finally:
        recovered.close()


# -- truncation invariants ---------------------------------------------------------


def _journal_some_traffic(tmp_path, graphs):
    """Drive a real journaling coordinator and return its journal directory."""
    journal = CoordinatorJournal(
        tmp_path, segment_bytes=1 << 16, checkpoint_interval=25, metrics=MetricsRegistry()
    )
    coordinator = ClusterCoordinator(**_coordinator_kwargs(), journal=journal)
    for round_index in range(3):
        for graph in graphs:
            for shift in (1, 2, 3):
                coordinator.submit(graph, permutation_workload(graph, shift=shift))
        coordinator.dispatch()
    # Abandon, not close: a clean shutdown folds everything into one final
    # checkpoint and there would be no record boundaries left to truncate at.
    journal.abandon()
    for worker in coordinator.workers.values():
        worker.close()
    return tmp_path


def test_recovery_invariants_hold_at_every_record_boundary(tmp_path, graphs):
    """Crash-at-every-boundary: fold each record-prefix of the journal and
    assert the exactly-once invariants hold at every one of them."""
    directory = _journal_some_traffic(tmp_path, graphs)
    wal = WriteAheadJournal(directory, metrics=MetricsRegistry())
    [*paths] = wal.segments()
    frames = []
    for path in paths:
        data = path.read_bytes()
        offset = 0
        while offset + 8 <= len(data):
            length = int.from_bytes(data[offset : offset + 4], "big")
            frames.append((path, offset + 8 + length))
            offset += 8 + length
    wal.close()
    assert len(frames) > 10
    originals = {path: path.read_bytes() for path in paths}
    try:
        for cut_path, cut in frames:
            # Restore everything, then truncate one segment at one boundary
            # (and drop the segments after it, as a crash there would).
            dropping = False
            for path in paths:
                if dropping:
                    path.unlink(missing_ok=True)
                elif path == cut_path:
                    path.write_bytes(originals[path][:cut])
                    dropping = True
                else:
                    path.write_bytes(originals[path])
            state = read_journal_state(directory)
            # No batch is both pending and completed, ever.
            assert not set(state.pending) & state.completed
            # Pending queries carry their own keys, replayable verbatim.
            assert all(
                query.idempotency_key == key for key, query in state.pending.items()
            )
            assert all(isinstance(q, WireShardQuery) for q in state.warm.values())
            assert state.records_total >= 1
    finally:
        for path in paths:
            path.write_bytes(originals[path])


def test_read_journal_state_never_resurrects_shed_keys(tmp_path):
    wal = WriteAheadJournal(tmp_path, metrics=MetricsRegistry())
    query_a = WireShardQuery(fingerprint="fp-a", idempotency_key="k-a")
    query_b = WireShardQuery(fingerprint="fp-b", idempotency_key="k-b")
    wal.append(JournalAdmit(key="k-a", shard_id="s0", accepted=True, query=query_a))
    # k-b's admission sheds k-a from the queue: k-a must never come back.
    wal.append(
        JournalAdmit(
            key="k-b", shard_id="s0", accepted=True, shed_keys=("k-a",), query=query_b
        )
    )
    wal.append(JournalComplete(key="k-b", fingerprint="fp-b", shard_id="s0"))
    wal.close()
    state = read_journal_state(tmp_path)
    assert "k-a" not in state.pending
    assert state.completed == {"k-b"}
    assert state.admission["s0"]["shed"] == 1
    assert list(state.warm) == ["fp-b"]  # completion promoted the exemplar


# -- exactly-once submit dedup -----------------------------------------------------


def test_submit_dedup_is_exactly_once(graphs):
    with ClusterCoordinator(**_coordinator_kwargs()) as coordinator:
        workload = permutation_workload(graphs[0], shift=1)
        first = coordinator.submit(graphs[0], workload, idempotency_key="once")
        assert first.accepted and not first.duplicate
        # Pending: a resubmission dedups onto the original owner.
        again = coordinator.submit(graphs[0], workload, idempotency_key="once")
        assert again.duplicate and not again.accepted
        assert again.shard_id == first.shard_id
        report = coordinator.dispatch()
        assert report.query_count == 1
        # Completed: still dedups, and nothing re-executes.
        done = coordinator.submit(graphs[0], workload, idempotency_key="once")
        assert done.duplicate
        assert coordinator.dispatch().query_count == 0
        assert coordinator.duplicate_results == 0
        assert coordinator.completed_key_count() == 1
        dedups = coordinator.metrics.as_dict()["repro_journal_dedup_hits_total"]
        assert sum(dedups.values()) == 2


def test_journaled_coordinator_auto_keys_unkeyed_submissions(tmp_path, graphs):
    journal = CoordinatorJournal(tmp_path, metrics=MetricsRegistry())
    with ClusterCoordinator(**_coordinator_kwargs(), journal=journal) as coordinator:
        decision = coordinator.submit(graphs[0], permutation_workload(graphs[0], shift=1))
        assert decision.accepted
        [key] = coordinator.pending_keys()
        assert key.startswith("auto-")
        coordinator.dispatch()
        assert coordinator.pending_keys() == {}
        assert coordinator.completed_key_count() == 1


# -- recovery ----------------------------------------------------------------------


def test_recover_readmits_pending_and_dedups_completed(tmp_path, graphs):
    kwargs = _coordinator_kwargs()
    journal = CoordinatorJournal(tmp_path, metrics=MetricsRegistry())
    coordinator = ClusterCoordinator(**kwargs, journal=journal)
    workloads = [permutation_workload(g, shift=s) for g in graphs for s in (1, 2)]
    for index, workload in enumerate(workloads[:2]):
        coordinator.submit(graphs[index % 2], workload, idempotency_key=f"done-{index}")
    coordinator.dispatch()
    for index, workload in enumerate(workloads[2:]):
        coordinator.submit(graphs[index % 2], workload, idempotency_key=f"pend-{index}")
    # SIGKILL semantics: abandon the journal, drop the coordinator unclosed.
    journal.abandon()
    for worker in coordinator.workers.values():
        worker.close()

    recovered, report = recover(tmp_path, kwargs)
    try:
        assert report.checkpoint_found
        assert report.batches_recovered == 2
        assert report.completed_keys == 2
        assert report.rewarm_failures == 0
        assert report.replay_records_per_second >= 0
        assert set(report.summary()) >= {"batches_recovered", "journal_bytes"}
        # The recovered incarnation dedups both finished and in-flight keys.
        assert recovered.submit(
            graphs[0], workloads[0], idempotency_key="done-0"
        ).duplicate
        assert recovered.submit(
            graphs[0], workloads[2], idempotency_key="pend-0"
        ).duplicate
        # The two recovered batches serve exactly once.
        final = recovered.dispatch()
        assert final.query_count == 2
        assert final.all_delivered
        assert recovered.duplicate_results == 0
    finally:
        recovered.close()


def test_recover_rewarms_caches_for_signature_parity(tmp_path, graphs):
    kwargs = _coordinator_kwargs()

    def drive(coordinator):
        for graph in graphs:
            for shift in (1, 2):
                coordinator.submit(graph, permutation_workload(graph, shift=shift))
        return coordinator.dispatch()

    # Crash-free twin: two dispatch cycles, the second entirely cache-warm.
    with ClusterCoordinator(**_coordinator_kwargs()) as twin:
        drive(twin)
        baseline = drive(twin)
    assert baseline.cache_hits == baseline.query_count

    journal = CoordinatorJournal(tmp_path, metrics=MetricsRegistry())
    coordinator = ClusterCoordinator(**kwargs, journal=journal)
    drive(coordinator)
    journal.abandon()
    for worker in coordinator.workers.values():
        worker.close()
    recovered, report = recover(tmp_path, kwargs)
    try:
        assert report.rewarmed == len(graphs)
        after = drive(recovered)
        # Re-warmed caches reproduce the crash-free hit stream byte for byte.
        assert after.cache_hits == after.query_count
        assert after.preprocess_rounds_incurred == 0
        assert after.signature() == baseline.signature()
    finally:
        recovered.close()


def test_checkpoint_with_fused_cost_entries_still_recovers(tmp_path, graphs):
    """Checkpoints that carry "fused"-phase cost entries still recover.

    The planner once kept a separate cost curve for fused batches, so older
    checkpoints hold ``...|fused|...`` calibration keys.  Restoring keeps
    them as inert state (no estimate reads them) and the coordinator serves.
    """
    kwargs = _coordinator_kwargs(policy="cost")
    journal = CoordinatorJournal(tmp_path, metrics=MetricsRegistry())
    coordinator = ClusterCoordinator(**kwargs, journal=journal)
    for graph in graphs:
        coordinator.submit(graph, permutation_workload(graph, shift=1))
    coordinator.dispatch()
    # The entry the fused-batch feedback used to record per fused query.
    coordinator.planner.cost_model.observe(
        "deterministic", "numpy", 48, "fused", 0.002, workload="permutation"
    )
    journal.checkpoint_now()
    fused_key = "deterministic|numpy|6|fused|permutation"
    fused_entry = coordinator.planner.cost_model.snapshot()[fused_key]
    journal.abandon()
    for worker in coordinator.workers.values():
        worker.close()

    recovered, report = recover(tmp_path, kwargs)
    try:
        assert report.checkpoint_found
        assert recovered.planner.cost_model.snapshot()[fused_key] == fused_entry
        for graph in graphs:
            recovered.submit(graph, permutation_workload(graph, shift=2))
        assert recovered.dispatch().all_delivered
    finally:
        recovered.close()


def test_recovery_without_a_checkpoint_starts_fresh(tmp_path):
    (tmp_path / f"{WAL_PREFIX}00000000.log").write_bytes(b"")
    coordinator, report = recover(tmp_path, _coordinator_kwargs(), attach=False)
    try:
        assert not report.checkpoint_found
        assert report.batches_recovered == 0
        assert coordinator.shard_count == 3  # falls back to configured shard_count
    finally:
        coordinator.close()


def test_supervisor_crash_recover_cycle_survives_a_second_crash(tmp_path, graphs):
    """The recovered incarnation is itself recoverable (seeded journal)."""
    supervisor = CoordinatorSupervisor(tmp_path, _coordinator_kwargs())
    with supervisor:
        coordinator = supervisor.start()
        with pytest.raises(RuntimeError):
            supervisor.start()  # one live incarnation at a time
        for index in range(4):
            coordinator.submit(
                graphs[index % 2],
                permutation_workload(graphs[index % 2], shift=1 + index % 3),
                idempotency_key=f"k-{index}",
            )
        coordinator = supervisor.crash_coordinator()
        assert supervisor.crashes == 1
        assert len(supervisor.recoveries) == 1
        assert supervisor.recoveries[0].batches_recovered == 4
        # Crash again before dispatching: the seeded journal still holds the
        # re-admitted batches, so nothing is lost across the double crash.
        coordinator = supervisor.crash_coordinator()
        assert supervisor.recoveries[1].batches_recovered == 4
        report = coordinator.dispatch()
        assert report.query_count == 4
        assert report.all_delivered
        assert coordinator.duplicate_results == 0


def test_a_crashed_tcp_coordinator_leaves_no_socket_directory(tmp_path, monkeypatch, graphs):
    # A crash drops the coordinator without close(); its socket directory
    # goes when the dropped coordinator is collected.
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    kwargs = _coordinator_kwargs(shard_count=1, transport="tcp")
    supervisor = CoordinatorSupervisor(tmp_path / "journal", kwargs)
    with supervisor:
        supervisor.start().submit(
            graphs[0], permutation_workload(graphs[0], shift=1), idempotency_key="k-0"
        )
        assert len(list(temp.glob("repro-net-*"))) == 1
        report = supervisor.crash_coordinator().dispatch()
        assert report.query_count == 1 and report.all_delivered
    gc.collect()
    assert list(temp.glob("repro-net-*")) == []


# -- chaos: coordinator crash under open-loop load ---------------------------------


def _chaos_recipe(transport: str):
    graphs = [random_regular_expander(48, degree=4, seed=s) for s in (1, 2)]
    kwargs = _coordinator_kwargs(
        shard_count=2 if transport == "tcp" else 3, transport=transport
    )

    def generator():
        return OpenLoopLoadGenerator(
            graphs, rate=120.0, duration=0.4, dispatch_interval=0.1, seed=3
        )

    return kwargs, generator


def _merged_signature(report):
    return ClusterReport.merged(report.cluster_reports).signature()


def _crash_parity_run(tmp_path, transport):
    kwargs, generator = _chaos_recipe(transport)
    baseline_coordinator = ClusterCoordinator(**{**kwargs, "metrics": MetricsRegistry()})
    with baseline_coordinator:
        baseline = generator().run(baseline_coordinator)
    supervisor = CoordinatorSupervisor(tmp_path, kwargs)
    with supervisor:
        coordinator = supervisor.start()
        chaos = generator().run(
            coordinator,
            fault_plan=FaultPlan.coordinator_crash(at=0.23),
            supervisor=supervisor,
        )
    assert supervisor.crashes == 1
    assert len(supervisor.recoveries) == 1
    assert supervisor.recoveries[0].batches_recovered > 0
    assert chaos.lost_batches == 0
    assert chaos.duplicate_results == 0
    assert chaos.completed == baseline.completed
    assert _merged_signature(chaos) == _merged_signature(baseline)
    applied = [row for row in chaos.fault_events if row["applied"]]
    assert [row["kind"] for row in applied] == ["coordinator-crash"]


def test_local_coordinator_crash_recovers_with_signature_parity(tmp_path):
    _crash_parity_run(tmp_path, "local")


@pytest.mark.chaos
def test_tcp_coordinator_crash_recovers_with_signature_parity(tmp_path):
    """SIGKILLs real shard server processes; the journal still recovers a
    byte-identical run, and nothing is left in /dev/shm."""
    _crash_parity_run(tmp_path, "tcp")
    assert leaked_segments() == []


# -- shard spawn failures ----------------------------------------------------------


def test_start_shard_server_raises_clear_spawn_error(tmp_path):
    config = ShardServerConfig(
        shard_id="doomed",
        socket_path=str(tmp_path / "no-such-dir" / "doomed.sock"),
        default_plan=PLAN,
    )
    with pytest.raises(ShardSpawnError, match="doomed"):
        start_shard_server(config, metrics=MetricsRegistry())
