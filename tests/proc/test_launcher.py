"""ProcessCluster units that never spawn a process, plus the lenient
trace reader that survives ``kill -9``-torn files."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.obs.sinks import JsonlSink
from repro.proc import ProcessCluster
from repro.proc.launcher import _read_trace_lenient


# ---------------------------------------------------------- lenient reading
def write_trace(path, events, torn_tail=None):
    sink = JsonlSink(path, node=0, epoch_wall=100.0, epoch_mono=50.0)
    for time, kind, pid in events:
        sink.record(time, kind, pid)
    sink.close()
    if torn_tail is not None:
        with open(path, "a", encoding="utf-8") as f:
            f.write(torn_tail)


def test_lenient_reader_on_an_intact_file(tmp_path):
    path = tmp_path / "node-0.jsonl"
    write_trace(path, [(0.1, "fd.suspect", 0), (0.2, "fd.restore", 0)])
    trace = _read_trace_lenient(path)
    assert [ev.kind for ev in trace.events] == ["fd.suspect", "fd.restore"]
    assert trace.node == 0
    assert trace.epoch_wall == 100.0


def test_lenient_reader_keeps_prefix_of_a_torn_file(tmp_path):
    path = tmp_path / "node-0.jsonl"
    # kill -9 landed mid-write: the final line is half a JSON object.
    write_trace(
        path,
        [(0.1, "fd.suspect", 0), (0.2, "fd.restore", 0)],
        torn_tail='{"t": 0.3, "k": "fd.sus',
    )
    trace = _read_trace_lenient(path)
    assert [ev.kind for ev in trace.events] == ["fd.suspect", "fd.restore"]


def test_lenient_reader_on_an_empty_victim(tmp_path):
    """A node killed before its first event ships a header-only file."""
    path = tmp_path / "node-0.jsonl"
    write_trace(path, [])
    assert _read_trace_lenient(path).events == []


# --------------------------------------------------- launcher without spawns
def test_ctor_validates_like_an_address_book(tmp_path):
    with pytest.raises(ConfigurationError, match="loopback"):
        ProcessCluster(2, transport="loopback", workdir=tmp_path)
    with pytest.raises(ConfigurationError):
        ProcessCluster(2, stack="star", workdir=tmp_path)
    with pytest.raises(ConfigurationError):
        ProcessCluster(0, workdir=tmp_path)


def test_prestart_state(tmp_path):
    cluster = ProcessCluster(3, workdir=tmp_path, duration=1.0)
    assert cluster.correct_pids == frozenset({0, 1, 2})
    assert cluster.elapsed == 0.0
    assert [p.name for p in cluster.trace_files] == [
        "node-0.jsonl", "node-1.jsonl", "node-2.jsonl"
    ]


def test_crash_validates_pid_and_queues_before_start(tmp_path):
    cluster = ProcessCluster(3, workdir=tmp_path)
    with pytest.raises(ConfigurationError, match="out of range"):
        cluster.crash(3)
    cluster.crash(0, at=2.5)  # queued: nothing to kill yet
    assert cluster._pending_crashes == [(0, 2.5)]
    assert cluster.correct_pids == frozenset({0, 1, 2})


def test_wait_quiescent_requires_start(tmp_path):
    cluster = ProcessCluster(2, workdir=tmp_path)

    async def drive():
        with pytest.raises(ConfigurationError, match="not started"):
            await cluster.wait_quiescent(timeout=0.1)

    asyncio.run(drive())


def test_stop_before_start_is_a_safe_noop(tmp_path):
    cluster = ProcessCluster(2, workdir=tmp_path)
    asyncio.run(cluster.stop())
    asyncio.run(cluster.stop())  # idempotent
    assert cluster.exit_statuses == {}


def test_merged_stream_ends_when_the_first_correct_node_stopped(tmp_path):
    """Node 1 started 0.2 s after node 0, so it outlives it and suspects
    the peer that exited; that teardown tail is not part of the run."""
    cluster = ProcessCluster(2, workdir=tmp_path, duration=1.0)
    for pid, epoch, events in (
        (0, 100.0, [(0.5, "fd", 0), (0.99, "fd", 0)]),
        (1, 100.2, [(0.5, "fd", 1), (0.95, "fd", 1)]),
    ):
        sink = JsonlSink(
            cluster.trace_files[pid], node=pid,
            epoch_wall=epoch, epoch_mono=epoch,
        )
        for time, kind, who in events:
            sink.record(time, kind, who)
        sink.close()
    assert cluster.run_end() == pytest.approx(1.0)
    times = [ev.time for ev in cluster.traces().events]
    assert times == pytest.approx([0.5, 0.7, 0.99])
