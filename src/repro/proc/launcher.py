""":class:`ProcessCluster` — one OS process per node, ``kill -9`` crashes.

The launcher is the multi-process implementation of the unified
:class:`~repro.cluster.api.ClusterAPI`:

1. **spawn** — :meth:`start` allocates an address book with free ports,
   writes it to the working directory, and spawns one ``python -m repro
   node`` subprocess per pid, each shipping its trace to
   ``node-<pid>.jsonl`` and logging to ``node-<pid>.log``;
2. **crash** — :meth:`crash` delivers ``SIGKILL`` at the scheduled wall
   offset.  Nothing cooperative happens on the victim: no signal handler,
   no flush, no goodbye message — the OS enforces the paper's crash-stop
   model and the launcher remembers the wall time of the kill.  The other
   fault verbs ride the same scheduling machinery: ``stall``/``resume``
   deliver real ``SIGSTOP``/``SIGCONT`` (equally uncooperative), while the
   network verbs (``partition``/``heal``/``isolate``/``degrade``/
   ``restore``/``storm``/``calm``/``skew``) become JSON commands sent to
   each node's :class:`~repro.net.control.FaultControlEndpoint`;
3. **postmortem** — after :meth:`wait_quiescent` and :meth:`stop`,
   :meth:`traces` reads the shipped JSONL files (tolerating a torn final
   line on killed nodes), merges them on a common time base via
   :func:`repro.obs.merge.merge_traces`, and injects a synthetic
   ``crash`` event per kill — victims cannot record their own death, but
   the property checkers need the failure pattern — so
   :meth:`verdicts` judges the run with exactly the code that judges
   in-process clusters.

Restarts are deliberately unsupported: a killed pid stays killed
(crash-stop, not crash-recovery).
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..cluster.api import FaultVerbs, rsm_verdicts, standard_verdicts
from ..net.control import send_fault_command
from ..net.faults import FaultCommand
from ..obs.events import TraceEvent
from ..obs.merge import MergeReport, merge_traces
from ..obs.reader import TraceFile, iter_trace_events
from ..obs.sinks import MemorySink
from ..types import ProcessId, Time
from .book import AddressBook

__all__ = ["ProcessCluster"]


def _read_trace_lenient(path: Path) -> TraceFile:
    """Read one shipped trace, keeping the intact prefix of a torn file.

    A ``kill -9`` can land mid-write; the sink is line-buffered so at most
    the final line is garbage.  Everything before the first undecodable
    line is kept — for a crash-stop victim that *is* its trace.
    """
    stream = iter_trace_events(path)
    header = next(stream)
    events: List[TraceEvent] = []
    try:
        for event in stream:
            events.append(event)  # type: ignore[arg-type]
    except ConfigurationError:
        pass  # torn trailing line
    return TraceFile(
        events=events,
        node=header.get("node"),
        epoch_wall=float(header.get("epoch_wall", 0.0)),
        epoch_mono=float(header.get("epoch_mono", 0.0)),
        path=path,
        header=header,
    )


class ProcessCluster(FaultVerbs):
    """*n* ``repro node`` subprocesses under the unified cluster API.

    Parameters mirror :class:`~repro.cluster.local.LocalCluster` where
    they overlap; the rest configure the spawned processes:

    Parameters:
        n / transport / stack / period / seed / codec: forwarded into the
            address book every node reads (UDP or TCP only — loopback
            cannot cross process boundaries).
        duration: how long each node runs before exiting 0.  The whole
            scenario is scripted up front; there is no live orchestration
            channel into a foreign process.
        propose_after: when set, every (surviving) node proposes
            ``value-from-p<pid>`` at that cluster time.
        serve: allocate a client-facing TCP port per node and run the KV
            service frontend there (``stack="rsm"`` only); addresses are
            in :attr:`serve_addresses` after :meth:`start`.
        workdir: where the book, traces, and logs land; a temporary
            directory by default (kept for debugging, path in
            :attr:`workdir`).
        host: listening interface for every node.
        python: interpreter for the subprocesses (default:
            ``sys.executable``).
        ship_to: ``HOST:PORT`` of a live trace collector; when set it
            rides the address book and every node tees its trace into a
            :class:`~repro.obs.live.StreamingSink` shipping there (see
            ``repro watch``).
    """

    def __init__(
        self,
        n: int,
        transport: str = "udp",
        stack: str = "ring",
        period: Time = 0.05,
        duration: Time = 6.0,
        propose_after: Optional[Time] = None,
        initial_timeout: Optional[Time] = None,
        timeout_increment: Optional[Time] = None,
        seed: int = 0,
        codec: str = "auto",
        workdir: Optional[Union[str, Path]] = None,
        host: str = "127.0.0.1",
        python: Optional[str] = None,
        metrics_interval: Optional[Time] = None,
        serve: bool = False,
        max_batch: int = 64,
        pipeline_depth: int = 4,
        ship_to: Optional[str] = None,
    ) -> None:
        # Validate early (n, transport, stack, codec) by building a
        # node-less book; ports are allocated at start().
        AddressBook(
            n=n, transport=transport, stack=stack, codec=codec,
            max_batch=max_batch, pipeline_depth=pipeline_depth,
        )
        if serve and stack != "rsm":
            raise ConfigurationError(
                "serve=True needs stack='rsm' (the KV frontend submits "
                "into the replicated log)"
            )
        self.serve = serve
        self.n = n
        self.transport = transport
        self.stack = stack
        self.period = period
        self.duration = duration
        self.propose_after = propose_after
        self.initial_timeout = initial_timeout
        self.timeout_increment = timeout_increment
        self.seed = seed
        self.codec = codec
        self.metrics_interval = metrics_interval
        self.max_batch = max_batch
        self.pipeline_depth = pipeline_depth
        self.ship_to = ship_to
        self.host = host
        self.python = python if python is not None else sys.executable
        self.workdir = Path(
            workdir if workdir is not None
            else tempfile.mkdtemp(prefix="repro-proc-")
        )
        self.book: Optional[AddressBook] = None
        self.procs: Dict[ProcessId, subprocess.Popen] = {}
        self.exit_statuses: Dict[ProcessId, Optional[int]] = {}
        self._logs: Dict[ProcessId, Any] = {}
        self._killed: set = set()
        self._kill_walls: Dict[ProcessId, float] = {}
        # Fault verbs accepted before start (see FaultVerbs); live ones
        # arm loop timers.
        self._pending_crashes: List[Tuple[ProcessId, Optional[Time]]] = []
        self._pending_faults: List[Tuple[Optional[Time], FaultCommand]] = []
        self._timers: List[asyncio.TimerHandle] = []
        # In-flight control-command broadcasts (referenced so the tasks
        # survive GC; reaped in stop()) and their terminal failures.
        self._control_tasks: set = set()
        #: Failures delivering fault commands ("node down" timeouts on
        #: killed/frozen targets are expected and land here too).
        self.control_errors: List[str] = []
        self._stalled: set = set()
        # (pid, verb, wall-time) per delivered SIGSTOP/SIGCONT: a frozen
        # process cannot trace its own freeze, so traces() injects these
        # synthetically, like the crash events.
        self._signal_walls: List[Tuple[ProcessId, str, float]] = []
        self._scenario_meta: Optional[Tuple[str, int, Optional[int]]] = None
        self._started = False
        self._stopped = False
        self._t0: Optional[float] = None
        self._postmortem: Optional[MergeReport] = None
        self._trace_cache: Optional[MemorySink] = None

    # ---------------------------------------------------------------- basics
    @property
    def pids(self) -> range:
        return range(self.n)

    @property
    def correct_pids(self) -> frozenset:
        """Pids never killed (crash-stop: killed means gone for good)."""
        return frozenset(pid for pid in self.pids if pid not in self._killed)

    @property
    def trace_files(self) -> List[Path]:
        return [self.workdir / f"node-{pid}.jsonl" for pid in self.pids]

    def log_file(self, pid: ProcessId) -> Path:
        return self.workdir / f"node-{pid}.log"

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Write the book, spawn every node, arm the crash schedule."""
        if self._started:
            raise ConfigurationError("cluster already started")
        self._started = True
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.book = AddressBook.allocate(
            self.n,
            host=self.host,
            serve=self.serve,
            control=True,
            transport=self.transport,
            stack=self.stack,
            period=self.period,
            initial_timeout=self.initial_timeout,
            timeout_increment=self.timeout_increment,
            seed=self.seed,
            codec=self.codec,
            duration=self.duration,
            propose_after=self.propose_after,
            metrics_interval=self.metrics_interval,
            max_batch=self.max_batch,
            pipeline_depth=self.pipeline_depth,
            ship_to=self.ship_to,
        )
        book_path = self.book.save(self.workdir / "book.json")
        env = dict(os.environ)
        # The children must import the same repro tree as the launcher,
        # installed or not.
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        for pid in self.pids:
            log = open(self.log_file(pid), "w", encoding="utf-8")
            self._logs[pid] = log
            self.procs[pid] = subprocess.Popen(
                [
                    self.python, "-m", "repro", "node",
                    "--book", str(book_path),
                    "--pid", str(pid),
                    "--trace-out", str(self.workdir / f"node-{pid}.jsonl"),
                ],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
        await self._wait_control_ready()
        self._t0 = time.monotonic()
        self._flush_faults()

    async def _wait_control_ready(self, budget: float = 10.0) -> None:
        """Block until every node's fault-control endpoint answers a ping
        (or *budget* seconds pass for a node that never will).

        The fault clock must not start while the nodes are still
        interpreters mid-import: a scenario's first window would fire
        into unbound sockets and vanish.  Pinging every endpoint before
        zeroing :attr:`elapsed` pins "cluster time 0" to the moment the
        whole cluster is actually listening — which is also (to within a
        ping) when the node-local trace clocks were zeroed, so scheduled
        faults land at the node-local times the scenario names.  A node
        that dies during boot just eats its budget; the failure is
        recorded in :attr:`control_errors`, never raised.
        """
        assert self.book is not None

        async def ready(pid: ProcessId) -> None:
            address = self.book.control_address(pid)
            if address is None:
                return
            try:
                await send_fault_command(
                    address, {"op": "ping"},
                    timeout=0.5, attempts=max(1, int(budget / 0.5)),
                )
            except (ConfigurationError, OSError,
                    asyncio.TimeoutError) as exc:
                self.control_errors.append(
                    f"ping -> node {pid}: {exc!r}"
                )

        await asyncio.gather(*(ready(pid) for pid in self.pids))

    @property
    def serve_addresses(self) -> Dict[ProcessId, tuple]:
        """Client-facing service addresses (empty unless ``serve=True``)."""
        if self.book is None:
            return {}
        return self.book.serve_addresses()

    @property
    def elapsed(self) -> float:
        """Wall seconds since the nodes were spawned (0 before start)."""
        return 0.0 if self._t0 is None else time.monotonic() - self._t0

    # ----------------------------------------------------------- fault verbs
    # The verbs come from FaultVerbs.  `at` is a wall offset from cluster
    # start (None = now).  Process verbs are OS signals, so the victim
    # does not cooperate: crash is SIGKILL; stall/resume are a real
    # SIGSTOP/SIGCONT, freezing the process mid-instruction, timers,
    # sockets and all (it stays in the correct set, unlike a crash).
    # Every other verb is a control datagram (``command.to_dict()``) sent
    # to the fault-control endpoint of each node that must apply it.

    def _apply_fault(self, command: FaultCommand, at: Optional[Time]) -> None:
        pid = command.args.get("pid")
        if command.op == "crash":
            fire = functools.partial(self._kill_now, pid)
        elif command.scope == "process":
            fire = functools.partial(self._signal_now, pid, command.op)
        else:
            fire = functools.partial(self._send_control, command)
        delay = 0.0 if at is None else max(0.0, at - self.elapsed)
        if delay <= 0.0:
            fire()
        else:
            loop = asyncio.get_running_loop()
            self._timers.append(loop.call_later(delay, fire))

    def _kill_now(self, pid: ProcessId) -> None:
        """The actual ``kill -9``: no warning, no cleanup on the victim."""
        proc = self.procs.get(pid)
        if proc is None or proc.poll() is not None or pid in self._killed:
            return
        os.kill(proc.pid, signal.SIGKILL)
        self._killed.add(pid)
        self._kill_walls[pid] = time.time()

    def _signal_now(self, pid: ProcessId, verb: str) -> None:
        """Deliver SIGSTOP (``stall``) or SIGCONT (``resume``) to a
        still-living node."""
        proc = self.procs.get(pid)
        if proc is None or proc.poll() is not None or pid in self._killed:
            return
        if verb == "stall":
            os.kill(proc.pid, signal.SIGSTOP)
            self._stalled.add(pid)
        else:
            os.kill(proc.pid, signal.SIGCONT)
            self._stalled.discard(pid)
        self._signal_walls.append((pid, verb, time.time()))

    def _send_control(self, command: FaultCommand) -> None:
        task = asyncio.ensure_future(
            self._broadcast_control(command.to_dict(), command.targets(self.n))
        )
        self._control_tasks.add(task)
        task.add_done_callback(self._control_tasks.discard)

    async def _broadcast_control(
        self, command: Dict[str, Any], targets: List[ProcessId]
    ) -> None:
        assert self.book is not None
        live = []
        for pid in targets:
            if pid in self._killed:
                continue
            if self.book.control_address(pid) is None:
                self.control_errors.append(
                    f"{command.get('op')}: node {pid} has no control port "
                    "(book written without control=True?)"
                )
                continue
            live.append(pid)
        sends = []
        for idx, pid in enumerate(live):
            # Exactly one copy is flagged to narrate the scenario.* trace
            # event — one logical fault, one event in the merged trace.
            per_node = dict(command, record=(idx == 0))
            address = self.book.control_address(pid)
            assert address is not None
            sends.append(send_fault_command(address, per_node))
        results = await asyncio.gather(*sends, return_exceptions=True)
        for pid, result in zip(live, results):
            if isinstance(result, BaseException):
                # A dead or frozen target cannot ack — expected under
                # overlapping faults; recorded, not raised.
                self.control_errors.append(
                    f"{command.get('op')} -> node {pid}: {result!r}"
                )

    def note_scenario(
        self, name: str, events: int, seed: Optional[int] = None
    ) -> None:
        """Record that a scenario schedule was armed (``scenario.run``)."""
        self._scenario_meta = (name, events, seed)

    @property
    def stalled_pids(self) -> frozenset:
        """Pids currently frozen by :meth:`stall`."""
        return frozenset(self._stalled)

    def poll(self) -> Dict[ProcessId, Optional[int]]:
        """Liveness snapshot: pid -> exit status (``None`` = still running)."""
        return {pid: proc.poll() for pid, proc in self.procs.items()}

    async def wait_quiescent(self, timeout: Optional[Time] = None) -> bool:
        """Wait until every node process has exited (died or finished).

        Default *timeout* is the scenario duration plus a grace period.
        Returns whether full quiescence was reached in time.
        """
        if not self._started:
            raise ConfigurationError("cluster not started")
        if timeout is None:
            timeout = self.duration + 10.0
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            statuses = self.poll()
            if all(status is not None for status in statuses.values()):
                return True
            await asyncio.sleep(0.05)
        return all(status is not None for status in self.poll().values())

    async def stop(self) -> None:
        """Reap everything: kill stragglers, collect exit statuses, close
        logs.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        if self._control_tasks:
            await asyncio.gather(
                *tuple(self._control_tasks), return_exceptions=True
            )
            self._control_tasks.clear()
        # Unfreeze never-resumed stalls before reaping (SIGKILL does land
        # on a stopped process, but un-stopping first keeps the shutdown
        # path uniform and the process table free of T-state strays).
        for pid in tuple(self._stalled):
            proc = self.procs.get(pid)
            if proc is not None and proc.poll() is None:
                os.kill(proc.pid, signal.SIGCONT)
            self._stalled.discard(pid)
        for pid, proc in self.procs.items():
            if proc.poll() is None:
                proc.kill()  # launcher cleanup, not part of the crash model
            proc.wait()
            self.exit_statuses[pid] = proc.returncode
        for log in self._logs.values():
            log.close()
        self._logs.clear()

    # ------------------------------------------------------------ postmortem
    def merge_report(self) -> MergeReport:
        """Merge the shipped traces (cached); see :mod:`repro.obs.merge`."""
        if self._postmortem is None:
            files = [
                _read_trace_lenient(path)
                for path in self.trace_files
                if path.exists()
            ]
            if not files:
                raise ConfigurationError(
                    f"no trace files under {self.workdir} — did the nodes "
                    "start? check the node-*.log files"
                )
            self._postmortem = merge_traces(files)
        return self._postmortem

    def traces(self) -> MemorySink:
        """The merged postmortem stream, with synthetic ``crash`` events.

        A ``kill -9`` victim cannot record its own death, so the launcher
        injects one ``crash`` event per kill at the kill's wall time
        rebased onto the merged time base — the property checkers then
        see the same failure-pattern shape an in-process run records.

        The stream ends when the first correct node finished its run
        (:meth:`run_end`): every node runs ``duration`` from its own
        start, so a later-started survivor outlives an earlier one and
        rightly suspects the peer that went silent by exiting.  That
        tail is teardown, not the failure pattern, and is left out.
        """
        if self._trace_cache is not None:
            return self._trace_cache
        report = self.merge_report()
        end = self.run_end()
        events = [
            event for event in report.trace
            if end is None or event.time <= end
        ]
        base = min(f.epoch_wall for f in report.files)
        for pid, wall in self._kill_walls.items():
            events.append(
                TraceEvent(
                    time=max(0.0, wall - base), kind="crash", pid=pid,
                    data={"signal": "SIGKILL"},
                )
            )
        # Signal faults are as invisible to their victim as kills (the
        # process is frozen the instant SIGSTOP lands), so they are
        # injected synthetically too.
        for pid, verb, wall in self._signal_walls:
            events.append(
                TraceEvent(
                    time=max(0.0, wall - base), kind=f"scenario.{verb}",
                    pid=pid,
                    data={
                        "target": pid,
                        "signal": (
                            "SIGSTOP" if verb == "stall" else "SIGCONT"
                        ),
                    },
                )
            )
        if self._scenario_meta is not None:
            name, count, seed = self._scenario_meta
            data: Dict[str, Any] = {"name": name, "events": count}
            if seed is not None:
                data["seed"] = seed
            events.append(
                TraceEvent(time=0.0, kind="scenario.run", pid=None, data=data)
            )
        events.sort(key=lambda event: event.time)
        merged = MemorySink()
        merged.extend(events)
        self._trace_cache = merged
        return merged

    def run_end(self) -> Optional[Time]:
        """When the first correct node finished its run, on the merged
        time base (``None`` if no correct node shipped a trace).

        A node's trace time zero is its start and it exits ``duration``
        later, so its stop is its merge offset plus ``duration``.
        """
        report = self.merge_report()
        stops = [
            report.offsets[str(trace_file.node)] + self.duration
            for trace_file in report.files
            if trace_file.node in self.correct_pids
        ]
        return min(stops) if stops else None

    def save_merged(self, path: Union[str, Path]) -> Path:
        """Write the merged stream (synthetic ``crash`` events included)
        to one combined ``.jsonl`` file.

        The per-node files under :attr:`workdir` are the raw shipped
        streams — a kill victim's file necessarily ends mid-run with no
        ``crash`` marker.  This file is the analysis-ready form:
        ``repro trace qos`` / ``repro trace check`` see the same
        failure-pattern shape the in-process checkers do.
        """
        from ..obs.sinks import JsonlSink

        report = self.merge_report()
        path = Path(path)
        out = JsonlSink(
            path, node=None,
            epoch_wall=min(f.epoch_wall for f in report.files),
            epoch_mono=min(f.epoch_mono for f in report.files),
        )
        for event in self.traces().events:
            out.record_event(event)
        out.close()
        return path

    def verdicts(self, channel: str = "fd", algo: str = "ec") -> Dict[str, Any]:
        """Machine-checked FD + consensus properties of the merged run.

        An ``rsm`` cluster is judged by :func:`rsm_verdicts` (log-level
        agreement/prefix/progress over ``apply`` events); anything else
        by :func:`standard_verdicts`.
        """
        if self.stack == "rsm":
            return rsm_verdicts(
                self.traces(), self.correct_pids, channel=channel,
            )
        return standard_verdicts(
            self.traces(), self.correct_pids, channel=channel, algo=algo,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "stopped" if self._stopped
            else "running" if self._started else "new"
        )
        return (
            f"<ProcessCluster n={self.n} transport={self.transport} "
            f"{state} workdir={self.workdir}>"
        )
