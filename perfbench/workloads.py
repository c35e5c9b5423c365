"""The benchmark workloads, one sub-run each.

Every workload runs a 3-node :class:`~repro.cluster.LocalCluster` with
``deploy_standard_stack(stack="rsm", period=0.05)`` (max_batch 64,
pipeline depth 4) and returns one plain dict of raw measurements that
``run.py`` aggregates across sub-runs:

* ``kv-closed`` — wall clock; TCP between nodes, service frontends, and
  two closed-loop :class:`~repro.svc.KVClient` sessions;
* ``log-open`` — wall clock; loopback transport and an open-loop
  generator calling ``ReplicatedStateMachine.submit`` at a fixed rate;
  latency runs from each command's due time;
* ``log-virtual-crash`` — virtual clock; Poisson arrivals submitted at
  followers, the trusted leader crash-stopped mid-run; deterministic for
  a seed.

Each sub-run also checks its outputs.  Safety failures (``rsm.agreement``
or ``rsm.prefix`` verdicts, a lost acknowledged write, a stale read, a
command applied twice, survivors that applied different commands) land
in ``safety`` and fail the benchmark; liveness and detector verdicts are
counted in ``violations`` only.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import random
import resource
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster import LocalCluster
from repro.load import percentile
from repro.sim.delays import UniformDelay
from repro.svc import KVClient, ServiceUnavailable, start_service
from repro.workloads.networks import lan_link

from layers import LayerClock, probe_loop_lag

perf = time.perf_counter

N = 3
PERIOD = 0.05
#: Safety properties among the cluster verdicts: they gate the run.
SAFETY_VERDICTS = ("rsm.agreement", "rsm.prefix")

WORKLOADS = ("kv-closed", "log-open", "log-virtual-crash")

KV_SESSIONS = 2
KV_WRITE_FRACTION = 0.8
OPEN_RATE = 300.0
VIRTUAL_RATE = 4000.0
#: Wall seconds a wall-clock sub-run waits after its window for in-flight
#: commands to apply everywhere before judging them.
DRAIN_S = 10.0
#: Virtual seconds the virtual sub-run keeps running after its schedule.
VIRTUAL_DRAIN_S = 3.0
#: One-way delay of every message between nodes on the virtual clock, drawn
#: per message from the cluster's seeded fault-plan RNG: the repository's
#: LAN link model, its time units read as milliseconds.
_LAN = lan_link().delay
LINK_DELAY = UniformDelay(_LAN.low * 1e-3, _LAN.high * 1e-3)


def max_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def longest_stall(pairs: Sequence[Tuple[float, float]]) -> float:
    """Longest interval with a command outstanding and none completing.

    *pairs* are ``(due, done)`` times.  Walking completions in order, the
    stall ending at a completion starts at the previous completion, or at
    the earliest due time still outstanding if the system was idle before.
    """
    ordered = sorted(pairs, key=lambda p: p[1])
    earliest_due = [0.0] * len(ordered)
    low = float("inf")
    for i in range(len(ordered) - 1, -1, -1):
        low = min(low, ordered[i][0])
        earliest_due[i] = low
    longest = 0.0
    previous = None
    for i, (_, done) in enumerate(ordered):
        start = earliest_due[i] if previous is None else max(
            previous, earliest_due[i]
        )
        longest = max(longest, done - start)
        previous = done
    return longest


def judge(verdicts: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """Split failed cluster verdicts into (safety failures, violations)."""
    failed = sorted(name for name, ok in verdicts.items() if not bool(ok))
    safety = [name for name in failed if name in SAFETY_VERDICTS]
    return safety, [name for name in failed if name not in SAFETY_VERDICTS]


def net_counts(cluster: LocalCluster) -> Dict[str, Any]:
    """Cluster-wide host network counters (node-to-node traffic only)."""
    by_channel: Dict[str, int] = {}
    for host in cluster.hosts:
        for channel, count in host.world.network.sent_by_channel.items():
            by_channel[channel] = by_channel.get(channel, 0) + count
    return {
        "msgs": sum(h.world.network.sent_network for h in cluster.hosts),
        "bytes": sum(h.transport.inner.bytes_sent for h in cluster.hosts),
        "by_channel": by_channel,
    }


def net_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    channels = set(after["by_channel"]) | set(before["by_channel"])
    by_channel = {
        ch: after["by_channel"].get(ch, 0) - before["by_channel"].get(ch, 0)
        for ch in channels
    }
    return {
        "msgs": after["msgs"] - before["msgs"],
        "bytes": after["bytes"] - before["bytes"],
        "consensus_msgs": sum(
            v for ch, v in by_channel.items() if ch.startswith("rsm.c")
        ),
        "fdp_msgs": by_channel.get("fdp", 0),
    }


class ApplyLog:
    """Per-replica apply times and counts of benchmark commands.

    The only code the benchmark adds to the apply path: one callback per
    replica that counts the command and notes its first apply time.
    """

    def __init__(self, cluster: LocalCluster, rsms: Sequence[Any]) -> None:
        self.cluster = cluster
        self.times: List[Dict[int, float]] = [{} for _ in rsms]
        self.counts: List[Dict[int, int]] = [{} for _ in rsms]
        for pid, rsm in enumerate(rsms):
            rsm.on_apply(self._callback(pid))

    def _callback(self, pid: int):
        times, counts = self.times[pid], self.counts[pid]
        clock = self.cluster.clock

        def on_apply(slot: int, command: Any) -> None:
            cid = command["id"]
            counts[cid] = counts.get(cid, 0) + 1
            if cid not in times:
                times[cid] = clock.now

        return on_apply

    def check(
        self, survivors: Sequence[int], submitted_at: Dict[int, int]
    ) -> List[str]:
        """Exactly-once and same-applied-set checks across survivors."""
        problems = []
        for pid, counts in enumerate(self.counts):
            twice = [cid for cid, c in counts.items() if c > 1]
            if twice:
                problems.append(
                    f"replica {pid} applied {len(twice)} commands twice"
                )
        applied = set()
        for pid in survivors:
            applied |= set(self.times[pid])
        for pid in survivors:
            missing = applied - set(self.times[pid])
            if missing:
                problems.append(
                    f"survivor {pid} lacks {len(missing)} commands applied "
                    f"at another survivor"
                )
        return problems

    def settled(
        self, survivors: Sequence[int], submitted_at: Dict[int, int]
    ) -> bool:
        """Every survivor applied every command submitted at a survivor
        and every command another survivor applied."""
        need = {cid for cid, pid in submitted_at.items() if pid in survivors}
        for pid in survivors:
            need.update(self.times[pid])
        return all(need.issubset(self.times[pid]) for pid in survivors)

    def completion(self, cid: int, submitter: int, survivors: Sequence[int]):
        """When *cid* applied at its submitter (or first survivor)."""
        if submitter in survivors:
            return self.times[submitter].get(cid)
        found = [self.times[p][cid] for p in survivors if cid in self.times[p]]
        return min(found) if found else None


def layer_report(
    clock: LayerClock, cmds: int, net: Dict[str, Any], slots: int,
    mean_batch: float, events: int, window: float,
) -> Dict[str, float]:
    """Per-layer numbers common to every workload (traced runs only)."""
    per = lambda value: value / cmds if cmds else 0.0  # noqa: E731
    return {
        "net.codec_us_per_cmd": clock.us_per("net.codec", cmds),
        "net.tagwalk_us_per_cmd": clock.us_per("net.tagwalk", cmds),
        "net.msgs_per_cmd": per(net["msgs"]),
        "net.bytes_per_cmd": per(net["bytes"]),
        "rsm.mean_batch": mean_batch,
        "rsm.slots_per_cmd": per(slots),
        "rsm.on_message_us_per_cmd": clock.us_per("rsm.on_message", cmds),
        "rsm.apply_us_per_cmd": clock.us_per("rsm.apply", cmds),
        "consensus.deliver_us_per_cmd": clock.us_per("consensus.deliver", cmds),
        "consensus.msgs_per_slot": (
            net["consensus_msgs"] / slots if slots else 0.0
        ),
        "fd.deliver_us_per_cmd": clock.us_per("fd.deliver", cmds),
        "fd.msgs_per_period": net["fdp_msgs"] * PERIOD / window,
        "obs.record_us_per_cmd": clock.us_per("obs.record", cmds),
        "obs.metrics_us_per_cmd": clock.us_per("obs.metrics", cmds),
        "obs.events_per_cmd": per(clock.calls.get("obs.record", 0)),
        "svc.frame_us_per_cmd": clock.us_per("svc.frame", cmds),
        "svc.apply_us_per_cmd": clock.us_per("svc.apply", cmds),
        "sim.events_per_cmd": per(events),
        "gc.pause_max_ms": max(clock.gc_pauses, default=0.0) * 1e3,
        "gc.pause_total_s": sum(clock.gc_pauses),
        "gc.gen2_count": float(clock.gc_gen2),
    }


def mean_batch(
    cluster: LocalCluster, kind: str, pid: int, after: float
) -> float:
    """Commands per non-empty slot in *pid*'s *kind* apply events since
    *after* (traced runs only)."""
    applies = cluster.trace.select(kind, pid=pid, after=after)
    slots = len({event.get("slot") for event in applies})
    return len(applies) / slots if slots else 0.0


def fd_report(
    cluster: LocalCluster, crashed_at: Optional[float] = None
) -> Dict[str, float]:
    """Detector QoS over the whole run (traced runs only).

    ``fd.detection_s`` is the slowest survivor's time to suspect the
    crashed process for good; if some survivor never did, it is the time
    from the crash to the end of the run.  Without a crash it is 0.
    """
    from repro.analysis.fd_properties import build_histories
    from repro.analysis.qos import qos_report

    correct = cluster.correct_pids
    report = qos_report(cluster.trace, correct=correct, n=cluster.n)
    changes = 0
    for pid, records in build_histories(cluster.trace).items():
        if pid not in correct:
            continue
        leaders = [trusted for _, _, trusted in records if trusted is not None]
        changes += sum(1 for a, b in zip(leaders, leaders[1:]) if a != b)
    detection = report.max_detection
    if crashed_at is None:
        detection = 0.0
    elif detection is None:
        detection = cluster.now - crashed_at
    return {
        "fd.wrongful_suspicions": float(len(report.mistakes)),
        "fd.leader_changes": float(changes),
        "fd.detection_s": detection,
    }


def percentile_ms(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-quantile of *values* (seconds) in ms; 0 if empty."""
    return (percentile(values, q) or 0.0) * 1e3


def _deploy(cluster: LocalCluster) -> Dict[str, List[Any]]:
    return cluster.deploy_standard_stack(stack="rsm", period=PERIOD)


# ----------------------------------------------------------------- kv-closed
async def kv_closed(seed: int, window: float, layers: Optional[LayerClock]):
    constructed = perf()
    cluster = LocalCluster(n=N, transport="tcp", seed=seed)
    stacks = _deploy(cluster)
    await cluster.start()
    fronts = await start_service(cluster, stacks)
    addrs = [front.local_address for front in fronts]
    clients = [
        KVClient(addrs, client_id=f"bench-{i}", seed=seed * 31 + i)
        for i in range(KV_SESSIONS)
    ]
    result: Dict[str, Any] = {}
    try:
        await clients[0].put("probe", seed)
        result["setup_s"] = perf() - constructed
        # Every session finds the leader and settles its codec before the
        # window opens, so the window sees only steady-state requests.
        for client in clients[1:]:
            await client.put("probe", seed)
        result.update(await _kv_window(cluster, stacks, addrs, clients,
                                       seed, window, layers))
    finally:
        for client in clients:
            await client.close()
        for front in fronts:
            await front.close()
        await cluster.stop()
    return result


async def _kv_window(cluster, stacks, addrs, clients, seed, window, layers):
    rngs = [random.Random(seed * 1009 + i) for i in range(len(clients))]
    pairs: List[Tuple[float, float]] = []
    last_acked: Dict[str, int] = {}
    stale: List[str] = []
    counts = {"attempted": 0, "failed": 0}
    lags: List[float] = []
    rss0 = max_rss_mb()
    net0 = net_counts(cluster)
    slot0 = max(r.current_slot for r in stacks["rsm"])
    window0 = cluster.now
    redirects0 = sum(c.redirects for c in clients)
    retries0 = sum(c.retries for c in clients)
    probe = asyncio.ensure_future(probe_loop_lag(lags)) if layers else None
    if layers:
        layers.reset()
    cpu0 = time.process_time()
    started = perf()
    deadline = started + window

    async def session(index: int) -> None:
        client, rng = clients[index], rngs[index]
        key, counter = f"k{index}", 0
        while perf() < deadline:
            counts["attempted"] += 1
            write = rng.random() < KV_WRITE_FRACTION
            t0 = perf()
            try:
                if write:
                    counter += 1
                    reply = await client.put(key, counter)
                else:
                    reply = await client.get(key)
            except ServiceUnavailable:
                counts["failed"] += 1
                continue
            t1 = perf()
            if not reply.get("ok"):
                counts["failed"] += 1
                continue
            pairs.append((t0, t1))
            if write:
                last_acked[key] = counter
            elif (reply.get("value") or 0) < last_acked.get(key, 0):
                stale.append(f"{key}: read {reply.get('value')} after "
                             f"acked {last_acked[key]}")

    tasks = [asyncio.ensure_future(session(i)) for i in range(len(clients))]
    await asyncio.sleep(max(0.0, deadline - perf()))
    cpu = time.process_time() - cpu0
    ended = perf()
    done = sum(1 for _, t1 in pairs if t1 <= ended)
    rss1 = max_rss_mb()
    out: Dict[str, Any] = {}
    if layers:
        net = net_delta(net0, net_counts(cluster))
        slots = max(r.current_slot for r in stacks["rsm"]) - slot0
        out["layers"] = layer_report(
            layers, done, net, slots,
            mean_batch(cluster, "svc.apply", 0, window0), 0, ended - started
        )
    await asyncio.gather(*tasks)
    if probe is not None:
        probe.cancel()
        await asyncio.gather(probe, return_exceptions=True)

    safety = list(stale)
    # Every replica must hold each session's last acknowledged put; give
    # lagging replicas the drain period to apply what the leader applied.
    give_up = perf() + DRAIN_S
    while True:
        stores = [(await clients[0].dump(addr))["store"] for addr in addrs]
        lost = [
            (pid, key, value) for pid, store in enumerate(stores)
            for key, value in last_acked.items()
            if (store.get(key) or 0) < value
        ]
        if not lost or perf() >= give_up:
            break
        await asyncio.sleep(0.05)
    for pid, key, value in lost:
        safety.append(f"replica {pid} lost acked {key}={value}")
    twice = _applied_twice(cluster)
    if twice:
        safety.append(f"{twice} (client, seq) commands applied twice")
    verdict_safety, violations = judge(cluster.verdicts())
    safety += verdict_safety
    if layers:
        out["layers"].update(_kv_layers(cluster, lags))
        out["layers"]["svc.redirects"] = float(
            sum(c.redirects for c in clients) - redirects0
        )
        out["layers"]["svc.retries"] = float(
            sum(c.retries for c in clients) - retries0
        )
        out["layers"].update(fd_report(cluster))
    out.update({
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "latencies": [t1 - t0 for t0, t1 in pairs],
        "late": [],
        "throughput": done / (ended - started),
        "cpu_ms_per_cmd": cpu * 1e3 / done if done else 0.0,
        "rss_growth_mb": rss1 - rss0,
        "unavailable_s": longest_stall(pairs),
        "backlog": 0,
        "violations": violations,
        "safety": safety,
    })
    return out


def _applied_twice(cluster: LocalCluster) -> int:
    executed: Dict[Tuple[Any, Any, Any], int] = {}
    for event in cluster.trace.select("svc.apply"):
        if event.get("duplicate"):
            continue
        key = (event.pid, event.get("client"), event.get("seq"))
        executed[key] = executed.get(key, 0) + 1
    return sum(1 for count in executed.values() if count > 1)


def _kv_layers(cluster, lags) -> Dict[str, float]:
    from repro.obs.spans import analyze_spans

    report = analyze_spans(cluster.trace)
    out = {
        f"span.{name}_p50_ms": percentile_ms(values, 0.5)
        for name, values in report.stage_durations.items()
    }
    out["asyncio.loop_lag_p99_ms"] = percentile_ms(lags, 0.99)
    return out


# ------------------------------------------------------------------ log-open
def _command(rng: random.Random, cid: int) -> Dict[str, Any]:
    return {
        "op": "put", "key": f"k{rng.randrange(1000)}",
        "value": rng.getrandbits(30), "id": cid,
    }


async def log_open(seed: int, window: float, layers: Optional[LayerClock]):
    rng = random.Random(seed)
    constructed = perf()
    cluster = LocalCluster(n=N, transport="loopback", seed=seed)
    stacks = _deploy(cluster)
    rsms = stacks["rsm"]
    log = ApplyLog(cluster, rsms)
    await cluster.start()
    try:
        rsms[0].submit({"op": "put", "key": "probe", "value": 0, "id": -1})
        while -1 not in log.times[0]:
            await asyncio.sleep(0.001)
        setup_s = perf() - constructed
        out = await _open_window(cluster, stacks, log, rng, window, layers)
        out["setup_s"] = setup_s
    finally:
        await cluster.stop()
    return out


async def _open_window(cluster, stacks, log, rng, window, layers):
    rsms = stacks["rsm"]
    survivors = list(cluster.pids)
    total = int(window * OPEN_RATE)
    due: Dict[int, float] = {}
    submitted_at: Dict[int, int] = {}
    late: List[float] = []
    pending_max = 0
    lags: List[float] = []
    rss0 = max_rss_mb()
    net0 = net_counts(cluster)
    slot0 = max(r.current_slot for r in rsms)
    probe = asyncio.ensure_future(probe_loop_lag(lags)) if layers else None
    if layers:
        layers.reset()
    cpu0 = time.process_time()
    started = cluster.now
    sent = 0
    while sent < total:
        now = cluster.now
        next_due = started + sent / OPEN_RATE
        if next_due > now:
            await asyncio.sleep(next_due - now)
            continue
        # Submit everything already due: a stalled loop shows as lateness.
        while sent < total and started + sent / OPEN_RATE <= now:
            target = sent % len(rsms)
            due[sent] = started + sent / OPEN_RATE
            submitted_at[sent] = target
            rsms[target].submit(_command(rng, sent))
            late.append(now - due[sent])
            sent += 1
        pending_max = max(pending_max, max(r.pending_count for r in rsms))
    end = started + window
    if cluster.now < end:
        await asyncio.sleep(end - cluster.now)
    cpu = time.process_time() - cpu0
    ended = cluster.now
    rss1 = max_rss_mb()
    done = sum(
        1 for cid, pid in submitted_at.items()
        if log.times[pid].get(cid, float("inf")) <= ended
    )
    backlog = total - done
    out: Dict[str, Any] = {}
    if layers:
        net = net_delta(net0, net_counts(cluster))
        slots = max(r.current_slot for r in rsms) - slot0
        out["layers"] = layer_report(
            layers, done, net, slots,
            mean_batch(cluster, "apply", 0, started), 0, ended - started
        )
        out["layers"]["rsm.pending_max"] = float(pending_max)
        out["layers"]["asyncio.loop_lag_p99_ms"] = percentile_ms(lags, 0.99)
    if probe is not None:
        probe.cancel()
        await asyncio.gather(probe, return_exceptions=True)
    give_up = perf() + DRAIN_S
    while not log.settled(survivors, submitted_at) and perf() < give_up:
        await asyncio.sleep(0.01)
    pairs = []
    failed = 0
    for cid, pid in submitted_at.items():
        finish = log.completion(cid, pid, survivors)
        if finish is None:
            failed += 1
        else:
            pairs.append((due[cid], finish))
    safety = log.check(survivors, submitted_at)
    verdict_safety, violations = judge(cluster.verdicts())
    safety += verdict_safety
    if layers:
        out["layers"].update(fd_report(cluster))
    out.update({
        "attempted": total,
        "failed": failed,
        "latencies": [finish - start for start, finish in pairs],
        "late": late,
        "throughput": done / (ended - started),
        "cpu_ms_per_cmd": cpu * 1e3 / done if done else 0.0,
        "rss_growth_mb": rss1 - rss0,
        "unavailable_s": longest_stall(pairs),
        "backlog": backlog,
        "violations": violations,
        "safety": safety,
    })
    return out


# --------------------------------------------------------- log-virtual-crash
def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class VirtualRun:
    """A virtual-clock cluster past set-up, and its measurement: run the
    schedule, drain, check, count."""

    def __init__(self, seed: int) -> None:
        constructed = perf()
        self.cluster = LocalCluster(
            n=N, transport="loopback", clock="virtual", seed=seed
        )
        self.stacks = _deploy(self.cluster)
        self.rsms, self.fds = self.stacks["rsm"], self.stacks["fd"]
        self.log = ApplyLog(self.cluster, self.rsms)
        for src in self.cluster.pids:
            for dst in self.cluster.pids:
                if src != dst:
                    self.cluster.plan.degrade(src, dst, delay=LINK_DELAY)
        self.cluster.start_virtual()
        self.rsms[0].submit({"op": "put", "key": "probe", "value": 0, "id": -1})
        while -1 not in self.log.times[0]:
            self.cluster.run_virtual(until=self.cluster.now + 0.001)
        self.setup_s = perf() - constructed
        self.start = self.cluster.now
        self.due: Dict[int, float] = {}
        self.submitted_at: Dict[int, int] = {}
        self.pending_max = 0
        self.victim: Optional[int] = None
        self.crashed_at = float("nan")

    def live(self) -> List[int]:
        return [p for p in self.cluster.pids if not self.cluster.hosts[p].crashed]

    def followers(self) -> List[int]:
        """Live replicas whose own detector does not trust themselves."""
        live = self.live()
        return [p for p in live if self.fds[p].trusted() != p] or live

    def crash_leader(self, horizon: float, phase: float) -> None:
        """Crash-stop the leader most live replicas trust (ties to the
        lowest pid) in the detector period around mid-schedule, *phase*
        (0..1) of the way into it.  The time from a crash to its detection
        depends on that phase; ``run.py`` spreads the phases of a run's
        sub-runs evenly over the period, so a run's median does not hinge
        on which phases its seeds happened to draw."""

        def crash() -> None:
            votes = [self.fds[pid].trusted() for pid in self.live()]
            self.victim = max(
                set(votes), key=lambda pid: (votes.count(pid), -pid)
            )
            self.crashed_at = self.cluster.now
            self.cluster.crash(self.victim)

        # The first instant at *phase* of the timer grid in the period-long
        # window centred on mid-schedule.
        earliest = (self.start + horizon / 2) / PERIOD - 0.5
        at = (math.ceil(earliest - phase) + phase) * PERIOD
        self.cluster.clock.schedule_at(at, crash)

    def submit(self, target: int, command: Dict[str, Any]) -> None:
        cid = command["id"]
        self.due[cid] = self.cluster.now
        self.submitted_at[cid] = target
        self.rsms[target].submit(command)
        self.pending_max = max(self.pending_max, self.rsms[target].pending_count)

    def measure(self, horizon: float, layers: Optional[LayerClock]):
        """Run *horizon* virtual seconds, then drain until every survivor
        applied every command (at most ``VIRTUAL_DRAIN_S``); returns the
        result fields.  CPU time and RSS growth cover the schedule only,
        so the drain's settle polling is not charged to the program."""
        cluster, log, rsms = self.cluster, self.log, self.rsms
        start, end = self.start, self.start + horizon
        rss0 = max_rss_mb()
        net0 = net_counts(cluster)
        slot0 = max(r.current_slot for r in rsms)
        if layers:
            layers.reset()
        cpu0 = time.process_time()
        events = cluster.run_virtual(until=end)
        cpu = time.process_time() - cpu0
        rss1 = max_rss_mb()
        stop_at = end + VIRTUAL_DRAIN_S
        while (not log.settled(self.live(), self.submitted_at)
               and cluster.now < stop_at):
            events += cluster.run_virtual(until=cluster.now + 0.01)
        survivors = self.live()

        pairs = []
        for cid, pid in self.submitted_at.items():
            finish = log.completion(cid, pid, survivors)
            if finish is not None:
                pairs.append((self.due[cid], finish))
        done = len(pairs)
        in_window = sum(1 for _, finish in pairs if finish <= end)
        safety = log.check(survivors, self.submitted_at)
        verdict_safety, violations = judge(cluster.verdicts())
        net = net_delta(net0, net_counts(cluster))
        slots = max(rsms[pid].current_slot for pid in survivors) - slot0
        latencies = [finish - due for due, finish in pairs]
        after = [
            t for p in survivors for t in log.times[p].values()
            if t > self.crashed_at
        ]
        # With nothing applied after the crash, the outage lasted the run.
        unavailable = (min(after) if after else cluster.now) - self.crashed_at
        out: Dict[str, Any] = {
            "setup_s": self.setup_s,
            "attempted": len(self.submitted_at),
            "failed": len(self.submitted_at) - done,
            "latencies": latencies,
            "late": [],
            # Throughput in virtual time: commands applied in the schedule.
            "throughput": in_window / horizon,
            "cpu_ms_per_cmd": cpu * 1e3 / in_window if in_window else 0.0,
            "rss_growth_mb": rss1 - rss0,
            "unavailable_s": unavailable,
            "backlog": 0,
            "violations": violations,
            "safety": safety + verdict_safety,
            "fingerprint": {
                "schedule": _digest(sorted(self.due.items())),
                "victim": self.victim,
                "unavailable_s": unavailable,
                "msgs": net["msgs"],
                "bytes": net["bytes"],
                "events": events,
                "slots": slots,
                "latencies": _digest(latencies),
            },
        }
        if layers:
            out["layers"] = layer_report(
                layers, done, net, slots,
                mean_batch(cluster, "apply", survivors[0], start),
                events, cluster.now - start
            )
            out["layers"]["rsm.pending_max"] = float(self.pending_max)
            out["layers"].update(fd_report(cluster, self.crashed_at))
        cluster.close_traces()
        return out


def log_virtual_crash(
    seed: int, horizon: float, phase: float, layers: Optional[LayerClock]
):
    """Open-loop Poisson arrivals at followers; the leader crashes mid-run."""
    rng = random.Random(seed)
    run = VirtualRun(seed)
    rotation = [0]

    def submit(cid: int) -> None:
        followers = run.followers()
        rotation[0] += 1
        run.submit(followers[rotation[0] % len(followers)], _command(rng, cid))

    t = rng.expovariate(VIRTUAL_RATE)
    cid = 0
    while t < horizon:
        run.cluster.clock.schedule_at(run.start + t, submit, cid)
        t += rng.expovariate(VIRTUAL_RATE)
        cid += 1
    run.crash_leader(horizon, phase)
    return run.measure(horizon, layers)


def run_workload(
    name: str, seed: int, length: float, phase: float,
    layers: Optional[LayerClock],
) -> Dict[str, Any]:
    """One sub-run of workload *name* (see :data:`WORKLOADS`)."""
    if name == "kv-closed":
        return asyncio.run(kv_closed(seed, length, layers))
    if name == "log-open":
        return asyncio.run(log_open(seed, length, layers))
    if name == "log-virtual-crash":
        return log_virtual_crash(seed, length, phase, layers)
    raise ValueError(f"unknown workload {name!r}")
