"""FaultCommand: one definition of each fault op behind the cluster verbs,
the scenario DSL and the fault-control datagram."""

import asyncio
import json
import math
from types import SimpleNamespace

import pytest

from repro.cluster import FAULT_VERBS, LocalCluster, ProcessCluster
from repro.errors import ConfigurationError
from repro.net import FaultControlEndpoint, FaultPlan
from repro.net.clock import SkewedClock, VirtualClock
from repro.net.faults import FaultCommand
from repro.obs.sinks import MemorySink
from repro.scenario import Scenario, ScenarioEvent

#: One sample call per fault verb: its keyword arguments (minus ``at``).
SAMPLES = {
    "crash": {"pid": 1},
    "stall": {"pid": 1},
    "resume": {"pid": 1},
    "partition": {"groups": [[0], [1, 2]]},
    "heal": {},
    "isolate": {"pid": 2},
    "degrade": {"src": 0, "dst": 1, "loss": 0.3, "delay": 0.02},
    "restore": {"src": 0, "dst": 1},
    "storm": {"loss": 0.5},
    "calm": {},
    "skew": {"pid": 1, "offset": 0.25},
}


def verb_commands(cluster, op, kwargs):
    """The (command, at) pairs a running *cluster*'s verb hands over."""
    seen = []
    cluster._apply_fault = lambda command, at: seen.append((command, at))
    cluster._started = True
    getattr(cluster, op)(**kwargs, at=1.0)
    return seen


def control_endpoint(pid):
    host = SimpleNamespace(
        pid=pid, clock=SkewedClock(VirtualClock()), trace=MemorySink()
    )
    return host, FaultControlEndpoint(host, FaultPlan(3))


def sent_datagrams(op, kwargs):
    """(body, targets) of every control datagram a ProcessCluster sends."""
    cluster = ProcessCluster(3)
    sent = []

    async def capture(command, targets):
        sent.append((command, targets))

    async def drive():
        cluster._broadcast_control = capture
        cluster._started = True
        cluster._t0 = 0.0
        getattr(cluster, op)(**kwargs)
        await asyncio.sleep(0)

    asyncio.run(drive())
    return sent


@pytest.mark.parametrize("op", FAULT_VERBS)
def test_one_command_across_entry_points(op):
    kwargs = SAMPLES[op]
    event = ScenarioEvent.from_dict({"t": 1.0, "op": op, **kwargs})
    body = {key: value for key, value in event.to_dict().items() if key != "t"}
    # Scenario event body == verb kwargs == the command both clusters build.
    assert body == {"op": op, **kwargs}
    for cluster in (LocalCluster(n=3, clock="virtual"), ProcessCluster(3)):
        assert verb_commands(cluster, op, kwargs) == [(event.command, 1.0)]
    if event.command.scope == "process":
        return  # signals, never a datagram
    # ...== the control datagram body, sent to the nodes the scope names.
    assert sent_datagrams(op, kwargs) == [(body, event.command.targets(3))]
    # A virtual LocalCluster and a control endpoint narrate it alike.
    local = LocalCluster(n=3, clock="virtual")
    local.start_virtual()
    getattr(local, op)(**kwargs)
    recorded = [
        ev for ev in local.trace.events if ev.kind.startswith("scenario.")
    ]
    host, endpoint = control_endpoint(event.command.targets(3)[0])
    endpoint.apply(dict(body, record=True))
    assert [(ev.kind, ev.data) for ev in host.trace.events] == [
        (ev.kind, ev.data) for ev in recorded
    ]
    assert len(recorded) == 1


def test_non_finite_values_rejected_at_every_entry_point():
    # A scenario file (Python's json parses NaN and Infinity).
    for event in (
        '{"t": 1.0, "op": "degrade", "src": 0, "dst": 1, "delay": NaN}',
        '{"t": 1.0, "op": "skew", "pid": 1, "offset": Infinity}',
        '{"t": NaN, "op": "heal"}',
    ):
        with pytest.raises(ConfigurationError, match="finite"):
            Scenario.from_json('{"events": [%s]}' % event)
    # A cluster verb.
    cluster = LocalCluster(n=3, clock="virtual")
    with pytest.raises(ConfigurationError, match="finite"):
        cluster.degrade(0, 1, delay=math.nan)
    with pytest.raises(ConfigurationError, match="finite"):
        cluster.skew(1, math.inf)
    # A control datagram: the node's clock must not become NaN.
    host, endpoint = control_endpoint(0)
    with pytest.raises(ConfigurationError, match="finite"):
        endpoint.apply(json.loads('{"op": "skew", "pid": 0, "offset": NaN}'))
    assert host.clock.now == 0.0


def test_from_dict_checks_pids_against_n():
    command = FaultCommand.from_dict({"op": "restore", "src": 0, "dst": 2})
    assert command.to_dict() == {"op": "restore", "src": 0, "dst": 2}
    with pytest.raises(ConfigurationError, match="out of range"):
        FaultCommand.from_dict({"op": "restore", "src": 0, "dst": 2}, n=2)
    with pytest.raises(ConfigurationError, match="in two groups"):
        FaultCommand.from_dict({"op": "partition", "groups": [[0], [0, 1]]})


def test_control_endpoint_rejects_process_verbs_and_foreign_skews():
    host, endpoint = control_endpoint(0)
    with pytest.raises(ConfigurationError, match="OS signal"):
        endpoint.apply({"op": "stall", "pid": 1})
    with pytest.raises(ConfigurationError, match="sent to node 0"):
        endpoint.apply({"op": "skew", "pid": 1, "offset": 0.5})
    assert endpoint.commands_applied == 0
    assert host.clock.now == 0.0
