"""Fault injection for live transports — the runtime twin of
:mod:`repro.sim.links` and :class:`repro.sim.partition.NetworkController`.

A :class:`FaultPlan` is the cluster-wide control surface: per-directed-pair
loss probability, delay models, partitions, process stalls, and loss
storms, with the same verbs the simulator's controller exposes
(``partition`` / ``heal`` / ``isolate`` / ``degrade`` / ``restore``) plus
the scenario-layer additions (``stall`` / ``resume`` / ``storm`` /
``calm``).  A :class:`FaultyTransport` wraps any real transport and
consults the shared plan on every send: drop, delay (through the host
clock, so virtual-clock runs stay deterministic), or pass through.

Injecting at the *sender* mirrors the simulator, where the outgoing link
decides a message's fate at send time; it also means a partition is
symmetric only if the plan says so — directed pairs are first-class, as in
:mod:`repro.sim.links`.

An idle plan (no partition, no stalls, no loss, no delay) costs one
attribute read per send: :attr:`FaultPlan.active` is maintained by the
mutating verbs, and :meth:`FaultyTransport.send` forwards straight to the
wrapped transport while it is ``False``.  That is what lets every cluster
wrap its transports unconditionally — the fault surface is always
reachable, and the no-fault hot path stays as fast as a bare transport.

A :class:`FaultCommand` is one fault as data: an op from
:data:`FAULT_VERBS` plus its arguments.  It is the single definition of
the fault surface — the :class:`~repro.cluster.ClusterAPI` verbs build
one, a scenario event carries one, and a process cluster ships one as a
control datagram — so each op's arguments, validation, and
``scenario.*`` narration are written once, here.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple,
)

from ..errors import ConfigurationError
from ..sim.delays import DelayModel, FixedDelay
from ..types import ProcessId, Time
from .transport import Transport

__all__ = ["FAULT_VERBS", "FaultCommand", "FaultPlan", "FaultyTransport"]

Pair = Tuple[ProcessId, ProcessId]


def _check_loss(loss_prob: float) -> float:
    """Validate a loss probability: the full closed interval is legal
    (1.0 = drop everything, the blackhole link)."""
    if not 0.0 <= loss_prob <= 1.0:
        raise ConfigurationError(f"loss_prob {loss_prob} outside [0, 1]")
    return loss_prob


class FaultPlan:
    """Shared, mutable description of what the network does to traffic."""

    def __init__(
        self,
        n: int,
        seed: int = 0,
        loss_prob: float = 0.0,
        delay: Optional[DelayModel] = None,
    ) -> None:
        self.n = n
        self.rng = random.Random(seed)
        self.default_loss = _check_loss(loss_prob)
        self.default_delay = delay
        self._pair_loss: Dict[Pair, float] = {}
        self._pair_delay: Dict[Pair, Optional[DelayModel]] = {}
        self._cut: Dict[Pair, bool] = {}
        self._partition_groups: Optional[List[frozenset]] = None
        self._stalled: Set[ProcessId] = set()
        self._storm_loss: Optional[float] = None
        self._storm_delay: Optional[DelayModel] = None
        self.dropped = 0
        self.delayed = 0
        self._refresh_active()

    # ------------------------------------------------------------- fast path
    @property
    def active(self) -> bool:
        """``False`` while the plan would pass every send through untouched
        (the :class:`FaultyTransport` fast path)."""
        return self._active

    def _refresh_active(self) -> None:
        self._active = bool(
            self._cut
            or self._stalled
            or self._pair_loss
            or self._pair_delay
            or self._storm_loss is not None
            or self._storm_delay is not None
            or self.default_loss
            or self.default_delay is not None
        )

    def _check_pid(self, pid: ProcessId) -> ProcessId:
        if pid not in range(self.n):
            raise ConfigurationError(f"unknown pid {pid}")
        return pid

    # ------------------------------------------------------------ partitions
    def partition(self, *groups: Iterable[ProcessId]) -> List[List[ProcessId]]:
        """Cut every directed pair crossing group boundaries (now).

        Processes not named in any group form an implicit final group —
        the exact contract of
        :meth:`repro.sim.partition.NetworkController.partition`.  Returns
        the full, explicit group list (implicit rest group included) so
        callers can record exactly what was applied.
        """
        named = [frozenset(g) for g in groups]
        seen = frozenset().union(*named) if named else frozenset()
        for pid in seen:
            self._check_pid(pid)
        rest = frozenset(range(self.n)) - seen
        all_groups = named + ([rest] if rest else [])
        membership: Dict[ProcessId, int] = {}
        for idx, group in enumerate(all_groups):
            for pid in group:
                if pid in membership:
                    raise ConfigurationError(f"pid {pid} in two groups")
                membership[pid] = idx
        for src in range(self.n):
            for dst in range(self.n):
                if src != dst:
                    self._cut[(src, dst)] = membership[src] != membership[dst]
        self._partition_groups = all_groups
        self._refresh_active()
        return [sorted(group) for group in all_groups]

    def isolate(self, pid: ProcessId) -> List[List[ProcessId]]:
        """Partition *pid* away from everyone else."""
        return self.partition([pid])

    def heal(self) -> None:
        """Remove any active partition."""
        self._cut.clear()
        self._partition_groups = None
        self._refresh_active()

    @property
    def partitioned(self) -> bool:
        """True while a partition is in force."""
        return self._partition_groups is not None

    # ---------------------------------------------------------------- stalls
    def stall(self, pid: ProcessId) -> None:
        """Silence *pid* entirely: every send from or to it is dropped.

        This is the in-process approximation of ``SIGSTOP`` — the node's
        timers keep running but nothing it says reaches the wire and
        nothing reaches it, so peers observe exactly the silence a frozen
        process produces.  (A real ``SIGSTOP`` buffers rather than drops;
        for loss-tolerant protocols the observable difference is resumed
        duplicates, which the stacks already absorb.)  Idempotent.
        """
        self._stalled.add(self._check_pid(pid))
        self._refresh_active()

    def resume(self, pid: ProcessId) -> None:
        """Undo :meth:`stall` for *pid*.  Idempotent."""
        self._stalled.discard(self._check_pid(pid))
        self._refresh_active()

    @property
    def stalled(self) -> frozenset:
        """Pids currently stalled."""
        return frozenset(self._stalled)

    # ---------------------------------------------------------------- storms
    def storm(
        self, loss_prob: float, delay: Optional[DelayModel] = None
    ) -> None:
        """Start a cluster-wide message-loss storm.

        Every directed pair loses messages with at least *loss_prob*
        (per-pair overrides and the default loss still apply when they
        are harsher), optionally under a congestion *delay* model.  A new
        storm replaces the previous one; :meth:`calm` ends it.
        """
        self._storm_loss = _check_loss(loss_prob)
        self._storm_delay = delay
        self._refresh_active()

    def calm(self) -> None:
        """End an active loss storm.  Idempotent."""
        self._storm_loss = None
        self._storm_delay = None
        self._refresh_active()

    @property
    def storming(self) -> bool:
        """True while a loss storm is in force."""
        return self._storm_loss is not None

    # ----------------------------------------------------------- degradation
    def degrade(
        self,
        src: ProcessId,
        dst: ProcessId,
        loss_prob: Optional[float] = None,
        delay: Optional[DelayModel] = None,
    ) -> None:
        """Override loss and/or delay for the directed pair ``src -> dst``."""
        self._check_pid(src)
        self._check_pid(dst)
        if loss_prob is not None:
            self._pair_loss[(src, dst)] = _check_loss(loss_prob)
        if delay is not None:
            self._pair_delay[(src, dst)] = delay
        self._refresh_active()

    def restore(self, src: ProcessId, dst: ProcessId) -> None:
        """Undo :meth:`degrade` for ``src -> dst``."""
        self._pair_loss.pop((src, dst), None)
        self._pair_delay.pop((src, dst), None)
        self._refresh_active()

    # --------------------------------------------------------------- verdicts
    def plan(self, src: ProcessId, dst: ProcessId) -> Optional[Time]:
        """Decide one send's fate: ``None`` = drop, else extra delay (>= 0).

        Same shape as :meth:`repro.sim.links.Link.plan`, minus the message
        (injection here is content-blind).
        """
        if self._stalled and (src in self._stalled or dst in self._stalled):
            self.dropped += 1
            return None
        if self._cut.get((src, dst), False):
            self.dropped += 1
            return None
        loss = self._pair_loss.get((src, dst), self.default_loss)
        if self._storm_loss is not None and self._storm_loss > loss:
            loss = self._storm_loss
        if loss and (loss >= 1.0 or self.rng.random() < loss):
            self.dropped += 1
            return None
        model = self._pair_delay.get((src, dst), self._storm_delay)
        if model is None:
            model = self.default_delay
        if model is None:
            return 0.0
        delay = model.sample(self.rng, 0.0)
        if delay > 0:
            self.delayed += 1
        return delay


class FaultyTransport(Transport):
    """A proxy transport applying a :class:`FaultPlan` to every send.

    Wraps the real transport of one node; the clock is used to realize
    injected delays, so wrapping loopback-on-virtual-clock keeps runs
    deterministic while still exercising the full fault machinery.  While
    the plan is idle (:attr:`FaultPlan.active` is ``False``) a send is
    one extra attribute read plus a delegated call.
    """

    def __init__(self, inner: Transport, plan: FaultPlan, clock: Any) -> None:
        # Deliberately not calling ``super().__init__``: the traffic
        # counters must live on ``inner`` — it is the transport actually
        # putting frames on the wire — and are re-exposed as read-only
        # properties below so stats read off the proxy stay truthful.
        self.pid = inner.pid
        self.closed = False
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.injected_drops = 0

    frames_sent = property(lambda self: self.inner.frames_sent)
    frames_received = property(lambda self: self.inner.frames_received)
    bytes_sent = property(lambda self: self.inner.bytes_sent)
    bytes_received = property(lambda self: self.inner.bytes_received)
    send_errors = property(lambda self: self.inner.send_errors)

    # Receiver, observer, and peers pass straight through to the wrapped
    # transport.
    def set_receiver(self, receiver) -> None:
        self.inner.set_receiver(receiver)

    def set_observer(self, observer) -> None:
        self.inner.set_observer(observer)

    def set_peers(self, addresses: Dict[ProcessId, Any]) -> None:
        self.inner.set_peers(addresses)

    @property
    def local_address(self) -> Any:
        return self.inner.local_address

    def bind(self):
        return self.inner.bind()

    def close(self):
        self.closed = True
        return self.inner.close()

    def send(self, dst: ProcessId, data: bytes) -> None:
        plan = self.plan
        if not plan.active:
            self.inner.send(dst, data)
            return
        verdict = plan.plan(self.pid, dst)
        if verdict is None:
            self.injected_drops += 1
            return
        if verdict <= 0.0:
            self.inner.send(dst, data)
        else:
            self.clock.schedule(verdict, self.inner.send, dst, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultyTransport over {self.inner!r}>"


# ------------------------------------------------------------- fault commands
class _Spec(NamedTuple):
    required: Tuple[str, ...]
    optional: Tuple[str, ...]
    #: Where the command acts: ``"process"`` — the node's OS process
    #: (a process cluster delivers these as signals); ``"clock"`` — the
    #: ``pid`` node's clock; ``"link"`` — the ``src`` node's plan (faults
    #: inject at send time, so a directed link is the sender's business);
    #: ``"network"`` — every node's plan.
    scope: str


#: op -> argument names and scope: the one definition of the fault surface.
#: The argument names are the ClusterAPI verb's parameter names (minus
#: ``at``), the scenario event's keys, and the control datagram's keys.
FAULT_SPECS: Dict[str, _Spec] = {
    "crash": _Spec(("pid",), (), "process"),
    "stall": _Spec(("pid",), (), "process"),
    "resume": _Spec(("pid",), (), "process"),
    "partition": _Spec(("groups",), (), "network"),
    "heal": _Spec((), (), "network"),
    "isolate": _Spec(("pid",), (), "network"),
    "degrade": _Spec(("src", "dst"), ("loss", "delay"), "link"),
    "restore": _Spec(("src", "dst"), (), "link"),
    "storm": _Spec(("loss",), (), "network"),
    "calm": _Spec((), (), "network"),
    "skew": _Spec(("pid", "offset"), (), "clock"),
}

#: Every fault verb a :class:`~repro.cluster.ClusterAPI` carries.
FAULT_VERBS = tuple(FAULT_SPECS)


def _pid(value: Any, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(
            f"{what} must be an integer pid, got {value!r}"
        ) from None


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} {value} is not finite")
    return value


def _delay(value: Any, what: str) -> float:
    if _number(value, what) < 0:
        raise ConfigurationError(f"negative delay {value}")
    return value


def _groups(value: Any, what: str) -> List[List[int]]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(group, (list, tuple)) for group in value
    ):
        raise ConfigurationError(
            f"partition groups must be a list of pid lists, got {value!r}"
        )
    groups = [[_pid(pid, "partition member") for pid in g] for g in value]
    seen: Set[int] = set()
    for group in groups:
        for pid in group:
            if pid in seen:
                raise ConfigurationError(f"pid {pid} in two groups")
            seen.add(pid)
    return groups


#: arg name -> validator returning the normalized value.
_CHECKS: Dict[str, Callable[[Any, str], Any]] = {
    "pid": _pid,
    "src": _pid,
    "dst": _pid,
    "groups": _groups,
    "loss": lambda value, what: _check_loss(_number(value, what)),
    "delay": _delay,
    "offset": _number,
}


@dataclass(frozen=True)
class FaultCommand:
    """One fault as data: *op* (a :data:`FAULT_VERBS` name) plus *args*.

    Construction validates eagerly — unknown op, missing or unknown
    args, malformed pids and groups, loss outside [0, 1], negative or
    non-finite delays and offsets are all :class:`ConfigurationError`.
    :meth:`to_dict` is the wire and scenario form (``{"op": ..., **args}``);
    :meth:`apply` performs the fault and returns its narration.
    """

    op: str
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = FAULT_SPECS.get(self.op)
        if spec is None:
            raise ConfigurationError(
                f"unknown scenario op {self.op!r}; known ops: "
                + ", ".join(sorted(FAULT_SPECS))
            )
        missing = [key for key in spec.required if key not in self.args]
        if missing:
            raise ConfigurationError(
                f"scenario op {self.op!r} missing arg(s): {missing}"
            )
        unknown = sorted(set(self.args) - set(spec.required + spec.optional))
        if unknown:
            raise ConfigurationError(
                f"scenario op {self.op!r} got unknown arg(s): {unknown}"
            )
        args = {
            key: (
                value if value is None and key in spec.optional
                else _CHECKS[key](value, key)
            )
            for key, value in self.args.items()
        }
        object.__setattr__(self, "args", args)

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], n: Optional[int] = None
    ) -> "FaultCommand":
        """Validate ``{"op": ..., **args}``; with *n*, pids must be < *n*."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a fault command must be an object, got {data!r}"
            )
        args = dict(data)
        command = cls(args.pop("op", None), args)  # type: ignore[arg-type]
        if n is not None:
            command.check_pids(n)
        return command

    def to_dict(self) -> Dict[str, Any]:
        return {"op": self.op, **self.args}

    def check_pids(self, n: int) -> None:
        """Reject any pid the command names outside ``range(n)``."""
        named = [self.args[k] for k in ("pid", "src", "dst") if k in self.args]
        named += [p for group in self.args.get("groups", ()) for p in group]
        for pid in named:
            if not 0 <= pid < n:
                raise ConfigurationError(
                    f"scenario op {self.op!r} names pid {pid}, out of range "
                    f"for n={n}"
                )

    @property
    def scope(self) -> str:
        """Where the command acts (see :data:`FAULT_SPECS`)."""
        return FAULT_SPECS[self.op].scope

    def targets(self, n: int) -> List[ProcessId]:
        """The nodes that must apply the command in an *n*-node cluster."""
        if self.scope == "network":
            return list(range(n))
        return [self.args["src" if self.scope == "link" else "pid"]]

    def apply(
        self, plan: FaultPlan, clock: Any = None
    ) -> Tuple[str, Dict[str, Any]]:
        """Perform the fault on *plan* (or, for ``skew``, on the target
        node's *clock*) and return its ``scenario.*`` narration as
        ``(kind, fields)``.  ``crash`` has no plan-level effect: the
        cluster kills the node itself."""
        op = self.op
        args = self.args
        if op in ("stall", "resume"):
            getattr(plan, op)(args["pid"])
            return f"scenario.{op}", {
                "target": args["pid"], "signal": "silence",
            }
        if op == "partition":
            groups = plan.partition(*args["groups"])
            return "scenario.partition", {"groups": groups}
        if op == "isolate":
            groups = plan.isolate(args["pid"])
            return "scenario.partition", {"groups": groups}
        if op in ("heal", "calm"):
            getattr(plan, op)()
            return f"scenario.{op}", {}
        if op == "degrade":
            loss, delay = args.get("loss"), args.get("delay")
            plan.degrade(
                args["src"], args["dst"], loss_prob=loss,
                delay=None if delay is None else FixedDelay(delay),
            )
            return "scenario.degrade", {
                "src": args["src"], "dst": args["dst"],
                "loss": loss, "delay": delay,
            }
        if op == "restore":
            plan.restore(args["src"], args["dst"])
            return "scenario.restore", {
                "src": args["src"], "dst": args["dst"],
            }
        if op == "storm":
            plan.storm(args["loss"])
            return "scenario.storm", {"loss": args["loss"]}
        if op == "skew":
            clock.skew(args["offset"])
            return "scenario.skew", {
                "target": args["pid"], "offset": args["offset"],
            }
        raise ConfigurationError(f"{op!r} is applied by the cluster itself")
