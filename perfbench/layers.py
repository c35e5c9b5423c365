"""Per-layer timing for the traced run, installed from outside the program.

Every timer wraps a public entry point of one layer (a module function or
a class method) and charges the wrapped call's *self time* to that layer:
its duration minus the time spent in nested wrapped calls.  Nesting is
tracked on one stack, which is sound because every wrapped function is
synchronous: no other wrapped call can start while one is on the stack,
except through its own nested calls.  The one asynchronous entry point,
``repro.svc.protocol.read_frame``, is timed only over its synchronous tail
(the decode after the frame bytes arrived), never across an ``await``.

Wrappers are installed only in the traced run; the untraced run imports
this module but never calls :func:`install`.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import time
from typing import Any, Callable, Dict, List, Optional

perf = time.perf_counter


class LayerClock:
    """Self time and call counts per layer name, plus GC pauses."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[List[Any]] = []
        self.gc_pauses: List[float] = []
        self.gc_gen2 = 0
        self._gc_started: Optional[float] = None

    def reset(self) -> None:
        """Zero every total (called at the start of the measured window)."""
        self.self_s.clear()
        self.calls.clear()
        self.gc_pauses.clear()
        self.gc_gen2 = 0

    # ------------------------------------------------------------ spans
    def push(self, name: str) -> List[Any]:
        frame = [name, perf(), 0.0]
        self._stack.append(frame)
        return frame

    def pop(self, frame: List[Any]) -> None:
        elapsed = perf() - frame[1]
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        name = frame[0]
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[2]
        self.calls[name] = self.calls.get(name, 0) + 1
        if stack:
            stack[-1][2] += elapsed

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* wrapped so its self time is charged to *name*."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop(frame)

        return wrapper

    def us_per(self, name: str, count: int) -> float:
        return self.self_s.get(name, 0.0) * 1e6 / count if count else 0.0

    # --------------------------------------------------------------- gc
    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = perf()
        elif self._gc_started is not None:
            self.gc_pauses.append(perf() - self._gc_started)
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1


def install(clock: LayerClock) -> None:
    """Wrap each layer's entry points so *clock* times them."""
    import repro.net.codec as codec_mod
    import repro.svc.client as client_mod
    import repro.svc.frontend as frontend_mod
    import repro.svc.protocol as protocol_mod
    from repro.consensus.multi import ReplicatedStateMachine
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sinks import JsonlSink, MemorySink, TeeSink
    from repro.sim.process import Process
    from repro.svc.state import KVStateMachine

    timed = clock.timed

    # repro.net: message codec, and the tag walk as the codec binds it.
    for cls in (codec_mod.Codec, codec_mod.JsonCodec, codec_mod.MsgpackCodec):
        for attr in ("encode_message", "encode_message_batch",
                     "decode_message", "encode_payload", "decode_payload"):
            if attr in vars(cls):
                setattr(cls, attr, timed("net.codec", vars(cls)[attr]))
    codec_mod.to_jsonable = timed("net.tagwalk", codec_mod.to_jsonable)
    codec_mod.from_jsonable = timed("net.tagwalk", codec_mod.from_jsonable)

    # repro.sim: message delivery, split by the channel's layer.
    deliver = Process.deliver

    def timed_deliver(self: Any, msg: Any) -> None:
        channel = msg.channel
        if channel.startswith("rsm.c"):
            name = "consensus.deliver"
        elif channel.startswith("fd"):
            name = "fd.deliver"
        else:
            deliver(self, msg)
            return
        frame = clock.push(name)
        try:
            deliver(self, msg)
        finally:
            clock.pop(frame)

    Process.deliver = timed_deliver  # type: ignore[method-assign]

    # repro.consensus: the replicated log's own bookkeeping.
    for attr, name in (("on_message", "rsm.on_message"),
                       ("_on_slot_decided", "rsm.apply")):
        setattr(ReplicatedStateMachine, attr,
                timed(name, getattr(ReplicatedStateMachine, attr)))

    # repro.obs: trace recording and metrics updates.
    for cls in (MemorySink, TeeSink, JsonlSink):
        for attr in ("record", "record_event"):
            if attr in vars(cls):
                setattr(cls, attr, timed("obs.record", vars(cls)[attr]))
    for attr in ("inc", "set", "observe"):
        setattr(MetricsRegistry, attr,
                timed("obs.metrics", getattr(MetricsRegistry, attr)))

    # repro.svc: the state machine and client/frontend framing.
    KVStateMachine.apply = timed(  # type: ignore[method-assign]
        "svc.apply", KVStateMachine.apply
    )
    encode_frame = timed("svc.frame", protocol_mod.encode_frame)
    write_frame = timed("svc.frame", protocol_mod.write_frame)
    for mod in (protocol_mod, client_mod, frontend_mod):
        if hasattr(mod, "encode_frame"):
            mod.encode_frame = encode_frame
        if hasattr(mod, "write_frame"):
            mod.write_frame = write_frame

    read_body = protocol_mod.read_frame_bytes
    read_frame = protocol_mod.read_frame
    pending: List[List[Any]] = []

    async def timed_read_body(*args: Any, **kwargs: Any) -> Any:
        body = await read_body(*args, **kwargs)
        if body is not None:
            # The decode that follows runs without yielding; time it from
            # here until read_frame returns.
            pending.append(clock.push("svc.frame"))
        return body

    async def timed_read_frame(*args: Any, **kwargs: Any) -> Any:
        try:
            return await read_frame(*args, **kwargs)
        finally:
            if pending:
                clock.pop(pending.pop())

    protocol_mod.read_frame_bytes = timed_read_body
    for mod in (protocol_mod, client_mod, frontend_mod):
        mod.read_frame = timed_read_frame

    gc.callbacks.append(clock._on_gc)


async def probe_loop_lag(lags: List[float], interval: float = 0.01) -> None:
    """Sample how late a periodic *interval* timer wakes, until cancelled."""
    loop = asyncio.get_running_loop()
    while True:
        due = loop.time() + interval
        await asyncio.sleep(interval)
        lags.append(max(0.0, loop.time() - due))
