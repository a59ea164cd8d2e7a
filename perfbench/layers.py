"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``. To split host time by layer it wraps
the public functions at each layer boundary (class attributes and the few
module-level names the callers bind) for the duration of one traced unit,
then puts the originals back. Every wrapped call records one span: name,
start, end and parent. Spans live in flat in-memory arrays and are written
out once, when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans. Spans nest strictly (the simulator is single threaded),
so the self times of all spans add up to the root span exactly.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

#: Layer of a timer or barrier callback, by the module that defines it.
_MODULE_LAYERS = (
    ("repro.client.", "client"),
    ("repro.storage.", "storage"),
    ("repro.shard.", "shard"),
    ("repro.cluster.", "cluster"),
    ("repro.chaos.", "chaos"),
)

#: Layers in report order. ``bench`` is the benchmark's own glue plus
#: everything the program does outside a wrapped boundary above the kernel
#: (``Cluster.run``'s polling loop, ``run_with_schedule``'s sequencing).
LAYERS = (
    "kernel", "world", "net", "codec", "core", "shard", "storage",
    "client", "cluster", "chaos", "bench",
)


def callback_layer(fn: Any) -> str:
    module = getattr(fn, "__module__", None) or ""
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "core"


class Recorder:
    """Flat span store: parallel arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with one span per call."""
        nid = self.intern(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        def spanned(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        # Only the identity attributes: timer callbacks are wrapped per
        # arming, and ``update_wrapper``'s dict copy would count as world time.
        spanned.__name__ = getattr(fn, "__name__", name)
        spanned.__qualname__ = getattr(fn, "__qualname__", name)
        spanned.__wrapped__ = fn  # type: ignore[attr-defined]
        return spanned

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        nid = self.intern(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------- analysis
    def analyse(self) -> "SpanStats":
        """Self time and call count per span name; checks the nesting."""
        if self._stack != [-1]:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open")
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        n = len(self.names)
        self_by_name = np.zeros(n, dtype=np.int64)
        np.add.at(self_by_name, names, self_ns)
        dur_by_name = np.zeros(n, dtype=np.int64)
        np.add.at(dur_by_name, names, dur)
        calls = np.bincount(names, minlength=n)
        return SpanStats(
            self_ns={m: int(self_by_name[i]) for i, m in enumerate(self.names)},
            dur_ns={m: int(dur_by_name[i]) for i, m in enumerate(self.names)},
            calls={m: int(calls[i]) for i, m in enumerate(self.names)},
            root_ns=int(dur[~has_parent].sum()),
            negative_self=int((self_ns < 0).sum()),
        )

    def write(self, path: Path) -> None:
        """One line per span: id, name, start and end (ns from the first
        span's start) and parent id (-1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if len(self.start) else 0
        names = self.names
        lines = ["id\tname\tstart_ns\tend_ns\tparent"]
        lines.extend(
            f"{i}\t{names[n]}\t{s - base}\t{e - base}\t{p}"
            for i, (n, s, e, p) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent, strict=True)
            )
        )
        path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class SpanStats:
    """Per-name aggregates of one recorder."""

    self_ns: dict[str, int]
    dur_ns: dict[str, int]
    calls: dict[str, int]
    root_ns: int
    negative_self: int

    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns
        return out

    def self_of(self, *names: str) -> int:
        return sum(self.self_ns.get(n, 0) for n in names)

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def dur_of(self, *names: str) -> int:
        return sum(self.dur_ns.get(n, 0) for n in names)


# ------------------------------------------------------------------ wrapping
def _public_methods(cls: type) -> list[str]:
    return sorted(
        name
        for name, attr in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(attr)
    )


def _timer_wrapper(rec: Recorder, orig: Callable[..., Any]) -> Callable[..., Any]:
    """``Process.set_timer`` that wraps the callback in a span of the layer
    whose module defines it."""

    def set_timer(self: Any, delay: float, fn: Callable[..., None], *args: Any) -> Any:
        return orig(self, delay, rec.wrap(f"{callback_layer(fn)}.timer", fn), *args)

    return set_timer


def _flush_wrapper(rec: Recorder, orig: Callable[..., Any]) -> Callable[..., Any]:
    """``StoragePump.flush`` that runs the durability callback in a span of
    the layer whose module defines it (core, for every caller today)."""

    def flush(self: Any, callback: Any) -> None:
        return orig(self, rec.wrap(f"{callback_layer(callback)}.barrier", callback))

    return flush


Wrapper = Callable[[Recorder, Callable[..., Any]], Callable[..., Any]]


def _targets() -> list[tuple[Any, str, str, Wrapper | None]]:
    """(owner, attribute, span name, custom wrapper) per boundary."""
    import repro.chaos.runner as chaos_runner
    import repro.sim.world as sim_world
    from repro.chaos.schedule import NemesisSchedule
    from repro.client.client import Client
    from repro.cluster.harness import Cluster
    from repro.core.group import ReplicationGroup
    from repro.net.network import SimNetwork
    from repro.shard.host import GroupHost
    from repro.shard.router import ShardRouter
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process
    from repro.storage.store import StableStore, StoragePump

    lifecycle = ("on_message", "on_start", "on_crash", "on_recover")
    targets: list[tuple[Any, str, str, Wrapper | None]] = [
        (Kernel, "run", "kernel.run", None),
        (Process, "send", "world.send", None),
        (Process, "broadcast", "world.broadcast", None),
        (Process, "set_timer", "world.set_timer", _timer_wrapper),
        (SimNetwork, "delays", "net.delays", None),
        (sim_world, "encoded_size", "codec.encoded_size", None),
        (ShardRouter, "group_for_request", "shard.route", None),
        (Client, "on_message", "client.on_message", None),
        (Client, "on_start", "client.on_start", None),
        (Cluster, "__init__", "cluster.build", None),
        (NemesisSchedule, "compile_onto", "chaos.compile", None),
        (chaos_runner, "check_cluster", "chaos.check", None),
    ]
    targets += [(ReplicationGroup, m, f"core.{m}", None) for m in lifecycle]
    targets += [(GroupHost, m, f"shard.{m}", None) for m in lifecycle]
    # StableStore.flush only forwards to the pump, whose span owns the callback.
    targets += [(StableStore, m, f"storage.{m}", None) for m in _public_methods(StableStore)]
    targets += [
        (StoragePump, m, f"storage.{m}", _flush_wrapper if m == "flush" else None)
        for m in _public_methods(StoragePump)
    ]
    return targets


@contextmanager
def traced(rec: Recorder) -> Iterator[Recorder]:
    """Install the layer wrappers for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, custom in _targets():
            orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, orig))
            inner = custom(rec, orig) if custom is not None else orig
            setattr(owner, attr, rec.wrap(name, inner))
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
