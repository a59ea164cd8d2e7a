"""The replica process: one replica of every replication group.

A :class:`GroupHost` is the unit the world registers, crashes and
recovers — every replica process of a cluster is one, whatever the group
count. Inside it live N :class:`repro.core.group.ReplicationGroup`
instances — one replica of each shard — all sharing the process's
:class:`repro.storage.store.StoragePump` (one simulated platter, one
fsync clock, one crash) and the process's network identity.

Wire format: with several groups, traffic *between replica processes*
travels wrapped in :class:`repro.core.messages.GroupEnvelope` so the
receiving host knows which of its groups the Prepare/Accept/heartbeat
belongs to. Traffic to clients (Replies) goes bare — clients are
group-oblivious and unchanged. Bare :class:`~repro.core.requests.ClientRequest`
broadcasts arriving from clients are routed host-side through the
deterministic :class:`~repro.shard.router.ShardRouter`: every host hands
the request to the same group, and that group's leader answers.

A host with one group is the paper's single-log replica (§3.1): the group
owns the process outright, so it talks to the world bare (no envelope, no
routing), records its counters under ``proc.<pid>.*`` and reports its
fingerprint under ``pid``. That is what keeps ``groups=1`` byte-identical
to the unsharded simulator, and it is decided here, from the group count
alone.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from typing import Any

from repro.core.config import ReplicaConfig
from repro.core.group import ReplicationGroup
from repro.core.messages import GroupEnvelope
from repro.core.requests import ClientRequest
from repro.election.base import LeaderElector
from repro.errors import ConfigError
from repro.obs.prof.profiler import NULL_PROFILER, NullProfiler, SimProfiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, Scope
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer
from repro.services.base import Service
from repro.shard.router import ShardRouter
from repro.sim.process import Env, Process, TimerHandle
from repro.storage.store import StoragePump
from repro.types import GroupId, ProcessId


class GroupEnv(Env):
    """One group's view of its host process's environment.

    Delegates everything to the host's real environment (bound by the
    world at registration, hence the lazy lookups) and stamps outgoing
    peer traffic with the group id. The group id travels *outside* the
    protocol message — protocol code stays shard-oblivious.
    """

    __slots__ = ("host", "group", "_send_instruments")

    def __init__(self, host: "GroupHost", group: GroupId) -> None:
        self.host = host
        self.group = group
        self._send_instruments: dict[type, Any] = {}

    def _env(self) -> Env:
        env = self.host.env
        assert env is not None, f"{self.host.pid} is not bound to an environment"
        return env

    @property
    def pid(self) -> ProcessId:
        return self.host.pid

    @property
    def now(self) -> float:
        return self._env().now

    @property
    def rng(self) -> random.Random:
        return self._env().rng

    def _count_send(self, msg: Any, n: int) -> None:
        # The world's wire accounting only sees GroupEnvelope, so count the
        # inner protocol message under the group's own scope
        # (``proc.<pid>.g<N>.send.<Type>``) for per-group reporting.
        counter = self._send_instruments.get(type(msg))
        if counter is None:
            counter = self._send_instruments[type(msg)] = self.host.groups[
                self.group
            ].metrics.counter(f"send.{type(msg).__name__}")
        counter.inc(n)

    def send(self, dst: ProcessId, msg: Any) -> None:
        if dst in self.host.peer_set:
            self._count_send(msg, 1)
            self._env().send(dst, GroupEnvelope(self.group, msg))
        else:
            self._env().send(dst, msg)  # replies to clients go bare

    def broadcast(self, dsts: Iterable[ProcessId], msg: Any) -> None:
        # Wrap once, so the world encodes the envelope once for all peers.
        dsts = tuple(dsts)
        if not dsts:
            return
        if not self.host.peer_set.issuperset(dsts):
            for dst in dsts:
                self.send(dst, msg)
            return
        self._count_send(msg, len(dsts))
        self._env().broadcast(dsts, GroupEnvelope(self.group, msg))

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        return self._env().set_timer(delay, fn, *args)


class GroupHost(Process):
    """A process hosting one replica of each of ``n_groups`` shards."""

    def __init__(
        self,
        pid: ProcessId,
        config: ReplicaConfig,
        service_factory: Callable[[], Service],
        electors: Mapping[GroupId, LeaderElector] | Iterable[LeaderElector],
        n_groups: int | None = None,
    ) -> None:
        super().__init__(pid)
        if not isinstance(electors, Mapping):
            electors = dict(enumerate(electors))
        n_groups = len(electors) if n_groups is None else n_groups
        if n_groups < 1:
            raise ConfigError(f"need at least one group, got {n_groups}")
        if sorted(electors) != list(range(n_groups)):
            raise ConfigError(
                f"electors must cover groups 0..{n_groups - 1}, got {sorted(electors)}"
            )
        self.config = config
        self.peer_set = frozenset(config.peers)
        self.router = ShardRouter(n_groups)
        self.stats: Counter[str] = Counter()
        #: Observability hooks; the harness installs the run's instances
        #: with :meth:`instrument` (the pump and every group read them).
        self.metrics: Scope = NULL_REGISTRY.scope(pid)
        self.tracer: Tracer | NullTracer = NULL_TRACER
        self.profiler: SimProfiler | NullProfiler = NULL_PROFILER
        #: One durable substrate for the whole process.
        self.pump = StoragePump(self)
        self.groups: dict[GroupId, ReplicationGroup] = {
            group_id: ReplicationGroup(
                pid,
                config,
                service_factory,
                electors[group_id],
                group=group_id,
                pump=self.pump,
            )
            for group_id in range(n_groups)
        }

    @property
    def store(self) -> StoragePump:
        """The process's storage substrate, under the name fault schedules
        use (``replica.store.inject_*``)."""
        return self.pump

    def bind(self, env: Env) -> None:
        super().bind(env)
        if len(self.groups) == 1:
            # A lone group owns the process's wire: it sends bare, and the
            # world counts its sends under ``proc.<pid>``.
            self.groups[0].bind(env)
            return
        for group_id, group in self.groups.items():
            group.bind(GroupEnv(self, group_id))

    def instrument(
        self,
        registry: MetricsRegistry,
        tracer: Tracer | NullTracer,
        profiler: SimProfiler | NullProfiler,
    ) -> None:
        """Install the run's observability on the host and every group.

        Several groups each record under ``proc.<pid>.g<N>``; a lone group
        records under the process's own ``proc.<pid>`` scope.
        """
        self.metrics = registry.scope(self.pid)
        self.tracer = tracer
        self.profiler = profiler
        sharded = len(self.groups) > 1
        for group_id, group in self.groups.items():
            group.metrics = (
                registry.scope(f"{self.pid}.g{group_id}") if sharded else self.metrics
            )
            group.tracer = tracer
            group.profiler = profiler

    # ------------------------------------------------------------- lifecycle
    def on_start(self) -> None:
        for group_id in sorted(self.groups):
            self.groups[group_id].on_start()

    def on_crash(self) -> None:
        # One power cut hits every group; the pump is idempotent, so each
        # group's own crash hook may also touch it safely.
        self.pump.crash()
        for group_id in sorted(self.groups):
            group = self.groups[group_id]
            group.alive = False
            group.on_crash()

    def on_recover(self) -> None:
        for group_id in sorted(self.groups):
            group = self.groups[group_id]
            group.alive = True
            group.on_recover()  # may fail-stop the group (alive = False)
        if not any(group.alive for group in self.groups.values()):
            # The device refused replay: the whole process fail-stops.
            self.alive = False

    # --------------------------------------------------------------- routing
    def on_message(self, src: ProcessId, msg: Any) -> None:
        groups = self.groups
        if len(groups) == 1:
            group = groups[0]  # peers and clients alike talk to it bare
        elif type(msg) is GroupEnvelope:
            group = groups.get(msg.group)
            if group is None or not group.alive:
                self.stats["dropped_group_messages"] += 1
                return
            msg = msg.msg
        elif type(msg) is ClientRequest:
            group = groups[self.router.group_for_request(msg)]
        else:
            self.stats["unknown_messages"] += 1
            return
        if group.alive:
            group.on_message(src, msg)

    # --------------------------------------------------------------- queries
    def invariant_snapshots(self) -> list[dict[str, Any]]:
        """Per-group invariant snapshots, in group order (the chaos layer
        checks each group as its own consensus instance)."""
        return [
            self.groups[group_id].invariant_snapshot()
            for group_id in sorted(self.groups)
        ]

    def fingerprints(self) -> dict[str, object]:
        """Service-state digest of every alive group, keyed ``pid/g<N>``
        (a lone group's key is the bare ``pid``)."""
        out: dict[str, object] = {}
        for group_id in sorted(self.groups):
            group = self.groups[group_id]
            if group.alive:
                key = self.pid if len(self.groups) == 1 else f"{self.pid}/g{group_id}"
                out[key] = group.service.state_fingerprint()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "crashed"
        return f"<GroupHost {self.pid} groups={len(self.groups)} ({status})>"
