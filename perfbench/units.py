"""Workloads: seeded inputs, one unit of work, and its output checks.

A *unit* is the fixed amount of work a workload seed defines:

* steady workloads (``lan-write-g1``, ``lan-kv-g4-sync``, ``wan-read-txn``):
  one closed-loop cluster run, built, run to completion and drained;
* ``crash-recover``: ``CRASH_TRIALS_PER_UNIT`` consecutive trials, each a
  small cluster run under the scripted ``crash_schedule``.

The first unit of a run gives the modeled (sim-time) metrics and the
digest, both pure functions of the seed. Later units repeat the same
inputs (steady) or continue the contiguous trial-seed range
(crash-recover), and only add host-time samples.

The program only ever sees generated inputs: ``ClusterSpec`` plus step
lists, or ``ChaosOptions``, a ``NemesisSchedule`` and trial seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro import Cluster, ClusterSpec, RequestKind, Step, single_kind_steps, txn_steps
from repro.chaos.runner import PROTOCOLS, ChaosOptions, run_with_schedule
from repro.chaos.schedule import NemesisEvent, NemesisSchedule
from repro.errors import SimulationError
from repro.net.profiles import get_profile
from repro.services.kvstore import KVStoreService

WORKLOADS = ("lan-write-g1", "lan-kv-g4-sync", "wan-read-txn", "crash-recover")
#: One key per shard at groups=4 (crc32 % 4 = 0, 1, 2, 3).
SHARD_KEYS = ("a4", "a0", "a5", "a1")
#: 12 rotations of the 6 (protocol, groups) kinds: every unit has the same mix.
CRASH_TRIALS_PER_UNIT = 72
#: The p99 needs at least 10 samples beyond it.
MIN_RRT_SAMPLES = 1000
MAX_SIM_TIME = 600.0

SpanFactory = Callable[[str], AbstractContextManager[None]]


def _no_span(name: str) -> AbstractContextManager[None]:
    return nullcontext()


# ------------------------------------------------------------------ inputs
def _writes(rng: random.Random, count: int, keys: tuple[str, ...]) -> list[Step]:
    ops = [("put", rng.choice(keys), rng.randrange(1 << 30)) for _ in range(count)]
    return single_kind_steps(RequestKind.WRITE, count, op=ops.__getitem__)


def steady_inputs(workload: str, seed: int) -> tuple[ClusterSpec, list[list[Step]]]:
    """The cluster spec and per-client step lists of a steady workload."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "lan-write-g1":
        spec = ClusterSpec(
            profile=get_profile("sysnet"), seed=seed, xpaxos_reads=False, tpaxos=False
        )
        keys = tuple(f"k{i}" for i in range(64))
        return spec, [_writes(rng, 125, keys) for _ in range(16)]
    if workload == "lan-kv-g4-sync":
        spec = ClusterSpec(
            profile=get_profile("sysnet"), seed=seed, n_replicas=4, groups=4, fsync="sync"
        )
        return spec, [_writes(rng, 125, (SHARD_KEYS[c % 4],)) for c in range(16)]
    if workload == "wan-read-txn":
        spec = ClusterSpec(profile=get_profile("wan"), seed=seed)
        keys = tuple(f"w{i}" for i in range(8))
        clients = []
        for _ in range(8):
            reads = [("get", rng.choice(keys)) for _ in range(100)]
            clients.append(single_kind_steps(RequestKind.READ, 100, op=reads.__getitem__))
        clients += [_writes(rng, 100, keys) for _ in range(4)]
        for c in range(4):
            # 3-op T-Paxos transactions on a per-client key: no lock conflicts
            txns = [[("put", f"t{c}", rng.randrange(1 << 30)) for _ in range(3)] for _ in range(25)]
            clients.append(txn_steps(25, txns.__getitem__))
        return spec, clients
    raise ValueError(f"not a steady workload: {workload!r}")


def crash_options(trial_seed: int) -> ChaosOptions:
    return ChaosOptions(
        protocol=PROTOCOLS[trial_seed % 3], groups=1 + (trial_seed // 3) % 2, fsync="sync"
    )


def crash_schedule(trial_seed: int, groups: int) -> NemesisSchedule:
    """Crash-recovery one fault at a time: backup r2 loses its unsynced
    tail and crashes, then restarts (WAL replay, catch-up); leader r0
    crashes, r1 takes over every group, r0 restarts as a backup. Fixed, not
    sampled: the randomized sweep hits known invariant violations (see
    README.md), and a workload must be one on which nothing fails."""
    takeover = tuple(
        NemesisEvent(1.21, "leader", ("r1",), rgroup=g if groups > 1 else None)
        for g in range(groups)
    )
    events = (
        NemesisEvent(0.39, "torn_write", ("r2",)),
        NemesisEvent(0.4, "crash", ("r2",)),
        NemesisEvent(0.8, "recover", ("r2",)),
        NemesisEvent(1.2, "crash", ("r0",)),
        *takeover,
        NemesisEvent(1.6, "recover", ("r0",)),
    )
    return NemesisSchedule(trial_seed, 2.0, events)


# ------------------------------------------------------------------ results
@dataclass(frozen=True)
class Trial:
    seed: int
    protocol: str
    groups: int
    invariants: tuple[str, ...]


@dataclass
class Unit:
    """What one unit did, in both currencies."""

    #: Host seconds of the work loop: run + drain (steady), or build + run +
    #: check of every trial (crash-recover).
    work_s: float = 0.0
    #: Host seconds spent building clusters outside ``work_s`` (steady).
    build_s: float = 0.0
    attempted: int = 0
    completed: int = 0
    rrts: list[float] = field(default_factory=list)
    sim_duration: float = 0.0
    leader_util: list[float] = field(default_factory=list)
    events: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    trials: list[Trial] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Requests that did not complete."""
        return self.attempted - self.completed

    @property
    def host_us_per_req(self) -> float:
        return self.work_s / self.completed * 1e6


def _add_counters(into: dict[str, int], cluster: Cluster) -> None:
    for name, value in cluster.metrics.counters().items():
        if name.startswith("proc."):
            # proc.<pid>[.g<N>].<metric> -> <metric>, summed over processes
            parts = name.split(".")[2:]
            if parts and parts[0][:1] == "g" and parts[0][1:].isdigit():
                parts = parts[1:]
            name = "proc." + ".".join(parts)
        into[name] = into.get(name, 0) + value


def _digest_cluster(h: Any, cluster: Cluster) -> None:
    """Feed the modeled outcome: per-request sim RRTs and the chosen logs."""
    for client in cluster.clients:
        h.update(client.pid.encode())
        for rec in client.request_records():
            h.update(f"{rec.rid}|{rec.sent_at!r}|{rec.completed_at!r}|{rec.status}\n".encode())
    for pid in sorted(cluster.replicas):
        replica = cluster.replicas[pid]
        snaps = (
            replica.invariant_snapshots()
            if hasattr(replica, "invariant_snapshots")
            else [replica.invariant_snapshot()]
        )
        for snap in snaps:
            h.update(f"{pid}/g{snap['group']}|{snap['chosen']!r}\n".encode())


def _fingerprint_problems(cluster: Cluster) -> list[str]:
    """Replica fingerprints must agree within each group after the drain."""
    by_group: dict[str, set[str]] = {}
    for key, fp in cluster.replica_fingerprints().items():
        group = key.split("/", 1)[1] if "/" in key else "g0"
        by_group.setdefault(group, set()).add(repr(fp))
    alive = sum(1 for r in cluster.replicas.values() if r.alive)
    problems = [
        f"group {g}: {len(fps)} distinct replica fingerprints"
        for g, fps in sorted(by_group.items())
        if len(fps) != 1
    ]
    if alive != len(cluster.replicas):
        problems.append(f"only {alive}/{len(cluster.replicas)} replicas alive")
    return problems


def _leader_util(cluster: Cluster, elapsed: float) -> float:
    return max(
        cluster.world.cpu(pid).utilization(elapsed)
        for pid in set(cluster.group_leader_pids)
    )


@contextmanager
def _metrics_off() -> Iterator[None]:
    """Build every cluster in the block with ``ClusterSpec(metrics=False)``
    (crash-recover trials build their spec inside ``run_with_schedule``)."""
    orig = Cluster.__init__

    def init(self: Cluster, spec: ClusterSpec, *args: Any, **kwargs: Any) -> None:
        orig(self, dataclasses.replace(spec, metrics=False), *args, **kwargs)

    Cluster.__init__ = init  # type: ignore[method-assign]
    try:
        yield
    finally:
        Cluster.__init__ = orig  # type: ignore[method-assign]


# ------------------------------------------------------------------ running
def _absorb(unit: Unit, cluster: Cluster, digest: Any, elapsed: float) -> None:
    """Add one finished cluster's modeled results and counts to ``unit``."""
    clients = cluster.clients
    unit.completed += sum(c.completed_requests for c in clients)
    for c in clients:
        unit.rrts.extend(c.rrts())
    starts = [c.started_at for c in clients if c.started_at is not None]
    ends = [c.finished_at for c in clients if c.finished_at is not None]
    if starts and ends:
        unit.sim_duration += max(ends) - min(starts)
    unit.leader_util.append(_leader_util(cluster, elapsed))
    unit.events += cluster.kernel.events_processed
    _add_counters(unit.counters, cluster)
    _digest_cluster(digest, cluster)


def run_steady(workload: str, seed: int, span: SpanFactory = _no_span) -> tuple[Unit, Cluster]:
    """One closed-loop cluster run. Returns the unit and the drained cluster
    (the caller may ``collect`` it)."""
    spec, steps = steady_inputs(workload, seed)
    unit = Unit(attempted=sum(len(s.requests) for client in steps for s in client))
    with span("bench.work"):
        t0 = time.perf_counter()
        cluster = Cluster(spec, steps, service_factory=KVStoreService)
        t1 = time.perf_counter()
        try:
            cluster.run(max_time=MAX_SIM_TIME)
        except SimulationError as exc:  # unfinished clients count as failures
            unit.problems.append(str(exc))
        run_end = cluster.kernel.now
        cluster.drain()
        t2 = time.perf_counter()
    unit.build_s = t1 - t0
    unit.work_s = t2 - t1
    h = hashlib.sha256()
    _absorb(unit, cluster, h, run_end)
    unit.digest = h.hexdigest()
    unit.problems.extend(_fingerprint_problems(cluster))
    return unit, cluster


def run_crash_unit(first_seed: int, span: SpanFactory = _no_span) -> tuple[Unit, Cluster]:
    """``CRASH_TRIALS_PER_UNIT`` trials from ``first_seed`` on. A violated
    invariant is a problem of the unit; it never stops the unit. Returns
    the unit and the last trial's cluster."""
    unit = Unit()
    h = hashlib.sha256()
    for seed in range(first_seed, first_seed + CRASH_TRIALS_PER_UNIT):
        options = crash_options(seed)
        schedule = crash_schedule(seed, options.groups)
        with span("bench.work"):
            t0 = time.perf_counter()
            result = run_with_schedule(schedule, options, keep_cluster=True)
            unit.work_s += time.perf_counter() - t0
        cluster = result.cluster
        assert cluster is not None
        # Requests sent: an aborted T-Paxos transaction is retried with fresh ones.
        unit.attempted += sum(len(c.request_records()) for c in cluster.clients)
        unit.trials.append(
            Trial(
                seed, options.protocol, options.groups,
                tuple(sorted({v.invariant for v in result.violations})),
            )
        )
        unit.problems.extend(
            f"trial {seed} ({options.protocol}, groups={options.groups}): {v.invariant}: "
            f"{v.detail}"
            for v in result.violations
        )
        h.update(f"trial {seed} {[v.to_dict() for v in result.violations]!r}\n".encode())
        _absorb(unit, cluster, h, result.sim_time)
    unit.digest = h.hexdigest()
    return unit, cluster


def run_unit(
    workload: str, seed: int, index: int = 0, metrics: bool = True, span: SpanFactory = _no_span
) -> tuple[Unit, Cluster]:
    """Unit ``index`` of a run: steady units repeat the seed's inputs,
    crash-recover
    units continue the trial-seed range. ``span`` wraps the timed work;
    ``metrics=False`` builds every cluster with ``ClusterSpec(metrics=False)``."""
    with nullcontext() if metrics else _metrics_off():
        if workload == "crash-recover":
            return run_crash_unit(seed + index * CRASH_TRIALS_PER_UNIT, span)
        return run_steady(workload, seed, span)


# ------------------------------------------------------------------ metrics
def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def modeled(unit: Unit) -> dict[str, float]:
    """The sim-time metrics of a unit (deterministic per seed)."""
    return {
        "sim_rrt_p50_ms": percentile(unit.rrts, 50) * 1e3,
        "sim_rrt_p99_ms": percentile(unit.rrts, 99) * 1e3,
        "sim_tput_rps": len(unit.rrts) / unit.sim_duration,
    }
