"""Ablation — open-loop latency vs offered load (the hockey stick).

The paper only measures closed-loop throughput (clients gate on replies).
An open-loop Poisson client decouples offered load from the client count
and exposes the latency curve as load approaches the leader's capacity:
flat at low load, then a sharp knee near saturation. The knee should land
where the queueing model (`repro.analysis.queueing`) predicts ~1/S.
"""

from __future__ import annotations

import pytest

from benchmarks._util import emit
from repro.analysis.queueing import sysnet_model
from repro.client.openloop import OpenLoopClient
from repro.core.config import ReplicaConfig
from repro.election.static import StaticElector
from repro.net.network import SimNetwork
from repro.net.profiles import sysnet
from repro.services.noop import NoopService
from repro.shard.host import GroupHost
from repro.sim.kernel import Kernel
from repro.sim.world import World
from repro.types import RequestKind
from repro.util.tables import format_table

PEERS = ("r0", "r1", "r2")
REQUESTS = 3000


def run_open_loop(kind: RequestKind, rate: float, seed: int = 3):
    profile = sysnet()
    topology = profile.build_topology(PEERS, ("c0",))
    network = SimNetwork(topology, seed=seed)
    kernel = Kernel(seed=seed)
    world = World(kernel, network)
    config = ReplicaConfig(peers=PEERS)
    for pid in PEERS:
        world.add(
            GroupHost(pid, config, NoopService, [StaticElector("r0")]),
            cpu=profile.replica_cpu,
        )
    client = OpenLoopClient(
        "c0", PEERS, kind, op=(kind.value,), rate=rate, total=REQUESTS,
        wait_for_start=False, warmup=0.01,
    )
    world.add(client, cpu=profile.client_cpu)
    world.start()
    deadline = REQUESTS / rate * 3 + 1.0
    while not client.done and kernel.now < deadline:
        kernel.run(until=kernel.now + 0.05)
    return client.stats


def compute():
    model = sysnet_model("original")
    capacity = 1.0 / model.service  # ~100 kreq/s for the original service
    fractions = (0.2, 0.5, 0.8, 0.95, 1.1)
    rows = []
    latencies = {}
    for fraction in fractions:
        rate = capacity * fraction
        stats = run_open_loop(RequestKind.ORIGINAL, rate)
        rrts = sorted(stats.rrts)
        mean = sum(rrts) / len(rrts)
        p99 = rrts[int(len(rrts) * 0.99)]
        latencies[fraction] = mean
        rows.append(
            [
                f"{fraction:.2f}",
                f"{rate:,.0f}",
                stats.completed,
                f"{mean * 1e3:.3f}",
                f"{p99 * 1e3:.3f}",
            ]
        )
    text = (
        "Open-loop latency vs offered load (original requests, Sysnet)\n"
        f"modeled leader capacity 1/S = {capacity:,.0f} req/s\n"
        + format_table(
            ["load/capacity", "rate (req/s)", "completed", "mean RRT (ms)",
             "p99 RRT (ms)"],
            rows,
        )
        + "\nexpected: flat latency at low load, sharp knee approaching 1.0"
    )
    return text, latencies


@pytest.mark.benchmark(group="latency_throughput")
def test_latency_throughput_knee(once):
    text, latencies = once(compute)
    emit("latency_throughput", text,
         data={"mean_rrt_s_by_load": {str(f): v for f, v in latencies.items()}},
         metrics={
             "rrt_mean_s_50pct_load": {"value": latencies[0.5], "unit": "s",
                                       "direction": "lower"},
             "rrt_mean_s_95pct_load": {"value": latencies[0.95], "unit": "s",
                                       "direction": "lower"},
         },
         profile="sysnet", protocol="original")
    # Flat region: 50% load costs < 1.5x the 20% latency.
    assert latencies[0.5] < 1.5 * latencies[0.2]
    # The knee: beyond capacity, latency blows past 3x the idle latency.
    assert latencies[1.1] > 3 * latencies[0.2]
    # And 95% load is already visibly worse than 50%.
    assert latencies[0.95] > 1.2 * latencies[0.5]
