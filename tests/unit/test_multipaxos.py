"""Unit tests for the Multi-Paxos SMR baseline module."""

from __future__ import annotations

import pytest

from repro.core.config import ReplicaConfig
from repro.core.multipaxos import multipaxos_config
from repro.election.static import StaticElector
from repro.services.kvstore import KVStoreService
from repro.shard.host import GroupHost
from repro.types import StateTransferMode


class TestConfig:
    def test_config_uses_smr_mode(self):
        config = multipaxos_config(("r0", "r1", "r2"))
        assert config.state_mode is StateTransferMode.SMR

    def test_transactions_disabled_by_default(self):
        config = multipaxos_config(("r0", "r1", "r2"))
        assert config.tpaxos is False

    def test_overrides_pass_through(self):
        config = multipaxos_config(("r0",), xpaxos_reads=False, max_batch=4)
        assert config.xpaxos_reads is False
        assert config.max_batch == 4

    def test_replica_constructor(self):
        config = multipaxos_config(("r0", "r1", "r2"))
        replica = GroupHost("r0", config, KVStoreService, [StaticElector("r0")]).groups[0]
        assert replica.config.state_mode is StateTransferMode.SMR
        assert replica.pid == "r0"


class TestEndToEnd:
    def test_smr_replicates_deterministic_service(self):
        from repro.sim.kernel import Kernel
        from repro.sim.process import Process
        from repro.sim.world import World
        from repro.core.requests import ClientRequest, RequestId
        from repro.types import RequestKind

        kernel = Kernel()
        world = World(kernel)
        peers = ("r0", "r1", "r2")
        config = multipaxos_config(peers)
        hosts = [
            GroupHost(pid, config, KVStoreService, [StaticElector("r0")])
            for pid in peers
        ]
        for host in hosts:
            world.add(host)
        replicas = [host.groups[0] for host in hosts]
        world.add(Process("c0"))
        world.start()
        kernel.run(until=0.1)
        for i in range(5):
            replicas[0].on_message(
                "c0",
                ClientRequest(RequestId("c0", i), RequestKind.WRITE, op=("put", i, i)),
            )
        kernel.run(until=1.0)
        prints = {r.service.state_fingerprint() for r in replicas}
        assert len(prints) == 1
        assert replicas[1].service.data == {i: i for i in range(5)}
