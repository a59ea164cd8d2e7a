"""The paper's motivating claim, demonstrated end to end:

classic Multi-Paxos (SMR: replicate the request, re-execute everywhere)
keeps *deterministic* services consistent but lets *nondeterministic*
services diverge; the paper's protocol keeps both consistent.
"""

from __future__ import annotations

import pytest

from repro.client.workload import single_kind_steps
from repro.services.broker import ResourceBrokerService
from repro.services.counter import CounterService
from repro.services.gridsched import GridSchedulerService
from repro.services.kvstore import KVStoreService
from repro.types import RequestKind, StateTransferMode
from tests.integration.util import build_cluster, converged_fingerprints


def broker_factory():
    service = ResourceBrokerService()
    for i in range(8):
        service.resources[f"node{i}"] = [100.0, 0.0]
    return service


def broker_steps(n):
    return single_kind_steps(
        RequestKind.WRITE, n, op=lambda i: ("request", f"task{i}", 10)
    )


class TestSMRBaseline:
    def test_smr_correct_for_deterministic_service(self):
        steps = single_kind_steps(RequestKind.WRITE, 20, op=lambda i: ("put", i, i))
        cluster = build_cluster(
            [steps],
            service_factory=KVStoreService,
            state_mode=StateTransferMode.SMR,
        ).run()
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1

    def test_smr_diverges_on_randomized_broker(self):
        cluster = build_cluster(
            [broker_steps(30)],
            service_factory=broker_factory,
            state_mode=StateTransferMode.SMR,
            seed=11,
        ).run()
        prints = converged_fingerprints(cluster)
        # Replicas drew from independent RNG streams: placements differ.
        assert len(set(prints.values())) > 1

    def test_smr_diverges_on_nondeterministic_counter(self):
        steps = single_kind_steps(RequestKind.WRITE, 30, op=("add_random", 1, 1000))
        cluster = build_cluster(
            [steps],
            service_factory=CounterService,
            state_mode=StateTransferMode.SMR,
            seed=11,
        ).run()
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) > 1


class TestNondeterministicProtocol:
    @pytest.mark.parametrize(
        "mode",
        [StateTransferMode.FULL, StateTransferMode.DELTA, StateTransferMode.REPRO],
    )
    def test_broker_converges_under_all_transfer_modes(self, mode):
        cluster = build_cluster(
            [broker_steps(30)],
            service_factory=broker_factory,
            state_mode=mode,
            seed=11,
        ).run()
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1
        # And the leader actually used randomness: tasks spread over nodes.
        placements = cluster.leader().groups[0].service.placements
        assert len({resource for resource, _d in placements.values()}) > 1

    def test_grid_scheduler_converges(self):
        """The §2 scheduler example: decisions depend on examination time,
        yet replicas end with identical queues and dispatch orders."""
        from repro.client.workload import Step

        steps = []
        for i in range(10):
            steps.append(
                Step(requests=((RequestKind.WRITE, ("submit", f"job{i}", i % 3)),))
            )
        for _ in range(5):
            steps.append(Step(requests=((RequestKind.WRITE, ("dispatch",)),)))
        cluster = build_cluster(
            [steps],
            service_factory=GridSchedulerService,
            state_mode=StateTransferMode.REPRO,
            seed=13,
        ).run()
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1
        dispatched = cluster.leader().groups[0].service.dispatched
        assert len(dispatched) == 5

    def test_broker_converges_across_leader_switch(self):
        from repro.cluster.faults import FaultSchedule

        cluster = build_cluster(
            [broker_steps(30)],
            service_factory=broker_factory,
            state_mode=StateTransferMode.REPRO,
            elector="manual",
            client_timeout=0.05,
            seed=17,
        )
        FaultSchedule(cluster).switch_leader("r1", at=0.025)
        cluster.run(max_time=30.0)
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1
        assert cluster.clients[0].completed_requests == 30
