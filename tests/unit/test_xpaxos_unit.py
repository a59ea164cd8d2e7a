"""Unit tests for the X-Paxos read coordinator (§3.4) at message level."""

from __future__ import annotations

import pytest

from repro.core.ballot import Ballot
from repro.core.config import ReplicaConfig
from repro.core.messages import Confirm, Reply
from repro.core.requests import ClientRequest, RequestId
from repro.election.static import ManualElector, StaticElector
from repro.services.counter import CounterService
from repro.shard.host import GroupHost
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.trace import TraceRecorder
from repro.sim.world import World
from repro.types import ReplyStatus, RequestKind

PEERS = ("r0", "r1", "r2", "r3", "r4")


def make_leader(n=3, execute_time=0.0, seed=0):
    """A leader r0 of an n-replica group.

    Backups are real replicas (so recovery completes), but reads are
    injected directly into the leader's coordinator — backups never see
    them, so every Confirm in these tests is explicitly injected.
    """
    kernel = Kernel(seed=seed)
    trace = TraceRecorder()
    world = World(kernel, trace=trace)
    peers = PEERS[:n]
    config = ReplicaConfig(peers=peers, execute_time=execute_time)
    elector = ManualElector(None)
    leader = world.add(GroupHost("r0", config, CounterService, [elector])).groups[0]
    for pid in peers[1:]:
        world.add(GroupHost(pid, config, CounterService, [StaticElector("r0")]))
    world.add(Process("c0"))
    world.start()
    elector.set_leader("r0")
    kernel.run(until=0.1)  # recovery completes
    assert leader.is_leading
    return kernel, trace, leader


def read_request(seq=0):
    return ClientRequest(RequestId("c0", seq), RequestKind.READ, op=("get",))


def replies(trace):
    return [e.detail for e in trace.of_kind("send") if isinstance(e.detail, Reply)]


class TestLeaderSide:
    def test_no_reply_before_majority_confirms(self):
        kernel, trace, leader = make_leader()
        leader.reads.begin("c0", read_request())
        kernel.run(until=kernel.now + 0.05)
        assert replies(trace) == []
        assert leader.reads.pending_count == 1

    def test_reply_after_one_confirm_in_three(self):
        kernel, trace, leader = make_leader(n=3)
        request = read_request()
        leader.reads.begin("c0", request)
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(trace)) == 1
        assert replies(trace)[0].status is ReplyStatus.OK

    def test_five_replicas_need_two_confirms(self):
        kernel, trace, leader = make_leader(n=5)
        request = read_request()
        leader.reads.begin("c0", request)
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert replies(trace) == []
        leader.reads.on_confirm("r2", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(trace)) == 1

    def test_duplicate_confirms_from_same_backup_dont_count_twice(self):
        kernel, trace, leader = make_leader(n=5)
        request = read_request()
        leader.reads.begin("c0", request)
        for _ in range(3):
            leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert replies(trace) == []

    def test_stale_ballot_confirm_ignored(self):
        kernel, trace, leader = make_leader()
        request = read_request()
        leader.reads.begin("c0", request)
        stale = Ballot(leader.ballot.round - 1, "r0")
        leader.reads.on_confirm("r1", Confirm(ballot=stale, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert replies(trace) == []

    def test_confirm_arriving_before_read_is_buffered(self):
        kernel, trace, leader = make_leader()
        request = read_request()
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        leader.reads.begin("c0", request)
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(trace)) == 1

    def test_execute_time_overlaps_confirm_wait(self):
        kernel, trace, leader = make_leader(execute_time=0.03)
        request = read_request()
        leader.reads.begin("c0", request)
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        # Confirm is in, but E has not elapsed.
        kernel.run(until=kernel.now + 0.02)
        assert replies(trace) == []
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(trace)) == 1

    def test_retransmitted_read_not_served_twice_concurrently(self):
        kernel, trace, leader = make_leader()
        request = read_request()
        leader.reads.begin("c0", request)
        leader.reads.begin("c0", request)  # retransmit while pending
        assert leader.reads.pending_count == 1
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=request.rid))
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(trace)) == 1

    def test_clear_drops_pending(self):
        kernel, trace, leader = make_leader()
        leader.reads.begin("c0", read_request())
        leader.reads.clear()
        leader.reads.on_confirm("r1", Confirm(ballot=leader.ballot, rid=read_request().rid))
        kernel.run(until=kernel.now + 0.05)
        assert replies(trace) == []

    def test_malformed_read_rejected_cleanly(self):
        kernel, trace, leader = make_leader()
        bad = ClientRequest(RequestId("c0", 0), RequestKind.READ, op=("nonsense",))
        leader.reads.begin("c0", bad)
        kernel.run(until=kernel.now + 0.05)
        assert len(replies(trace)) == 1
        assert replies(trace)[0].status is ReplyStatus.ERROR


class TestBackupSide:
    def test_backup_confirms_to_promised_leader(self):
        kernel = Kernel()
        trace = TraceRecorder()
        world = World(kernel, trace=trace)
        config = ReplicaConfig(peers=PEERS[:3])
        host = GroupHost("r1", config, CounterService, [StaticElector("r0")])
        world.add(host)
        backup = host.groups[0]
        for pid in ("r0", "r2", "c0"):
            world.add(Process(pid))
        world.start()
        from repro.core.messages import Prepare

        backup.on_message("r0", Prepare(ballot=Ballot(0, "r0"), gaps=(), from_instance=1))
        backup.on_message("c0", read_request())
        kernel.run(until=0.1)
        confirms = [e for e in trace.of_kind("send") if isinstance(e.detail, Confirm)]
        assert len(confirms) == 1
        assert confirms[0].dst == "r0"
        assert confirms[0].detail.ballot == Ballot(0, "r0")

    def test_backup_without_promise_stays_silent(self):
        kernel = Kernel()
        trace = TraceRecorder()
        world = World(kernel, trace=trace)
        config = ReplicaConfig(peers=PEERS[:3])
        host = GroupHost("r1", config, CounterService, [StaticElector("r0")])
        world.add(host)
        backup = host.groups[0]
        for pid in ("r0", "r2", "c0"):
            world.add(Process(pid))
        world.start()
        backup.on_message("c0", read_request())
        kernel.run(until=0.1)
        confirms = [e for e in trace.of_kind("send") if isinstance(e.detail, Confirm)]
        assert confirms == []
