#!/usr/bin/env python3
"""T-Paxos transactions (§3.5): concurrent bank transfers.

Four clients run transfer transactions against replicated accounts.
Conflicting transactions (same accounts) are aborted by the no-wait strict
2PL lock manager and retried with fresh transaction ids; committed
transfers replicate as a single consensus instance each. The invariant
checked at the end: money is conserved, every replica agrees, and the
number of applied transfers equals the number of commit acknowledgements.

The script also measures the T-Paxos speedup on this workload by running
the same transfers as unoptimized write sequences.

Run:  python examples/bank_transactions.py
"""

from __future__ import annotations

from repro import Cluster, ClusterSpec, sysnet
from repro.client.workload import txn_steps
from repro.cluster.metrics import collect
from repro.services.bank import BankService

ACCOUNTS = ("alice", "bob", "carol", "dave")
OPENING_BALANCE = 1_000
TRANSFERS_PER_CLIENT = 25
AMOUNT = 7


def bank_factory() -> BankService:
    service = BankService()
    service.accounts = {name: OPENING_BALANCE for name in ACCOUNTS}
    return service


def transfer_ops(client_index: int):
    def ops(i: int):
        src = ACCOUNTS[(client_index + i) % len(ACCOUNTS)]
        dst = ACCOUNTS[(client_index + i + 1) % len(ACCOUNTS)]
        return [("withdraw", src, AMOUNT), ("deposit", dst, AMOUNT)]

    return ops


def run(optimized: bool) -> tuple[Cluster, float]:
    client_steps = [
        txn_steps(
            TRANSFERS_PER_CLIENT,
            transfer_ops(c),
            optimized=optimized,
            commit_op=("deposit", ACCOUNTS[c], 0),  # a no-effect write
        )
        for c in range(4)
    ]
    spec = ClusterSpec(profile=sysnet(), seed=11, retry_aborted=True, max_abort_retries=200)
    cluster = Cluster(spec, client_steps, service_factory=bank_factory)
    cluster.run()
    cluster.drain(1.0)
    result = collect(cluster)
    return cluster, result.trt.mean


def main() -> None:
    cluster, trt_opt = run(optimized=True)
    committed = sum(c.completed_steps for c in cluster.clients)
    aborted = sum(1 for c in cluster.clients for s in c.records if s.aborted)
    print("=== T-Paxos concurrent transfers ===")
    print(f"committed transfers: {committed}  (aborted+retried: {aborted})")

    leader_accounts = cluster.leader().groups[0].service.accounts
    total = sum(leader_accounts.values())
    print(f"balances: {leader_accounts}")
    print(f"conservation: total = {total} (expected {OPENING_BALANCE * len(ACCOUNTS)})")
    assert total == OPENING_BALANCE * len(ACCOUNTS)
    assert committed == 4 * TRANSFERS_PER_CLIENT

    fingerprints = set(cluster.replica_fingerprints().values())
    assert len(fingerprints) == 1
    print("all replicas agree on every balance  [ok]")

    _cluster2, trt_base = run(optimized=False)
    print(
        f"\ntransaction response time: optimized {trt_opt * 1e3:.3f} ms vs "
        f"unoptimized {trt_base * 1e3:.3f} ms "
        f"(-{(1 - trt_opt / trt_base) * 100:.0f}%, paper Table 1: -28..39%)"
    )


if __name__ == "__main__":
    main()
