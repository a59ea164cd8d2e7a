"""Multi-Paxos deterministic state-machine replication — the baseline.

§3.3 opens with it: "To synchronize the replicas of deterministic
services, one can implement a series of separate instances of the Paxos
consensus algorithm and the proposal chosen by the ith instance is the ith
executed request." No state is shipped; every replica re-executes.

Rather than duplicating the replica machinery, Multi-Paxos is expressed as
the :data:`repro.types.StateTransferMode.SMR` mode of the same
:class:`repro.core.group.ReplicationGroup`: proposals carry only the
request, and :meth:`ReplicationGroup._apply_proposal` re-executes it at each
backup (counted as ``smr.reexecutions``). This module provides the
configuration constructor (and the documentation anchor) for that mode.

The crucial caveat — and the paper's whole point — is that this baseline
is **only correct for deterministic services**. The test
``tests/integration/test_nondeterminism.py`` demonstrates replicas
diverging when Multi-Paxos replicates the randomized resource broker,
while the nondeterministic protocol keeps them identical.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import ReplicaConfig
from repro.types import ProcessId, StateTransferMode


def multipaxos_config(peers: tuple[ProcessId, ...], **overrides: Any) -> ReplicaConfig:
    """A :class:`ReplicaConfig` for classic Multi-Paxos SMR.

    X-Paxos reads remain available (the read optimization is orthogonal to
    how writes replicate); pass ``xpaxos_reads=False`` to disable.
    """
    overrides.setdefault("tpaxos", False)  # SMR has no transaction path
    return ReplicaConfig(peers=peers, state_mode=StateTransferMode.SMR, **overrides)

