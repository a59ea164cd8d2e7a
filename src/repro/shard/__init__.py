"""Keyspace sharding: several replication groups per process.

:class:`repro.shard.router.ShardRouter` maps service keys to replication
groups with a deterministic, process-independent hash, so every process
routes identically without coordination. :class:`repro.shard.host.GroupHost`
is the replica process of every cluster: it hosts one replica of *every*
group (just one when unsharded), sharing one stable-storage pump (one
simulated disk, one fsync clock, one crash) across all of them.
"""

from repro.shard.host import GroupEnv, GroupHost
from repro.shard.router import ShardRouter

__all__ = ["GroupEnv", "GroupHost", "ShardRouter"]
