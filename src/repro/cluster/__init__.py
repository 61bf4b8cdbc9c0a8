"""repro.cluster — the distributed parallelization tier.

:mod:`repro.service` holds the wire surface (protocol, job model,
result cache, client).  This package holds the one server behind it —
``repro serve`` runs the gateway with local workers over an in-process
cache shard — and the pieces that scale it out while keeping the wire
protocol, so the synchronous
:class:`repro.service.client.ServiceClient` works unchanged against one
box or a cluster:

* :mod:`.ring` — a consistent-hash ring with virtual nodes; adding or
  removing a shard remaps ~1/N of the key space, never all of it;
* :mod:`.shardcache` — the result cache partitioned by payload digest
  across N cache-shard nodes (each wrapping the existing
  :class:`repro.service.cache.ResultCache`), with per-shard hit/miss
  metrics and graceful degradation when a shard is down;
* :mod:`.gateway` — an asyncio front door multiplexing thousands of
  concurrent client sessions over one event loop, with in-flight dedup,
  a shared work queue, lease-based work distribution, work stealing,
  and heartbeat-based dead-node detection;
* :mod:`.workers` — the worker-node fleet: each node pulls batches of
  jobs from the gateway, executes them in a crash-isolated process
  pool, and ships results plus metric deltas back;
* :mod:`.topology` — spawn a whole localhost cluster (gateway + shards
  + workers) as subprocesses, for smokes and ``repro loadtest --spawn``;
* :mod:`.loadtest` — the ``repro loadtest`` harness: replays concurrent
  client sessions and reports p50/p99 latency, saturation throughput,
  error/retry counts, and dedup/shard hit rates;
* :mod:`.backend` — cluster-backed experiment execution (Table II
  assembled from service submissions).

See ``docs/cluster.md`` for topology, ring semantics, and the failure
model.
"""

from repro.cluster.gateway import ClusterGateway
from repro.cluster.ring import HashRing
from repro.cluster.shardcache import (CacheShardServer, LocalShard,
                                      RemoteShard, ShardedCache, ShardError)
from repro.cluster.topology import LocalCluster
from repro.cluster.workers import GatewayLink, GatewayUnreachable, WorkerNode

__all__ = [
    "CacheShardServer", "ClusterGateway", "GatewayLink",
    "GatewayUnreachable", "HashRing", "LocalCluster", "LocalShard",
    "RemoteShard", "ShardError", "ShardedCache", "WorkerNode",
]
