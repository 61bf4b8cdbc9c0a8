"""repro.service — the parallelization service's wire surface.

The one-shot CLI pays the full parse → inline → analyze → reverse cost
on every invocation.  ``repro serve`` keeps the Figure-15 pipeline
behind a long-running server instead: one asyncio core
(:class:`repro.cluster.gateway.ClusterGateway`) with local worker
processes, the same core ``repro cluster gateway`` runs in front of a
fleet.  This package holds what that core and its clients share: the
job model (:mod:`.jobs`), the length-prefixed JSON protocol
(:mod:`.protocol`), response shaping and the service metric set
(:mod:`.ops`), payload execution (:mod:`.execution`), the LRU result
cache layered over the ``.repro_cache/`` disk cache (:mod:`.cache`),
and a thin client (:mod:`.client`) behind ``repro submit`` /
``repro svc-status``.  Metrics primitives live in
:mod:`repro.obs.metrics`.

See ``docs/service.md`` for the protocol, knobs and failure modes.
"""

from repro.obs.metrics import MetricsRegistry
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import FINAL_STATES, Job, JobState

__all__ = [
    "FINAL_STATES", "Job", "JobState", "MetricsRegistry", "ResultCache",
    "ServiceClient", "ServiceError",
]
