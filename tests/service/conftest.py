"""Shared fixtures for the service tests.

The wire-contract tests run against the single serving core as
``repro serve`` builds it (:class:`ClusterGateway` with
``tier="single-node"`` and local workers), here with inline workers so
jobs run in threads — deterministic and fast — and a short crash-retry
backoff.  Every test gets a fresh process-wide metrics registry, and
fails if it leaves a ``repro-*`` thread (a core's loop, a shard
acceptor, a worker node) running.
"""

import asyncio
import threading

import pytest

from repro.cluster.gateway import ClusterGateway
from tests.cluster.conftest import isolated_registry  # noqa: F401 (autouse)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t.name.startswith("repro-") and t not in before]
    assert not leaked, f"test left threads running: {leaked}"


@pytest.fixture()
def make_server():
    """Start ``repro serve``'s core with ``jobs`` local workers (its
    ``-j``); every core is stopped afterwards."""
    cores = []

    def factory(jobs=2, **kwargs):
        kwargs.setdefault("queue_capacity", 64)  # `repro serve`'s default
        kwargs.setdefault("inline", True)
        kwargs.setdefault("retry_backoff", 0.01)
        core = ClusterGateway(tier="single-node", local_workers=jobs,
                              **kwargs)
        core.start_background()
        cores.append(core)
        return core

    yield factory
    for core in cores:
        core.stop()


def handle(core, request, timeout=30.0):
    """``core.handle_request`` called from the test thread."""
    return asyncio.run_coroutine_threadsafe(
        core.handle_request(request), core._loop).result(timeout)
