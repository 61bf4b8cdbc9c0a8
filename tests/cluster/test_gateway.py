"""Gateway tests.

The unit half drives :meth:`ClusterGateway.handle_request` directly from
a test-owned event loop, playing both the client and a fake worker node
— lease grants, stealing, stale reports, crash retry, heartbeat merge,
and the dead-node sweep are all asserted without sockets.

The end-to-end half runs a background gateway with embedded local
workers and the real synchronous client, including the drain guarantee:
a SIGTERM/`shutdown drain` gateway finishes every accepted job before
exiting (ISSUE satellite: no accepted job is lost).
"""

import asyncio
import time

import pytest

from repro.cluster.gateway import ClusterGateway
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobState, payload_digest


def _probe(op="echo", **extra):
    payload = {"kind": "probe", "probe": op}
    payload.update(extra)
    return payload


def _gateway(**kwargs):
    kwargs.setdefault("retry_backoff", 0.0)  # immediate requeue in tests
    return ClusterGateway(**kwargs)


def drive(coro):
    """Run one async test scenario on a fresh loop."""
    return asyncio.run(coro)


async def _submit(gw, payload, **extra):
    request = {"op": "submit", "payload": payload}
    request.update(extra)
    return await gw.handle_request(request)


async def _pull(gw, node, wait=0.0, max_jobs=1):
    return await gw.handle_request({"op": "work-pull", "node": node,
                                    "wait": wait, "max_jobs": max_jobs})


class TestSubmitValidation:
    def test_missing_payload(self):
        async def scenario():
            gw = _gateway()
            response = await gw.handle_request({"op": "submit"})
            assert response["ok"] is False
            assert response["code"] == "bad-request"
        drive(scenario())

    def test_unknown_kind(self):
        async def scenario():
            gw = _gateway()
            response = await _submit(gw, {"kind": "nonsense"})
            assert response["code"] == "bad-request"
        drive(scenario())

    def test_unknown_op(self):
        async def scenario():
            gw = _gateway()
            response = await gw.handle_request({"op": "frobnicate"})
            assert response["code"] == "bad-op"
        drive(scenario())

    def test_unknown_job(self):
        async def scenario():
            gw = _gateway()
            response = await gw.handle_request({"op": "status",
                                                "job_id": "job-999999"})
            assert response["code"] == "not-found"
        drive(scenario())


class TestLeaseLifecycle:
    def test_pull_start_done_roundtrip(self):
        async def scenario():
            gw = _gateway()
            submitted = await _submit(gw, _probe(value=7))
            assert submitted["ok"] and submitted["state"] == "queued"
            job_id = submitted["job_id"]

            pulled = await _pull(gw, "node-a")
            assert [j["job_id"] for j in pulled["jobs"]] == [job_id]
            start = await gw.handle_request(
                {"op": "work-start", "node": "node-a", "job_id": job_id})
            assert start["granted"] and start["attempts"] == 1
            done = await gw.handle_request(
                {"op": "work-done", "node": "node-a", "job_id": job_id,
                 "result": {"echo": 7}})
            assert done["accepted"]

            result = await gw.handle_request({"op": "result",
                                              "job_id": job_id})
            assert result["ok"] and result["result"] == {"echo": 7}
            # the finished result landed in the shard cache
            digest = payload_digest(_probe(value=7))
            assert gw.cache.get(digest) == {"echo": 7}
        drive(scenario())

    def test_inflight_dedup_and_cache_hit(self):
        async def scenario():
            gw = _gateway()
            first = await _submit(gw, _probe(value=1))
            second = await _submit(gw, _probe(value=1))
            assert second["job_id"] == first["job_id"]
            assert second["deduped"]
            metrics = gw.metrics.to_json()
            assert metrics["repro_jobs_deduped_total"] == 1
            assert metrics["repro_jobs_submitted_total"] == 1

            # finish it; an identical later submit is a shard-cache hit
            pulled = await _pull(gw, "n")
            job_id = pulled["jobs"][0]["job_id"]
            await gw.handle_request({"op": "work-start", "node": "n",
                                     "job_id": job_id})
            await gw.handle_request({"op": "work-done", "node": "n",
                                     "job_id": job_id,
                                     "result": {"echo": 1}})
            third = await _submit(gw, _probe(value=1), wait=True)
            assert third["state"] == "done" and third["cached"]
            assert third["result"] == {"echo": 1}
            assert gw.metrics.to_json()["repro_cache_hits_total"] == 1
        drive(scenario())

    def test_backpressure_when_queue_full(self):
        async def scenario():
            gw = _gateway(queue_capacity=1)
            first = await _submit(gw, _probe(value="a"))
            assert first["ok"]
            second = await _submit(gw, _probe(value="b"))
            assert second["ok"] is False
            assert second["code"] == "backpressure"
            assert gw.metrics.to_json()[
                "repro_jobs_rejected_total"] == 1
        drive(scenario())

    def test_cancel_queued_job_revokes_lease(self):
        async def scenario():
            gw = _gateway()
            submitted = await _submit(gw, _probe(value="x"))
            job_id = submitted["job_id"]
            pulled = await _pull(gw, "n")   # leased but not started
            assert pulled["jobs"]
            canceled = await gw.handle_request({"op": "cancel",
                                                "job_id": job_id})
            assert canceled["canceled"] is True
            start = await gw.handle_request(
                {"op": "work-start", "node": "n", "job_id": job_id})
            assert start["granted"] is False
        drive(scenario())

    def test_deadline_expired_while_queued(self):
        async def scenario():
            gw = _gateway()
            submitted = await _submit(gw, _probe(value="late"),
                                      deadline=0.01)
            await asyncio.sleep(0.05)
            pulled = await _pull(gw, "n")
            assert pulled["jobs"] == []
            status = await gw.handle_request(
                {"op": "status", "job_id": submitted["job_id"]})
            assert status["state"] == "timeout"
        drive(scenario())


class TestWorkStealing:
    def test_idle_node_steals_from_backlogged_node(self):
        async def scenario():
            gw = _gateway()
            ids = []
            for i in range(3):
                response = await _submit(gw, _probe(value=i))
                ids.append(response["job_id"])
            # node-a leases everything, starts none
            pulled = await _pull(gw, "node-a", max_jobs=3)
            assert len(pulled["jobs"]) == 3
            # node-b finds an empty queue and steals one lease
            stolen = await _pull(gw, "node-b")
            assert len(stolen["jobs"]) == 1
            victim_job = stolen["jobs"][0]["job_id"]
            assert gw.metrics.to_json()[
                "repro_cluster_steals_total"] == 1
            assert gw.metrics.to_json()["repro_cluster_pulls_total"] \
                == {'{outcome="jobs"}': 1, '{outcome="steal"}': 1}
            # the victim's work-start for the stolen job is refused —
            # the job can never run twice
            refused = await gw.handle_request(
                {"op": "work-start", "node": "node-a",
                 "job_id": victim_job})
            assert refused["granted"] is False
            assert "lease moved" in refused["reason"]
            granted = await gw.handle_request(
                {"op": "work-start", "node": "node-b",
                 "job_id": victim_job})
            assert granted["granted"] is True
        drive(scenario())

    def test_nothing_to_steal_reports_empty(self):
        async def scenario():
            gw = _gateway()
            pulled = await _pull(gw, "bored")
            assert pulled["jobs"] == []
            assert gw.metrics.to_json()["repro_cluster_pulls_total"] \
                == {'{outcome="empty"}': 1}
        drive(scenario())


class TestFailureReports:
    async def _leased_running(self, gw, node="n", **probe):
        submitted = await _submit(gw, _probe(**probe))
        job_id = submitted["job_id"]
        await _pull(gw, node)
        start = await gw.handle_request({"op": "work-start",
                                         "node": node, "job_id": job_id})
        assert start["granted"]
        return job_id

    def test_crash_is_retried_then_completes(self):
        async def scenario():
            gw = _gateway(max_retries=1)
            job_id = await self._leased_running(gw, value="crashy")
            failed = await gw.handle_request(
                {"op": "work-fail", "node": "n", "job_id": job_id,
                 "kind": "crash", "error": "simulated"})
            assert failed["accepted"]
            # retry_backoff 0 -> requeued immediately, attempts respected
            pulled = await _pull(gw, "n")
            assert [j["job_id"] for j in pulled["jobs"]] == [job_id]
            start = await gw.handle_request(
                {"op": "work-start", "node": "n", "job_id": job_id})
            assert start["granted"] and start["attempts"] == 2
            await gw.handle_request(
                {"op": "work-done", "node": "n", "job_id": job_id,
                 "result": {"recovered": True}})
            status = await gw.handle_request({"op": "status",
                                              "job_id": job_id})
            assert status["state"] == "done"
            assert gw.metrics.to_json()[
                "repro_jobs_retried_total"] == 1
        drive(scenario())

    def test_crash_retries_exhausted_fails(self):
        async def scenario():
            gw = _gateway(max_retries=0)
            job_id = await self._leased_running(gw, value="doomed")
            await gw.handle_request(
                {"op": "work-fail", "node": "n", "job_id": job_id,
                 "kind": "crash", "error": "boom"})
            status = await gw.handle_request({"op": "status",
                                              "job_id": job_id})
            assert status["state"] == "failed"
            assert "retries exhausted" in status["error"]
        drive(scenario())

    def test_error_kind_is_not_retried(self):
        async def scenario():
            gw = _gateway(max_retries=5)
            job_id = await self._leased_running(gw, value="det")
            await gw.handle_request(
                {"op": "work-fail", "node": "n", "job_id": job_id,
                 "kind": "error", "error": "deterministic failure"})
            status = await gw.handle_request({"op": "status",
                                              "job_id": job_id})
            assert status["state"] == "failed"
            assert gw.metrics.to_json()["repro_jobs_retried_total"] == 0
        drive(scenario())

    def test_timeout_kind(self):
        async def scenario():
            gw = _gateway()
            job_id = await self._leased_running(gw, value="slow")
            await gw.handle_request(
                {"op": "work-fail", "node": "n", "job_id": job_id,
                 "kind": "timeout"})
            status = await gw.handle_request({"op": "status",
                                              "job_id": job_id})
            assert status["state"] == "timeout"
        drive(scenario())

    def test_stale_report_is_ignored(self):
        async def scenario():
            gw = _gateway()
            submitted = await _submit(gw, _probe(value="stale"))
            job_id = submitted["job_id"]
            # "other" never pulled or started this job
            done = await gw.handle_request(
                {"op": "work-done", "node": "other", "job_id": job_id,
                 "result": {"forged": True}})
            assert done["accepted"] is False
            status = await gw.handle_request({"op": "status",
                                              "job_id": job_id})
            assert status["state"] == "queued"
        drive(scenario())


class TestHeartbeat:
    def test_metrics_delta_merged_exactly_once(self, isolated_registry):
        async def scenario():
            gw = _gateway()
            delta = {"test_cluster_unique_total": {
                "kind": "counter", "help": "", "values": [[[], 5]]}}
            first = await gw.handle_request(
                {"op": "heartbeat", "node": "w0", "seq": 1,
                 "metrics": delta, "info": {"pid": 123}})
            assert first["merged"] is True and first["seq"] == 1
            # the worker never saw the ack and resends the same pair
            replay = await gw.handle_request(
                {"op": "heartbeat", "node": "w0", "seq": 1,
                 "metrics": delta})
            assert replay["merged"] is False
            counter = isolated_registry.counter(
                "test_cluster_unique_total")
            assert counter.total() == 5
            # a new sequence merges again
            second = await gw.handle_request(
                {"op": "heartbeat", "node": "w0", "seq": 2,
                 "metrics": delta})
            assert second["merged"] is True
            assert counter.total() == 10
        drive(scenario())

    def test_health_reports_cluster_topology(self):
        async def scenario():
            gw = _gateway()
            await gw.handle_request({"op": "heartbeat", "node": "w0",
                                     "seq": 1, "metrics": {},
                                     "info": {"pid": 42}})
            health = await gw.handle_request({"op": "health"})
            assert health["tier"] == "cluster"
            cluster = health["cluster"]
            assert cluster["ring"]["shards"] == ["local"]
            assert cluster["shards"]["local"]["alive"] is True
            w0 = cluster["worker_nodes"]["w0"]
            assert w0["alive"] and w0["info"] == {"pid": 42}
            assert cluster["workers_alive"] == 1
        drive(scenario())


class TestDeadNodeSweep:
    def test_unstarted_leases_requeue_running_jobs_retry(self):
        async def scenario():
            gw = _gateway(heartbeat_timeout=0.1, max_retries=3)
            for i in range(2):
                await _submit(gw, _probe(value=f"sweep-{i}"))
            pulled = await _pull(gw, "doomed", max_jobs=2)
            ids = [j["job_id"] for j in pulled["jobs"]]
            started = await gw.handle_request(
                {"op": "work-start", "node": "doomed", "job_id": ids[0]})
            assert started["granted"]

            gw._nodes["doomed"].last_seen -= 1.0  # silence the node
            gw._sweep_dead_nodes()
            assert "doomed" not in gw._nodes
            assert gw.metrics.to_json()[
                "repro_cluster_dead_nodes_total"] == 1
            # the running job took the crash-retry path, the unstarted
            # one went straight back in the queue: both are claimable
            pulled = await _pull(gw, "successor", max_jobs=2)
            assert sorted(j["job_id"] for j in pulled["jobs"]) \
                == sorted(ids)
            assert gw.metrics.to_json()["repro_jobs_retried_total"] == 1
            # late report from the dead node is a stale lease
            late = await gw.handle_request(
                {"op": "work-done", "node": "doomed", "job_id": ids[0],
                 "result": {"zombie": True}})
            assert late["accepted"] is False
        drive(scenario())

    def test_silent_idle_node_is_forgotten(self):
        async def scenario():
            gw = _gateway(heartbeat_timeout=0.1)
            await gw.handle_request({"op": "heartbeat", "node": "idle",
                                     "seq": 1, "metrics": {}})
            gw._nodes["idle"].last_seen -= 1.0
            gw._sweep_dead_nodes()
            assert "idle" not in gw._nodes
            assert gw.metrics.to_json()[
                "repro_cluster_dead_nodes_total"] == 0
        drive(scenario())


@pytest.fixture()
def make_gateway():
    gateways = []

    def factory(**kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("local_workers", 2)
        kwargs.setdefault("inline", True)
        kwargs.setdefault("retry_backoff", 0.01)
        gateway = ClusterGateway(**kwargs)
        gateway.start_background()
        gateways.append(gateway)
        return gateway

    yield factory
    for gateway in gateways:
        gateway.stop()


class TestEndToEnd:
    """Background gateway + embedded local workers + the sync client."""

    def test_submit_executes_and_caches(self, make_gateway):
        gateway = make_gateway()
        client = ServiceClient(*gateway.address)
        first = client.submit(_probe(value="e2e"), wait=True,
                              wait_timeout=10)
        assert first["state"] == "done"
        assert first["result"] == {"echo": "e2e"}
        assert not first["cached"]
        second = client.submit(_probe(value="e2e"), wait=True,
                               wait_timeout=10)
        assert second["state"] == "done" and second["cached"]

    def test_crash_once_is_retried_by_the_fleet_path(self, make_gateway,
                                                     tmp_path):
        gateway = make_gateway(local_workers=1)
        client = ServiceClient(*gateway.address)
        marker = tmp_path / "crash.marker"
        response = client.submit(_probe("crash-once", marker=str(marker)),
                                 wait=True, wait_timeout=15,
                                 max_retries=2)
        assert response["state"] == "done"
        assert response["result"] == {"recovered": True}
        assert response["attempts"] == 2
        metrics = client.metrics()["metrics"]
        assert metrics["repro_jobs_retried_total"] == 1

    def test_drain_finishes_accepted_jobs(self, make_gateway):
        """ISSUE satellite: `shutdown drain` loses no accepted job."""
        gateway = make_gateway(local_workers=2)
        client = ServiceClient(*gateway.address)
        accepted = [client.submit(_probe("sleep", seconds=0.3,
                                         tag=f"drain-{i}"), wait=False)
                    for i in range(4)]
        response = client.shutdown(drain=True, drain_timeout=10)
        assert response["ok"] and response["draining"]
        assert gateway.wait(timeout=15)
        for submitted in accepted:
            job = gateway._jobs[submitted["job_id"]]
            assert job.state == JobState.DONE, \
                f"job {job.id} lost in drain: {job.state}"

    def test_draining_rejects_new_submits(self, make_gateway):
        gateway = make_gateway(local_workers=1)
        client = ServiceClient(*gateway.address)
        client.submit(_probe("sleep", seconds=0.5, tag="inflight"),
                      wait=False)
        client.shutdown(drain=True, drain_timeout=10)
        deadline = time.monotonic() + 5
        rejected = False
        while time.monotonic() < deadline and not rejected:
            try:
                client.submit(_probe(value="late-arrival"), wait=False)
            except ServiceError as exc:
                assert exc.code in ("backpressure", "unreachable")
                rejected = True
        assert rejected
        assert gateway.wait(timeout=15)

    def test_uptime_and_metrics_export(self, make_gateway):
        gateway = make_gateway()
        client = ServiceClient(*gateway.address)
        client.submit(_probe(value="m"), wait=True, wait_timeout=10)
        metrics = client.metrics()["metrics"]
        assert metrics["repro_jobs_completed_total"] == \
            {'{state="done"}': 1}
        assert metrics["repro_job_latency_seconds"]["count"] == 1
        # uptime is refreshed on every metrics request
        assert metrics["repro_uptime_seconds"] > 0
        # cluster counters are present in the export even when zero
        # (embedded workers lease via _claim_jobs, not the pull op)
        assert "repro_cluster_pulls_total" in metrics
        assert "repro_cluster_steals_total" in metrics


class TestRegistryMergePath:
    def test_local_worker_merges_pipeline_metrics(self, make_gateway,
                                                  isolated_registry):
        # a benchmark job's pipeline observations (made in the worker)
        # surface in the gateway's merged metrics export
        gateway = make_gateway(local_workers=1)
        client = ServiceClient(*gateway.address)
        response = client.submit_benchmark("adm", config="none",
                                           wait=True, wait_timeout=60)
        assert response["state"] == "done"
        metrics = client.metrics()["metrics"]
        assert metrics["repro_loops_parallel_total"] > 0
