"""Protocol compatibility (ISSUE satellite): the existing synchronous
``repro.service.client.ServiceClient`` must work unchanged against the
asyncio gateway — framing, dedup, cancel, oversize-error, the works.

Everything here talks to the gateway only through the public wire
surface PR 2 defined for the single-node daemon.
"""

import socket
import struct
import threading

import pytest

from repro.cluster.gateway import ClusterGateway
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError


def _probe(op="echo", **extra):
    payload = {"kind": "probe", "probe": op}
    payload.update(extra)
    return payload


@pytest.fixture()
def gateway():
    gw = ClusterGateway(port=0, local_workers=2, inline=True,
                        retry_backoff=0.01)
    gw.start_background()
    yield gw
    gw.stop()


@pytest.fixture()
def client(gateway):
    return ServiceClient(*gateway.address)


class TestClientSurface:
    def test_health_speaks_the_single_node_shape(self, client):
        health = client.health()
        assert health["ok"]
        # every key the single-node daemon's health answer carries
        for key in ("uptime", "draining", "queue_depth",
                    "queue_capacity", "jobs_by_state", "cache_stats"):
            assert key in health, f"missing single-node health key {key}"
        assert health["tier"] == "cluster"

    def test_submit_status_result_flow(self, client):
        submitted = client.submit(_probe(value=7), wait=True,
                                  wait_timeout=10)
        assert submitted["ok"] and submitted["state"] == "done"
        assert submitted["result"] == {"echo": 7}
        job_id = submitted["job_id"]
        assert client.status(job_id)["state"] == "done"
        assert client.result(job_id)["result"] == {"echo": 7}

    def test_result_of_unfinished_job(self, client):
        submitted = client.submit(_probe("sleep", seconds=0.5),
                                  wait=False)
        with pytest.raises(ServiceError) as excinfo:
            client.result(submitted["job_id"])
        assert excinfo.value.code in ("not-ready",)

    def test_cancel_flow(self, client):
        # saturate both embedded workers so the victim stays queued
        for i in range(2):
            client.submit(_probe("sleep", seconds=0.4, tag=f"busy-{i}"),
                          wait=False)
        victim = client.submit(_probe(value="victim"), wait=False)
        response = client.cancel(victim["job_id"])
        if response["canceled"]:
            assert client.status(victim["job_id"])["state"] == "canceled"
        else:
            # the fleet got to it first — still a valid protocol answer
            assert "not queued" in response["detail"]

    def test_concurrent_identical_submits_dedup(self, gateway, client):
        payload = _probe("sleep", seconds=0.3, tag="concurrent")
        responses = []

        def submit():
            c = ServiceClient(*gateway.address)
            responses.append(c.submit(payload, wait=True,
                                      wait_timeout=10))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        assert len(responses) == 2
        assert responses[0]["job_id"] == responses[1]["job_id"]
        metrics = client.metrics()["metrics"]
        assert metrics["repro_jobs_deduped_total"] >= 1
        assert metrics["repro_jobs_submitted_total"] == 1

    def test_metrics_formats(self, client):
        json_form = client.metrics()
        assert json_form["ok"]
        assert "repro_jobs_submitted_total" in json_form["metrics"]
        prom = client.metrics(format="prometheus")
        assert "# TYPE repro_jobs_submitted_total counter" in prom["text"]
        with pytest.raises(ServiceError):
            client.metrics(format="xml")

    def test_backpressure_over_the_wire(self):
        gw = ClusterGateway(port=0, local_workers=0, queue_capacity=1)
        gw.start_background()
        try:
            client = ServiceClient(*gw.address)
            client.submit(_probe(value="fills-queue"), wait=False)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(_probe(value="rejected"), wait=False)
            assert excinfo.value.code == "backpressure"
        finally:
            gw.stop()

    def test_shutdown_op_stops_gateway(self, gateway, client):
        response = client.shutdown()
        assert response["ok"] and response["stopping"]
        assert "_shutdown" not in response  # internal marker never leaks
        assert "_drain" not in response
        assert gateway.wait(timeout=10)
        assert not gateway.running


class TestFraming:
    def test_raw_frame_roundtrip(self, gateway):
        # bypass the client: hand-built length-prefixed frames
        with socket.create_connection(gateway.address, timeout=5) as sock:
            protocol.send_message(sock, {"op": "health"})
            response = protocol.recv_message(sock)
            assert response["ok"] and response["tier"] == "cluster"
            # multiple requests on one connection
            protocol.send_message(sock, {"op": "metrics"})
            assert protocol.recv_message(sock)["ok"]

    def test_garbage_frame_closes_connection(self, gateway):
        with socket.create_connection(gateway.address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", 12) + b"not-json-at!")
            # gateway drops the session instead of crashing
            assert sock.recv(1024) == b""
        # and keeps serving others
        assert ServiceClient(*gateway.address).health()["ok"]

    def test_oversize_frame_header_closes_connection(self, gateway):
        with socket.create_connection(gateway.address, timeout=5) as sock:
            sock.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
            assert sock.recv(1024) == b""
        assert ServiceClient(*gateway.address).health()["ok"]

    def test_oversize_response_answered_with_error(self, gateway,
                                                   client, monkeypatch):
        # a result that fits a frame at submit time but not after the
        # frame limit shrinks: the gateway answers with an oversize
        # error instead of silently dropping the connection
        big = client.submit(_probe(value="x" * 4096), wait=False)
        monkeypatch.setattr(protocol, "MAX_FRAME", 1024)
        with pytest.raises(ServiceError) as excinfo:
            client.result(big["job_id"], wait=True, wait_timeout=10)
        assert excinfo.value.code == "oversize"
        monkeypatch.undo()
        # the session survives: same client keeps working
        assert client.result(big["job_id"], wait=True,
                             wait_timeout=10)["ok"]
