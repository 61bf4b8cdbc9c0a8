"""Distributed tracing and the telemetry op on ``repro serve``'s core.

A traced submission records the ``cache-lookup`` → ``queue-wait`` →
``execute`` chain under one ``job`` span — the chain ``perfbench`` and
``repro trace-collect`` read.
"""

import time

from repro.obs.distributed import TraceContext
from tests.service.conftest import handle


def _probe(op="echo", **extra):
    payload = {"kind": "probe", "probe": op}
    payload.update(extra)
    return payload


def _submit(core, payload, trace_ctx=None):
    response = handle(core, {"op": "submit", "payload": payload,
                             "trace_ctx": trace_ctx})
    assert response["ok"], response
    return core.get_job(response["job_id"])


def _trace_ctx():
    root = TraceContext()
    return root, {"traceparent": root.to_traceparent()}


def _export(server, **extra):
    response = handle(server, {"op": "trace-export", **extra})
    assert response["ok"], response
    return response


class TestDaemonTracing:
    def test_traced_job_records_full_span_chain(self, make_server):
        server = make_server(jobs=1)
        root, ctx = _trace_ctx()
        job = _submit(server, _probe(value=1), trace_ctx=ctx)
        assert job.finished.wait(timeout=5)
        # the job span closes when the result is recorded
        time.sleep(0.05)
        export = _export(server)
        spans = [s for s in export["spans"]
                 if s["trace_id"] == root.trace_id]
        by_name = {s["name"]: s for s in spans}
        assert set(by_name) == {"cache-lookup", "queue-wait",
                                "execute", "job"}
        job_span = by_name["job"]
        assert job_span["cat"] == "daemon"
        assert job_span["parent_id"] == root.span_id
        assert job_span["args"]["state"] == "done"
        assert job_span["args"]["cached"] is False
        # the phase spans all hang off the daemon's job span
        for name in ("cache-lookup", "queue-wait", "execute"):
            assert by_name[name]["parent_id"] == job_span["span_id"]
        assert by_name["cache-lookup"]["args"]["hit"] is False
        assert by_name["execute"]["cat"] == "worker"

    def test_job_carries_child_trace_ctx(self, make_server):
        server = make_server()
        root, ctx = _trace_ctx()
        job = _submit(server, _probe(value=2), trace_ctx=ctx)
        carried = TraceContext.from_dict(job.trace_ctx)
        assert carried.trace_id == root.trace_id
        assert carried.span_id != root.span_id

    def test_untraced_job_records_nothing(self, make_server):
        server = make_server()
        job = _submit(server, _probe(value=3))
        assert job.finished.wait(timeout=5)
        assert job.trace_ctx is None
        assert _export(server)["spans"] == []

    def test_cache_hit_records_lookup_and_job_span(self, make_server):
        server = make_server()
        first = _submit(server, _probe(value=4),
                        trace_ctx=_trace_ctx()[1])
        assert first.finished.wait(timeout=5)
        root2, ctx2 = _trace_ctx()
        second = _submit(server, _probe(value=4), trace_ctx=ctx2)
        assert second.cached is True
        export = _export(server, trace_id=root2.trace_id)
        by_name = {s["name"]: s for s in export["spans"]}
        assert set(by_name) == {"cache-lookup", "job"}
        assert by_name["cache-lookup"]["args"]["hit"] is True
        assert by_name["job"]["args"]["cached"] is True

    def test_malformed_trace_ctx_rejected_over_protocol(self, make_server):
        server = make_server()
        response = handle(server, {
            "op": "submit", "payload": _probe(),
            "trace_ctx": {"traceparent": "zz-bad"}})
        assert response["ok"] is False
        assert response["code"] == "bad-request"

    def test_export_filters_by_trace_id_and_validates(self, make_server):
        server = make_server()
        root_a, ctx_a = _trace_ctx()
        root_b, ctx_b = _trace_ctx()
        for ctx, value in ((ctx_a, "a"), (ctx_b, "b")):
            job = _submit(server, _probe(value=value), trace_ctx=ctx)
            assert job.finished.wait(timeout=5)
        export = _export(server, trace_id=root_a.trace_id)
        assert {s["trace_id"] for s in export["spans"]} \
            == {root_a.trace_id}
        assert sorted(_export(server)["trace_ids"]) \
            == sorted([root_a.trace_id, root_b.trace_id])
        bad = handle(server, {"op": "trace-export", "trace_id": 9})
        assert bad["ok"] is False and bad["code"] == "bad-request"

    def test_traced_pipeline_job_links_decisions(self, make_server):
        """End to end: a traced ``sources`` job returns a real trace
        export, and ``trace-export`` stamps each decision with the job
        that produced it."""
        source = """      PROGRAM P
      DIMENSION A(50)
      DO 10 I = 1, 50
        A(I) = I * 2.0
   10 CONTINUE
      WRITE(6,*) A(25)
      END
"""
        server = make_server()
        root, ctx = _trace_ctx()
        job = _submit(server, {"kind": "sources",
                               "sources": {"p.f": source},
                               "config": "none", "trace": True,
                               "name": "traced"},
                      trace_ctx=ctx)
        assert job.finished.wait(timeout=30)
        assert job.state == "done", job.error
        export = _export(server)
        assert export["decisions"], export
        for d in export["decisions"]:
            assert d["job_id"] == job.id
            assert d["digest"] == job.digest
            assert d["trace_id"] == root.trace_id
            assert d["span_id"]
        # exporting again must not double the linked decisions
        again = _export(server)
        assert len(again["decisions"]) == len(export["decisions"])


class TestTelemetryOp:
    def test_single_node_snapshot(self, make_server):
        server = make_server()
        job = _submit(server, _probe(value=5), trace_ctx=_trace_ctx()[1])
        assert job.finished.wait(timeout=5)
        frame = handle(server, {"op": "telemetry"})
        assert frame["ok"] and frame["tier"] == "single-node"
        assert frame["run_id"] == server.run_id
        snapshot = frame["snapshot"]
        assert snapshot["health"]["tier"] == "single-node"
        assert "repro_jobs_completed_total" in snapshot["metrics"]
        assert frame["spans_stored"] >= 1

    def test_snapshots_accumulate_in_store(self, make_server):
        # no background snapshot may land between the two requests
        server = make_server(telemetry_interval=600)
        handle(server, {"op": "telemetry"})
        handle(server, {"op": "telemetry"})
        assert len(server.telemetry.snapshots()) == 2
