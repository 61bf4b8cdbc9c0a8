"""The wire contract of ``repro serve``: protocol ops, dedup, cache
hits, backpressure, deadlines, crash retry, drain, and the
socket/client end-to-end paths, all against the single serving core
(see ``conftest.py``) through :class:`ServiceClient` and
``handle_request``.

Most tests run the core's local workers inline (jobs execute in
threads — deterministic and fast); the crash/deadline tests that need
real worker processes use the process pool and skip if the sandbox
cannot start one.  ``TestExecutePayload`` and ``TestParallelizePayload``
unit-test :func:`execute_payload` in-process, with no server.
"""

import threading
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.execution import execute_payload
from repro.service.jobs import JobState
from tests.service.conftest import handle

SOURCE = """      PROGRAM P
      COMMON /D/ A(300,8), ROW(8)
      DO 10 I = 1, 300
        CALL FILLR(I, 8)
   10 CONTINUE
      T = 0.0
      DO 20 I = 1, 300
        T = T + A(I,3)
   20 CONTINUE
      WRITE(6,*) T
      END
      SUBROUTINE FILLR(I, N)
      COMMON /D/ A(300,8), ROW(8)
      DO 5 J = 1, N
        ROW(J) = I + J*0.5
    5 CONTINUE
      DO 6 J = 1, N
        A(I,J) = ROW(J)
    6 CONTINUE
      END
"""

ANNOTATIONS = """subroutine FILLR(I, N) {
  ROW = unknown(I, N);
  do (J = 1:N)  A[I, J] = unknown(ROW, J);
}
"""


def _probe(op="echo", **extra):
    payload = {"kind": "probe", "probe": op}
    payload.update(extra)
    return payload


def _sources_payload(tag="t0"):
    return {"kind": "sources", "sources": {"prog.f": SOURCE},
            "annotations": ANNOTATIONS, "config": "annotation",
            "name": tag}


def _wait_state(job, state, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if job.state == state:
            return True
        time.sleep(0.01)
    return False


def _submit(core, payload, **extra):
    """Submit over ``handle_request``; the admitted (or joined) job."""
    response = handle(core, {"op": "submit", "payload": payload, **extra})
    assert response["ok"], response
    return core.get_job(response["job_id"])


class TestExecutePayload:
    def test_echo_probe(self):
        assert execute_payload(_probe(value=42)) == {"echo": 42}

    def test_sources_pipeline(self):
        result = execute_payload(_sources_payload())
        assert result["parallel_count"] >= 2
        assert "!$OMP PARALLEL DO" in result["output"]
        assert "CALL FILLR" in result["output"]  # reverse-inlined back
        assert result["config"] == "annotation"

    def test_benchmark_pipeline(self):
        result = execute_payload({"kind": "benchmark",
                                  "benchmark": "adm", "config": "none"})
        assert result["parallel_count"] > 0
        assert result["code_lines"] > 0

    def test_annotations_mode_threads_through(self):
        payload = _sources_payload()
        payload["annotations_mode"] = "inferred"
        result = execute_payload(payload)
        assert result["annotations"] == "inferred"
        # inference recovers FILLR's summary, so the call loop still
        # parallelizes and the reverse inliner restores the call
        assert result["parallel_count"] >= 1
        assert "CALL FILLR" in result["output"]

    def test_benchmark_accepts_annotations_mode(self):
        result = execute_payload({"kind": "benchmark", "benchmark": "adm",
                                  "config": "annotation",
                                  "annotations_mode": "demand"})
        assert result["annotations"] == "demand"

    def test_bad_annotations_mode_raises(self):
        with pytest.raises(ValueError, match="annotations"):
            execute_payload({"kind": "benchmark", "benchmark": "adm",
                             "config": "annotation",
                             "annotations_mode": "bogus"})

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="payload kind"):
            execute_payload({"kind": "nonsense"})

    def test_bad_config_raises(self):
        with pytest.raises(ValueError, match="config"):
            execute_payload({"kind": "benchmark", "benchmark": "adm",
                             "config": "bogus"})


class TestParallelizePayload:
    DIALECT_SOURCE = ("      PROGRAM P\n"
                      "      COMMON /R/ A(8)\n"
                      "      X = = 1.0\n"
                      "      DO 10 I = 1, 8\n"
                      "        A(I) = A(I) + 1.0\n"
                      "   10 CONTINUE\n"
                      "      END\n")

    def _payload(self, **extra):
        payload = {"kind": "parallelize",
                   "sources": {"prog.f": self.DIALECT_SOURCE}}
        payload.update(extra)
        return payload

    def test_tolerant_pipeline_with_diagnostics(self):
        result = execute_payload(self._payload())
        assert "!$OMP PARALLEL DO" in result["output"]
        assert result["parallel_count"] == 1
        assert result["annotations_mode"] == "inferred"
        # the malformed statement surfaces as a structured diagnostic
        # carrying the offending source excerpt and position
        (diag,) = result["diagnostics"]
        assert diag["code"] == "parse-error"
        assert diag["severity"] == "recovered"
        assert diag["line"] == 3
        assert "X = = 1.0" in diag["excerpt"]

    def test_loop_records_carry_explanations(self):
        result = execute_payload(self._payload())
        (loop,) = result["loops"]
        assert loop["parallel"] is True
        assert loop["var"] == "I"
        assert "PARALLEL" in loop["explanation"]

    def test_interprocedural_sources(self):
        result = execute_payload(
            {"kind": "parallelize", "sources": {"prog.f": SOURCE}})
        assert result["diagnostics"] == []
        assert result["parallel_count"] >= 2
        assert "CALL FILLR" in result["output"]

    def test_empty_sources_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            execute_payload({"kind": "parallelize", "sources": {}})

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError, match="annotations mode"):
            execute_payload(self._payload(annotations_mode="bogus"))

    def test_strict_mode_surfaces_excerpt(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError) as err:
            execute_payload(self._payload(tolerant=False))
        payload = err.value.payload()
        assert "X = = 1.0" in payload.get("excerpt", "")


class TestSubmitAndCache:
    def test_submit_runs_and_caches(self, make_server):
        server = make_server()
        job = _submit(server, _sources_payload())
        assert job.finished.wait(timeout=10)
        assert job.state == JobState.DONE
        assert job.result["parallel_count"] >= 2
        metrics = server.metrics.to_json()
        assert metrics["repro_cache_misses_total"] == 1
        assert metrics["repro_cache_hits_total"] == 0

        # identical resubmission: answered from the cache, no new run
        repeat = _submit(server, _sources_payload())
        assert repeat.state == JobState.DONE
        assert repeat.cached
        assert repeat.result == job.result
        metrics = server.metrics.to_json()
        assert metrics["repro_cache_hits_total"] == 1
        assert metrics["repro_jobs_submitted_total"] == 1  # only one ran

    def test_different_config_is_a_different_job(self, make_server):
        server = make_server()
        a = _submit(server, _sources_payload())
        payload = dict(_sources_payload(), config="none")
        b = _submit(server, payload)
        assert a.digest != b.digest
        assert a.finished.wait(10) and b.finished.wait(10)
        assert a.result["output"] != b.result["output"]

    def test_inflight_dedup(self, make_server):
        server = make_server()
        payload = _probe("sleep", seconds=0.3)
        first = _submit(server, payload)
        second = _submit(server, payload)  # same digest, still in flight
        assert second is first
        assert server.metrics.to_json()["repro_jobs_deduped_total"] == 1
        assert first.finished.wait(timeout=5)

    def test_phase_latency_histograms_populated(self, make_server):
        server = make_server()
        job = _submit(server, _sources_payload())
        assert job.finished.wait(timeout=10)
        metrics = server.metrics.to_json()
        assert metrics["repro_phase_dependence_seconds"]["count"] >= 1
        assert metrics["repro_job_latency_seconds"]["count"] == 1


class TestBackpressure:
    def test_full_queue_rejected_not_hung(self, make_server):
        server = make_server(jobs=1, queue_capacity=1)
        running = _submit(server, _probe("sleep", seconds=0.6, tag="a"))
        assert _wait_state(running, JobState.RUNNING)
        queued = _submit(server, _probe("sleep", seconds=0.0, tag="b"))
        response = handle(server, {
            "op": "submit", "payload": _probe("sleep", seconds=0.0,
                                              tag="c")})
        assert response["ok"] is False
        assert response["code"] == "backpressure"
        assert "full" in response["error"]
        assert server.metrics.to_json()["repro_jobs_rejected_total"] == 1
        assert queued.finished.wait(timeout=5)  # backlog still drains

    def test_deadline_expires_while_queued(self, make_server):
        server = make_server(jobs=1)
        _submit(server, _probe("sleep", seconds=0.4, tag="busy"))
        late = _submit(server, _probe("echo", tag="late"), deadline=0.05)
        assert late.finished.wait(timeout=5)
        assert late.state == JobState.TIMEOUT
        assert "queued" in late.error


class TestCrashRetry:
    def test_inline_crash_is_retried_and_completes(self, make_server,
                                                   tmp_path):
        server = make_server(jobs=1)
        marker = tmp_path / "crash.marker"
        job = _submit(server, _probe("crash-once", marker=str(marker)),
                            max_retries=2)
        assert job.finished.wait(timeout=10)
        assert job.state == JobState.DONE
        assert job.result == {"recovered": True}
        assert job.attempts == 2
        assert server.metrics.to_json()["repro_jobs_retried_total"] == 1

    def test_retries_exhausted_fails(self, make_server, tmp_path):
        server = make_server(jobs=1)
        # no marker cleanup between attempts is needed: max_retries=0
        # means the first crash is final
        marker = tmp_path / "crash2.marker"
        job = _submit(server, _probe("crash-once", marker=str(marker)),
                            max_retries=0)
        assert job.finished.wait(timeout=10)
        assert job.state == JobState.FAILED
        assert "crashed" in job.error

    def test_pool_worker_killed_is_retried(self, make_server, tmp_path):
        server = make_server(jobs=1, inline=False)
        if server.pool.inline:
            pytest.skip("process pool unavailable in this sandbox")
        marker = tmp_path / "kill.marker"
        # first attempt SIGKILLs the worker mid-run; the pool is rebuilt
        # and the retry completes
        job = _submit(server, _probe("crash-once", marker=str(marker)),
                            max_retries=2)
        assert job.finished.wait(timeout=30)
        assert job.state == JobState.DONE
        assert job.result == {"recovered": True}
        assert job.attempts >= 2

    def test_deterministic_failure_not_retried(self, make_server):
        server = make_server(jobs=1)
        job = _submit(server, {"kind": "benchmark",
                             "benchmark": "no-such-benchmark"})
        assert job.finished.wait(timeout=10)
        assert job.state == JobState.FAILED
        assert job.attempts == 1


class TestDeadlines:
    def test_running_job_times_out_in_pool_mode(self, make_server):
        server = make_server(jobs=1, inline=False)
        if server.pool.inline:
            pytest.skip("process pool unavailable in this sandbox")
        job = _submit(server, _probe("sleep", seconds=1.2), deadline=0.2)
        assert job.finished.wait(timeout=10)
        assert job.state == JobState.TIMEOUT
        assert "running" in job.error
        # the pool was recycled: the next job still runs
        after = _submit(server, _probe("echo", value="ok"))
        assert after.finished.wait(timeout=10)
        assert after.state == JobState.DONE


class TestProtocolOps:
    def test_unknown_op(self, make_server):
        server = make_server()
        response = handle(server, {"op": "frobnicate"})
        assert response["ok"] is False and response["code"] == "bad-op"

    def test_submit_requires_payload(self, make_server):
        server = make_server()
        response = handle(server, {"op": "submit"})
        assert response["ok"] is False and response["code"] == "bad-request"

    def test_status_unknown_job(self, make_server):
        server = make_server()
        response = handle(server, {"op": "status", "job_id": "job-999999"})
        assert response["ok"] is False and response["code"] == "not-found"

    def test_submit_status_result_flow(self, make_server):
        server = make_server()
        submitted = handle(server, {"op": "submit", "payload": _probe(value=7),
                                    "wait": True, "wait_timeout": 10})
        assert submitted["ok"] and submitted["state"] == "done"
        assert submitted["result"] == {"echo": 7}
        job_id = submitted["job_id"]
        status = handle(server, {"op": "status", "job_id": job_id})
        assert status["ok"] and status["state"] == "done"
        result = handle(server, {"op": "result", "job_id": job_id})
        assert result["ok"] and result["result"] == {"echo": 7}

    def test_result_of_unfinished_job(self, make_server):
        server = make_server(jobs=1)
        job = _submit(server, _probe("sleep", seconds=0.5))
        response = handle(server, {"op": "result", "job_id": job.id})
        assert response["ok"] is False
        assert response["code"] in ("not-ready",)

    def test_cancel_queued_job(self, make_server):
        server = make_server(jobs=1)
        busy = _submit(server, _probe("sleep", seconds=0.5, tag="busy"))
        assert _wait_state(busy, JobState.RUNNING)
        queued = _submit(server, _probe("echo", tag="victim"))
        response = handle(server, {"op": "cancel", "job_id": queued.id})
        assert response["ok"] and response["canceled"] is True
        assert queued.state == JobState.CANCELED
        assert busy.finished.wait(timeout=5)
        time.sleep(0.1)  # the worker must skip, not run, the canceled job
        assert queued.state == JobState.CANCELED

    def test_cancel_finished_job_refused(self, make_server):
        server = make_server()
        job = _submit(server, _probe(value=1))
        assert job.finished.wait(timeout=5)
        response = handle(server, {"op": "cancel", "job_id": job.id})
        assert response["canceled"] is False

    def test_health(self, make_server):
        server = make_server()
        health = handle(server, {"op": "health"})
        assert health["ok"]
        assert health["workers"] == 2
        assert health["queue_capacity"] == 64
        assert health["pool_mode"] == "inline"

    def test_metrics_formats(self, make_server):
        server = make_server()
        json_form = handle(server, {"op": "metrics"})
        assert json_form["ok"]
        assert "repro_jobs_submitted_total" in json_form["metrics"]
        prom = handle(server, {"op": "metrics", "format": "prometheus"})
        assert "# TYPE repro_jobs_submitted_total counter" in prom["text"]
        bad = handle(server, {"op": "metrics", "format": "xml"})
        assert bad["ok"] is False


class TestSocketEndToEnd:
    """The acceptance path: real daemon, real sockets, real client."""

    def test_submit_twice_second_is_cache_hit(self, make_server):
        server = make_server(jobs=2)
        host, port = server.address
        client = ServiceClient(host=host, port=port)

        first = client.submit(_sources_payload(), wait=True,
                              wait_timeout=30)
        assert first["state"] == "done" and not first["cached"]
        second = client.submit(_sources_payload(), wait=True,
                               wait_timeout=30)
        assert second["state"] == "done" and second["cached"]
        # the identical artifact came back without re-analysis
        assert second["result"] == first["result"]
        metrics = client.metrics()["metrics"]
        assert metrics["repro_cache_hits_total"] == 1
        assert metrics["repro_jobs_submitted_total"] == 1

    def test_concurrent_identical_submits_dedup(self, make_server):
        server = make_server(jobs=2)
        host, port = server.address
        payload = _probe("sleep", seconds=0.3, tag="concurrent")
        responses = []

        def submit():
            client = ServiceClient(host=host, port=port)
            responses.append(client.submit(payload, wait=True,
                                           wait_timeout=10))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        assert len(responses) == 2
        assert responses[0]["job_id"] == responses[1]["job_id"]
        metrics = server.metrics.to_json()
        assert metrics["repro_jobs_deduped_total"] >= 1
        assert metrics["repro_jobs_submitted_total"] == 1

    def test_backpressure_over_the_wire(self, make_server):
        server = make_server(jobs=1, queue_capacity=1)
        host, port = server.address
        client = ServiceClient(host=host, port=port)
        running = client.submit(_probe("sleep", seconds=0.6, tag="r"),
                                wait=False)
        job = server.get_job(running["job_id"])
        assert _wait_state(job, JobState.RUNNING)
        client.submit(_probe("sleep", seconds=0.0, tag="q"), wait=False)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(_probe("sleep", seconds=0.0, tag="rejected"),
                          wait=False)
        assert excinfo.value.code == "backpressure"

    def test_client_error_for_unreachable_server(self):
        client = ServiceClient(port=1, timeout=0.5)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.code == "unreachable"

    def test_shutdown_op_stops_server(self, make_server):
        server = make_server()
        host, port = server.address
        client = ServiceClient(host=host, port=port)
        response = client.shutdown()
        assert response["ok"] and response["stopping"]
        assert "_shutdown" not in response  # internal marker never leaks
        assert server.wait(timeout=10)
        assert not server.running

    def test_benchmark_twice_with_two_process_workers(self, make_server):
        """ISSUE acceptance: same benchmark twice, 2 workers — first
        populates the cache, second is served from it (via metrics)."""
        server = make_server(jobs=2, inline=None)
        host, port = server.address
        client = ServiceClient(host=host, port=port)
        first = client.submit_benchmark("adm", wait=True,
                                        wait_timeout=60)
        assert first["state"] == "done"
        assert first["result"]["parallel_count"] > 0
        second = client.submit_benchmark("adm", wait=True,
                                         wait_timeout=60)
        assert second["state"] == "done" and second["cached"]
        assert second["result"] == first["result"]
        metrics = client.metrics()["metrics"]
        assert metrics["repro_cache_hits_total"] == 1


class TestDrain:
    """Graceful drain: a drain shutdown loses no accepted job."""

    @staticmethod
    def _submit_retrying(client, payload):
        # the accept loop can drop the very first connection under heavy
        # machine load; a reset before the submit is accepted is safe to
        # retry (nothing was enqueued yet)
        for _ in range(20):
            try:
                return client.submit(payload, wait=False)
            except ServiceError as error:
                if error.code != "unreachable":
                    raise
                time.sleep(0.05)
        return client.submit(payload, wait=False)

    def test_shutdown_drain_finishes_accepted_jobs(self, make_server):
        server = make_server(jobs=2)
        host, port = server.address
        client = ServiceClient(host=host, port=port)
        accepted = [self._submit_retrying(
                        client, _probe("sleep", seconds=0.3,
                                       tag=f"drain-{i}"))
                    for i in range(4)]
        response = client.shutdown(drain=True, drain_timeout=10)
        assert response["ok"] and response["draining"]
        assert server.wait(timeout=15)
        for submitted in accepted:
            job = server.get_job(submitted["job_id"])
            assert job.state == JobState.DONE, \
                f"job {job.id} lost in drain: {job.state}"

    def test_draining_rejects_new_submits(self, make_server):
        server = make_server(jobs=1)
        _submit(server, _probe("sleep", seconds=0.2, tag="inflight"))
        server._draining = True
        response = handle(server, {"op": "submit",
                                   "payload": _probe(value="late")})
        assert response["code"] == "backpressure"
        assert "draining" in response["error"]
        assert server.metrics.to_json()["repro_jobs_rejected_total"] == 1

class TestTracedJobs:
    def _traced_payload(self):
        return dict(_sources_payload(tag="traced"), trace=True)

    def test_trace_attached_but_stripped_by_default(self, make_server):
        server = make_server()
        submitted = handle(server, {"op": "submit",
                                    "payload": self._traced_payload(),
                                    "wait": True, "wait_timeout": 30})
        assert submitted["ok"] and submitted["state"] == "done"
        assert "trace" not in submitted["result"]
        # the stored result still has it, on request
        result = handle(server, {"op": "result",
                                 "job_id": submitted["job_id"],
                                 "include_trace": True})
        trace = result["result"]["trace"]
        assert trace["events"], "traced job produced no span events"

    def test_trace_decisions_match_parallel_count(self, make_server):
        from repro.trace import LoopDecision, count_parallel
        server = make_server()
        response = handle(server, {"op": "submit",
                                   "payload": self._traced_payload(),
                                   "wait": True, "wait_timeout": 30,
                                   "include_trace": True})
        result = response["result"]
        decisions = [LoopDecision.from_dict(d)
                     for d in result["trace"]["decisions"]]
        counts = count_parallel(decisions)
        assert sum(counts.values()) == result["parallel_count"]

    def test_untraced_payload_carries_no_trace(self, make_server):
        server = make_server()
        response = handle(server, {"op": "submit",
                                   "payload": _sources_payload(tag="plain"),
                                   "wait": True, "wait_timeout": 30,
                                   "include_trace": True})
        assert response["state"] == "done"
        assert "trace" not in response["result"]

    def test_phase_and_request_metrics_populated(self, make_server):
        server = make_server()
        handle(server, {"op": "submit", "payload": self._traced_payload(),
                        "wait": True, "wait_timeout": 30})
        metrics = server.metrics.to_json()
        assert metrics["repro_requests_total"] == {'{op="submit"}': 1}
        assert metrics["repro_request_seconds"]["count"] == 1
        assert metrics["repro_loops_parallel_total"] >= 1
        health = handle(server, {"op": "health"})
        assert health["cache_stats"]["misses"] == 1


class TestStop:
    def test_stop_is_prompt_and_leaves_nothing_running(self, make_server,
                                                       caplog, capfd):
        """``stop()`` returns once the loop thread and the worker pool
        are gone — promptly, with nothing left to log an error later."""
        server = make_server(jobs=1, inline=None)
        response = ServiceClient(*server.address).submit(
            _probe(value="once"), wait=True, wait_timeout=30)
        assert response["state"] == "done"
        t0 = time.perf_counter()
        server.stop()
        assert time.perf_counter() - t0 < 0.5
        assert [t.name for t in threading.enumerate()
                if t.name.startswith("repro-")] == []
        assert [r for r in caplog.records if r.levelname == "ERROR"] == []
        err = capfd.readouterr().err
        assert "Error" not in err and "Traceback" not in err, err
