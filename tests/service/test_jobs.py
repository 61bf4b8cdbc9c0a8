"""Job model semantics."""

from repro.service.jobs import FINAL_STATES, Job, JobState, payload_digest


def _job(**kwargs):
    payload = kwargs.pop("payload", {"kind": "probe", "probe": "echo"})
    return Job(digest=payload_digest(payload), payload=payload, **kwargs)


class TestPayloadDigest:
    def test_deterministic(self):
        p = {"kind": "benchmark", "benchmark": "adm", "config": "none"}
        assert payload_digest(p) == payload_digest(dict(p))

    def test_key_order_irrelevant(self):
        a = {"kind": "benchmark", "benchmark": "adm"}
        b = {"benchmark": "adm", "kind": "benchmark"}
        assert payload_digest(a) == payload_digest(b)

    def test_content_sensitive(self):
        a = {"kind": "benchmark", "benchmark": "adm", "config": "none"}
        b = dict(a, config="annotation")
        assert payload_digest(a) != payload_digest(b)


class TestJob:
    def test_initial_state(self):
        job = _job()
        assert job.state == JobState.QUEUED
        assert job.state not in FINAL_STATES
        assert not job.finished.is_set()

    def test_finish_sets_event_and_latency(self):
        job = _job()
        job.finish(JobState.DONE, result={"x": 1})
        assert job.finished.is_set()
        assert job.state in FINAL_STATES
        assert job.latency() is not None and job.latency() >= 0

    def test_no_deadline_never_expires(self):
        assert _job().remaining() is None
        assert not _job().expired()

    def test_deadline_expiry(self):
        job = _job(deadline=100.0)
        assert not job.expired()
        assert 99 < job.remaining() <= 100
        job.submitted_at -= 200.0
        assert job.expired()

    def test_ids_unique(self):
        assert _job().id != _job().id

    def test_snapshot_is_json_safe(self):
        import json
        snap = _job(deadline=5.0).snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["state"] == "queued"
