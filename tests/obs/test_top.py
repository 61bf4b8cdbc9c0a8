"""The ``repro top`` status board renderer and poll loop."""

import io

from repro.obs.metrics import MetricsRegistry
from repro.obs.top import render_top, run_top

SLO_SPEC = {
    "name": "board-slo",
    "objectives": [
        {"name": "lat", "kind": "p99_latency", "threshold_seconds": 10.0},
    ],
}


def _snapshot(at=1000.0):
    registry = MetricsRegistry()
    completed = registry.counter("repro_jobs_completed_total")
    completed.inc(3, state="done")
    shard = registry.counter("repro_cluster_shard_requests_total")
    shard.inc(8, shard="shard-a", outcome="hit")
    shard.inc(2, shard="shard-a", outcome="miss")
    shard.inc(1, shard="shard-a", outcome="put")
    return {
        "at": at,
        "metrics": registry.export(),
        "health": {
            "tier": "cluster",
            "uptime": 12.5,
            "queue_depth": 3,
            "queue_capacity": 256,
            "jobs_by_state": {"queued": 3, "running": 1, "done": 7},
            "cluster": {
                "workers_alive": 1,
                "worker_nodes": {
                    "worker-0": {"alive": True, "running": 1,
                                 "done": 5, "failed": 0,
                                 "last_heartbeat_age": 0.4,
                                 "oldest_lease_age": 1.2},
                    "worker-1": {"alive": False, "running": 0,
                                 "done": 2, "failed": 1,
                                 "last_heartbeat_age": 9.0,
                                 "oldest_lease_age": None},
                },
            },
        },
    }


class TestRenderTop:
    def test_no_snapshot_banner(self):
        board = render_top(None)
        assert "no telemetry yet" in board

    def test_board_sections(self):
        board = render_top(_snapshot(), now=1001.0)
        assert "queue 3/256" in board
        assert "queued=3" in board and "running=1" in board
        assert "workers (1/2 alive)" in board
        assert "worker-0" in board and "worker-1" in board
        assert "NO" in board          # dead worker flagged
        assert "0.4s" in board        # heartbeat age
        assert "1.2s" in board        # lease age
        assert "cache shards" in board
        assert "hit-rate" in board and "80.0%" in board
        assert "completed: done=3" in board

    def test_events_tail(self):
        events = [{"seq": i, "at": 999.0, "kind": "node-join",
                   "node": f"w{i}"} for i in range(12)]
        board = render_top(_snapshot(), events, now=1001.0)
        assert "recent events" in board
        assert "node=w11" in board       # newest shown
        assert "node=w0" not in board    # only the tail of 8

    def test_slo_section(self):
        board = render_top(_snapshot(), slo_spec=SLO_SPEC, now=1001.0)
        assert "SLO board-slo" in board

    def test_stale_snapshot_age_shown(self):
        board = render_top(_snapshot(at=900.0), now=1000.0)
        assert "snapshot" in board and "old" in board


class TestRunTop:
    def test_unreachable_gateway_returns_1(self):
        stream = io.StringIO()
        # a port from the reserved block nothing listens on
        rc = run_top("127.0.0.1", 1, interval=0.0, iterations=2,
                     stream=stream, ansi=False)
        assert rc == 1
        assert "unreachable" in stream.getvalue()

    def test_renders_against_live_server(self, tmp_path):
        from repro.cluster.gateway import ClusterGateway
        server = ClusterGateway(tier="single-node", local_workers=1,
                                inline=True)
        host, port = server.start_background()
        try:
            stream = io.StringIO()
            rc = run_top(host, port, interval=0.0, iterations=1,
                         stream=stream, ansi=False)
        finally:
            server.stop()
        assert rc == 0
        out = stream.getvalue()
        assert "repro top" in out
        assert "single-node" in out
