"""Size-based log rotation: atomic keep-N generations, no interleave."""

import os
import signal
import sys
import threading
import time

from repro.obs.logging import RotatingFileSink


class TestRotatingFileSink:
    def test_plain_append_without_max_bytes(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path)
        sink.write("one\n")
        sink.write("two\n")
        sink.close()
        with open(path) as fh:
            assert fh.read() == "one\ntwo\n"
        assert sink.generations() == [path]

    def test_rotates_at_size_and_keeps_n(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path, max_bytes=40, keep=2)
        for i in range(12):
            sink.write(f"record-{i:04d} xxxxxxxxxx\n")  # ~23 bytes each
        sink.close()
        files = sink.generations()
        assert files[0] == path
        assert all(os.path.exists(f) for f in files)
        # bounded: live file + at most `keep` rotated generations
        assert len(files) <= 3
        assert not os.path.exists(f"{path}.3")
        for f in files:
            assert os.path.getsize(f) <= 40 + 23  # one record of slack

    def test_rotation_preserves_newest_records_in_live_file(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path, max_bytes=30, keep=3)
        for i in range(6):
            sink.write(f"rec-{i}\n")
        sink.close()
        with open(path) as fh:
            live = fh.read()
        with open(f"{path}.1") as fh:
            rotated = fh.read()
        assert "rec-5" in live
        # every rotated record is older than every live record
        assert max(rotated.split()) < min(live.split())

    def test_no_interleaved_lines_across_threads(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path, max_bytes=2000, keep=4)

        def writer(tag):
            for i in range(50):
                sink.write(f"{tag}:{i:03d}:" + "payload" * 3 + "\n")

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in ("aa", "bb", "cc")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        seen = []
        for f in sink.generations():
            with open(f) as fh:
                for line in fh:
                    assert line.endswith("\n")
                    tag, num, payload = line.rstrip("\n").split(":")
                    assert tag in ("aa", "bb", "cc")
                    assert payload == "payload" * 3
                    seen.append((tag, num))
        # nothing lost: every (tag, seq) pair lands in some generation
        # that still exists, and the newest records always survive
        for tag in ("aa", "bb", "cc"):
            assert (tag, "049") in seen

    def test_threads_racing_rotation_share_one_fd_safely(self, tmp_path):
        """Eight writers on one sink, each write near the rotation bound
        and the interpreter switching threads as often as it can: no
        write may hit a closed or reused fd, and every line lands whole
        in some generation."""
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path, max_bytes=2000, keep=1000)
        errors = []

        def writer(tag):
            try:
                for i in range(60):
                    sink.write(f"{tag}:{i:03d}:" + "x" * 40 + "\n")
            except Exception as exc:  # TypeError / EBADF before the fix
                errors.append(exc)

        tags = [f"t{n}" for n in range(8)]
        threads = [threading.Thread(target=writer, args=(t,))
                   for t in tags]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        sink.close()
        assert errors == []
        seen = set()
        for f in sink.generations():
            with open(f) as fh:
                for line in fh:
                    tag, num, body = line.rstrip("\n").split(":")
                    assert line.endswith("\n") and body == "x" * 40
                    seen.add((tag, int(num)))
        assert seen == {(t, i) for t in tags for i in range(60)}

    def test_forked_child_can_write_while_parent_holds_the_lock(
            self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path)
        with sink._lock:  # a parent thread mid-write at fork time
            pid = os.fork()
            if pid == 0:
                try:
                    sink.write("child\n")
                finally:
                    os._exit(0)
        deadline = time.monotonic() + 10
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise AssertionError("child deadlocked on the sink lock")
            time.sleep(0.01)
        sink.close()
        with open(path) as fh:
            assert fh.read() == "child\n"

    def test_follows_external_rotation(self, tmp_path):
        path = str(tmp_path / "repro.log")
        sink = RotatingFileSink(path)
        sink.write("before\n")
        os.replace(path, path + ".1")  # another process rotates
        sink.write("after\n")
        sink.close()
        with open(path) as fh:
            assert fh.read() == "after\n"
        with open(path + ".1") as fh:
            assert fh.read() == "before\n"

    def test_env_wiring(self, tmp_path, monkeypatch):
        """REPRO_LOG_FILE + REPRO_LOG_MAX_BYTES build a rotating sink."""
        from repro.obs import logging as obs_logging
        path = str(tmp_path / "wired.log")
        monkeypatch.setenv("REPRO_LOG", "json")
        monkeypatch.setenv("REPRO_LOG_FILE", path)
        monkeypatch.setenv("REPRO_LOG_MAX_BYTES", "100000")
        obs_logging.configure()
        try:
            obs_logging.get_logger("test.rotation").warning(
                "rotation-smoke", detail="hello")
            with open(path) as fh:
                assert "rotation-smoke" in fh.read()
        finally:
            monkeypatch.delenv("REPRO_LOG_FILE")
            monkeypatch.delenv("REPRO_LOG_MAX_BYTES")
            monkeypatch.delenv("REPRO_LOG")
            obs_logging.configure(stream=None)
