"""Structured logging with correlation IDs.

One logging spine for the whole system, deliberately tiny (no stdlib
``logging`` hierarchy — the handler/filter machinery buys nothing here
and costs startup time on the hot path):

* ``REPRO_LOG=json`` emits one JSON object per line on stderr;
  ``REPRO_LOG=text`` emits a human ``TIME LEVEL logger event k=v`` line.
* Default level is ``warning`` so plain CLI runs stay quiet (the bench
  gate holds warm table2 within 5% of baseline); setting ``REPRO_LOG``
  raises it to ``info``; ``REPRO_LOG_LEVEL`` / ``--log-level`` override.
* ``REPRO_LOG_FILE=/path`` sends records to a file instead of stderr,
  through :class:`RotatingFileSink`: every record is one atomic
  ``O_APPEND`` write (concurrent pool workers/cluster nodes on the same
  file never interleave mid-line), and when ``REPRO_LOG_MAX_BYTES`` is
  set the file rotates by atomic rename (``file.1`` … ``file.N``,
  ``REPRO_LOG_KEEP`` generations) — a bounded footprint under loadtest
  instead of an unbounded growth.
* Correlation IDs (``run_id``, ``job_id``, ``benchmark``, ``config``)
  travel in a :mod:`contextvars` context — :func:`log_context` pushes
  them, every record stamps the current set, and the executor/service
  boundary re-establishes them on the far side (see
  ``experiments/executor.py`` and ``service/execution.py``), so one grep
  for a ``run_id`` follows a benchmark from CLI submit through a pool
  worker to the cached result.

Records are validated in tests and CI by :func:`validate_record`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import uuid
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: correlation IDs for the current logical operation
_context: ContextVar[Dict[str, object]] = ContextVar("repro_log_context",
                                                     default={})


class _Config:
    __slots__ = ("mode", "level", "stream")

    def __init__(self):
        self.mode = "text"
        self.level = LEVELS["warning"]
        self.stream = None  # None -> sys.stderr at emit time


_config = _Config()


class RotatingFileSink:
    """Append-only log file with size-based keep-N rotation.

    Safe for concurrent writers (pool workers, cluster nodes sharing a
    path) without cross-process locks:

    * each record is a single ``os.write`` on an ``O_APPEND`` fd — the
      kernel makes the append atomic, so lines never interleave;
    * rotation is ``file.N-1 → file.N`` shifts ending in one atomic
      ``os.replace(file, file.1)`` — a writer holds either the old or
      the new inode, never a torn middle;
    * before writing, each writer re-stats the path and reopens when
      its fd no longer matches the inode on disk (someone else
      rotated), so late writers land in the fresh file instead of the
      renamed one forever.

    Within one process the fd is shared, so one lock serializes the fd
    swap (reopen, rotate, close) with the ``os.write``: a thread never
    writes to an fd another thread has just closed or reused.  A forked
    pool worker gets a fresh lock, since the thread that held the
    parent's at fork time does not exist in the child.

    ``max_bytes <= 0`` disables rotation (plain bounded-risk append).
    """

    def __init__(self, path: str, max_bytes: int = 0, keep: int = 3):
        self.path = path
        self.max_bytes = int(max_bytes)
        self.keep = max(1, int(keep))
        self._fd: Optional[int] = None
        self._ino: Optional[int] = None
        self._lock = threading.Lock()
        _sinks.add(self)

    def _open(self) -> int:
        fd = os.open(self.path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._fd = fd
        try:
            self._ino = os.fstat(fd).st_ino
        except OSError:
            self._ino = None
        return fd

    def _current_fd(self) -> int:
        if self._fd is None:
            return self._open()
        try:
            on_disk = os.stat(self.path).st_ino
        except OSError:
            on_disk = None
        if on_disk != self._ino:
            # another process rotated under us: follow it to the new file
            try:
                os.close(self._fd)
            except OSError:
                pass
            return self._open()
        return self._fd

    def _rotate(self) -> None:
        # shift older generations first so .1 is free, then the atomic
        # live-file rename; a concurrent writer that loses this race
        # sees the inode change and reopens instead of double-rotating
        for i in range(self.keep - 1, 0, -1):
            src = f"{self.path}.{i}"
            if os.path.exists(src):
                try:
                    os.replace(src, f"{self.path}.{i + 1}")
                except OSError:
                    pass
        try:
            os.replace(self.path, f"{self.path}.1")
        except OSError:
            pass
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None
        self._open()

    def write(self, text: str) -> None:
        data = text.encode("utf-8", "replace")
        with self._lock:
            fd = self._current_fd()
            if self.max_bytes > 0:
                try:
                    size = os.fstat(fd).st_size
                except OSError:
                    size = 0
                if size > 0 and size + len(data) > self.max_bytes:
                    self._rotate()
                    fd = self._fd  # type: ignore[assignment]
            os.write(fd, data)

    def flush(self) -> None:  # O_APPEND writes are unbuffered
        pass

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None

    def generations(self) -> List[str]:
        """Existing files, newest first (live file, then .1, .2, ...)."""
        out = [self.path] if os.path.exists(self.path) else []
        for i in range(1, self.keep + 1):
            path = f"{self.path}.{i}"
            if os.path.exists(path):
                out.append(path)
        return out


_sinks: "weakref.WeakSet[RotatingFileSink]" = weakref.WeakSet()


def _reinit_sink_locks() -> None:
    for sink in _sinks:
        sink._lock = threading.Lock()


os.register_at_fork(after_in_child=_reinit_sink_locks)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def configure(mode: Optional[str] = None, level: Optional[str] = None,
              stream=None) -> None:
    """Set the process-wide log mode/level.

    Arguments beat environment beats defaults: ``mode`` falls back to
    ``REPRO_LOG`` (text), ``level`` to ``REPRO_LOG_LEVEL`` (warning
    normally, info when ``REPRO_LOG`` is set — opting into structured
    logs means wanting to see them).  With no explicit ``stream``,
    ``REPRO_LOG_FILE`` selects a :class:`RotatingFileSink` bounded by
    ``REPRO_LOG_MAX_BYTES`` (0 = unbounded) keeping ``REPRO_LOG_KEEP``
    rotated generations (default 3).
    """
    env_mode = os.environ.get("REPRO_LOG", "").strip().lower()
    mode = (mode or env_mode or "text").lower()
    if mode not in ("json", "text"):
        mode = "text"
    env_level = os.environ.get("REPRO_LOG_LEVEL", "").strip().lower()
    level = (level or env_level or ("info" if env_mode else "warning")).lower()
    _config.mode = mode
    _config.level = LEVELS.get(level, LEVELS["warning"])
    log_file = os.environ.get("REPRO_LOG_FILE", "").strip()
    if stream is None and log_file:
        current = _config.stream
        if not (isinstance(current, RotatingFileSink)
                and current.path == log_file):
            stream = RotatingFileSink(
                log_file,
                max_bytes=_env_int("REPRO_LOG_MAX_BYTES", 0),
                keep=_env_int("REPRO_LOG_KEEP", 3))
        else:
            stream = current
    _config.stream = stream


def configured_mode() -> str:
    return _config.mode


def configured_level() -> str:
    for name, value in LEVELS.items():
        if value == _config.level:
            return name
    return "warning"


# established from the environment once at import so library use (no CLI
# entry point) still honours REPRO_LOG
configure()


def new_run_id() -> str:
    """A short unique correlation ID for one CLI invocation / job."""
    return uuid.uuid4().hex[:12]


def current_context() -> Dict[str, object]:
    """The correlation IDs in effect (a copy; safe to ship across the
    pool boundary or the service wire)."""
    return dict(_context.get())


@contextmanager
def log_context(**ids: object) -> Iterator[None]:
    """Layer correlation IDs onto the current context for the duration
    of the block.  ``None`` values are dropped so callers can pass
    optional IDs unconditionally."""
    merged = dict(_context.get())
    merged.update({k: v for k, v in ids.items() if v is not None})
    token = _context.set(merged)
    try:
        yield
    finally:
        _context.reset(token)


class Logger:
    """Named logger; emits to the shared stream at the shared level."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _emit(self, level: str, event: str, fields: Dict[str, object]) -> None:
        if LEVELS[level] < _config.level:
            return
        record: Dict[str, object] = {"ts": time.time(), "level": level,
                                     "logger": self.name, "event": event}
        record.update(_context.get())
        record.update(fields)
        stream = _config.stream or sys.stderr
        if _config.mode == "json":
            line = json.dumps(record, sort_keys=True, default=str)
        else:
            ts = time.strftime("%H:%M:%S", time.localtime(record["ts"]))
            extras = " ".join(f"{k}={v}" for k, v in record.items()
                              if k not in ("ts", "level", "logger", "event"))
            line = f"{ts} {level.upper():7s} {self.name} {event}"
            if extras:
                line += " " + extras
        try:
            # one write + flush per record: concurrent pool workers share
            # the parent's stderr pipe, and separate text/newline writes
            # (print) interleave into unparseable concatenations
            stream.write(line + "\n")
            stream.flush()
        except (ValueError, OSError):
            pass  # closed stream at interpreter shutdown

    def debug(self, event: str, **fields: object) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._emit("error", event, fields)


def get_logger(name: str) -> Logger:
    return Logger(name)


_SCALARS = (str, int, float, bool, type(None))


def validate_record(record: object) -> List[str]:
    """Check one parsed log record against the schema; returns a list of
    problems (empty when valid).  Used by tests and ``obs_smoke.py``."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    ts = record.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts <= 0:
        problems.append("ts must be a positive number")
    if record.get("level") not in LEVELS:
        problems.append(f"level must be one of {sorted(LEVELS)}")
    for key in ("logger", "event"):
        value = record.get(key)
        if not isinstance(value, str) or not value:
            problems.append(f"{key} must be a non-empty string")
    for key, value in record.items():
        if not isinstance(value, _SCALARS):
            problems.append(f"field {key!r} must be a JSON scalar, "
                            f"got {type(value).__name__}")
    return problems
