"""Stopwatch, spans, operation ledger and resident-set sampling for the
phkit benchmark.

Spans are recorded from the benchmark's own code around calls into phkit's
public functions and CLI; phkit itself is not instrumented. Spans are kept
in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
RSS_POLL_S = 0.002
MB = 1024.0 * 1024.0


class Stopwatch:
    """Times the block it wraps; ``wall`` holds the seconds afterwards."""

    wall = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class PassAborted(Exception):
    """An operation of the pass failed; the rest of the pass is skipped."""


def expect(condition, message: str):
    if not condition:
        raise CheckFailed(message)


class Ledger:
    """Operations attempted and failed in one run.

    An operation fails if it raises, exits non-zero or fails its output
    check. The first failure abandons the pass it belongs to.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # the run goes on and reports the failure
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise PassAborted(name) from exc


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


class _RssSampler:
    """Peak resident set of this process while a call runs, by polling."""

    def __init__(self):
        self.start = _rss_bytes()
        self.peak = self.start
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self):
        while not self._stop.wait(RSS_POLL_S):
            self.peak = max(self.peak, _rss_bytes())

    def close(self) -> float:
        """Stop polling; return the growth over the start, in MB."""
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        return (self.peak - self.start) / MB


class Tracer:
    """Spans with name, start, end and parent, kept in memory."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.rss_mb: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def memory(self, name: str):
        """Resident-set growth of a call, in a repeat of it that is not
        timed: the polling thread would slow a timed span."""
        sampler = _RssSampler()
        try:
            yield
        finally:
            self.rss_mb[name] = max(self.rss_mb.get(name, 0.0),
                                    sampler.close())

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def dump(self, origin: float) -> list[dict]:
        """Spans with times in seconds since origin, for the run's record."""
        return [dict(s, start=round(s["start"] - origin, 6),
                     end=round(s["end"] - origin, 6)) for s in self.spans]


class NullTracer:
    """Stand-in for untraced passes: spans cost nothing and record nothing."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()
