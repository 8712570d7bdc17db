"""The run clock: wall time of the timed phase with load generation taken out."""

from __future__ import annotations

import time
from contextlib import contextmanager

from benchmarks.pipeline.trace import SpanRecorder


class RunClock:
    """Seconds the *program* has had since the timed phase began.

    ``now()`` is the timed phase's wall time minus everything spent inside
    :meth:`loadgen` blocks so far, so intervals measured on it (an epoch
    close, a transfer round trip) are processor time of the pipeline, not of
    the clients.  Before :meth:`start` the clock reads 0 and load generation
    is not accumulated: set-up has its own metric.
    """

    def __init__(self, recorder: SpanRecorder | None = None) -> None:
        self.recorder = recorder
        self.started_at: float | None = None
        self.loadgen_s = 0.0
        self.run_s = 0.0
        self.running = False

    def start(self) -> None:
        if self.recorder is not None:
            self.recorder.recording = True
        self.running = True
        self.started_at = time.perf_counter()

    def now(self) -> float:
        if self.started_at is None:
            return 0.0
        return time.perf_counter() - self.started_at - self.loadgen_s

    def stop(self) -> None:
        self.run_s = self.now()
        self.running = False
        if self.recorder is not None:
            self.recorder.recording = False

    @contextmanager
    def loadgen(self):
        """Client-side work: off the run clock and out of the trace."""
        began = time.perf_counter()
        if self.recorder is not None:
            with self.recorder.paused():
                yield
        else:
            yield
        if self.running:
            self.loadgen_s += time.perf_counter() - began

    def operation(self, epoch: int, index: int) -> None:
        """Name the driver operation the following spans belong to."""
        if self.recorder is not None:
            self.recorder.operation = epoch * 1000 + index
