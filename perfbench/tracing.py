"""Outside-in tracing of the package's layers.

Timing wrappers replace the module and class attributes that
``pipeline.run`` and the labs look up at call time, so no source file of
the package changes. Functions called once per sensor tick keep a call
count plus busy time; spans (name, start, end, parent) are recorded only
per operation, per benchmark-side layer call and per alert cycle. Spans
stay in memory until :meth:`Tracer.write`.

Every timed call also charges its duration to the enclosing timed call, so
a span's self time is its duration minus the time its direct children
were busy.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from percept_cane import alerts, detector_lab, ocr_lab, perception, pipeline
from percept_cane.perception import MockOcr
from percept_cane.speech import SpeechQueue

perf = time.perf_counter

# (owner, attribute, layer name) of every attribute a traced run wraps.
# Names ending in ".count" are only counted: iou runs once per candidate
# pair, and timing it would swamp what it measures.
WRAPPED = (
    (pipeline, "simulate_measurement", "sensor"),
    (pipeline, "format_distance_line", "alerts.log_line"),
    (alerts, "on_measurement", "alerts"),
    (perception, "extract_text", "perception.ocr"),
    (perception, "detect", "perception.detect"),
    (MockOcr, "transcribe", "perception.transcribe"),
    (SpeechQueue, "submit", "speech.submit"),
    (SpeechQueue, "enqueue", "speech.dropped.count"),
    (pipeline, "speak_all", "speech.drain"),
    (detector_lab, "iou", "detector_lab.iou.count"),
    (ocr_lab, "generate_samples", "ocr_lab.generate"),
    (ocr_lab, "score", "ocr_lab.score"),
    (ocr_lab, "align_confusions", "ocr_lab.align"),
)

# Layers that pipeline.run calls directly; their busy times plus the run's
# self time make up the run's duration.
RUN_CHILDREN = (
    "sensor",
    "alerts.log_line",
    "alerts",
    "perception.ocr",
    "perception.detect",
    "speech.submit",
    "speech.drain",
)


def originals() -> list[object]:
    """The attributes as they are now, to check that wrappers were removed."""
    return [getattr(owner, attr) for owner, attr, _ in WRAPPED]


class NullTracer:
    """Stand-in for untraced passes; adds one no-op context per layer call."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, n: int) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        # one [child busy time, span id] frame per open timed call
        self._stack: list[list] = [[0.0, None]]
        self._ids = itertools.count()
        self._cycle: tuple[int, int | None, float] | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- accounting --------------------------------------------------------

    def _close(self, name: str, frame: list, dt: float) -> None:
        self._stack.pop()
        self._stack[-1][0] += dt
        self.busy[name] += dt
        self.self_s[name] += dt - frame[0]
        self.counts[name] += 1

    @contextmanager
    def span(self, name: str):
        frame = [0.0, next(self._ids)]
        parent = self._stack[-1][1]
        self._stack.append(frame)
        t0 = perf()
        try:
            yield
        finally:
            t1 = perf()
            self._close(name, frame, t1 - t0)
            self.spans.append((frame[1], parent, name, t0, t1))

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def take(self) -> tuple[dict, dict, Counter]:
        """Per-layer totals since the last call; spans are kept."""
        out = (dict(self.busy), dict(self.self_s), Counter(self.counts))
        self.busy.clear()
        self.self_s.clear()
        self.counts.clear()
        return out

    # -- alert cycles: opened when an alert fires, closed by the next drain --

    def _open_cycle(self) -> None:
        self._cycle = (next(self._ids), self._stack[-1][1], perf())

    def _close_cycle(self) -> None:
        if self._cycle is not None:
            span_id, parent, t0 = self._cycle
            self.spans.append((span_id, parent, "alert_cycle", t0, perf()))
            self._cycle = None

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        stack, close = self._stack, self._close

        def timed(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, perf() - t0)

        return timed

    def _wrapper(self, attr: str, name: str, fn):
        counts = self.counts
        if attr == "on_measurement":

            def on_measurement(*args, **kwargs):
                event = fn(*args, **kwargs)
                if event is not None:
                    counts["alerts.fired"] += 1
                    self._open_cycle()
                return event

            return self._timed(name, on_measurement)
        if attr == "speak_all":

            def speak_all(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close_cycle()

            return self._timed(name, speak_all)
        if attr == "enqueue":

            def enqueue(queue, msg):
                before = len(queue.dropped)
                ack = fn(queue, msg)
                counts["speech.dropped"] += len(queue.dropped) - before
                return ack

            return enqueue
        if name.endswith(".count"):
            key = name.removesuffix(".count") + "_calls"

            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted
        return self._timed(name, fn)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(attr, name, fn))

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        self._cycle = None

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name, "start_s": t0, "end_s": t1})
                    + "\n"
                )
