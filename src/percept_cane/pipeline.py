"""End-to-end device loop over a replayable scenario.

The world is a time-ordered list of events (distance changes, optionally
with a captured frame); the loop polls the simulated sensor every tick,
feeds the alert engine, and on each alert speaks the obstacle sentence,
then runs OCR, then object detection, speaking their results in that
order. The alert engine only decides; every spoken sentence and every
log line is built here. Time is virtual, advanced by modeled latencies,
so a run is fully determined by (scenario, config, seed) and reports are
machine-independent. Wall-clock cost of the framework itself is measured
by callers, never stored in the report.
"""

from __future__ import annotations

import gc
import json
import math
import random
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple, Sequence

from . import alerts, checks, perception
from .alerts import AlertConfig, AlertState
from .checks import require_finite_fields
from .perception import BoundingBox, Frame, OcrBackend, load_class_vocabulary
from .resources import data_path
from .sensor import SensorConfig, simulate_measurement
from .speech import Priority, SpeechConfig, SpeechQueue, Transcript, speak_all

SCENARIO_DEMO_FILE = "scenario_demo.json"
# Upper bound on ceil(duration_s / tick_s), checked before any tick runs;
# the largest benchmark walk has 6,000 ticks.
MAX_TICKS = 1_000_000
STAGE_NAMES = ("sensor", "alert", "ocr", "detect", "speech")
# a run passes its budget when its mean alert cycle takes at most this long
CYCLE_BUDGET_S = 5.0


@dataclass(frozen=True)
class PerceptionConfig:
    """The OCR backend, the detector's miss rate and modeled per-call stage latencies."""

    ocr: str = "mock-tesseract"
    miss_prob: float = 0.0
    ocr_latency_s: float = 0.2
    detect_latency_s: float = 0.1

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.ocr_latency_s < 0 or self.detect_latency_s < 0:
            raise ValueError("stage latencies must be non-negative")
        # building the backends checks the OCR id and miss_prob, which only perception knows
        perception.MockDetector(miss_prob=self.miss_prob)
        perception.build_ocr(self.ocr)


@dataclass(frozen=True)
class PipelineConfig:
    sensor: SensorConfig = SensorConfig()
    alert: AlertConfig = AlertConfig()
    perception: PerceptionConfig = PerceptionConfig()
    speech: SpeechConfig = SpeechConfig()


def load_config(path: str | Path) -> PipelineConfig:
    """Read a pipeline config JSON; absent sections keep their defaults."""
    raw = checks.read_json(path)
    sections = {f.name: type(f.default) for f in fields(PipelineConfig)}
    try:
        checks.keys(raw, (), sections, "config")
        return PipelineConfig(
            **{k: checks.decode(sections[k], v, f"config section {k!r}") for k, v in raw.items()}
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ScenarioEvent:
    t_s: float
    distance_cm: float
    frame: Frame | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    tick_s: float
    duration_s: float
    events: tuple[ScenarioEvent, ...]

    def __post_init__(self) -> None:
        # each chained test is False for NaN and for the infinity it bounds
        if not 0 < self.tick_s < math.inf:
            raise ValueError("tick_s must be finite and positive")
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be finite and positive")
        if self.duration_s / self.tick_s > MAX_TICKS:
            raise ValueError(f"duration_s / tick_s exceeds {MAX_TICKS} ticks")
        last = -math.inf
        vocabulary: frozenset[str] | None = None  # read at the first label, if any
        for i, e in enumerate(self.events):
            if not last < e.t_s < math.inf:
                raise ValueError(f"event {i}: event times must be finite and strictly increasing")
            last = e.t_s
            if not 0 <= e.distance_cm < math.inf:
                raise ValueError(f"event {i}: distance_cm must be finite and non-negative")
            f = e.frame
            if f is None:
                continue
            # a tab or line break spoken from a frame would forge transcript
            # lines; isprintable is False for each, and cheaper than the regex
            if not "".join(f.texts + f.object_labels).isprintable():
                for kind, items in (("text", f.texts), ("label", f.object_labels)):
                    for item in items:
                        if checks.LINE_BREAK_OR_TAB.search(item):
                            raise ValueError(
                                f"event {i}: frame {f.frame_id!r}: {kind} {item!r}"
                                " must be one line without tabs"
                            )
            if f.object_labels and vocabulary is None:
                vocabulary = frozenset(load_class_vocabulary())
            for label in f.object_labels:
                if label not in vocabulary:
                    raise ValueError(
                        f"event {i}: frame {f.frame_id!r}: label {label!r} not in vocabulary"
                    )


def _labelled_boxes(entries: object, name: str, label: str, box: str) -> tuple[str, ...]:
    """``[{label: str, box: [4 numbers]}, ...]`` as its labels, every box
    checked and then dropped; an error names the entry, as in
    ``texts[1]: unknown keys ['font']``.

    A valid entry passes one inline test: an object of the two keys, a
    printable str label and four floats with ``0 <= x_min <= x_max <= 1``
    and the same for y. Any other entry, int coordinates included, is
    re-checked by :mod:`checks` and ``BoundingBox``, so it is accepted or
    gets the same message as without the test. A label may hold no tab or
    line break; ``str.isprintable`` is False for each of them, and a third
    of the cost of the regex search that decides in the full check.
    """
    names: list[str] = []
    for i, entry in enumerate(checks.typed(entries, list, name)):
        if (
            type(entry) is dict
            and len(entry) == 2
            and type(text := entry.get(label)) is str
            and text.isprintable()
            and type(xy := entry.get(box)) is list
            and len(xy) == 4
        ):
            x0, y0, x1, y1 = xy
            # the chained comparisons are False for NaN and for either infinity
            if (
                type(x0) is type(y0) is type(x1) is type(y1) is float
                and 0.0 <= x0 <= x1 <= 1.0
                and 0.0 <= y0 <= y1 <= 1.0
            ):
                names.append(text)
                continue
        try:
            checks.keys(entry, (label, box))
            text = checks.typed(entry[label], str, label)
            if checks.LINE_BREAK_OR_TAB.search(text):
                raise ValueError(f"{label} must be one line without tabs")
            BoundingBox(*checks.box(entry[box], box))
        except ValueError as exc:
            raise ValueError(f"{name}[{i}]: {exc}") from exc
        names.append(text)
    return tuple(names)


def _event(raw: object, i: int) -> ScenarioEvent:
    # the usual event, accepted by one test: finite float t and distance_cm,
    # distance_cm >= 0, and a frame object with all three of its keys; any
    # other event goes through the checks, which raise or accept it
    if (
        type(raw) is dict
        and len(raw) == 3
        and type(t_s := raw.get("t")) is float
        and type(distance_cm := raw.get("distance_cm")) is float
        and distance_cm >= 0.0
        and math.isfinite(t_s + distance_cm)
        and type(f := raw.get("frame")) is dict
        and len(f) == 3
        and "frame_id" in f
        and "texts" in f
        and "objects" in f
    ):
        frame_id = f["frame_id"]
    else:
        checks.keys(raw, ("t", "distance_cm"), ("frame",))
        t_s = checks.number(raw["t"], "t")
        distance_cm = checks.number(raw["distance_cm"], "distance_cm")
        if distance_cm < 0:
            raise ValueError("distance_cm must be non-negative")
        f = raw.get("frame")
        if f is None:
            return ScenarioEvent(t_s, distance_cm)
        checks.keys(f, (), ("frame_id", "texts", "objects"), "frame")
        frame_id = f.get("frame_id", f"frame-{i:03d}")
    frame_id = checks.typed(frame_id, str, "frame_id")
    texts = _labelled_boxes(f.get("texts", []), "texts", "text", "region")
    labels = _labelled_boxes(f.get("objects", []), "objects", "label", "box")
    return ScenarioEvent(t_s, distance_cm, Frame(frame_id, labels, texts))


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario JSON file; object labels must be in the bundled COCO
    vocabulary (``coco_labels.txt``, swapped by pointing ``PERCEPT_CANE_DATA``
    at another data directory). Errors name the file and event index.

    Each valid event and box entry passes one inline test; an entry that
    fails it is re-checked by :mod:`checks`, so every message is the same
    as when every entry is checked in full.

    The cyclic garbage collector is paused for one file load (the JSON
    decode, the checks and the ``Scenario`` build), then left as the caller
    had it, enabled or not. The pause is process-wide: other threads run
    without collections while the file loads. It is safe because nothing
    the load builds can form a reference cycle: the decoded JSON tree holds
    only dicts, lists, strs and numbers, and the frozen ``Scenario``,
    ``ScenarioEvent`` and ``Frame`` records built from it refer only
    downward, to tuples, strs and floats, so reference counting frees all
    of it. The decoded tree is freed with the helper's frame, before the
    collector comes back on. With the collector on, a dense walk's tens of
    thousands of containers set off dozens of collections that free
    nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_scenario(path)
    finally:
        if enabled:
            gc.enable()


def _load_scenario(path: str | Path) -> Scenario:
    raw = checks.read_json(path)
    events: list[ScenarioEvent] = []
    try:
        checks.keys(raw, ("name", "tick_s", "duration_s", "events"), name="scenario")
        for i, ev in enumerate(checks.typed(raw["events"], list, "events")):
            try:
                events.append(_event(ev, i))
            except ValueError as exc:
                raise ValueError(f"event {i}: {exc}") from exc
        return Scenario(
            name=checks.typed(raw["name"], str, "name"),
            tick_s=checks.number(raw["tick_s"], "tick_s"),
            duration_s=checks.number(raw["duration_s"], "duration_s"),
            events=tuple(events),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def demo_scenario_path() -> Path:
    return data_path(SCENARIO_DEMO_FILE)


@dataclass(frozen=True)
class StageStats:
    count: int
    mean_s: float
    max_s: float

    @staticmethod
    def of(durations: Sequence[float]) -> "StageStats":
        if not durations:
            return StageStats(0, 0.0, 0.0)
        # min is NaN when the first duration is, which fails this test too;
        # fsum is NaN if any duration is, and inf if any is inf, so max_s
        # cannot depend on the order of the durations
        if not min(durations) >= 0:
            raise ValueError("stage durations must be non-negative")
        try:
            total = math.fsum(durations)
        except OverflowError as exc:  # finite durations, but their sum is not
            raise ValueError("stage durations must have a finite sum") from exc
        if not total < math.inf:
            raise ValueError("stage durations must be finite")
        return StageStats(len(durations), total / len(durations), max(durations))


@dataclass(frozen=True)
class RunReport:
    stages: dict[str, StageStats]
    end_to_end: StageStats
    alerts_fired: int
    budget_pass: bool


def format_distance_line(distance_cm: float) -> str:
    """Device log line for one reading, frozen bit-exact."""
    if distance_cm < 0:
        raise ValueError("distance_cm must be non-negative")
    return f"Measure Distance = {distance_cm:.1f} cm"


@dataclass(frozen=True)
class DeviceLog:
    """The device log of one run, as the records it is rendered from.

    Every tick logs its distance line, then ``time taken to execute`` with
    the sensor's exec time; an alert tick then logs the alert and, when no
    frame was active, a warning. A run records only what cannot be derived
    later: the distance line by the tick it was first formatted on (once per
    event), the alert message by its tick, and the ticks of frameless
    alerts. The exec times are the ones the sensor stage stats come from.

    The records are dicts and sets of ints and strs, which add no object
    that the garbage collector tracks; a tuple per event, kept as long as
    the result, shifts full collections into the replay loop.
    """

    tick_s: float
    exec_times: Sequence[float]
    distance_lines: dict[int, str]
    alert_messages: dict[int, str]
    frameless: set[int]

    def render(self) -> str:
        """The whole log text, each line ending in ``\\n``."""
        parts: list[str] = []
        line = ""
        for k, exec_time_s in enumerate(self.exec_times):
            line = self.distance_lines.get(k, line)
            parts.append(f"{line}\ntime taken to execute {exec_time_s}\n")
            if k in self.alert_messages:
                t = k * self.tick_s  # the same float the tick loop used
                parts.append(f"obstacle alert at t={t:.3f} s: {self.alert_messages[k]}\n")
                if k in self.frameless:
                    parts.append(f"warning: no frame at t={t:.3f} s; ranging-only alert\n")
        return "".join(parts)


class RunResult(NamedTuple):
    report: RunReport
    transcript: Transcript
    log: DeviceLog


def run(
    scenario: Scenario,
    cfg: PipelineConfig | None = None,
    seed: int = 0,
    ocr: OcrBackend | None = None,
) -> RunResult:
    """Replay a scenario through the full device loop.

    Every tick: range, feed the alert engine. On an alert:
    speak the obstacle sentence, then OCR the active frame, then detect
    objects, speaking each result; the whole cycle is timed tick-start to
    speech-drained. The active frame is the most recent event's frame, so
    an event without one clears it; an alert with no frame degrades to a
    ranging-only announcement with a logged warning.

    ``seed`` seeds the sensor jitter, the detector's misses and the OCR
    substitutions; an ``ocr`` backend passed in keeps its own seed.
    """
    cfg = cfg or PipelineConfig()
    rng = random.Random(seed)
    detector = perception.MockDetector(miss_prob=cfg.perception.miss_prob, seed=seed)
    ocr = ocr or perception.build_ocr(cfg.perception.ocr, seed=seed)
    alert_cfg, speech_cfg = cfg.alert, cfg.speech
    ocr_latency_s, detect_latency_s = cfg.perception.ocr_latency_s, cfg.perception.detect_latency_s

    queue = SpeechQueue(capacity=speech_cfg.capacity)
    state = AlertState()
    transcript = Transcript()
    distance_lines: dict[int, str] = {}
    alert_messages: dict[int, str] = {}
    frameless: set[int] = set()
    exec_times: list[float] = []
    speech_times: list[float] = []
    cycle_times: list[float] = []

    sensor_cfg = cfg.sensor
    # world state before any event applies: far away, no frame
    distance = 2.0 * sensor_cfg.max_range_cm
    frame: Frame | None = None
    events, cursor, n_events = scenario.events, 0, len(scenario.events)
    tick_s, duration_s = scenario.tick_s, scenario.duration_s
    sensor_append = exec_times.append
    # a reading is the true distance, so its log line changes only when an
    # event moves the world; it is formatted on the first tick after that
    line_due = True
    # virtual time: a tick starts at its own time unless the previous
    # cycle's speech ran past it
    now = 0.0

    for k in range(int(math.ceil(duration_s / tick_s))):
        t = k * tick_s
        if t >= duration_s:
            break
        while cursor < n_events and events[cursor].t_s <= t:
            distance, frame = events[cursor].distance_cm, events[cursor].frame
            cursor += 1
            line_due = True
        if t > now:
            now = t
        cycle_start = now

        m = simulate_measurement(distance, sensor_cfg, rng, timestamp_s=t)
        now += m.exec_time_s
        sensor_append(m.exec_time_s)
        if line_due:
            distance_lines[k] = format_distance_line(m.distance_cm)
            line_due = False

        if alerts.on_measurement(state, m, alert_cfg) is None:
            # the queue is empty: each alert's speak_all drains it
            continue

        message = f"Obstacle ahead at {m.distance_cm:.1f} centimeters"
        alert_messages[k] = message
        queue.submit(message, Priority.ALERT)

        if frame is None:
            frameless.add(k)
        else:
            texts = perception.extract_text(frame, ocr)
            now += ocr_latency_s
            for text in texts:
                queue.submit(f"Text detected: {text}", Priority.PERCEPTION)
            labels = perception.detect(frame, detector)
            now += detect_latency_s
            for label in labels:
                queue.submit(f"Detected {label}", Priority.PERCEPTION)

        before = now
        now = speak_all(queue, transcript, now, speech_cfg)
        speech_times.append(now - before)
        cycle_times.append(now - cycle_start)

    framed = len(alert_messages) - len(frameless)
    stages = {
        "sensor": StageStats.of(exec_times),
        # the alert stage is a placeholder: zero seconds on every tick
        "alert": StageStats(len(exec_times), 0.0, 0.0),
        "ocr": StageStats.of([ocr_latency_s] * framed),
        "detect": StageStats.of([detect_latency_s] * framed),
        "speech": StageStats.of(speech_times),
    }
    end_to_end = StageStats.of(cycle_times)
    report = RunReport(
        stages=stages,
        end_to_end=end_to_end,
        alerts_fired=len(alert_messages),
        budget_pass=end_to_end.mean_s <= CYCLE_BUDGET_S,
    )
    log = DeviceLog(tick_s, exec_times, distance_lines, alert_messages, frameless)
    return RunResult(report=report, transcript=transcript, log=log)


def run_report_to_csv(report: RunReport) -> str:
    lines = ["stage,count,mean_s,max_s"]
    for name in STAGE_NAMES:
        s = report.stages[name]
        lines.append(f"{name},{s.count},{s.mean_s!r},{s.max_s!r}")
    e = report.end_to_end
    lines.append(f"end_to_end,{e.count},{e.mean_s!r},{e.max_s!r}")
    return "\n".join(lines) + "\n"


def run_report_to_json(report: RunReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
