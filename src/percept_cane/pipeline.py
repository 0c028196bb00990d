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

import json
import math
import random
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple, Sequence

from . import alerts, checks, perception
from .alerts import AlertConfig, AlertState
from .checks import check_fields, ranged
from .perception import BoundingBox, Frame, OcrBackend, load_class_vocabulary
from .resources import data_path
from .sensor import SensorConfig, draw_jitter, simulate_measurement
from .speech import Priority, SpeechConfig, SpeechMessage, SpeechQueue, Transcript, speak_all

SCENARIO_DEMO_FILE = "scenario_demo.json"
# Upper bounds checked before any tick runs. MAX_TICKS bounds
# duration_s / tick_s; the largest benchmark walk has 6,000 ticks. A run
# holds one exec-time float per tick, and while it runs one jitter draw per
# tick beside it: ~32 bytes per tick each, or ~32 MB each at MAX_TICKS.
MAX_TICKS = 1_000_000
# An alert submits one message plus one per text and label of its frame,
# and at most one alert fires per tick, so ticks * (1 + the largest
# frame's texts and labels) bounds a run's messages. The benchmark walks
# ask for at most 31,200 and a frameless MAX_TICKS walk for 1,000,000.
# A kept message with a MAX_TEXT_CHARS text (the wordlist's have at most
# 17) costs ~270 bytes if ASCII and ~640 if every character lies outside
# the BMP (tracemalloc, 5,000 messages), so a run keeps at most ~1.3 GB.
MAX_FRAME_ITEMS = 1_000
MAX_MESSAGES = 2_000_000
MAX_TEXT_CHARS = 100
STAGE_NAMES = ("sensor", "alert", "ocr", "detect", "speech")
# a run passes its budget when its mean alert cycle takes at most this long
CYCLE_BUDGET_S = 5.0


@dataclass(frozen=True)
class PerceptionConfig:
    """The OCR backend, the detector's miss rate and modeled per-call stage latencies."""

    ocr: str = "mock-tesseract"
    miss_prob: float = ranged(0.0, 0, 1)
    ocr_latency_s: float = ranged(0.2, 0)
    detect_latency_s: float = ranged(0.1, 0)

    def __post_init__(self) -> None:
        check_fields(self)
        perception.build_ocr(self.ocr)  # checks the OCR id, which only perception knows


@dataclass(frozen=True)
class PipelineConfig:
    sensor: SensorConfig = SensorConfig()
    alert: AlertConfig = AlertConfig()
    perception: PerceptionConfig = PerceptionConfig()
    speech: SpeechConfig = SpeechConfig()


def _config(raw: object) -> PipelineConfig:
    sections = {f.name: type(f.default) for f in fields(PipelineConfig)}
    checks.keys(raw, (), sections, "config")
    return PipelineConfig(**{k: checks.decode(sections[k], v, f"config section {k!r}") for k, v in raw.items()})


def load_config(path: str | Path) -> PipelineConfig:
    """Read a pipeline config JSON; absent sections keep their defaults."""
    return checks.read_json(path, _config)


@dataclass(frozen=True)
class ScenarioEvent:
    t_s: float
    distance_cm: float
    frame: Frame | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    tick_s: float = ranged(MISSING, 0, above=True)
    duration_s: float = ranged(MISSING, 0, above=True)
    events: tuple[ScenarioEvent, ...]

    def __post_init__(self) -> None:
        check_fields(self)
        if self.duration_s / self.tick_s > MAX_TICKS:
            raise ValueError(f"duration_s / tick_s exceeds {MAX_TICKS} ticks")
        last = -math.inf
        largest = 0  # the most texts and labels in one frame
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
            n_items = len(f.texts) + len(f.object_labels)
            if n_items > MAX_FRAME_ITEMS:
                raise ValueError(
                    f"event {i}: frame {f.frame_id!r}: {n_items} texts and labels exceed {MAX_FRAME_ITEMS}"
                )
            largest = max(largest, n_items)
            joined = "".join(f.texts + f.object_labels)
            # no text can be over the cap when the texts and labels together are not
            if len(joined) > MAX_TEXT_CHARS:
                longest = max(map(len, f.texts), default=0)
                if longest > MAX_TEXT_CHARS:
                    raise ValueError(
                        f"event {i}: frame {f.frame_id!r}: a text of {longest} characters exceeds {MAX_TEXT_CHARS}"
                    )
            # a tab or line break spoken from a frame would forge transcript
            # lines; isprintable is False for each, and cheaper than the regex
            if not joined.isprintable():
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
        if self.duration_s / self.tick_s * (1 + largest) > MAX_MESSAGES:
            raise ValueError(
                f"duration_s / tick_s times {1 + largest} messages per alert exceeds {MAX_MESSAGES} messages"
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
            text = checks.string(entry[label], label)
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
    frame_id = checks.string(frame_id, "frame_id")
    texts = _labelled_boxes(f.get("texts", []), "texts", "text", "region")
    labels = _labelled_boxes(f.get("objects", []), "objects", "label", "box")
    return ScenarioEvent(t_s, distance_cm, Frame(frame_id, labels, texts))


@checks.collector_paused
def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario JSON file; object labels must be in the bundled COCO
    vocabulary (``coco_labels.txt``, swapped by pointing ``PERCEPT_CANE_DATA``
    at another data directory). Errors name the file and event index.

    Each valid event and box entry passes one inline test; an entry that
    fails it is re-checked by :mod:`checks`, so every message is the same
    as when every entry is checked in full.

    The load (the JSON decode, the checks and the ``Scenario`` build) runs
    with the cyclic garbage collector paused by
    :func:`checks.collector_paused`, which is process-wide and leaves the
    collector as the caller had it. It is safe because nothing the load
    builds can form a reference cycle: the decoded JSON tree holds only
    dicts, lists, strs and numbers, and the frozen ``Scenario``,
    ``ScenarioEvent`` and ``Frame`` records built from it refer only
    downward, to tuples, strs and floats, so reference counting frees all
    of it. The decoded tree is freed as :func:`checks.read_json` returns,
    before the collector comes back on. With the collector on, a dense
    walk's tens of thousands of containers set off dozens of collections
    that free nothing."""
    return checks.read_json(path, _scenario)


def _scenario(raw: object) -> Scenario:
    checks.keys(raw, ("name", "tick_s", "duration_s", "events"), name="scenario")
    events: list[ScenarioEvent] = []
    for i, ev in enumerate(checks.typed(raw["events"], list, "events")):
        try:
            events.append(_event(ev, i))
        except ValueError as exc:
            raise ValueError(f"event {i}: {exc}") from exc
    return Scenario(
        name=checks.string(raw["name"], "name"),
        tick_s=checks.number(raw["tick_s"], "tick_s"),
        duration_s=checks.number(raw["duration_s"], "duration_s"),
        events=tuple(events),
    )


def demo_scenario_path() -> Path:
    return data_path(SCENARIO_DEMO_FILE)


@dataclass(frozen=True)
class StageStats:
    count: int = ranged(MISSING, 0)
    mean_s: float = ranged(MISSING, 0)
    max_s: float = ranged(MISSING, 0)

    def __post_init__(self) -> None:
        check_fields(self)

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


def _nearest_rank(values: Sequence[float], percent: int) -> float:
    """The smallest value that at least ``percent`` % of ``values`` do not
    exceed (0.0 for no values)."""
    if not values:
        return 0.0
    return sorted(values)[-(-percent * len(values) // 100) - 1]


def format_distance_line(distance_cm: float) -> str:
    """Device log line for one reading, frozen bit-exact."""
    return f"Measure Distance = {distance_cm:.1f} cm"


@dataclass(frozen=True, repr=False)
class RunReport:
    """The one record of a run, in virtual seconds. Every report value and
    the log text are folded from its fields when read, so a caller pays
    only for what it renders: the CSV report folds ``stages`` and
    ``end_to_end``, the JSON report every property, and only
    ``render_log`` formats the per-tick lines.

    Per tick, ``exec_times`` holds the sensor's exec time, and
    ``distance_lines`` the distance line by the tick it was first formatted
    on (once per event). Per alert cycle, as columns with one index per
    cycle: its tick, whether a frame was active, and its speech and
    whole-cycle seconds. ``spoken_at_s`` and ``messages`` are the
    transcript's own two lists. The alert sentence is kept once: the i-th
    ``ALERT`` message is cycle i's, as an alert enters an empty queue and
    outranks the rest, so it is never dropped. ``dropped`` is the queue's
    drop report.

    Lists, dicts and sets of ints, floats, bools and strs add no object
    that the garbage collector tracks; a tuple per event, kept as long as
    the result, shifts full collections into the replay loop.
    """

    tick_s: float = ranged(MISSING, 0, above=True)
    ocr_latency_s: float = ranged(MISSING, 0)
    detect_latency_s: float = ranged(MISSING, 0)
    exec_times: Sequence[float]
    distance_lines: dict[int, str]
    ticks: Sequence[int]
    framed: Sequence[bool]
    speech_s: Sequence[float]
    cycle_s: Sequence[float]
    spoken_at_s: Sequence[float]
    messages: Sequence[SpeechMessage]
    dropped: Sequence[SpeechMessage]

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def stages(self) -> dict[str, StageStats]:
        """Per stage of ``STAGE_NAMES``; the alert stage is a placeholder,
        zero seconds on every tick."""
        n_framed = sum(self.framed)
        return {
            "sensor": StageStats.of(self.exec_times),
            "alert": StageStats(len(self.exec_times), 0.0, 0.0),
            "ocr": StageStats.of([self.ocr_latency_s] * n_framed),
            "detect": StageStats.of([self.detect_latency_s] * n_framed),
            "speech": StageStats.of(self.speech_s),
        }

    @property
    def end_to_end(self) -> StageStats:
        """Each alert cycle, from its tick to the end of its speech."""
        return StageStats.of(self.cycle_s)

    @property
    def alerts_fired(self) -> int:
        return len(self.ticks)

    @property
    def budget_pass(self) -> bool:
        return self.end_to_end.mean_s <= CYCLE_BUDGET_S

    @property
    def messages_submitted(self) -> int:
        """Every submitted message is spoken or dropped."""
        return len(self.messages) + len(self.dropped)

    @property
    def messages_dropped(self) -> dict[str, int]:
        """The dropped messages per priority name, zeros included."""
        return {p.name: sum(m.priority == p for m in self.dropped) for p in Priority}

    @property
    def dropped_texts(self) -> list[str]:
        """The dropped messages' texts, in drop order."""
        return [m.text for m in self.dropped]

    @property
    def alert_latency(self) -> StageStats:
        """From each alert's tick time to the start of its spoken ``ALERT``."""
        alert = Priority.ALERT
        starts = (t for t, m in zip(self.spoken_at_s, self.messages) if m.priority == alert)
        return StageStats.of([start - k * self.tick_s for start, k in zip(starts, self.ticks)])

    @property
    def cycle_p50_s(self) -> float:
        return _nearest_rank(self.cycle_s, 50)

    @property
    def cycle_p95_s(self) -> float:
        return _nearest_rank(self.cycle_s, 95)

    def render_log(self) -> str:
        """The device log text, each line ending in ``\\n``. Every tick logs
        its distance line, then ``time taken to execute`` with the sensor's
        exec time; an alert tick then logs the alert and, when no frame was
        active, a warning."""
        alert = Priority.ALERT
        sentences = (m.text for m in self.messages if m.priority == alert)
        notes: dict[int, str] = {}
        for k, framed, sentence in zip(self.ticks, self.framed, sentences):
            t = k * self.tick_s  # the same float the tick loop used
            warning = "" if framed else f"warning: no frame at t={t:.3f} s; ranging-only alert\n"
            notes[k] = f"obstacle alert at t={t:.3f} s: {sentence}\n{warning}"
        parts: list[str] = []
        line = ""
        for k, exec_time_s in enumerate(self.exec_times):
            line = self.distance_lines.get(k, line)
            parts.append(f"{line}\ntime taken to execute {exec_time_s}\n{notes.get(k, '')}")
        return "".join(parts)


class RunResult(NamedTuple):
    report: RunReport
    transcript: Transcript


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
    substitutions; an ``ocr`` backend passed in keeps its own seed. The
    result holds the transcript and the run's record, from which the
    reports and the log are folded when read.
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
    exec_times: list[float] = []
    # one record per alert cycle: its tick, framed or not, speech and cycle seconds
    ticks, framed, speech_s, cycle_s = [], [], [], []

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

    n_ticks = int(math.ceil(duration_s / tick_s))
    jitters = draw_jitter(rng, sensor_cfg, n_ticks)
    # read once: before Python 3.12 an enum's class attribute read goes through
    # the metaclass's __getattr__, over ten times the cost of a local
    alert_priority, perception_priority = Priority.ALERT, Priority.PERCEPTION

    for k in range(n_ticks):
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

        m = simulate_measurement(distance, sensor_cfg, jitters[k], timestamp_s=t)
        now += m.exec_time_s
        sensor_append(m.exec_time_s)
        if line_due:
            distance_lines[k] = format_distance_line(m.distance_cm)
            line_due = False

        if alerts.on_measurement(state, m, alert_cfg) is None:
            # the queue is empty: each alert's speak_all drains it
            continue

        queue.submit(f"Obstacle ahead at {m.distance_cm:.1f} centimeters", alert_priority)
        ticks.append(k)
        framed.append(frame is not None)
        if frame is not None:
            texts = perception.extract_text(frame, ocr)
            now += ocr_latency_s
            for text in texts:
                queue.submit(f"Text detected: {text}", perception_priority)
            labels = perception.detect(frame, detector)
            now += detect_latency_s
            for label in labels:
                queue.submit(f"Detected {label}", perception_priority)

        before = now
        now = speak_all(queue, transcript, now, speech_cfg)
        speech_s.append(now - before)
        cycle_s.append(now - cycle_start)

    report = RunReport(
        tick_s, ocr_latency_s, detect_latency_s, exec_times, distance_lines,
        ticks, framed, speech_s, cycle_s, transcript.times, transcript.messages, queue.dropped,
    )
    return RunResult(report, transcript)


def run_report_to_csv(report: RunReport) -> str:
    lines = ["stage,count,mean_s,max_s"]
    stages = report.stages
    for name in STAGE_NAMES:
        s = stages[name]
        lines.append(f"{name},{s.count},{s.mean_s!r},{s.max_s!r}")
    e = report.end_to_end
    lines.append(f"end_to_end,{e.count},{e.mean_s!r},{e.max_s!r}")
    return "\n".join(lines) + "\n"


def run_report_to_json(report: RunReport) -> str:
    """Every property of ``RunReport``, folded in the order the class declares them."""
    names = (name for name, v in vars(RunReport).items() if isinstance(v, property))
    doc = {name: getattr(report, name) for name in names}
    return json.dumps(doc, default=asdict, indent=2, sort_keys=True) + "\n"
