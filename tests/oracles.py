"""Independent reference implementations used to pin the library's results.

Everything here recomputes a library answer by a different method: grid
counting instead of closed-form geometry, assignment enumeration instead of
incremental greedy bookkeeping, a literal O(n^2) interpolation formula
instead of a running maximum over plateau terms, pairwise dominance scans
instead of whatever the frontier code does, a binary heap with a victim
scan instead of per-priority deques, a per-character hash loop instead of
a scan for confusable characters, the full edit-distance table for every
pair instead of a position-wise shortcut, public constructors for every loaded box
instead of the loader's checked fast path, and a device loop that applies
events one at a time, keeps its speech queue in a plain list and writes
every log line as it goes. Slow is fine; different is the point.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache

from percept_cane.alerts import AlertConfig, AlertState, on_measurement
from percept_cane.detector_lab import ModelSpec, PredictionBox, TruthBox, iou
from percept_cane.perception import BoundingBox, Frame, MockDetector, build_ocr
from percept_cane.sensor import SensorConfig, simulate_measurement
from percept_cane.speech import Priority, SpeechConfig, SpeechMessage


@cache
def _cell_centers(n: int) -> list[float]:
    """The sorted cell centers of an n-cell unit axis, built once per n
    (callers only read the list)."""
    return [(i + 0.5) / n for i in range(n)]


def grid_iou(a: BoundingBox, b: BoundingBox, n: int = 512) -> float:
    """IoU by counting n-by-n cell centers inside each region.

    Boxes and their intersection are axis-aligned, so the 2-D counts
    factor into products of 1-D center counts. A 1-D count is the number
    of the sorted centers ``(i + 0.5) / n`` in ``[lo, hi]``, edges included.
    """
    centers = _cell_centers(n)

    def count_1d(lo: float, hi: float) -> int:
        if hi <= lo:
            return 0
        return bisect_right(centers, hi) - bisect_left(centers, lo)

    area_a = count_1d(a.x_min, a.x_max) * count_1d(a.y_min, a.y_max)
    area_b = count_1d(b.x_min, b.x_max) * count_1d(b.y_min, b.y_max)
    inter = count_1d(max(a.x_min, b.x_min), min(a.x_max, b.x_max)) * count_1d(
        max(a.y_min, b.y_min), min(a.y_max, b.y_max)
    )
    union = area_a + area_b - inter
    if union == 0:
        return 0.0
    return inter / union


def _sorted_preds(preds: list[PredictionBox], label: str) -> list[PredictionBox]:
    indexed = [(i, p) for i, p in enumerate(preds) if p.label == label]
    indexed.sort(key=lambda ip: (-ip[1].confidence, ip[1].image_id, ip[0]))
    return [p for _, p in indexed]


def brute_force_ap(
    preds: list[PredictionBox],
    truths: list[TruthBox],
    label: str,
    iou_threshold: float,
) -> Fraction:
    """AP by enumerating injective assignments and filtering.

    Enumerates, depth first, every way of assigning each prediction (in
    confidence order) to a distinct truth or to nothing, keeps the
    assignments consistent with take-the-best-available-candidate
    processing, checks exactly one survives, and evaluates the interpolated
    AP formula literally on its true-positive flags. Consistency of a
    choice depends only on the choices before it, so a prefix that is
    already inconsistent is dropped with every assignment it starts.
    """
    label_truths = [t for t in truths if t.label == label]
    if not label_truths:
        raise ValueError(f"no truths of label {label!r}")
    order = _sorted_preds(preds, label)
    n_truth = len(label_truths)

    # geometry is assignment-independent, so compute it once up front
    overlap = [
        [
            iou(pred.box, t.box) if t.image_id == pred.image_id else None
            for t in label_truths
        ]
        for pred in order
    ]

    def consistent_choice(p_idx: int, choice: int, available: set[int]) -> bool:
        candidates = []
        for t_idx in sorted(available):
            v = overlap[p_idx][t_idx]
            if v is None:
                continue
            if v >= iou_threshold:
                candidates.append((v, t_idx))
        if not candidates:
            return choice == -1
        return choice == max(candidates, key=lambda c: (c[0], -c[1]))[1]

    consistent: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], available: set[int]) -> None:
        if len(prefix) == len(order):
            consistent.append(prefix)
            return
        for choice in range(-1, n_truth):  # -1 = unmatched
            if choice >= 0 and choice not in available:
                continue  # each truth is assigned at most once
            if consistent_choice(len(prefix), choice, available):
                extend(prefix + (choice,), available - {choice})

    extend((), set(range(n_truth)))
    assert len(consistent) == 1, f"expected a unique consistent assignment, got {len(consistent)}"
    tp_flags = [a >= 0 for a in consistent[0]]

    def precision_at(j: int) -> Fraction:
        return Fraction(sum(tp_flags[:j]), j)

    total = Fraction(0)
    for k, flag in enumerate(tp_flags, start=1):
        if flag:
            total += max(precision_at(j) for j in range(k, len(tp_flags) + 1))
    return total / n_truth


def literal_ap(tp_ranks: list[int], n_truth: int) -> Fraction:
    """All-point AP from the ascending 1-based ranks of the true positives,
    by the formula as written: each true positive's precision (tp / rank)
    is maxed over itself and every later true positive, and the maxima are
    summed over the truths. Quadratic, with no plateau bookkeeping; the
    precisions are scaled by the lcm of the ranks to exact integers so the
    maxima are taken without floats."""
    scale = math.lcm(*tp_ranks) if tp_ranks else 1
    precision = [tp * (scale // rank) for tp, rank in enumerate(tp_ranks, start=1)]
    return Fraction(sum(max(precision[i:]) for i in range(len(precision))), scale * n_truth)


def brute_force_frontier(models: list[ModelSpec], map_field: str) -> set[str]:
    """Frontier membership by literal pairwise dominance checks."""
    eligible = [m for m in models if getattr(m, map_field) is not None]
    front = set()
    for m in eligible:
        dominated = False
        for other in eligible:
            if other is m:
                continue
            om, mm = getattr(other, map_field), getattr(m, map_field)
            if other.gflops <= m.gflops and om >= mm and (other.gflops < m.gflops or om > mm):
                dominated = True
                break
        if not dominated:
            front.add(m.display_name)
    return front


class HeapSpeechQueue:
    """Bounded priority queue as one heap keyed by (priority, sequence).

    On overflow the largest key, the newest message of the lowest priority
    present (incoming included), is found by a full scan and dropped.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.dropped: list[SpeechMessage] = []
        self._heap: list[tuple[int, int, SpeechMessage]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def submit(self, text: str, priority: Priority) -> None:
        msg = SpeechMessage(text, Priority(priority))
        heapq.heappush(self._heap, (int(msg.priority), self._next_seq, msg))
        self._next_seq += 1
        if len(self._heap) <= self.capacity:
            return
        victim_key = max((p, s) for p, s, _ in self._heap)
        victim = next(m for p, s, m in self._heap if (p, s) == victim_key)
        self._heap = [item for item in self._heap if item[2] is not victim]
        heapq.heapify(self._heap)
        self.dropped.append(victim)

    def dequeue_next(self) -> SpeechMessage | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]


def sha256_unit(token: str) -> float:
    """The first 8 bytes of sha256(token), big-endian, scaled to [0, 1)."""
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big") / 2**64


def loop_transcribe(
    rules: tuple[tuple[str, str], ...], rate: float, seed: int, text: str, key: str
) -> str:
    """Mock OCR by visiting every character: a character with a rule (the
    last rule for it wins) is substituted when the hash of (seed, "sub",
    key, position, character) falls below ``rate``."""
    table = dict(rules)
    chars = list(text)
    for i, ch in enumerate(chars):
        if ch in table and sha256_unit(f"{seed}:sub:{key}:{i}:{ch}") < rate:
            chars[i] = table[ch]
    return "".join(chars)


def dp_align_confusions(truth: str, output: str) -> Counter[tuple[str, str]]:
    """Substitutions in a unit-cost edit-distance alignment, always from the
    full Wagner-Fischer table. The backtrace prefers the diagonal over
    deletion over insertion at equal cost."""
    n, m = len(truth), len(output)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if truth[i - 1] == output[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j - 1] + cost, dp[i - 1][j] + 1, dp[i][j - 1] + 1)
    confusions: Counter[tuple[str, str]] = Counter()
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = 0 if truth[i - 1] == output[j - 1] else 1
            if dp[i][j] == dp[i - 1][j - 1] + cost:
                if cost:
                    confusions[(truth[i - 1], output[j - 1])] += 1
                i -= 1
                j -= 1
                continue
        if i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            i -= 1
            continue
        j -= 1
    return confusions


def reference_scenario_parts(
    doc: dict,
) -> tuple[str, float, float, list[tuple[float, float, Frame | None]]]:
    """A scenario document's name, tick, duration and ``(t, distance, frame)``
    per event, every frame and box built by its constructor: each box as
    ``BoundingBox(*map(float, box))``, which is then dropped, as the frame
    keeps only the names. The document is assumed well typed; the
    constructors raise on a box out of range, texts before objects, as the
    loader reads them, and a name holding a tab or a line break raises
    before its box is built. A frame without an id is ``frame-NNN`` by its
    event's index."""

    def names(entries: list, name: str, box: str) -> tuple[str, ...]:
        for e in entries:
            if "\t" in e[name] or "".join(e[name].splitlines()) != e[name]:
                raise ValueError(f"{name} must be one line without tabs")
            BoundingBox(*map(float, e[box]))
        return tuple(e[name] for e in entries)

    events = []
    for i, event in enumerate(doc["events"]):
        raw = event.get("frame")
        frame = None
        if raw is not None:
            texts = names(raw.get("texts", []), "text", "region")
            labels = names(raw.get("objects", []), "label", "box")
            frame = Frame(raw.get("frame_id", f"frame-{i:03d}"), labels, texts)
        events.append((float(event["t"]), float(event["distance_cm"]), frame))
    return doc["name"], float(doc["tick_s"]), float(doc["duration_s"]), events


# the perception section's defaults, written out here rather than read from
# the pipeline's config class
REFERENCE_PERCEPTION = {
    "ocr": "mock-tesseract", "miss_prob": 0.0, "ocr_latency_s": 0.2, "detect_latency_s": 0.1
}


def _reference_stats(durations: list[float]) -> dict:
    if not durations:
        return {"count": 0, "mean_s": 0.0, "max_s": 0.0}
    return {"count": len(durations), "mean_s": math.fsum(durations) / len(durations), "max_s": max(durations)}


def _percentile(values: list[float], percent: int) -> float:
    """The least of ``values`` that at least ``percent`` % of them do not
    exceed, by counting, or 0.0 for no values."""
    return min((v for v in values if 100 * sum(x <= v for x in values) >= percent * len(values)), default=0.0)


def reference_run(doc: dict, config: dict, seed: int = 0) -> dict:
    """Replay a scenario document under a config document (sections as in a
    config file, each holding keyword arguments) the slow way, and return
    its rendered outputs: ``transcript`` and ``log`` text, the ``csv`` and
    ``json`` reports, and the ``submitted`` and ``dropped`` messages.

    Tick k runs at ``k * tick_s`` while that time is before the duration.
    Each tick applies every pending event at or before it, one at a time,
    ranges, writes its two log lines and feeds the alert engine. An alert
    submits its sentence, then, with a frame, each OCR output and each
    detected label; the queue is a plain list of ``(priority, text)`` in
    submission order, an overfull queue drops its newest message of the
    lowest priority, and a drain speaks the lowest priority first, oldest
    first. Each message lasts ``base_per_char_s * len(text) / default_rate``.
    """
    _, tick_s, duration_s, events = reference_scenario_parts(doc)
    sensor = SensorConfig(**config.get("sensor", {}))
    alert = AlertConfig(**config.get("alert", {}))
    speech = SpeechConfig(**config.get("speech", {}))
    perception = {**REFERENCE_PERCEPTION, **config.get("perception", {})}
    rng = random.Random(seed)
    detector = MockDetector(miss_prob=perception["miss_prob"], seed=seed)
    ocr = build_ocr(perception["ocr"], seed=seed)
    state = AlertState()

    pending = list(events)
    distance, frame = 2.0 * sensor.max_range_cm, None
    queue: list[tuple[Priority, str]] = []
    submitted: list[tuple[Priority, str]] = []
    dropped: list[tuple[Priority, str]] = []
    spoken: list[tuple[float, Priority, str]] = []
    log: list[str] = []
    exec_times: list[float] = []
    speech_times: list[float] = []
    cycle_times: list[float] = []
    alert_latencies: list[float] = []
    framed = 0

    def submit(priority: Priority, text: str) -> None:
        submitted.append((priority, text))
        queue.append((priority, text))
        if len(queue) > speech.capacity:
            victim = max(range(len(queue)), key=lambda i: (queue[i][0], i))
            dropped.append(queue.pop(victim))

    now = 0.0
    k = 0
    while (t := k * tick_s) < duration_s:
        while pending and pending[0][0] <= t:
            _, distance, frame = pending.pop(0)
        now = max(now, t)
        start = now
        jitter = rng.gauss(0.0, sensor.jitter_std_s) if sensor.jitter_std_s > 0 else 0.0
        m = simulate_measurement(distance, sensor, jitter, timestamp_s=t)
        now += m.exec_time_s
        exec_times.append(m.exec_time_s)
        log.append(f"Measure Distance = {m.distance_cm:.1f} cm")
        log.append(f"time taken to execute {m.exec_time_s}")
        k += 1
        if on_measurement(state, m, alert) is None:
            continue
        sentence = f"Obstacle ahead at {m.distance_cm:.1f} centimeters"
        log.append(f"obstacle alert at t={t:.3f} s: {sentence}")
        submit(Priority.ALERT, sentence)
        if frame is None:
            log.append(f"warning: no frame at t={t:.3f} s; ranging-only alert")
        else:
            framed += 1
            outputs = [ocr.transcribe(text, f"{frame.frame_id}/{j}") for j, text in enumerate(frame.texts)]
            now += perception["ocr_latency_s"]
            for text in outputs:
                submit(Priority.PERCEPTION, f"Text detected: {text}")
            labels = detector.detect(frame)
            now += perception["detect_latency_s"]
            for label in labels:
                submit(Priority.PERCEPTION, f"Detected {label}")
        drain_start = now
        while queue:
            first = min(range(len(queue)), key=lambda i: (queue[i][0], i))
            priority, text = queue.pop(first)
            if priority is Priority.ALERT:
                alert_latencies.append(now - t)
            spoken.append((now, priority, text))
            now += speech.base_per_char_s * len(text) / speech.default_rate
        speech_times.append(now - drain_start)
        cycle_times.append(now - start)

    stages = {
        "sensor": _reference_stats(exec_times),
        "alert": {"count": len(exec_times), "mean_s": 0.0, "max_s": 0.0},
        "ocr": _reference_stats([perception["ocr_latency_s"]] * framed),
        "detect": _reference_stats([perception["detect_latency_s"]] * framed),
        "speech": _reference_stats(speech_times),
    }
    end_to_end = _reference_stats(cycle_times)
    report = {
        "alerts_fired": len(cycle_times),
        "budget_pass": end_to_end["mean_s"] <= 5.0,
        "end_to_end": end_to_end,
        "stages": stages,
        "messages_submitted": len(submitted),
        "messages_dropped": {p.name: [d[0] for d in dropped].count(p) for p in Priority},
        "dropped_texts": [text for _, text in dropped],
        "alert_latency": _reference_stats(alert_latencies),
        "cycle_p50_s": _percentile(cycle_times, 50),
        "cycle_p95_s": _percentile(cycle_times, 95),
    }
    rows = [("stage", "count", "mean_s", "max_s")]
    rows += [(name, s["count"], repr(s["mean_s"]), repr(s["max_s"])) for name, s in stages.items()]
    rows.append(("end_to_end", end_to_end["count"], repr(end_to_end["mean_s"]), repr(end_to_end["max_s"])))
    return {
        "transcript": "".join(f"{t:.3f}\t{p.name}\t{text}\n" for t, p, text in spoken),
        "log": "".join(line + "\n" for line in log),
        "csv": "".join(",".join(map(str, row)) + "\n" for row in rows),
        "json": json.dumps(report, indent=2, sort_keys=True) + "\n",
        "submitted": submitted,
        "dropped": dropped,
    }
