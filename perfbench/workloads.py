"""Seeded workloads: input generators, loaders, timed operations and checks.

Each workload writes its inputs as files (scenario JSON, truths/preds CSV,
a word list), reads them back through the package's own loaders, and then
runs operations that call only the package's public functions. An
operation is what one CLI command computes, minus file I/O:

* replay: ``pipeline.run``, ``Transcript.render``, ``run_report_to_csv``
  (``percept-cane run --print-transcript``);
* detect-eval: ``map_at(..., 0.5)`` then ``map_range`` (``models-eval``);
* ocr-bench: ``build_ocr``, ``run_benchmark``, ``report_to_csv`` without the
  measured speed (``ocr-bench``).

Only byte-stable outputs enter the digest: transcripts and CSV run reports,
the ``map50``/``map5095`` lines, and OCR CSV reports with
``include_speed=False``. The JSON run report is left out on purpose; its
fields are expected to grow.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from percept_cane import detector_lab, ocr_lab, pipeline
from percept_cane.perception import build_ocr, load_class_vocabulary
from percept_cane.speech import Priority

# Share of COCO instances labelled "person"; the other 79 labels split the
# rest with Zipf weights, so one label yields a long ranked list and many
# labels exercise the per-label pass of map_at.
PERSON_SHARE = 0.30


@dataclass
class Outcome:
    """What one operation produced: digested text, work done, raw result."""

    texts: tuple[str, ...]
    items: int
    result: Any = None

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.texts:
            h.update(text.encode())
            h.update(b"\0")
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[Any], Outcome]  # takes the tracer


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so streams are stable across processes
    return random.Random(f"percept-cane-bench/{workload}/{seed}")


def _op_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def _label_weights(labels: list[str]) -> list[float]:
    zipf = [1.0 / (k + 1) for k in range(len(labels) - 1)]
    scale = (1.0 - PERSON_SHARE) / math.fsum(zipf)
    others = iter(w * scale for w in zipf)
    return [PERSON_SHARE if label == "person" else next(others) for label in labels]


def _box(rng: random.Random, lo: float = 0.05, hi: float = 0.35) -> list[float]:
    w = rng.uniform(lo, hi)
    h = rng.uniform(lo, hi)
    x0 = rng.uniform(0.0, 1.0 - w)
    y0 = rng.uniform(0.0, 1.0 - h)
    return [round(x0, 4), round(y0, 4), round(x0 + w, 4), round(y0 + h, 4)]


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode())


@dataclass(frozen=True)
class Replay:
    """Seeded walks replayed through the device loop, one walk per operation."""

    name: str
    size: int  # walks
    tick_s: float
    duration_s: float
    obstacle_share: float
    items_per_frame: tuple[int, int]
    item_kind = "ticks"

    def generate(self, seed: int, out_dir: Path, size: int | None = None) -> None:
        rng = _rng(self.name, seed)
        words = ocr_lab.load_wordlist()
        labels = load_class_vocabulary()
        weights = _label_weights(labels)
        for w in range(size or self.size):
            events = []
            t_cs = 0  # integer centiseconds keep event times strictly increasing
            while t_cs < self.duration_s * 100:
                obstacle = rng.random() < self.obstacle_share
                distance = rng.uniform(45.0, 95.0) if obstacle else rng.uniform(110.0, 320.0)
                texts, objects = [], []
                for _ in range(rng.randint(*self.items_per_frame)):
                    if rng.random() < 0.5:
                        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 2)))
                        texts.append({"text": text, "region": _box(rng)})
                    else:
                        objects.append({"label": rng.choices(labels, weights)[0], "box": _box(rng)})
                events.append(
                    {
                        "t": t_cs / 100,
                        "distance_cm": round(distance, 1),
                        "frame": {"frame_id": f"w{w:02d}-f{len(events):04d}", "texts": texts, "objects": objects},
                    }
                )
                t_cs += rng.randint(150, 250)
            scenario = {
                "name": f"{self.name}-{seed}-{w:02d}",
                "tick_s": self.tick_s,
                "duration_s": self.duration_s,
                "events": events,
            }
            _write(out_dir / f"walk{w:02d}.json", json.dumps(scenario, separators=(",", ":")))

    def load(self, in_dir: Path) -> list[pipeline.Scenario]:
        return [pipeline.load_scenario(p) for p in sorted(in_dir.glob("walk*.json"))]

    def events(self, loaded: list[pipeline.Scenario]) -> int:
        return sum(len(s.events) for s in loaded)

    def operations(self, loaded: list[pipeline.Scenario], seed: int, ocr=None) -> list[Operation]:
        cfg = pipeline.PipelineConfig()

        def replay(scenario: pipeline.Scenario, run_seed: int) -> Callable[[Any], Outcome]:
            ticks = int(math.ceil(scenario.duration_s / scenario.tick_s))

            def op(tracer) -> Outcome:
                with tracer.span("pipeline.run"):
                    result = pipeline.run(scenario, cfg, seed=run_seed, ocr=ocr)
                with tracer.span("speech.render"):
                    transcript = result.transcript.render()
                with tracer.span("pipeline.report"):
                    report = pipeline.run_report_to_csv(result.report)
                tracer.add("speech.spoken", len(result.transcript))
                return Outcome((transcript, report), ticks, result)

            return op

        return [Operation(s.name, replay(s, _op_seed(seed, i))) for i, s in enumerate(loaded)]

    def probes(self, loaded) -> list[tuple[str, Callable[[], object]]]:
        """Layer calls timed only in traced passes, outside the operations."""
        return []

    @staticmethod
    def check(outcome: Outcome) -> str | None:
        """Invariants that hold for any seed; None when the output is sound."""
        report = outcome.result.report
        entries = outcome.result.transcript.entries
        times = [e.spoken_at_s for e in entries]
        if any(b < a for a, b in zip(times, times[1:])):
            return "transcript times decrease"
        alerts = sum(e.priority is Priority.ALERT for e in entries)
        if alerts != report.alerts_fired or report.end_to_end.count != report.alerts_fired:
            return f"{alerts} ALERT lines, {report.alerts_fired} alerts, {report.end_to_end.count} cycles"
        # cycles drain one after another, so one ALERT per cycle and an ALERT
        # opening the transcript means every cycle speaks ALERT first
        if entries and entries[0].priority is not Priority.ALERT:
            return "first spoken line is not an ALERT"
        return None

    @staticmethod
    def device(outcomes: list[Outcome]) -> tuple[float, float]:
        """Virtual-clock (mean, max) alert-cycle time over all cycles."""
        cycles = [o.result.report.end_to_end for o in outcomes]
        count = sum(c.count for c in cycles)
        if count == 0:
            return 0.0, 0.0
        return math.fsum(c.mean_s * c.count for c in cycles) / count, max(c.max_s for c in cycles)


@dataclass(frozen=True)
class DetectEval:
    """COCO-shaped truths and predictions scored as ``models-eval`` does."""

    name: str
    size: int  # images
    item_kind = "predictions"

    def generate(self, seed: int, out_dir: Path, size: int | None = None) -> None:
        rng = _rng(self.name, seed)
        labels = load_class_vocabulary()
        weights = _label_weights(labels)
        truths = ["image_id,label,x_min,y_min,x_max,y_max"]
        preds = ["image_id,label,confidence,x_min,y_min,x_max,y_max"]

        def row(*fields) -> str:
            return ",".join(f if isinstance(f, str) else f"{f:.4f}" for f in fields)

        # exact counts, so every seed asks for the same amount of work
        per_image = [1 + i % 10 for i in range(size or self.size)]
        rng.shuffle(per_image)
        boxes = []
        for i, count in enumerate(per_image):
            for _ in range(count):
                label, box = rng.choices(labels, weights)[0], _box(rng)
                boxes.append((f"img{i:05d}", label, box))
                truths.append(row(f"img{i:05d}", label, *box))
        hits = sorted(rng.sample(range(len(boxes)), round(0.85 * len(boxes))))
        for image, label, box in (boxes[j] for j in hits):  # jittered detections
            w, h = box[2] - box[0], box[3] - box[1]
            jitter = [
                min(1.0, max(0.0, v + rng.uniform(-0.15, 0.15) * (w if k % 2 == 0 else h)))
                for k, v in enumerate(box)
            ]
            x0, x1 = sorted(jitter[0::2])
            y0, y1 = sorted(jitter[1::2])
            preds.append(row(image, label, rng.uniform(0.3, 1.0), x0, y0, x1, y1))
        for j in sorted(rng.sample(range(len(boxes)), round(0.30 * len(boxes)))):  # false positives
            preds.append(row(boxes[j][0], rng.choices(labels, weights)[0], rng.uniform(0.05, 0.8), *_box(rng)))
        _write(out_dir / "truths.csv", "\n".join(truths) + "\n")
        _write(out_dir / "preds.csv", "\n".join(preds) + "\n")

    def load(self, in_dir: Path):
        return (
            detector_lab.load_truths(in_dir / "truths.csv"),
            detector_lab.load_predictions(in_dir / "preds.csv"),
        )

    def events(self, loaded) -> int:
        return 0

    def operations(self, loaded, seed: int, ocr=None) -> list[Operation]:
        truths, preds = loaded

        def op(tracer) -> Outcome:
            with tracer.span("detector_lab.map50"):
                map50 = detector_lab.map_at(preds, truths, 0.5)
            with tracer.span("detector_lab.map5095"):
                map5095 = detector_lab.map_range(preds, truths)
            return Outcome((f"map50,{map50!r}\nmap5095,{map5095!r}\n",), 2 * len(preds), (map50, map5095))

        return [Operation("models-eval", op)]

    @staticmethod
    def check(outcome: Outcome) -> str | None:
        if not all(0.0 <= v <= 100.0 for v in outcome.result):
            return f"mAP outside [0, 100]: {outcome.result}"
        return None

    def probes(self, loaded) -> list[tuple[str, Callable[[], object]]]:
        # AP of the most frequent label: the longest ranked list
        truths, preds = loaded
        top = Counter(t.label for t in truths).most_common(1)[0][0]
        return [("detector_lab.ap_top_label", lambda: detector_lab.average_precision(preds, truths, top, 0.5))]


OCR_CASES = tuple(
    (kind, engine) for kind in ("alphabets", "numbers") for engine in ("mock-tesseract", "mock-easyocr")
)


@dataclass(frozen=True)
class OcrBench:
    """``run_benchmark`` for both sample kinds and both confusion mocks."""

    name: str
    size: int  # samples per (kind, engine)
    item_kind = "samples"

    def generate(self, seed: int, out_dir: Path, size: int | None = None) -> None:
        words = ocr_lab.load_wordlist()
        _rng(self.name, seed).shuffle(words)
        _write(out_dir / "words.txt", "\n".join(words) + "\n")
        _write(out_dir / "size.txt", f"{size or self.size}\n")

    def load(self, in_dir: Path):
        return ocr_lab.load_wordlist(in_dir / "words.txt"), int((in_dir / "size.txt").read_text())

    def events(self, loaded) -> int:
        return 0

    def operations(self, loaded, seed: int, ocr=None) -> list[Operation]:
        words, n = loaded

        def case(kind: str, engine: str, run_seed: int) -> Callable[[Any], Outcome]:
            def op(tracer) -> Outcome:
                backend = ocr or build_ocr(engine, seed=run_seed)
                with tracer.span("ocr_lab.run_benchmark"):
                    report = ocr_lab.run_benchmark(kind, n, backend, run_seed, words=words)
                text = ocr_lab.report_to_csv(report, include_speed=False)
                tracer.add("ocr_lab.mismatches", report.mismatches)
                tracer.add("ocr_lab.total", report.total)
                return Outcome((text,), n, report)

            return op

        return [
            Operation(f"{kind}/{engine}", case(kind, engine, _op_seed(seed, j)))
            for j, (kind, engine) in enumerate(OCR_CASES)
        ]

    def probes(self, loaded) -> list[tuple[str, Callable[[], object]]]:
        return []

    @staticmethod
    def check(outcome: Outcome) -> str | None:
        r = outcome.result
        if r.total != outcome.items or not 0 <= r.mismatches <= r.total:
            return f"mismatches {r.mismatches} of {r.total}, expected total {outcome.items}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Replay(
            name="replay-sparse",
            size=6,
            tick_s=0.1,
            duration_s=600.0,
            obstacle_share=0.03,
            items_per_frame=(1, 3),
        ),
        Replay(
            name="replay-dense",
            size=4,
            tick_s=0.5,
            duration_s=1200.0,
            obstacle_share=0.85,
            items_per_frame=(4, 12),
        ),
        DetectEval(name="detect-eval", size=400),
        OcrBench(name="ocr-bench", size=8000),
    )
}
