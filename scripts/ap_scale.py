"""CPU time of single-label AP and mAP at scale, and of the exact AP sum alone.

Run from anywhere:

    python3 scripts/ap_scale.py [--images 8000] [--plateaus 24000]

The fixture is seeded and single-label: each image holds 3 truths and 4
predictions (three jittered copies of its truths and one random box), so
the default 8,000 images give 24,000 truths and 32,000 predictions. The
rank list holds one true positive per plateau: the precision falls at
every true positive. For ``average_precision`` at 0.5 and
``map50_and_range`` (one candidate table matched at all ten thresholds) on
the fixture, and for the exact AP of the rank list (its terms, their exact
sum and the one division), the script prints the minimum
``time.process_time`` of ``--repeats`` runs (default 5) and the values, so
two revisions can be compared on one host. With three truths per image,
the fixture's predictions contest their truths more than the detection
benchmark's do. It imports the package from the ``src/`` next to
it. Stdlib only; the test suite runs it only at a tiny size.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from percept_cane import detector_lab  # noqa: E402
from percept_cane.detector_lab import PredictionBox, TruthBox  # noqa: E402
from percept_cane.perception import BoundingBox  # noqa: E402

LABEL = "person"


def _box(rng: random.Random) -> BoundingBox:
    w, h = rng.uniform(0.05, 0.35), rng.uniform(0.05, 0.35)
    x0, y0 = rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, 1.0 - h)
    return BoundingBox(x0, y0, x0 + w, y0 + h)


def _jittered(rng: random.Random, box: BoundingBox) -> BoundingBox:
    w, h = box.x_max - box.x_min, box.y_max - box.y_min
    xs = sorted(min(1.0, max(0.0, v + rng.uniform(-0.15, 0.15) * w)) for v in (box.x_min, box.x_max))
    ys = sorted(min(1.0, max(0.0, v + rng.uniform(-0.15, 0.15) * h)) for v in (box.y_min, box.y_max))
    return BoundingBox(xs[0], ys[0], xs[1], ys[1])


def fixture(images: int, seed: int = 0) -> tuple[list[PredictionBox], list[TruthBox]]:
    rng = random.Random(f"ap_scale/{seed}")
    truths: list[TruthBox] = []
    preds: list[PredictionBox] = []
    for i in range(images):
        image = f"img{i:05d}"
        boxes = [_box(rng) for _ in range(3)]
        truths += [TruthBox(image, LABEL, b) for b in boxes]
        preds += [PredictionBox(image, LABEL, rng.random(), _jittered(rng, b)) for b in boxes]
        preds.append(PredictionBox(image, LABEL, rng.random(), _box(rng)))
    return preds, truths


def falling_precision_ranks(plateaus: int, seed: int = 0) -> list[int]:
    """Ascending true-positive ranks whose precision tp/rank falls at each
    true positive, so every true positive is a plateau of its own."""
    rng = random.Random(f"ap_scale/ranks/{seed}")
    ranks, rank = [], 0
    for tp in range(1, plateaus + 1):
        rank = (tp * rank // (tp - 1) if tp > 1 else 0) + 1 + rng.randrange(3)
        ranks.append(rank)
    return ranks


def exact_ap(tp_ranks: list[int], n_truth: int) -> float:
    """The AP of a rank list as the engine computes it: the exact sum of
    its plateau terms, then one division."""
    num, den = detector_lab._exact_sum(detector_lab._interpolated_ap(tp_ranks, n_truth))
    return num / den


def best_of(repeats: int, fn) -> tuple[float, object]:
    times, value = [], None
    for _ in range(repeats):
        t0 = time.process_time()
        value = fn()
        times.append(time.process_time() - t0)
    return min(times), value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--images", type=int, default=8000, help="images of 3 truths and 4 predictions")
    parser.add_argument("--plateaus", type=int, default=24000, help="plateaus of the rank list")
    parser.add_argument("--repeats", type=int, default=5, help="runs per timing; the minimum is printed")
    args = parser.parse_args(argv)
    if min(args.images, args.plateaus, args.repeats) < 1:
        parser.error("--images, --plateaus and --repeats must be positive")

    preds, truths = fixture(args.images)
    seconds, ap = best_of(args.repeats, lambda: detector_lab.average_precision(preds, truths, LABEL, 0.5))
    print(f"average_precision: {seconds:.3f} s ({len(preds)} predictions, {len(truths)} truths, AP {ap!r})")
    seconds, (map50, map5095) = best_of(args.repeats, lambda: detector_lab.map50_and_range(preds, truths))
    print(f"map50_and_range: {seconds:.3f} s (mAP50 {map50!r}, mAP50-95 {map5095!r})")

    ranks = falling_precision_ranks(args.plateaus)
    n_truth = args.plateaus + 1
    seconds, value = best_of(args.repeats, lambda: exact_ap(ranks, n_truth))
    print(f"exact AP sum: {seconds:.3f} s ({args.plateaus} plateaus, AP {value!r})")
    print(f"min of {args.repeats} process_time runs each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
