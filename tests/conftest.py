import gc
import random

import pytest

from percept_cane.detector_lab import PredictionBox, TruthBox
from percept_cane.perception import BoundingBox

DETECTION_LABELS = ("person", "chair", "car", "dog")


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def collector_on():
    """The cyclic garbage collector enabled for the test, then as it was."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def collections_during(call):
    """``call()``'s result and how many collections started while it ran.

    The count is read before anything else is allocated: the first
    allocation after a paused call may start the collection it held back.
    """
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        result = call()
        during = len(starts)
    finally:
        gc.callbacks.remove(count)
    return result, during


def random_box(rng: random.Random, min_side: float = 0.1, max_side: float = 0.6) -> BoundingBox:
    """Box sized so a 512-grid estimate of any IoU stays within 0.01."""
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    x0 = rng.uniform(0.0, 1.0 - w)
    y0 = rng.uniform(0.0, 1.0 - h)
    return BoundingBox(x0, y0, x0 + w, y0 + h)


def scored_detections(images: int, seed: int = 0) -> tuple[list[PredictionBox], list[TruthBox]]:
    """Seeded (predictions, truths) over DETECTION_LABELS, taken in turn:
    1-4 truths per image, a prediction cut from 4 in 5 of them (IoU 0.49 to
    1) and one random box per image."""
    rng = random.Random(seed)
    preds: list[PredictionBox] = []
    truths: list[TruthBox] = []
    for i in range(images):
        image = f"img{i:04d}"
        for _ in range(rng.randint(1, 4)):
            label = DETECTION_LABELS[len(truths) % len(DETECTION_LABELS)]
            box = random_box(rng)
            truths.append(TruthBox(image, label, box))
            if rng.random() < 0.8:
                w, h = box.x_max - box.x_min, box.y_max - box.y_min
                cut = BoundingBox(box.x_min + rng.uniform(0, 0.3) * w, box.y_min + rng.uniform(0, 0.3) * h,
                                  box.x_max, box.y_max)
                preds.append(PredictionBox(image, label, rng.random(), cut))
        preds.append(PredictionBox(image, rng.choice(DETECTION_LABELS), rng.random(), random_box(rng)))
    return preds, truths
