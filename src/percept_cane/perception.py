"""Frame model, the OCR backend interface, and deterministic mock backends.

Frames are symbolic: ground-truth object labels and texts instead of
pixels, so downstream metrics are exactly checkable. A backend returns what
the device speaks: the one detector, :class:`MockDetector`, the labels it
found, an :class:`OcrBackend` the texts it read, each as a list of
strings. Mock backends derive every random decision (dropped detections,
character substitutions) from a sha256 hash of the seed and the item's
identity, never from shared RNG state, so outputs are independent of call
order and safe for concurrent read-only use.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Protocol

from .checks import LINE_BREAK_OR_TAB, read_text
from .resources import data_path

COCO_LABELS_FILE = "coco_labels.txt"
COCO_CLASS_COUNT = 80

# Character confusions observed per engine; applied by the matching mock.
TESSERACT_CONFUSIONS = (("t", "r"),)
EASYOCR_CONFUSIONS = (("l", "i"), ("h", "n"), ("f", "t"), ("d", "a"), (".", "_"))

# Substitution rates calibrated so the mocks land near the benchmark error
# rates in data/engine_profiles.csv: easyocr substitutes the one '.' in a
# number sample (1.9% of samples), tesseract substitutes 't' in word pairs
# (bundled wordlist averages 0.604 't's per two-word sample, so 0.0116 per
# occurrence gives ~0.70% of samples).
TESSERACT_SUB_RATE = 0.0116
EASYOCR_SUB_RATE = 0.019


class BackendError(RuntimeError):
    """A perception backend failed; carries the backend id and cause."""

    def __init__(self, backend_id: str, cause: str):
        super().__init__(f"backend {backend_id!r} failed: {cause}")
        self.backend_id = backend_id
        self.cause = cause


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box in normalized image coordinates.

    Slotted, so a box carries no ``__dict__``: a detection benchmark loads
    thousands of them.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.x_min <= self.x_max <= 1.0):
            raise ValueError(f"require 0 <= x_min <= x_max <= 1, got {self}")
        if not (0.0 <= self.y_min <= self.y_max <= 1.0):
            raise ValueError(f"require 0 <= y_min <= y_max <= 1, got {self}")


@dataclass(frozen=True)
class Frame:
    """One captured scene as symbolic ground truth: the labels of its objects
    and the texts in it, in order.

    A frame holds no boxes. The scenario loader checks each box and drops
    it, because nothing the device does with a frame reads one.
    """

    frame_id: str
    object_labels: tuple[str, ...] = ()
    texts: tuple[str, ...] = ()


def _cut(probability: float) -> bytes:
    """The 8-byte big-endian cut ``T`` of a draw below ``probability``.

    ``T`` is the least integer ``x`` with ``x / 2**64 >= probability``, found
    by bisection on that same float expression. The correctly rounded
    division is monotone in ``x``, so for any token
    ``sha256(token).digest() < T`` holds exactly when the digest's first 8
    bytes, read as a big-endian integer ``x``, give ``x / 2**64 <
    probability``; when they equal ``T`` the longer digest compares greater.
    ``x = 2**64 - 1`` already gives 1.0, so ``T`` fits in 8 bytes for every
    probability in [0, 1].

    sha256 rather than hash(): the builtin is salted per process, which
    would break cross-run determinism. Tokens join the seed and the item's
    identity with ':', e.g. ``f"{seed}:drop:{frame_id}:{i}:{label}"``.
    """
    lo, hi = 0, 2**64 - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 >= probability:
            hi = mid
        else:
            lo = mid + 1
    return lo.to_bytes(8, "big")


class OcrBackend(Protocol):
    backend_id: str

    def extract(self, frame: Frame) -> list[str]: ...

    def transcribe(self, text: str, key: str) -> str: ...


@dataclass(frozen=True)
class MockDetector:
    """Returns the frame's labels back, less seeded misses."""

    miss_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError("miss_prob must be in [0,1]")
        # a hash below the cut is a miss; not a field
        object.__setattr__(self, "_miss_cut", _cut(self.miss_prob))

    def detect(self, frame: Frame) -> list[str]:
        """The frame's labels in order, less each one whose draw on (seed,
        "drop", frame id, index, label) falls below the cut of ``miss_prob``."""
        if self.miss_prob == 0:
            return list(frame.object_labels)
        seed, frame_id, cut = self.seed, frame.frame_id, self._miss_cut
        return [
            label
            for i, label in enumerate(frame.object_labels)
            if not sha256(f"{seed}:drop:{frame_id}:{i}:{label}".encode()).digest() < cut
        ]


@dataclass(frozen=True)
class MockOcr:
    """Applies an engine's character-confusion table to ground-truth text.

    Each occurrence of a confusable character is substituted with
    probability ``substitution_rate``, so output length equals input length.
    """

    backend_id: str = "mock"
    confusion_rules: tuple[tuple[str, str], ...] = ()
    substitution_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.substitution_rate <= 1.0:
            raise ValueError("substitution_rate must be in [0,1]")
        for rule in self.confusion_rules:
            if len(rule) != 2 or len(rule[0]) != 1 or len(rule[1]) != 1:
                raise ValueError(f"confusion rule must map one char to one char: {rule!r}")
            if LINE_BREAK_OR_TAB.search(rule[1]):
                raise ValueError(f"confusion rule may not map to a tab or line break: {rule!r}")
        # (source, replacement) pairs, the last rule for a source winning,
        # and the cut of a substitution draw; not fields
        object.__setattr__(self, "_rules", tuple(dict(self.confusion_rules).items()))
        object.__setattr__(self, "_sub_cut", _cut(self.substitution_rate))

    def transcribe(self, text: str, key: str) -> str:
        """Visit only the positions of confusable characters; each draws on
        (seed, "sub", key, position, original character) and substitutes
        when the hash falls below the cut of ``substitution_rate``."""
        chars = head = None
        for ch, replacement in self._rules:
            if ch not in text:
                continue
            if head is None:
                head, cut = f"{self.seed}:sub:{key}:", self._sub_cut
            i = text.find(ch)
            while i >= 0:
                if sha256(f"{head}{i}:{ch}".encode()).digest() < cut:
                    if chars is None:
                        chars = list(text)
                    chars[i] = replacement
                i = text.find(ch, i + 1)
        return text if chars is None else "".join(chars)

    def extract(self, frame: Frame) -> list[str]:
        """Each of the frame's texts as transcribed under the key
        ``{frame_id}/{j}``, ``j`` its index in the frame."""
        frame_id = frame.frame_id
        return [self.transcribe(text, f"{frame_id}/{j}") for j, text in enumerate(frame.texts)]


def detect(frame: Frame, detector: MockDetector) -> list[str]:
    """``detector.detect(frame)``. It stays a module function only because
    the benchmark's tracer (``perfbench/tracing.py``) wraps
    ``perception.detect`` by name."""
    return detector.detect(frame)


def extract_text(frame: Frame, backend: OcrBackend) -> list[str]:
    try:
        return backend.extract(frame)
    except BackendError:
        raise
    except Exception as exc:
        raise BackendError(getattr(backend, "backend_id", "?"), str(exc)) from exc


def load_class_vocabulary(path: str | Path | None = None) -> list[str]:
    """Load the detector vocabulary: exactly 80 unique non-empty labels,
    each without a tab."""
    if path is None:
        path = data_path(COCO_LABELS_FILE)
    labels: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        label = raw.strip()
        if not label:
            raise ValueError(f"{path}:{lineno}: empty label line")
        if LINE_BREAK_OR_TAB.search(label):
            raise ValueError(f"{path}:{lineno}: label must be one line without tabs")
        if label in seen:
            raise ValueError(f"{path}:{lineno}: duplicate label {label!r}")
        seen.add(label)
        labels.append(label)
    if len(labels) != COCO_CLASS_COUNT:
        raise ValueError(
            f"{path}: expected {COCO_CLASS_COUNT} labels, found {len(labels)}"
        )
    return labels


# backend id -> (confusion rules, substitution rate) of its mock
OCR_BACKENDS = {
    "mock": ((), 0.0),
    "mock-tesseract": (TESSERACT_CONFUSIONS, TESSERACT_SUB_RATE),
    "mock-easyocr": (EASYOCR_CONFUSIONS, EASYOCR_SUB_RATE),
}


def build_ocr(backend_id: str, seed: int = 0) -> OcrBackend:
    if backend_id not in OCR_BACKENDS:
        raise ValueError(f"unknown ocr backend {backend_id!r}")
    return MockOcr(backend_id, *OCR_BACKENDS[backend_id], seed=seed)
