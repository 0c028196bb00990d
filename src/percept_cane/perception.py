"""Frame model, backend interfaces, and deterministic mock backends.

Frames are symbolic: ground-truth objects and texts instead of pixels, so
downstream metrics are exactly checkable. A frame keeps them as flat
columns of atomic values (labels, and four box coordinates per label), so
a loaded walk holds no object per box for the garbage collector to track.
Mock backends derive every random decision (confidence values, dropped
detections, character substitutions) from a sha256 hash of the seed and
the item's identity, never from shared RNG state, so outputs are
independent of call order and safe for concurrent read-only use. A mock
result's confidence and box are made when first read and then kept on the
result; the device loop speaks labels and texts only, so it never pays for
the hash or the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Collection, Protocol

from .checks import read_text
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

    Slotted, so a box carries no ``__dict__``: a replay loads tens of
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

    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass(frozen=True)
class Frame:
    """One captured scene as symbolic ground truth, in columns.

    ``object_boxes`` holds four coordinates per entry of ``object_labels``,
    ``x_min, y_min, x_max, y_max`` in turn, and ``text_regions`` the same
    per entry of ``texts``. Each box must satisfy ``0 <= x_min <= x_max <= 1``
    and the same for y, as a :class:`BoundingBox` must. Tuples of strs and
    floats are untracked by the garbage collector after its first pass over
    them, so a frame costs it no object per box; readers that want a box
    build one from its four coordinates.
    """

    frame_id: str
    object_labels: tuple[str, ...] = ()
    object_boxes: tuple[float, ...] = ()
    texts: tuple[str, ...] = ()
    text_regions: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _check_column(self.frame_id, "object", self.object_labels, self.object_boxes)
        _check_column(self.frame_id, "text", self.texts, self.text_regions)


def _check_column(frame_id: str, kind: str, names: tuple, coords: tuple) -> None:
    """Four coordinates per name, each four a box in range."""
    if len(coords) != 4 * len(names):
        n = f"{len(coords)} for {len(names)}"
        raise ValueError(f"frame {frame_id!r}: {kind} boxes need 4 coordinates per entry, got {n}")
    it = iter(coords)
    for x0, y0, x1, y1 in zip(it, it, it, it):
        # the chained comparisons are False for NaN and for either infinity
        if not (0.0 <= x0 <= x1 <= 1.0 and 0.0 <= y0 <= y1 <= 1.0):
            box = (x0, y0, x1, y1)
            raise ValueError(f"frame {frame_id!r}: {kind} box {box} is outside 0 <= min <= max <= 1")


def _unit(token: str) -> float:
    """Stable hash of a token to [0, 1]; the division rounds the top 1,024
    of its 2**64 values up to 1.0.

    sha256 rather than hash(): the builtin is salted per process, which
    would break cross-run determinism. Tokens join the seed and the item's
    identity with ':', e.g. ``f"{seed}:drop:{frame_id}:{i}:{label}"``.
    """
    digest = sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _cut(probability: float) -> bytes:
    """The 8-byte big-endian cut ``T`` of a draw below ``probability``.

    ``T`` is the least integer ``x`` with ``x / 2**64 >= probability``, found
    by bisection on that same float expression. The correctly rounded
    division is monotone in ``x``, so for any token
    ``sha256(token).digest() < T`` holds exactly when
    ``_unit(token) < probability``: the digest's first 8 bytes compare as
    the integer ``_unit`` divides, and when they equal ``T`` the longer
    digest compares greater. ``x = 2**64 - 1`` already gives 1.0, so ``T``
    fits in 8 bytes for every probability in [0, 1].
    """
    lo, hi = 0, 2**64 - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 >= probability:
            hi = mid
        else:
            lo = mid + 1
    return lo.to_bytes(8, "big")


def _check_confidence(confidence: float) -> None:
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence out of [0,1]: {confidence}")


class _MockResult:
    """A result whose ``confidence`` and box a mock backend makes on first read.

    :meth:`_seeded` builds the result with its other fields only, keeping
    the hash token, the frame's coordinate column and the entry's index.
    The first read of ``confidence`` or of the box field (named by the
    class's ``_box_field``) misses the instance, so ``__getattr__`` hashes
    the token and checks the range, or builds the :class:`BoundingBox` from
    the entry's four coordinates, and stores the value, after which reads,
    equality, hashing and repr see a plain field.
    """

    _box_field = ""

    @classmethod
    def _seeded(cls, token: str, coords: tuple[float, ...], index: int, **values: object):
        """The result with ``values`` for every field but ``confidence`` and the box."""
        result = object.__new__(cls)
        # item stores: one update() with keywords builds and merges a second
        # dict, a measurable cost over the ~17k results of a dense replay pass
        d = result.__dict__
        d.update(values)
        d["_token"] = token
        d["_coords"] = coords
        d["_index"] = index
        return result

    def __getattr__(self, name: str) -> object:
        token = self.__dict__.get("_token")
        if token is None or name not in ("confidence", self._box_field):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name == "confidence":
            # [0.5, 1.0) keeps mock detections above typical score cutoffs while
            # still giving distinct, reproducible rankings
            value = 0.5 + _unit(token) / 2.0
            _check_confidence(value)
        else:
            at = 4 * self._index
            value = BoundingBox(*self._coords[at : at + 4])
        object.__setattr__(self, name, value)
        return value


@dataclass(frozen=True)
class Detection(_MockResult):
    label: str
    confidence: float
    box: BoundingBox

    _box_field = "box"

    def __post_init__(self) -> None:
        _check_confidence(self.confidence)


@dataclass(frozen=True)
class OcrExtraction(_MockResult):
    text: str
    confidence: float
    region: BoundingBox

    _box_field = "region"

    def __post_init__(self) -> None:
        _check_confidence(self.confidence)


class DetectorBackend(Protocol):
    backend_id: str

    def detect(self, frame: Frame) -> list[Detection]: ...


class OcrBackend(Protocol):
    backend_id: str

    def extract(self, frame: Frame) -> list[OcrExtraction]: ...

    def transcribe(self, text: str, key: str) -> str: ...


@dataclass(frozen=True)
class MockDetector:
    """Returns ground truth back, with seeded confidences and misses."""

    backend_id = "mock"
    miss_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError("miss_prob must be in [0,1]")
        # a hash below the cut is a miss; not a field
        object.__setattr__(self, "_miss_cut", _cut(self.miss_prob))

    def detect(self, frame: Frame) -> list[Detection]:
        out: list[Detection] = []
        seed, frame_id, miss_prob, cut = self.seed, frame.frame_id, self.miss_prob, self._miss_cut
        boxes = frame.object_boxes
        for i, label in enumerate(frame.object_labels):
            if miss_prob > 0 and sha256(f"{seed}:drop:{frame_id}:{i}:{label}".encode()).digest() < cut:
                continue
            out.append(Detection._seeded(f"{seed}:conf:{frame_id}:{label}", boxes, i, label=label))
        return out


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

    def extract(self, frame: Frame) -> list[OcrExtraction]:
        out = []
        seed, frame_id, regions = self.seed, frame.frame_id, frame.text_regions
        for j, text in enumerate(frame.texts):
            out.append(
                OcrExtraction._seeded(
                    f"{seed}:conf:{frame_id}:text/{j}",
                    regions,
                    j,
                    text=self.transcribe(text, f"{frame_id}/{j}"),
                )
            )
        return out


def detect(frame: Frame, backend: DetectorBackend) -> list[Detection]:
    try:
        return backend.detect(frame)
    except BackendError:
        raise
    except Exception as exc:
        raise BackendError(getattr(backend, "backend_id", "?"), str(exc)) from exc


def extract_text(frame: Frame, backend: OcrBackend) -> list[OcrExtraction]:
    try:
        return backend.extract(frame)
    except BackendError:
        raise
    except Exception as exc:
        raise BackendError(getattr(backend, "backend_id", "?"), str(exc)) from exc


def load_class_vocabulary(path: str | Path | None = None) -> list[str]:
    """Load the detector vocabulary: exactly 80 unique non-empty labels."""
    if path is None:
        path = data_path(COCO_LABELS_FILE)
    labels: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        label = raw.strip()
        if not label:
            raise ValueError(f"{path}:{lineno}: empty label line")
        if label in seen:
            raise ValueError(f"{path}:{lineno}: duplicate label {label!r}")
        seen.add(label)
        labels.append(label)
    if len(labels) != COCO_CLASS_COUNT:
        raise ValueError(
            f"{path}: expected {COCO_CLASS_COUNT} labels, found {len(labels)}"
        )
    return labels


def validate_frame(frame: Frame, vocabulary: Collection[str]) -> None:
    """Check frame labels against the loaded vocabulary (pass a set when
    checking many frames)."""
    for label in frame.object_labels:
        if label not in vocabulary:
            raise ValueError(f"frame {frame.frame_id!r}: label {label!r} not in vocabulary")


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
