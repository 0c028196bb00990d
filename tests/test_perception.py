import hashlib
import math
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import loop_transcribe, sha256_unit
from percept_cane.perception import (
    EASYOCR_SUB_RATE,
    OCR_BACKENDS,
    TESSERACT_SUB_RATE,
    BackendError,
    BoundingBox,
    Detection,
    Frame,
    MockDetector,
    MockOcr,
    OcrExtraction,
    _cut,
    build_ocr,
    detect,
    extract_text,
    load_class_vocabulary,
    validate_frame,
)

BOX = BoundingBox(0.1, 0.1, 0.5, 0.5)


def frame_with(objects=(), texts=(), frame_id="f0") -> Frame:
    """A frame of ``(label, BoundingBox)`` objects and ``(text, BoundingBox)`` texts."""

    def columns(pairs):
        return tuple(name for name, _ in pairs), tuple(v for _, box in pairs for v in astuple(box))

    return Frame(frame_id, *columns(objects), *columns(texts))


@pytest.mark.parametrize(
    "objects, boxes, message",
    [
        (("chair",), (0.1, 0.1, 0.5), "object boxes need 4 coordinates per entry, got 3 for 1"),
        (("chair",), (0.5, 0.1, 0.2, 0.4), r"object box \(0.5, 0.1, 0.2, 0.4\) is outside"),
        (("chair", "dog"), (0.1, 0.1, 0.5, 0.5, 0.1, math.nan, 0.5, 0.5), r"object box \(0.1, nan, 0.5, 0.5\)"),
        (("chair",), (0.1, 0.1, 1.5, 0.5), r"object box \(0.1, 0.1, 1.5, 0.5\) is outside"),
    ],
    ids=["odd-count", "x-min-above-x-max", "nan", "above-one"],
)
def test_frame_rejects_bad_columns(objects, boxes, message):
    with pytest.raises(ValueError, match=f"^frame 'f0': {message}"):
        Frame("f0", objects, boxes)
    # the text columns are checked the same way
    with pytest.raises(ValueError, match=f"^frame 'f0': {message.replace('object', 'text')}"):
        Frame("f0", texts=objects, text_regions=boxes)


def test_bounding_box_invariants():
    with pytest.raises(ValueError):
        BoundingBox(0.5, 0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        BoundingBox(0.0, 0.0, 1.2, 1.0)
    with pytest.raises(ValueError):
        BoundingBox(-0.1, 0.0, 0.5, 1.0)
    assert BoundingBox(0.2, 0.2, 0.2, 0.8).area() == 0.0


@pytest.mark.parametrize(
    "box",
    [
        (0.0, 0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, 1.0),
        (0.2, 0.2, 0.2, 0.8),
        (-0.0, 0.0, 1.0, -0.0),
        (0.5, 0.5, 0.4, 0.6),
        (0.1, 0.6, 0.5, 0.5),
        (-5e-324, 0.0, 0.5, 0.5),
        (0.1, 0.1, 0.5, math.inf),
    ],
)
def test_frame_accepts_what_bounding_box_accepts(box):
    def accepted(build) -> bool:
        try:
            build()
        except ValueError:
            return False
        return True

    expected = accepted(lambda: BoundingBox(*box))
    assert accepted(lambda: Frame("f0", ("chair",), box)) is expected
    assert accepted(lambda: Frame("f0", texts=("EXIT",), text_regions=box)) is expected


def test_mock_results_carry_their_own_boxes():
    boxes = [BoundingBox(0.1, 0.2, 0.3, 0.4), BoundingBox(0.5, 0.6, 0.7, 0.8)]
    frame = frame_with(list(zip(("person", "dog"), boxes)), list(zip(("EXIT", "STOP"), reversed(boxes))))
    assert [d.box for d in MockDetector(seed=1).detect(frame)] == boxes
    assert [e.region for e in MockOcr(seed=1).extract(frame)] == boxes[::-1]


def test_detection_confidence_bounds():
    with pytest.raises(ValueError):
        Detection("person", 1.5, BOX)


def test_mock_detector_passthrough():
    dets = detect(frame_with([("person", BOX)]), MockDetector(miss_prob=0.0, seed=0))
    assert len(dets) == 1
    assert dets[0].label == "person"
    assert dets[0].box == BOX
    assert 0.5 <= dets[0].confidence < 1.0


def test_mock_detector_total_suppression():
    assert detect(frame_with([("person", BOX)]), MockDetector(miss_prob=1.0, seed=0)) == []


def test_mock_detector_miss_rate_binomial():
    det = MockDetector(miss_prob=0.5, seed=7)
    count = sum(
        len(det.detect(frame_with([("person", BOX)], frame_id=f"f{i}")))
        for i in range(1000)
    )
    assert 450 <= count <= 550


def test_mock_detector_no_hallucination():
    truth = [("person", BOX), ("dog", BoundingBox(0.6, 0.6, 0.9, 0.9))]
    dets = MockDetector(miss_prob=0.3, seed=11).detect(frame_with(truth, frame_id="x"))
    truth_set = set(truth)
    for d in dets:
        assert (d.label, d.box) in truth_set


def test_mock_determinism_and_call_order_independence():
    frames = [frame_with([("person", BOX)], frame_id=f"f{i}") for i in range(20)]
    det = MockDetector(miss_prob=0.4, seed=3)
    forward = [det.detect(f) for f in frames]
    backward = [det.detect(f) for f in reversed(frames)]
    assert forward == list(reversed(backward))
    again = MockDetector(miss_prob=0.4, seed=3)
    assert [again.detect(f) for f in frames] == forward


def test_mock_ocr_identity_at_zero_rate():
    ocr = MockOcr(substitution_rate=0.0, confusion_rules=(("t", "r"),), seed=0)
    out = extract_text(frame_with(texts=[("EXIT", BOX)]), ocr)
    assert [e.text for e in out] == ["EXIT"]
    assert out[0].region == BOX


def test_mock_ocr_full_rate_substitutions():
    li = MockOcr(substitution_rate=1.0, confusion_rules=(("l", "i"),), seed=0)
    assert li.transcribe("hello", key="k") == "heiio"
    tr = MockOcr(substitution_rate=1.0, confusion_rules=(("t", "r"),), seed=0)
    assert tr.transcribe("text", key="k") == "rexr"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"substitution_rate": 1.5}, r"substitution_rate must be in \[0,1\]"),
        ({"confusion_rules": (("rn", "m"),)}, r"confusion rule must map one char to one char: \('rn', 'm'\)"),
    ],
    ids=["rate-above-one", "two-char-rule"],
)
def test_mock_ocr_invariants(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MockOcr(**kwargs)


def test_mock_ocr_substitution_preserves_length():
    ocr = MockOcr(substitution_rate=0.5, confusion_rules=(("l", "i"), ("t", "r")), seed=5)
    for i in range(100):
        word = "telltale"
        assert len(ocr.transcribe(word, key=f"k{i}")) == len(word)


def test_mock_ocr_transcribe_matches_extract():
    ocr = MockOcr(substitution_rate=1.0, confusion_rules=(("x", "y"),), seed=9)
    frame = frame_with(texts=[("axbx", BOX)], frame_id="fr")
    assert [e.text for e in ocr.extract(frame)] == [ocr.transcribe("axbx", key="fr/0")]


# every OCR_BACKENDS table, plus rules with duplicate sources (the last wins)
RULE_SETS = [rules for rules, _ in OCR_BACKENDS.values()] + [
    (("t", "r"), ("t", "x"), ("l", "i")),
    (("a", "b"), ("b", "a"), ("a", "c")),
]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    rules=st.sampled_from(RULE_SETS),
    rate=st.sampled_from([0.0, 1.0, 0.5, TESSERACT_SUB_RATE, EASYOCR_SUB_RATE]),
    seed=st.integers(0, 5),
    text=st.text(alphabet="trlhfd._abx 1", max_size=30),
    key=st.text(alphabet="f0/:k", max_size=6),
)
def test_mock_ocr_matches_per_character_loop(rules, rate, seed, text, key):
    ocr = MockOcr("mock", rules, rate, seed)
    assert ocr.transcribe(text, key) == loop_transcribe(rules, rate, seed, text, key)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rate=st.floats(0.0, 1.0))
@example(rate=0.0)
@example(rate=5e-324)
@example(rate=TESSERACT_SUB_RATE)
@example(rate=EASYOCR_SUB_RATE)
@example(rate=0.5)
@example(rate=math.nextafter(1.0, 0.0))
@example(rate=1.0)
def test_cut_is_least_integer_at_rate(rate):
    cut = _cut(rate)
    t = int.from_bytes(cut, "big")
    assert len(cut) == 8
    # T is the least integer whose x / 2**64 is not below the rate
    assert (t - 1) / 2**64 < rate
    assert not t / 2**64 < rate
    # a 32-byte digest is below the cut exactly when its first 8 bytes, read
    # as _unit reads them, fall below the rate; equal first bytes do not
    for x in (t - 1, t, t + 1):
        if 0 <= x < 2**64:
            for tail in (bytes(24), b"\xff" * 24):
                digest = x.to_bytes(8, "big") + tail
                assert (digest < cut) is (int.from_bytes(digest[:8], "big") / 2**64 < rate)


@pytest.mark.parametrize("miss_prob", [0.0, TESSERACT_SUB_RATE, 0.3, 0.5, 1.0])
def test_mock_detector_misses_follow_sha256_formula(miss_prob):
    labels = ("person", "dog", "chair")
    frames = [frame_with([(label, BOX) for label in labels], frame_id=f"f{i}") for i in range(200)]
    det = MockDetector(miss_prob=miss_prob, seed=4)
    for frame in frames:
        kept = [
            label
            for i, label in enumerate(labels)
            if not sha256_unit(f"4:drop:{frame.frame_id}:{i}:{label}") < miss_prob
        ]
        assert [d.label for d in det.detect(frame)] == kept


def test_mock_confidences_follow_sha256_formula():
    def conf(token):
        digest = hashlib.sha256(token.encode()).digest()
        return 0.5 + int.from_bytes(digest[:8], "big") / 2**64 / 2.0

    frame = frame_with([("person", BOX), ("chair", BOX)], [("EXIT", BOX), ("STOP", BOX)], "door")
    dets = MockDetector(seed=4).detect(frame)
    assert [d.confidence for d in dets] == [conf("4:conf:door:person"), conf("4:conf:door:chair")]
    exs = MockOcr(seed=4).extract(frame)
    assert [e.confidence for e in exs] == [conf("4:conf:door:text/0"), conf("4:conf:door:text/1")]


def test_lazy_results_compare_and_print_like_eager_ones():
    frame = frame_with([("person", BOX)], [("EXIT", BOX)], "door")

    def fresh():  # mock results whose confidence nothing has read yet
        return MockDetector(seed=2).detect(frame)[0], MockOcr(seed=2).extract(frame)[0]

    det, ex = fresh()
    # the box is made on first read, from the frame's coordinate column
    assert "box" not in det.__dict__ and "region" not in ex.__dict__
    assert det.box is det.box and ex.region == BOX
    eager = (Detection("person", det.confidence, BOX), OcrExtraction("EXIT", ex.confidence, BOX))
    for same in (lambda a, b: a == b, lambda a, b: hash(a) == hash(b), lambda a, b: repr(a) == repr(b)):
        for lazy, want in zip(fresh(), eager):
            assert same(lazy, want)
    assert fresh()[0] != Detection("person", 0.5, BOX)
    with pytest.raises(AttributeError):
        fresh()[0].score


def test_backend_error_wrapping():
    class Exploding:
        backend_id = "boom"

        def detect(self, frame):
            raise RuntimeError("no camera")

        def extract(self, frame):
            raise RuntimeError("no lens")

    with pytest.raises(BackendError) as info:
        detect(frame_with(), Exploding())
    assert "boom" in str(info.value)
    with pytest.raises(BackendError):
        extract_text(frame_with(), Exploding())


@pytest.mark.parametrize("call", [detect, extract_text], ids=["detect", "extract_text"])
def test_backend_error_passes_through_unwrapped(call):
    err = BackendError("inner", "lens cap on")

    class Failing:
        backend_id = "outer"

        def detect(self, frame):
            raise err

        def extract(self, frame):
            raise err

    with pytest.raises(BackendError) as info:
        call(frame_with(), Failing())
    assert info.value is err
    assert str(info.value) == "backend 'inner' failed: lens cap on"


def test_load_class_vocabulary_bundled():
    labels = load_class_vocabulary()
    assert len(labels) == 80
    assert labels[0] == "person"
    assert len(set(labels)) == 80


def test_load_class_vocabulary_errors(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("\n".join(f"label{i}" for i in range(79)) + "\n")
    with pytest.raises(ValueError, match="79"):
        load_class_vocabulary(short)

    dupes = tmp_path / "dupes.txt"
    rows = [f"label{i}" for i in range(79)] + ["label5"]
    dupes.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="label5"):
        load_class_vocabulary(dupes)

    blank = tmp_path / "blank.txt"
    rows = [f"label{i}" for i in range(40)] + ["  "] + [f"label{i}" for i in range(40, 80)]
    blank.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"blank\.txt:41: empty label line$"):
        load_class_vocabulary(blank)


def test_validate_frame_vocabulary():
    vocab = load_class_vocabulary()
    validate_frame(frame_with([("chair", BOX)]), vocab)
    with pytest.raises(ValueError, match="door"):
        validate_frame(frame_with([("door", BOX)]), vocab)


def test_backend_registry():
    assert MockDetector().backend_id == "mock"
    assert build_ocr("mock-tesseract").backend_id == "mock-tesseract"
    assert build_ocr("mock-easyocr").backend_id == "mock-easyocr"
    with pytest.raises(ValueError):
        build_ocr("tesseract5")


def test_registry_rates_disjoint_from_truth():
    # the tesseract mock only touches 't'; digit strings pass unchanged
    ocr = build_ocr("mock-tesseract", seed=1)
    assert ocr.transcribe("12345.67", key="n") == "12345.67"
