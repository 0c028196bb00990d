import json
import math

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
    Frame,
    MockDetector,
    MockOcr,
    _cut,
    build_ocr,
    detect,
    extract_text,
    load_class_vocabulary,
)
from percept_cane.pipeline import Scenario, load_scenario


def test_bounding_box_invariants():
    with pytest.raises(ValueError):
        BoundingBox(0.5, 0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        BoundingBox(0.0, 0.0, 1.2, 1.0)
    with pytest.raises(ValueError):
        BoundingBox(-0.1, 0.0, 0.5, 1.0)
    BoundingBox(0.2, 0.2, 0.2, 0.8)  # a zero-width box is accepted


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
def test_frame_accepts_what_bounding_box_accepts(box, tmp_path):
    # the loader keeps no box, but it accepts a text or object entry exactly
    # when BoundingBox accepts its box
    def accepted(build) -> bool:
        try:
            build()
        except ValueError:
            return False
        return True

    def load(frame: dict) -> Scenario:
        path = tmp_path / "box.json"
        event = {"t": 0.0, "distance_cm": 80.0, "frame": frame}
        path.write_text(json.dumps({"name": "box", "tick_s": 0.5, "duration_s": 5.0, "events": [event]}))
        return load_scenario(path)

    expected = accepted(lambda: BoundingBox(*box))
    assert accepted(lambda: load({"objects": [{"label": "chair", "box": list(box)}]})) is expected
    assert accepted(lambda: load({"texts": [{"text": "EXIT", "region": list(box)}]})) is expected


def test_mock_detector_passthrough():
    assert detect(Frame("f0", ("person", "dog")), MockDetector(miss_prob=0.0, seed=0)) == ["person", "dog"]


def test_mock_detector_total_suppression():
    assert detect(Frame("f0", ("person",)), MockDetector(miss_prob=1.0, seed=0)) == []


def test_mock_detector_miss_rate_binomial():
    det = MockDetector(miss_prob=0.5, seed=7)
    count = sum(len(det.detect(Frame(f"f{i}", ("person",)))) for i in range(1000))
    assert 450 <= count <= 550


def test_mock_detector_no_hallucination():
    truth = ("person", "dog", "chair", "person", "cat")
    det = MockDetector(miss_prob=0.3, seed=11)
    for i in range(50):
        labels = det.detect(Frame(f"x{i}", truth))
        # every label is the frame's, in the frame's order
        rest = iter(truth)
        assert all(label in rest for label in labels)


def test_mock_determinism_and_call_order_independence():
    frames = [Frame(f"f{i}", ("person",)) for i in range(20)]
    det = MockDetector(miss_prob=0.4, seed=3)
    forward = [det.detect(f) for f in frames]
    backward = [det.detect(f) for f in reversed(frames)]
    assert forward == list(reversed(backward))
    again = MockDetector(miss_prob=0.4, seed=3)
    assert [again.detect(f) for f in frames] == forward


def test_mock_ocr_identity_at_zero_rate():
    ocr = MockOcr(substitution_rate=0.0, confusion_rules=(("t", "r"),), seed=0)
    assert extract_text(Frame("f0", texts=("EXIT", "text")), ocr) == ["EXIT", "text"]


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
        # a transcribed text is spoken, so a line break or a tab would forge transcript lines
        ({"confusion_rules": (("E", "\n"),)}, r"confusion rule may not map to a tab or line break: \('E', '\\n'\)"),
        ({"confusion_rules": (("l", "i"), (" ", "\t"))}, r"confusion rule may not map to a tab or line break: \(' ', '\\t'\)"),
    ],
    ids=["rate-above-one", "two-char-rule", "rule-to-line-break", "rule-to-tab"],
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
    # at a fractional rate the draws depend on the key, so this pins the key
    # extract passes for the text at index j: "{frame_id}/{j}"
    rules, rate, seed = (("x", "y"),), 0.5, 9
    ocr = MockOcr("mock", rules, rate, seed)
    texts = ("axbx", "xxxx", "xaxbx", "bxxb", "xxax")
    for frame_id in ("fr", "door"):
        want = [loop_transcribe(rules, rate, seed, text, f"{frame_id}/{j}") for j, text in enumerate(texts)]
        assert ocr.extract(Frame(frame_id, texts=texts)) == want
        shifted = [loop_transcribe(rules, rate, seed, text, f"{frame_id}/{j + 1}") for j, text in enumerate(texts)]
        assert want != shifted


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
    # as sha256_unit reads them, fall below the rate; equal first bytes do not
    for x in (t - 1, t, t + 1):
        if 0 <= x < 2**64:
            for tail in (bytes(24), b"\xff" * 24):
                digest = x.to_bytes(8, "big") + tail
                assert (digest < cut) is (int.from_bytes(digest[:8], "big") / 2**64 < rate)


@pytest.mark.parametrize("miss_prob", [0.0, TESSERACT_SUB_RATE, 0.3, 0.5, 1.0])
def test_mock_detector_misses_follow_sha256_formula(miss_prob):
    labels = ("person", "dog", "chair")
    frames = [Frame(f"f{i}", labels) for i in range(200)]
    det = MockDetector(miss_prob=miss_prob, seed=4)
    for frame in frames:
        kept = [
            label
            for i, label in enumerate(labels)
            if not sha256_unit(f"4:drop:{frame.frame_id}:{i}:{label}") < miss_prob
        ]
        assert det.detect(frame) == kept


def test_backend_error_wrapping():
    class Exploding:
        backend_id = "boom"

        def detect(self, frame):
            raise RuntimeError("no camera")

        def extract(self, frame):
            raise RuntimeError("no lens")

    with pytest.raises(BackendError) as info:
        detect(Frame("f0"), Exploding())
    assert "boom" in str(info.value)
    with pytest.raises(BackendError):
        extract_text(Frame("f0"), Exploding())


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
        call(Frame("f0"), Failing())
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

    # a label is spoken as a transcript line, so it may not hold a tab
    tab = tmp_path / "tab.txt"
    rows = [f"label{i}" for i in range(40)] + ["traffic\tlight"] + [f"label{i}" for i in range(41, 80)]
    tab.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"tab\.txt:41: label must be one line without tabs$"):
        load_class_vocabulary(tab)


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
