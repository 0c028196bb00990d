import codecs
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
    COCO_LABELS_FILE,
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
from percept_cane.ocr_lab import SampleKind, run_benchmark
from percept_cane.pipeline import Scenario, load_scenario
from percept_cane.resources import DATA_ENV_VAR, data_path


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
    # extract_text passes for the text at index j: "{frame_id}/{j}"
    rules, rate, seed = (("x", "y"),), 0.5, 9
    ocr = MockOcr("mock", rules, rate, seed)
    texts = ("axbx", "xxxx", "xaxbx", "bxxb", "xxax")
    for frame_id in ("fr", "door"):
        want = [loop_transcribe(rules, rate, seed, text, f"{frame_id}/{j}") for j, text in enumerate(texts)]
        assert extract_text(Frame(frame_id, texts=texts), ocr) == want
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


class _CountingSeed(int):
    """An int seed that counts how often it is formatted into a string."""

    formats = 0

    def __format__(self, spec: str) -> str:
        self.formats += 1
        return super().__format__(spec)


def test_mock_backends_format_their_seed_once():
    # each backend formats its seed into the head of its draw tokens once,
    # not once per text or label; the tokens are those of the plain int
    rules, frames = (("x", "y"),), [Frame(f"f{i}", ("person", "dog", "chair")) for i in range(40)]
    texts = [(f"x{i}xx", f"k{i}") for i in range(40)]
    for make, draw in (
        (lambda seed: MockOcr("mock", rules, 0.5, seed), lambda b: [b.transcribe(*t) for t in texts]),
        (lambda seed: MockDetector(0.5, seed), lambda b: [b.detect(f) for f in frames]),
    ):
        seed = _CountingSeed(7)
        backend = make(seed)
        drawn = draw(backend) + draw(backend)
        assert seed.formats == 1
        assert drawn == draw(make(7)) * 2
        assert drawn != draw(make(8)) * 2


class FailsSecond:
    """Transcribes the first text as it is and raises ``error`` on the second."""

    backend_id = "outer"

    def __init__(self, error):
        self.error, self.keys = error, []

    def transcribe(self, text, key):
        self.keys.append(key)
        if len(self.keys) == 2:
            raise self.error
        return text


@pytest.mark.parametrize(
    "error, backend_id",
    [(BackendError("inner", "lens cap on"), "inner"), (RuntimeError("lens cap on"), "outer")],
    ids=["backend-error", "runtime-error"],
)
@pytest.mark.parametrize(
    "call, keys",
    [
        (lambda backend: extract_text(Frame("door", texts=("EXIT", "PULL", "PUSH")), backend), ["door/0", "door/1"]),
        (lambda backend: run_benchmark("numbers", 3, backend, seed=0), ["numbers-00000", "numbers-00001"]),
        (
            lambda backend: run_benchmark(SampleKind.NUMBERS, 3, backend, seed=0),
            ["numbers-00000", "numbers-00001"],
        ),
    ],
    ids=["extract_text", "run_benchmark", "run_benchmark-enum-kind"],
)
def test_backend_failure_names_its_key(call, keys, error, backend_id):
    # a BackendError raised inside the backend keeps its backend id; any
    # other error takes the backend's; both gain the key they failed on
    backend = FailsSecond(error)
    with pytest.raises(BackendError) as info:
        call(backend)
    assert backend.keys == keys
    assert str(info.value) == f"backend {backend_id!r} failed: {keys[1]}: lens cap on"
    assert info.value.__cause__ is error


def test_load_class_vocabulary_bundled(tmp_path, monkeypatch):
    labels = load_class_vocabulary()
    assert len(labels) == 80
    assert labels[0] == "person"
    assert len(set(labels)) == 80
    # a leading UTF-8 byte order mark is dropped, not read into the first label
    bundled = data_path(COCO_LABELS_FILE).read_bytes()
    (tmp_path / COCO_LABELS_FILE).write_bytes(codecs.BOM_UTF8 + bundled)
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
    assert load_class_vocabulary() == labels


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


def test_load_class_vocabulary_counts_lines_at_newlines(tmp_path):
    labels = [f"label{i}" for i in range(80)]
    # \u2028 is a line break to str.splitlines, but not the end of a line
    separator = tmp_path / "separator.txt"
    separator.write_bytes("\n".join(labels[:40] + ["traffic\u2028light"] + labels[41:]).encode() + b"\n")
    with pytest.raises(ValueError, match=r"separator\.txt:41: label must be one line without tabs$"):
        load_class_vocabulary(separator)
    # CRLF line ends, and a last line without its line end, read as the labels
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes("\r\n".join(labels).encode() + b"\r\n")
    assert load_class_vocabulary(crlf) == labels
    crlf.write_bytes("\r\n".join(labels).encode())
    assert load_class_vocabulary(crlf) == labels


def test_backend_registry():
    assert build_ocr("mock-tesseract").backend_id == "mock-tesseract"
    assert build_ocr("mock-easyocr").backend_id == "mock-easyocr"
    with pytest.raises(ValueError):
        build_ocr("tesseract5")


def test_registry_rates_disjoint_from_truth():
    # the tesseract mock only touches 't'; digit strings pass unchanged
    ocr = build_ocr("mock-tesseract", seed=1)
    assert ocr.transcribe("12345.67", key="n") == "12345.67"
