"""Metamorphic relations of the device loop: how a run must change when one
speech field changes, checked between two runs of one generated scenario,
with no oracle of either run.

* Capacity. Every alert's ``speak_all`` drains the queue, so an alert cycle
  keeps the first ``capacity`` of its messages in speaking order and drops
  the rest; which alerts fire, and what each submits, depends on tick
  times, the seed and the frames, never on the speech. Raising
  ``speech.capacity`` therefore never adds a drop, and at the largest
  frame's texts and labels plus one (the obstacle sentence) nothing drops.
* Speech rate. A message lasts ``base_per_char_s * len(text) /
  default_rate``, so doubling ``default_rate`` halves each duration
  exactly (a power-of-two scale). Every cycle's ``speech_s`` halves up to
  the rounding of the virtual clock it is read from, and the spoken texts
  and the drops stay the same.

And of the detection lab, checked on generated truth and prediction tables:

* Box halving. Halving every coordinate of every box scales each width,
  area and sum of areas by an exact power of two, so every IoU, and with
  it ``map50_and_range``, stays bit-equal.
* Label renaming and input order. With distinct confidences a prediction's
  rank does not depend on its position, and each label's AP is summed
  exactly, so a one-to-one renaming of the labels (which reorders them)
  and reversing both tables keep both mAP values bit-equal, as long as no
  prediction ties two truths for its best match.

And of the OCR lab, checked on generated (truth, output) pair lists:

* Concatenation. ``score`` counts each pair and tallies each mismatching
  pair's confusions on its own, so scoring two pair lists concatenated
  gives the sums of their ``total`` and ``mismatches`` and the ``Counter``
  sum of their confusion tallies.
"""

import math
from collections import Counter
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from percept_cane.alerts import AlertConfig
from percept_cane.detector_lab import PredictionBox, TruthBox, iou, map50_and_range
from percept_cane.ocr_lab import SampleKind, score
from percept_cane.perception import BoundingBox, Frame
from percept_cane.pipeline import PerceptionConfig, PipelineConfig, Scenario, ScenarioEvent, run
from percept_cane.speech import SpeechConfig

SETTINGS = settings(max_examples=30, derandomize=True, database=None, deadline=None)
TEXTS = ["EXIT", "left door", "hall 4.5", "d.f.h.l.t"]
LABELS = ["chair", "person", "bottle", "dog"]
# at most 120 alerts of 9 messages of 35 characters at 0.07 s / 0.6 keep
# the clock under 2^13 s, where a reading rounds by at most ~1e-12 s, and
# each cycle speaks its 30-odd-character obstacle sentence for at least
# 0.05 s * 30 / 3.4 > 0.4 s, so rounding stays far below this
REL_TOL = 1e-9


@st.composite
def scenarios(draw) -> Scenario:
    duration_s = draw(st.floats(2.0, 12.0))
    times = sorted(draw(st.lists(st.floats(0.0, duration_s), min_size=1, max_size=5, unique=True)))
    events = []
    for i, t in enumerate(times):
        frame = None
        if draw(st.booleans()):
            labels = draw(st.lists(st.sampled_from(LABELS), max_size=4))
            texts = draw(st.lists(st.sampled_from(TEXTS), max_size=4))
            frame = Frame(f"f{i}", tuple(labels), tuple(texts))
        events.append(ScenarioEvent(t, draw(st.sampled_from([45.0, 80.0, 150.0])), frame))
    return Scenario("walk", draw(st.sampled_from([0.1, 0.25, 0.5])), duration_s, tuple(events))


CONFIGS = st.builds(
    PipelineConfig,
    alert=st.builds(AlertConfig, min_interval_s=st.sampled_from([0.0, 0.5, 2.0])),
    perception=st.builds(
        PerceptionConfig,
        ocr=st.sampled_from(["mock", "mock-easyocr"]),
        miss_prob=st.sampled_from([0.0, 0.5]),
    ),
    speech=st.builds(
        SpeechConfig,
        base_per_char_s=st.sampled_from([0.05, 0.07]),
        default_rate=st.sampled_from([0.6, 1.0, 1.7]),
        capacity=st.integers(1, 4),
    ),
)


def with_speech(cfg: PipelineConfig, **changes) -> PipelineConfig:
    return replace(cfg, speech=replace(cfg.speech, **changes))


def drops(scenario: Scenario, cfg: PipelineConfig, seed: int) -> Counter:
    return Counter(run(scenario, cfg, seed).report.dropped)


@SETTINGS
@given(scenario=scenarios(), cfg=CONFIGS, more=st.integers(1, 4), seed=st.integers(0, 3))
def test_raising_capacity_never_adds_a_drop(scenario, cfg, more, seed):
    before = drops(scenario, cfg, seed)
    assert drops(scenario, with_speech(cfg, capacity=cfg.speech.capacity + more), seed) <= before
    largest = max((len(e.frame.texts) + len(e.frame.object_labels) for e in scenario.events if e.frame), default=0)
    assert not drops(scenario, with_speech(cfg, capacity=largest + 1), seed)


@SETTINGS
@given(scenario=scenarios(), cfg=CONFIGS, seed=st.integers(0, 3))
def test_doubling_the_speech_rate_halves_each_cycles_speech(scenario, cfg, seed):
    slow = run(scenario, cfg, seed)
    fast = run(scenario, with_speech(cfg, default_rate=2 * cfg.speech.default_rate), seed)
    assert fast.transcript.texts() == slow.transcript.texts()
    assert fast.report.dropped == slow.report.dropped
    assert len(fast.report.speech_s) == len(slow.report.speech_s)
    for f, s in zip(fast.report.speech_s, slow.report.speech_s):
        assert math.isclose(f, s / 2, rel_tol=REL_TOL)


# --- relations of the detection lab

LAB_SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)
GRID = 1000  # box corners lie on a grid of GRID steps per unit
IMAGES = ("img0", "img1")
LAB_LABELS = ("person", "chair", "dog")
# new names that sort in another order than the old ones
RENAMED = ("zebra", "apple", "moth")


def grid_box(x0: int, y0: int, x1: int, y1: int) -> BoundingBox:
    return BoundingBox(min(x0, x1) / GRID, min(y0, y1) / GRID, max(x0, x1) / GRID, max(y0, y1) / GRID)


@st.composite
def lab_tables(draw) -> tuple[list[TruthBox], list[PredictionBox]]:
    """Truths on a few images and labels; predictions that are each either a
    truth's box with every corner moved a few grid steps, or a box of its own
    (a false positive), with distinct confidences."""
    corners = st.tuples(*[st.integers(0, GRID)] * 4)
    cells = st.tuples(st.sampled_from(IMAGES), st.sampled_from(LAB_LABELS))
    truths = [
        TruthBox(image_id, label, grid_box(*c))
        for (image_id, label), c in draw(st.lists(st.tuples(cells, corners), min_size=1, max_size=8))
    ]
    specs = []
    for i in draw(st.lists(st.integers(0, len(truths) - 1), max_size=10)):
        t = truths[i]
        moves = draw(st.tuples(*[st.integers(-40, 40)] * 4))
        c = (round(v * GRID) + m for v, m in zip((t.box.x_min, t.box.y_min, t.box.x_max, t.box.y_max), moves))
        specs.append((t.image_id, t.label, grid_box(*(min(max(v, 0), GRID) for v in c))))
    for (image_id, label), c in draw(st.lists(st.tuples(cells, corners), max_size=4)):
        specs.append((image_id, label, grid_box(*c)))
    confidences = draw(st.lists(st.integers(1, 10**6), min_size=len(specs), max_size=len(specs), unique=True))
    preds = [PredictionBox(image_id, label, c / 10**6, box) for (image_id, label, box), c in zip(specs, confidences)]
    return truths, preds


def halved(box: BoundingBox) -> BoundingBox:
    return BoundingBox(box.x_min / 2, box.y_min / 2, box.x_max / 2, box.y_max / 2)


def bits(maps: tuple[float, float]) -> tuple[str, str]:
    return tuple(map(float.hex, maps))


@LAB_SETTINGS
@given(tables=lab_tables())
def test_halving_every_box_keeps_both_maps(tables):
    # a coordinate of at least 1/GRID halves exactly, so every width, area
    # and sum of areas scales by an exact power of two and each IoU stays
    truths, preds = tables
    small_truths = [TruthBox(t.image_id, t.label, halved(t.box)) for t in truths]
    small_preds = [PredictionBox(p.image_id, p.label, p.confidence, halved(p.box)) for p in preds]
    assert bits(map50_and_range(small_preds, small_truths)) == bits(map50_and_range(preds, truths))


def no_tied_matches(truths: list[TruthBox], preds: list[PredictionBox]) -> bool:
    """No prediction overlaps two truths of its image and label by one equal
    IoU of at least 0.5: greedy matching takes the first-listed truth of a
    tie, so reversing the truths may then match another one."""
    for p in preds:
        hits = [v for t in truths if (t.image_id, t.label) == (p.image_id, p.label) if (v := iou(p.box, t.box)) >= 0.5]
        if len(hits) != len(set(hits)):
            return False
    return True


@LAB_SETTINGS
@given(tables=lab_tables(), names=st.permutations(RENAMED))
def test_renaming_labels_and_reversing_the_tables_keeps_both_maps(tables, names):
    truths, preds = tables
    assume(no_tied_matches(truths, preds))
    rename = dict(zip(LAB_LABELS, names))
    new_truths = [TruthBox(t.image_id, rename[t.label], t.box) for t in reversed(truths)]
    new_preds = [PredictionBox(p.image_id, rename[p.label], p.confidence, p.box) for p in reversed(preds)]
    assert bits(map50_and_range(new_preds, new_truths)) == bits(map50_and_range(preds, truths))


# --- relation of the OCR lab

OCR_CHARS = "ab1. "  # few characters, so confusions repeat within and across lists


@st.composite
def ocr_pairs(draw) -> list[tuple[str, str]]:
    """(truth, output) pairs whose output is the truth itself or any other
    short text, so a list holds matches, substitutions and length changes."""
    truths = draw(st.lists(st.text(OCR_CHARS, max_size=8), min_size=1, max_size=6))
    return [(t, draw(st.one_of(st.just(t), st.text(OCR_CHARS, max_size=8)))) for t in truths]


@LAB_SETTINGS
@given(first=ocr_pairs(), second=ocr_pairs(), kind=st.sampled_from(SampleKind))
def test_scoring_two_pair_lists_concatenated_sums_their_reports(first, second, kind):
    a, b, both = score(first, kind), score(second, kind), score(first + second, kind)
    assert (both.total, both.mismatches) == (a.total + b.total, a.mismatches + b.mismatches)
    assert Counter(both.confusions) == Counter(a.confusions) + Counter(b.confusions)
