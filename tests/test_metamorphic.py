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
"""

import math
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from percept_cane.alerts import AlertConfig
from percept_cane.perception import Frame
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
