"""``pipeline.run`` against ``oracles.reference_run``, a naive device loop.

Generated scenarios put events exactly on ticks, between ticks and without
frames; generated configs draw speech queues of one to three messages (so
perception results are dropped), detector misses, re-arm margins, short
alert intervals and speaking rates other than one. Both loops must give
the same transcript, log, CSV report and JSON report, byte for byte.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import reference_run, reference_scenario_parts

from percept_cane import speech
from percept_cane.alerts import AlertConfig
from percept_cane.pipeline import (
    PerceptionConfig,
    PipelineConfig,
    Scenario,
    ScenarioEvent,
    run,
    run_report_to_csv,
    run_report_to_json,
)
from percept_cane.sensor import SensorConfig
from percept_cane.speech import Priority, SpeechConfig

TICKS = [0.1, 0.25, 0.3, 0.5, 1.0]
# words with characters that the mock OCR engines confuse
TEXTS = ["EXIT", "left door", "hall 4.5", "fire", "d.f.h.l.t"]
LABELS = ["chair", "person", "bottle", "dog"]


@st.composite
def scenario_docs(draw) -> dict:
    tick_s = draw(st.sampled_from(TICKS))
    duration_s = draw(st.floats(1.0, 12.0))
    # an event on a tick is at k * tick_s, the same float the loop computes;
    # one between ticks is a third of a tick later
    last = int(duration_s / tick_s)
    slots = draw(st.lists(st.tuples(st.integers(0, last), st.booleans()), max_size=6, unique_by=lambda s: s))
    times = sorted({k * tick_s + (tick_s / 3 if between else 0.0) for k, between in slots})
    events = []
    for t in times:
        event = {"t": t, "distance_cm": draw(st.sampled_from([45.0, 80.0, 99.96, 100.0, 150.0, 250.0]))}
        if draw(st.integers(0, 3)):
            texts = draw(st.lists(st.sampled_from(TEXTS), min_size=1, max_size=3))
            labels = draw(st.lists(st.sampled_from(LABELS), max_size=3))
            event["frame"] = {
                "frame_id": f"f{len(events)}",
                "texts": [{"text": text, "region": [0.1, 0.1, 0.5, 0.5]} for text in texts],
                "objects": [{"label": label, "box": [0.2, 0.2, 0.6, 0.9]} for label in labels],
            }
        events.append(event)
    return {"name": "walk", "tick_s": tick_s, "duration_s": duration_s, "events": events}


# every section is drawn, each field from a few values that include its default
CONFIGS = st.fixed_dictionaries(
    {
        "sensor": st.fixed_dictionaries({"jitter_std_s": st.sampled_from([0.0, 0.0015, 0.2])}),
        "alert": st.fixed_dictionaries(
            {
                "min_interval_s": st.sampled_from([0.0, 0.5, 2.0]),
                "rearm_margin_cm": st.sampled_from([0.0, 10.0]),
            }
        ),
        "perception": st.fixed_dictionaries(
            {
                "ocr": st.sampled_from(["mock", "mock-tesseract", "mock-easyocr"]),
                "miss_prob": st.sampled_from([0.0, 0.3, 0.7]),
                "ocr_latency_s": st.sampled_from([0.0, 0.2, 1.3]),
            }
        ),
        "speech": st.fixed_dictionaries(
            {
                "capacity": st.sampled_from([1, 2, 3, 64]),
                "default_rate": st.sampled_from([1.0, 1.7, 0.6]),
                "base_per_char_s": st.sampled_from([0.05, 0.07]),
            }
        ),
    }
)


def build(doc: dict, config: dict) -> tuple[Scenario, PipelineConfig]:
    name, tick_s, duration_s, events = reference_scenario_parts(doc)
    cfg = PipelineConfig(
        sensor=SensorConfig(**config.get("sensor", {})),
        alert=AlertConfig(**config.get("alert", {})),
        perception=PerceptionConfig(**config.get("perception", {})),
        speech=SpeechConfig(**config.get("speech", {})),
    )
    return Scenario(name, tick_s, duration_s, tuple(ScenarioEvent(*e) for e in events)), cfg


def rendered(result) -> dict:
    return {
        "transcript": result.transcript.render(),
        "log": result.report.render_log(),
        "csv": run_report_to_csv(result.report),
        "json": run_report_to_json(result.report),
    }


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=scenario_docs(), config=CONFIGS, seed=st.integers(0, 3))
def test_run_matches_reference_run(doc, config, seed):
    scenario, cfg = build(doc, config)
    queues = []
    submits = []
    submit = speech.SpeechQueue.submit

    def spied(queue, text, priority):
        queues.append(queue)
        submits.append((priority, text))
        submit(queue, text, priority)

    # the spy sees each message the run submits, and the run's one queue
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(speech.SpeechQueue, "submit", spied)
        result = run(scenario, cfg, seed=seed)
    expected = reference_run(doc, config, seed)

    outputs = rendered(result)
    assert outputs == {key: expected[key] for key in outputs}
    assert rendered(run(scenario, cfg, seed=seed)) == outputs  # deterministic

    # every submitted message is spoken or dropped
    dropped = queues[0].dropped if queues else []
    assert len({id(q) for q in queues}) <= 1
    assert submits == expected["submitted"]
    assert len(result.transcript) + len(dropped) == len(submits) == result.report.messages_submitted
    assert sum(result.report.messages_dropped.values()) == len(dropped)
    assert [(m.priority, m.text) for m in dropped] == expected["dropped"]

    times = result.transcript.times
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert all(math.isfinite(t) for t in times)
    # an ALERT opens every cycle: one per alert, and cycles drain in turn
    priorities = [m.priority for m in result.transcript.messages]
    assert priorities.count(Priority.ALERT) == result.report.alerts_fired
    assert not priorities or priorities[0] is Priority.ALERT
