import gc
import json
import math
import random
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import reference_scenario_parts

from percept_cane.alerts import AlertConfig, AlertState, on_measurement
from percept_cane import pipeline
from percept_cane.perception import BoundingBox, Frame, load_class_vocabulary
from percept_cane.pipeline import (
    CYCLE_BUDGET_S,
    MAX_TICKS,
    PerceptionConfig,
    PipelineConfig,
    Scenario,
    ScenarioEvent,
    StageStats,
    demo_scenario_path,
    format_distance_line,
    load_config,
    load_scenario,
    run,
    run_report_to_csv,
    run_report_to_json,
)
from percept_cane.resources import DATA_ENV_VAR
from percept_cane.sensor import SensorConfig, simulate_measurement
from percept_cane.speech import SpeechConfig


def quiet_scenario() -> Scenario:
    return Scenario(
        name="open-field",
        tick_s=0.5,
        duration_s=10.0,
        events=(ScenarioEvent(0.0, 250.0),),
    )


def test_load_bundled_scenario():
    scenario = load_scenario(demo_scenario_path())
    assert scenario.name == "corridor-walk"
    assert scenario.tick_s == 0.5
    assert scenario.duration_s == 60.0
    assert len(scenario.events) == 3
    frame = scenario.events[1].frame
    assert frame is not None
    assert frame.texts[0] == "EXIT"
    assert frame.object_labels[0] == "chair"


def test_scenario_label_vocabulary_enforced(tmp_path):
    doc = {
        "name": "bad",
        "tick_s": 0.5,
        "duration_s": 5.0,
        "events": [
            {
                "t": 0.0,
                "distance_cm": 80.0,
                "frame": {"objects": [{"label": "door", "box": [0.1, 0.1, 0.4, 0.4]}]},
            }
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="door"):
        load_scenario(path)


def test_scenario_rejects_unknown_keys(tmp_path):
    doc = {"name": "x", "tick_s": 1.0, "duration_s": 5.0, "events": [], "speed": 3}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="speed"):
        load_scenario(path)


def test_scenario_reads_integer_box_as_floats(tmp_path):
    # an int box loads the same frame as its float twin
    frames = []
    for box in ([0, 0, 1, 1], [0.0, 0.0, 1.0, 1.0]):
        entries = {"objects": [{"label": "chair", "box": box}], "texts": [{"text": "EXIT", "region": box}]}
        doc = {
            "name": "ints",
            "tick_s": 0.5,
            "duration_s": 5.0,
            "events": [{"t": 0.0, "distance_cm": 80.0, "frame": {"frame_id": "f", **entries}}],
        }
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        frames.append(load_scenario(path).events[0].frame)
    assert frames[0] == frames[1] == Frame("f", ("chair",), ("EXIT",))


# --- load_scenario's one-test fast path against the public constructors

# Hypothesis's floats(0.0, 1.0) never draws -0.0
_COORD = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0])


# how a box is written, plain most often; a swap or an out-of-range value
# makes it invalid unless the swap swaps equal coordinates
_SHAPES = ["plain"] * 8 + ["degenerate", "ints", "ints", "swap-x", "swap-y", "out-x0", "out-y0", "out-y1"]
_OUT = {"out-x0": (0, -0.5), "out-y0": (1, -5e-324), "out-y1": (3, 2)}


@st.composite
def _boxes(draw) -> list:
    a, b, c, d, shape = draw(st.tuples(_COORD, _COORD, _COORD, _COORD, st.sampled_from(_SHAPES)))
    (x0, x1), (y0, y1) = sorted((a, b)), sorted((c, d))
    box = [x0, y0, x1, y1]
    if shape == "degenerate":
        box[2] = x0
    elif shape == "ints":  # whole coordinates written as ints
        box = [int(v) if v in (0.0, 1.0) else v for v in box]
    elif shape == "swap-x":
        box = [x1, y0, x0, y1]
    elif shape == "swap-y":
        box = [x0, y1, x1, y0]
    elif shape in _OUT:
        i, value = _OUT[shape]
        box[i] = value
    return box


# plain texts; texts that are not printable but are one line without tabs;
# and texts a transcript line could not hold
_TEXTS = ["EXIT", "", "A 1", "caf\u00e9\u00a0bar", "\x00", "EXIT\n", "a\tb", "a\r\nb", "x\u2028y"]
_FRAMES = st.fixed_dictionaries(
    {},
    optional={
        "frame_id": st.sampled_from(["", "f-0", "frame-000"]),
        "texts": st.lists(
            st.fixed_dictionaries({"text": st.sampled_from(_TEXTS), "region": _boxes()}),
            max_size=4,
        ),
        "objects": st.lists(
            st.fixed_dictionaries({"label": st.sampled_from(["chair", "person", "dog"]), "box": _boxes()}),
            max_size=4,
        ),
    },
)


@st.composite
def _scenario_docs(draw) -> dict:
    times = draw(st.lists(st.integers(0, 50) | st.floats(0.0, 50.0), unique_by=float, max_size=5))
    events = []
    for t in sorted(times, key=float):
        event = {"t": t, "distance_cm": draw(st.sampled_from([0, 80, 0.0, -0.0]) | st.floats(0.0, 400.0))}
        # a frameless event has no frame key or a null one
        frame = draw(st.sampled_from(["frame", "frame", "frame", "null", "absent"]))
        if frame != "absent":
            event["frame"] = draw(_FRAMES) if frame == "frame" else None
        events.append(event)
    return {"name": "walk", "tick_s": draw(st.sampled_from([0.5, 1])), "duration_s": 60.0, "events": events}


def _outcome(load) -> tuple[object, str | None]:
    """What ``load()`` returns, or its ValueError's message."""
    try:
        return load(), None
    except ValueError as exc:
        return None, str(exc)


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_scenario_docs())
def test_load_scenario_matches_public_constructors(doc, tmp_path):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(doc))

    def reference() -> Scenario:
        name, tick_s, duration_s, events = reference_scenario_parts(doc)
        return Scenario(name, tick_s, duration_s, tuple(ScenarioEvent(*e) for e in events))

    checked = []
    post_init = BoundingBox.__post_init__

    def counted(box):
        checked.append(box)
        post_init(box)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BoundingBox, "__post_init__", counted)
        loaded, error = _outcome(lambda: load_scenario(path))
    expected, expected_error = _outcome(reference)
    if expected_error is not None:
        # an out-of-range box gets the constructor's message, located
        assert error is not None and error.endswith(f": {expected_error}")
        return
    assert error is None and loaded == expected
    # only an entry with a box written with an int coordinate, or with a
    # name that is not printable, goes through the constructor
    written = [
        (entry.get("text", entry.get("label")), entry.get("region", entry.get("box")))
        for event in doc["events"]
        if event.get("frame")
        for entry in event["frame"].get("texts", []) + event["frame"].get("objects", [])
    ]
    assert len(checked) == sum(
        any(type(c) is int for c in box) or not name.isprintable() for name, box in written
    )


def test_load_scenario_allocates_like_public_constructors(tmp_path):
    rng = random.Random(14)
    events = []
    for i in range(200):
        objects = []
        for _ in range(10):
            x0, x1 = sorted((rng.random(), rng.random()))
            y0, y1 = sorted((rng.random(), rng.random()))
            objects.append({"label": "person", "box": [x0, y0, x1, y1]})
        events.append({"t": float(i), "distance_cm": 80.0, "frame": {"frame_id": f"f{i}", "texts": [], "objects": objects}})
    path = tmp_path / "guard.json"
    path.write_text(json.dumps({"name": "guard", "tick_s": 0.5, "duration_s": 200.0, "events": events}))

    def reference() -> Scenario:
        name, tick_s, duration_s, parts = reference_scenario_parts(json.loads(path.read_bytes()))
        return Scenario(name, tick_s, duration_s, tuple(ScenarioEvent(*e) for e in parts))

    def retained(load) -> tuple[Scenario, int]:
        load()  # the first call fills any cache
        gc.collect()
        tracemalloc.start()
        try:
            scenario = load()
            gc.collect()  # a full collection also empties the free lists
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return scenario, size

    expected, expected_size = retained(reference)
    loaded, loaded_size = retained(lambda: load_scenario(path))
    assert loaded == expected and sum(len(e.frame.object_labels) for e in loaded.events) == 2_000
    # labels kept as an over-allocated list, or a box or coordinates kept
    # per entry, would retain more than the oracle's exact tuples
    assert loaded_size <= 1.05 * expected_size


def _tracked_reachable(root: object) -> int:
    """How many GC-tracked objects ``root`` reaches, not walking into classes."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        obj = stack.pop()
        count += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                stack.append(ref)
    return count


def test_loaded_frames_keep_no_tracked_object_per_box(tmp_path):
    counts = []
    for n in (1, 50):
        entries = [{"label": "person", "box": [0.1, 0.2, 0.3, 0.4]} for _ in range(n)]
        texts = [{"text": f"EXIT {i}", "region": [0.1, 0.2, 0.3, 0.4]} for i in range(n)]
        events = [
            {"t": float(i), "distance_cm": 80.0, "frame": {"frame_id": f"f{i}", "texts": texts, "objects": entries}}
            for i in range(20)
        ]
        path = tmp_path / f"boxes{n}.json"
        path.write_text(json.dumps({"name": "boxes", "tick_s": 0.5, "duration_s": 20.0, "events": events}))
        scenario = load_scenario(path)
        gc.collect()  # a collection untracks each tuple that holds only strs and floats
        counts.append(_tracked_reachable(scenario))
    assert counts[0] == counts[1]


def _dense_walk(path: Path, n_events: int = 2_000) -> Path:
    """A walk of ``n_events`` framed events, 4 texts and 4 objects a frame."""
    box = [0.1, 0.2, 0.3, 0.4]
    texts = [{"text": f"EXIT {j}", "region": box} for j in range(4)]
    objects = [{"label": "chair", "box": box} for _ in range(4)]
    events = [
        {"t": float(i), "distance_cm": 80.0, "frame": {"frame_id": f"f{i}", "texts": texts, "objects": objects}}
        for i in range(n_events)
    ]
    path.write_text(json.dumps({"name": "dense", "tick_s": 0.5, "duration_s": float(n_events), "events": events}))
    return path


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def test_load_scenario_runs_no_collection(tmp_path, collector_on):
    path = _dense_walk(tmp_path / "dense.json")
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        scenario = load_scenario(path)
        # read before anything is allocated: the first allocation after the
        # load may start the collection the load held back
        during = len(starts)
    finally:
        gc.callbacks.remove(count)
    assert len(scenario.events) == 2_000
    assert sum(len(e.frame.texts) + len(e.frame.object_labels) for e in scenario.events) == 16_000
    # with the collector on, the ~40,000 decoded containers set off dozens
    # of collections on Python 3.10 and 3.11, and a handful on 3.12+
    assert during == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("malformed", [False, True], ids=["valid", "malformed"])
def test_load_scenario_leaves_the_collector_as_it_found_it(enabled, malformed, tmp_path, collector_on):
    path = _dense_walk(tmp_path / "walk.json", n_events=3)
    if malformed:
        path.write_text(path.read_text().replace('"chair"', '"door"'))
    if not enabled:
        gc.disable()
    if malformed:
        with pytest.raises(ValueError, match="door"):
            load_scenario(path)
    else:
        load_scenario(path)
    assert gc.isenabled() is enabled


def test_scenario_invariants():
    with pytest.raises(ValueError):
        Scenario("x", tick_s=0.0, duration_s=5.0, events=())
    with pytest.raises(ValueError):
        Scenario("x", tick_s=0.5, duration_s=0.0, events=())
    with pytest.raises(ValueError):
        Scenario(
            "x",
            tick_s=0.5,
            duration_s=5.0,
            events=(ScenarioEvent(2.0, 100.0), ScenarioEvent(1.0, 100.0)),
        )
    # the tick bound is checked at construction; no such scenario is run
    Scenario("x", tick_s=0.5, duration_s=0.5 * MAX_TICKS, events=())
    with pytest.raises(ValueError, match="exceeds"):
        Scenario("x", tick_s=0.5, duration_s=0.5 * MAX_TICKS + 0.25, events=())


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "tick_s, duration_s, events, message",
    [
        (NAN, 5.0, (), "tick_s must be finite and positive"),
        (INF, 5.0, (), "tick_s must be finite and positive"),
        (0.5, NAN, (), "duration_s must be finite and positive"),
        (0.5, INF, (), "duration_s must be finite and positive"),
        # a NaN between two good times was accepted and then never applied
        (0.5, 5.0, ((0.0, 80.0), (NAN, 80.0), (2.0, 80.0)), "event 1: event times must be finite and strictly increasing"),
        (0.5, 5.0, ((NAN, 80.0), (1.0, 80.0)), "event 0: event times must be finite and strictly increasing"),
        (0.5, 5.0, ((-INF, 80.0), (1.0, 80.0)), "event 0: event times must be finite and strictly increasing"),
        (0.5, 5.0, ((0.0, 80.0), (INF, 80.0)), "event 1: event times must be finite and strictly increasing"),
        (0.5, 5.0, ((NAN, 80.0),), "event 0: event times must be finite and strictly increasing"),
        (0.5, 5.0, ((0.0, 80.0), (1.0, 90.0), (2.0, INF)), "event 2: distance_cm must be finite and non-negative"),
        (0.5, 5.0, ((0.0, NAN),), "event 0: distance_cm must be finite and non-negative"),
        (0.5, 5.0, ((0.0, 80.0), (1.0, -0.5)), "event 1: distance_cm must be finite and non-negative"),
        # each text and label is spoken as one tab-separated transcript line
        (
            0.5,
            5.0,
            (
                (0.0, 80.0, Frame("ok", ("person",), ("EXIT",))),
                (1.0, 80.0, Frame("f", ("chair",), ("EXIT\n0.000\tALERT\tforged",))),
            ),
            r"event 1: frame 'f': text 'EXIT\\n0.000\\tALERT\\tforged' must be one line without tabs",
        ),
        (0.5, 5.0, ((0.0, 80.0, Frame("g", ("chair\t",))),), r"event 0: frame 'g': label 'chair\\t' must be one line without tabs"),
        # a label the detector cannot know would be spoken as "Detected unicorn"
        (
            0.5,
            5.0,
            ((0.0, 80.0, Frame("ok", ("person",))), (1.0, 80.0, Frame("f", ("chair", "unicorn")))),
            "event 1: frame 'f': label 'unicorn' not in vocabulary",
        ),
        (
            0.5,
            5.0,
            ((0.0, 80.0, Frame("h", (), ("ok", "EXIT\u2028ALERT"))),),
            r"event 0: frame 'h': text 'EXIT\\u2028ALERT' must be one line without tabs",
        ),
    ],
    ids=[
        "nan-tick",
        "inf-tick",
        "nan-duration",
        "inf-duration",
        "nan-middle-time",
        "nan-first-time",
        "minus-inf-first-time",
        "inf-last-time",
        "nan-only-time",
        "inf-distance",
        "nan-distance",
        "negative-distance",
        "text-with-line-break",
        "label-with-tab",
        "label-outside-vocabulary",
        "text-with-line-separator",
    ],
)
def test_scenario_rejects_values_it_cannot_model(tick_s, duration_s, events, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Scenario("x", tick_s, duration_s, tuple(ScenarioEvent(*e) for e in events))


def test_data_directory_vocabulary_decides_code_built_labels(tmp_path, monkeypatch):
    labels = [f"thing{i}" for i in range(79)] + ["unicorn"]
    (tmp_path / "coco_labels.txt").write_text("\n".join(labels) + "\n")
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
    scenario = Scenario("x", 0.5, 3.0, (ScenarioEvent(0.0, 80.0, Frame("f", ("unicorn",))),))
    assert "Detected unicorn" in run(scenario).transcript.texts()
    with pytest.raises(ValueError, match="label 'chair' not in vocabulary"):
        Scenario("x", 0.5, 3.0, (ScenarioEvent(0.0, 80.0, Frame("f", ("chair",))),))


def test_scenario_reads_the_vocabulary_once_and_only_for_labels(monkeypatch):
    reads = []

    def counting():
        reads.append(1)
        return load_class_vocabulary()

    monkeypatch.setattr(pipeline, "load_class_vocabulary", counting)
    unlabelled = tuple(ScenarioEvent(float(t), 80.0, Frame(f"f{t}", (), ("EXIT",))) for t in range(3))
    Scenario("x", 0.5, 5.0, unlabelled)
    assert reads == []
    labelled = tuple(ScenarioEvent(float(t), 80.0, Frame(f"f{t}", ("chair",))) for t in range(1, 4))
    Scenario("x", 0.5, 5.0, unlabelled[:1] + labelled)
    assert reads == [1]


def test_code_built_frame_may_hold_other_unprintable_characters():
    # only tabs and line breaks break the transcript's line format
    frame = Frame("f", ("chair",), ("EXIT\u00a0ROUTE\x00",))
    result = run(Scenario("x", 0.5, 1.0, (ScenarioEvent(0.0, 80.0, frame),)))
    assert "Text detected: EXIT\u00a0ROUTE\x00" in result.transcript.texts()
    assert len(result.transcript.render().splitlines()) == len(result.transcript)


CONFIG_FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (SensorConfig, AlertConfig, PerceptionConfig, SpeechConfig)
    for f in fields(cls)
    if isinstance(f.default, float)
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls, name", CONFIG_FLOAT_FIELDS, ids=lambda x: getattr(x, "__name__", x))
def test_config_rejects_non_finite(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        cls(**{name: value})


def test_load_config_sections(tmp_path):
    doc = {
        "sensor": {"jitter_std_s": 0.0},
        "alert": {"threshold_cm": 80.0},
        "perception": {"ocr": "mock-easyocr"},
        "speech": {"base_per_char_s": 0.01},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.sensor.jitter_std_s == 0.0
    assert cfg.sensor.max_range_cm == 300.0  # untouched default
    assert cfg.alert.threshold_cm == 80.0
    assert cfg.perception.ocr == "mock-easyocr"
    assert cfg.speech.base_per_char_s == 0.01


README = Path(__file__).parents[1] / "README.md"


def test_readme_documents_every_config_field():
    # a row of the README's config table: | `section` | `field` | `default` | ...
    rows = re.findall(r"^ *\| `(\w+)` \| `(\w+)` \| `([^`]*)` \|", README.read_text(), re.M)
    settable = [
        (section.name, f.name, json.dumps(f.default))
        for section in fields(PipelineConfig)
        for f in fields(section.default)
    ]
    assert rows == settable
    assert len(settable) == 16


def test_load_config_rejects_unknown(tmp_path):
    bad_section = tmp_path / "a.json"
    bad_section.write_text('{"motor": {}}')
    with pytest.raises(ValueError, match="motor"):
        load_config(bad_section)
    bad_key = tmp_path / "b.json"
    bad_key.write_text('{"sensor": {"speeed": 3}}')
    with pytest.raises(ValueError, match="speeed"):
        load_config(bad_key)


def test_demo_run_single_alert_cycle():
    result = run(load_scenario(demo_scenario_path()))
    report, transcript, log = result
    assert report.alerts_fired == 1
    texts = transcript.texts()
    assert len(texts) == 3
    assert texts[0] == "Obstacle ahead at 80.0 centimeters"
    assert "EXIT" in texts[1]
    assert "chair" in texts[2]
    assert report.budget_pass
    assert report.stages["sensor"].count == 120
    assert report.stages["ocr"].count == 1
    assert report.stages["detect"].count == 1
    assert report.end_to_end.count == 1
    lines = log.render().splitlines()
    assert "Measure Distance = 80.0 cm" in lines
    assert any(line.startswith("time taken to execute ") for line in lines)


def test_stage_order_invariant_in_transcript():
    transcript = run(load_scenario(demo_scenario_path())).transcript
    texts = transcript.texts()
    alert_idx = texts.index("Obstacle ahead at 80.0 centimeters")
    ocr_idx = next(i for i, s in enumerate(texts) if "EXIT" in s)
    det_idx = next(i for i, s in enumerate(texts) if "chair" in s)
    assert alert_idx < ocr_idx < det_idx


def test_quiet_scenario_silent():
    report, transcript, _ = run(quiet_scenario())
    assert report.alerts_fired == 0
    assert len(transcript) == 0
    assert report.end_to_end.count == 0
    assert report.budget_pass  # vacuous: nothing exceeded the ceiling


def test_run_stops_at_duration_when_ceil_overshoots():
    # 2.1 / 0.3 is 7.000000000000001, so the loop bound is 8 ticks, but the
    # eighth tick's time 7 * 0.3 is exactly 2.1, the duration, and is not run
    scenario = Scenario("x", 0.3, 2.1, (ScenarioEvent(0.0, 300.0),))
    assert math.ceil(scenario.duration_s / scenario.tick_s) == 8
    assert 7 * scenario.tick_s == scenario.duration_s
    result = run(scenario)
    assert len(result.log.exec_times) == 7
    assert result.report.stages["sensor"].count == 7


def test_run_deterministic_repeat():
    scenario = load_scenario(demo_scenario_path())
    a = run(scenario)
    b = run(scenario)
    assert a.transcript.render() == b.transcript.render()
    assert run_report_to_json(a.report) == run_report_to_json(b.report)
    assert a.log == b.log
    assert a.log.render() == b.log.render()


def test_run_seed_changes_timings():
    scenario = load_scenario(demo_scenario_path())
    a = run(scenario, seed=1)
    b = run(scenario, seed=2)
    assert run_report_to_json(a.report) != run_report_to_json(b.report)
    # but the spoken content is seed-independent here (no misses, text fixed)
    assert a.transcript.texts() == b.transcript.texts()


def test_alert_count_matches_engine_replay():
    scenario = load_scenario(demo_scenario_path())
    cfg = PipelineConfig()
    report = run(scenario, cfg).report

    # rebuild the identical measurement stream and drive the engine alone
    rng = random.Random(0)  # run's default seed
    state = AlertState()
    pending = list(scenario.events)
    distance = 2.0 * cfg.sensor.max_range_cm
    fired = 0
    k = 0
    while (t := k * scenario.tick_s) < scenario.duration_s:
        while pending and pending[0].t_s <= t:
            distance = pending.pop(0).distance_cm
        m = simulate_measurement(distance, cfg.sensor, rng, timestamp_s=t)
        if on_measurement(state, m, cfg.alert) is not None:
            fired += 1
        k += 1
    assert fired == report.alerts_fired == 1


MULTI_EVENT = Path(__file__).parent / "golden" / "multi_event_scenario.json"
STRESS_CONFIG = Path(__file__).parent / "golden" / "stress_config.json"


@pytest.mark.parametrize("config", [None, STRESS_CONFIG])
def test_sensor_and_alert_stages_match_rebuilt_stream(config):
    scenario = load_scenario(MULTI_EVENT)
    cfg = load_config(config) if config else PipelineConfig()
    report = run(scenario, cfg).report

    # rebuild the measurement stream tick by tick, one record per reading
    rng = random.Random(0)  # run's default seed
    pending = list(scenario.events)
    distance = 2.0 * cfg.sensor.max_range_cm
    sensor_s, alert_s = [], []
    k = 0
    while (t := k * scenario.tick_s) < scenario.duration_s:
        while pending and pending[0].t_s <= t:
            distance = pending.pop(0).distance_cm
        m = simulate_measurement(distance, cfg.sensor, rng, timestamp_s=t)
        sensor_s.append(m.exec_time_s)
        alert_s.append(0.0)
        k += 1
    assert len(sensor_s) == 180
    assert report.stages["sensor"] == StageStats.of(sensor_s)
    assert report.stages["alert"] == StageStats.of(alert_s)


# (alerts, no-frame warnings) of the multi-event replay: the log holds two
# lines per tick plus one line per alert and per warning
MULTI_EVENT_NOTES = {None: (7, 2), STRESS_CONFIG: (3, 1)}


@pytest.mark.parametrize("config", [None, STRESS_CONFIG])
def test_device_log_renders_its_records(config):
    scenario = load_scenario(MULTI_EVENT)
    cfg = load_config(config) if config else PipelineConfig()
    result = run(scenario, cfg)
    alerts, warnings = MULTI_EVENT_NOTES[config]
    assert result.report.alerts_fired == alerts

    text = result.log.render()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == 2 * 180 + alerts + warnings
    assert sum(line.startswith("obstacle alert at t=") for line in lines) == alerts
    assert sum(line.startswith("warning: no frame at t=") for line in lines) == warnings
    assert lines[0] == "Measure Distance = 250.0 cm"
    assert lines[1].startswith("time taken to execute ")
    # the records behind the text: one exec time per tick, one alert message
    # per alert and one frameless tick per warning
    assert len(result.log.exec_times) == 180
    assert len(result.log.alert_messages) == alerts
    assert len(result.log.frameless) == warnings

    again = run(scenario, cfg)
    assert again.log == result.log
    assert again.log.render() == text
    assert run(scenario, cfg, seed=1).log.render() != text


def test_alert_sentence_spoken_and_logged_at_one_decimal():
    # two frameless alerts two seconds apart, the interval the engine needs
    scenario = Scenario(
        name="two-obstacles",
        tick_s=1.0,
        duration_s=3.0,
        events=(ScenarioEvent(0.0, 53.4), ScenarioEvent(1.0, 300.0), ScenarioEvent(2.0, 100.0)),
    )
    report, transcript, log = run(scenario)
    sentences = ["Obstacle ahead at 53.4 centimeters", "Obstacle ahead at 100.0 centimeters"]
    assert report.alerts_fired == 2
    assert transcript.texts() == sentences
    alert_lines = [line for line in log.render().splitlines() if line.startswith("obstacle")]
    assert alert_lines == [
        f"obstacle alert at t={t} s: {sentence}"
        for t, sentence in zip(("0.000", "2.000"), sentences)
    ]


def test_format_distance_line():
    assert format_distance_line(53.4) == "Measure Distance = 53.4 cm"
    assert format_distance_line(0.0) == "Measure Distance = 0.0 cm"
    assert format_distance_line(161.04) == "Measure Distance = 161.0 cm"


def test_distance_line_round_trip():
    rng = random.Random(3)
    for _ in range(500):
        d = round(rng.uniform(0, 400), 1)
        match = re.fullmatch(r"Measure Distance = (\d+\.\d) cm", format_distance_line(d))
        assert match is not None and float(match.group(1)) == d


def test_format_distance_line_rejects_negative():
    with pytest.raises(ValueError, match="^distance_cm must be non-negative$"):
        format_distance_line(-1.0)


def test_zero_overhead_cycle_time_identity():
    cfg = PipelineConfig(
        sensor=SensorConfig(jitter_std_s=0.0),
        perception=PerceptionConfig(ocr_latency_s=0.0, detect_latency_s=0.0),
    )
    scenario = load_scenario(demo_scenario_path())
    report, transcript, _ = run(scenario, cfg)
    exec_time = (
        cfg.sensor.overhead_base_s
        + cfg.sensor.overhead_per_cm_s * 80.0
        + 2.0 * 0.80 / cfg.sensor.speed_of_sound_mps
    )
    # mirror the run loop's accumulation order for exact float equality
    now = 20.0 + exec_time
    for text in transcript.texts():
        now += cfg.speech.base_per_char_s * len(text)
    assert report.end_to_end.mean_s == now - 20.0
    assert report.stages["speech"].count == 1


def test_alert_without_frame_degrades_gracefully():
    scenario = Scenario(
        name="no-frame",
        tick_s=1.0,
        duration_s=4.0,
        events=(ScenarioEvent(0.0, 90.0),),
    )
    cfg = PipelineConfig(alert=AlertConfig(min_interval_s=100.0))
    report, transcript, log = run(scenario, cfg)
    assert report.alerts_fired == 1
    assert transcript.texts() == ["Obstacle ahead at 90.0 centimeters"]
    assert any("no frame" in line for line in log.render().splitlines())
    assert report.stages["ocr"].count == 0
    assert report.stages["detect"].count == 0


def test_nan_distance_in_code_built_scenario_raises():
    # ScenarioEvent checks nothing, so the scenario names the event
    with pytest.raises(ValueError, match=r"^event 1: distance_cm must be finite and non-negative$"):
        Scenario(
            name="nan-walk",
            tick_s=0.5,
            duration_s=3.0,
            events=(ScenarioEvent(0.0, 80.0), ScenarioEvent(1.0, math.nan)),
        )


def test_below_min_range_never_alerts():
    scenario = Scenario(
        name="too-close",
        tick_s=1.0,
        duration_s=3.0,
        events=(ScenarioEvent(0.0, 20.0),),
    )
    report, transcript, _ = run(scenario)
    assert report.alerts_fired == 0
    assert len(transcript) == 0


def test_budget_pass_reads_only_upper_bound():
    scenario = load_scenario(demo_scenario_path())
    # the demo's one alert cycle takes ~3.66 s of virtual time, 3.35 s of it
    # speaking 67 characters at 0.05 s each
    report = run(scenario).report
    assert 3.6 < report.end_to_end.mean_s < 3.7 and report.budget_pass
    # slower speech stretches the cycle past the budget, and the pass flips
    for per_char_s, passes in ((0.06, True), (0.08, False)):
        slow = run(scenario, PipelineConfig(speech=SpeechConfig(base_per_char_s=per_char_s))).report
        assert (slow.end_to_end.mean_s <= CYCLE_BUDGET_S) is passes
        assert slow.budget_pass is passes
    # no alert cycles at all passes
    assert run(quiet_scenario()).report.budget_pass


def test_budget_config_invariants():
    # the budget is a constant, not a config section
    assert CYCLE_BUDGET_S == 5.0
    with pytest.raises(TypeError, match="budget"):
        PipelineConfig(budget=None)
    with pytest.raises(ValueError):
        PerceptionConfig(ocr_latency_s=-0.1)


def test_report_exports():
    result = run(load_scenario(demo_scenario_path()))
    csv_text = run_report_to_csv(result.report)
    lines = csv_text.splitlines()
    assert lines[0] == "stage,count,mean_s,max_s"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "sensor",
        "alert",
        "ocr",
        "detect",
        "speech",
        "end_to_end",
    ]
    payload = json.loads(run_report_to_json(result.report))
    assert payload["alerts_fired"] == 1
    assert payload["budget_pass"] is True
    assert payload["stages"]["sensor"]["count"] == 120


def test_stage_stats_of():
    stats = StageStats.of([0.1, 0.3])
    assert stats == StageStats(2, 0.2, 0.3)
    assert StageStats.of([]) == StageStats(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        StageStats.of([-0.1])
    nan = math.nan
    for durations in ([nan, -1.0], [1.0, nan, -1.0], [0.5, -0.0, -1e-300]):
        with pytest.raises(ValueError, match="^stage durations must be non-negative$"):
            StageStats.of(durations)
    # NaN is refused wherever it stands, so max_s cannot depend on the order
    for durations in ([nan, 1.0], [1.0, nan], [1.0, math.inf], [math.inf, 1.0]):
        with pytest.raises(ValueError, match="^stage durations must be (non-negative|finite)$"):
            StageStats.of(durations)
    # finite durations whose sum overflows are refused the same way
    with pytest.raises(ValueError, match="^stage durations must have a finite sum$"):
        StageStats.of([1e308, 1e308])
    assert StageStats.of([1, 3]) == StageStats(2, 2.0, 3)
    with pytest.raises(ValueError):
        StageStats.of([2, -1])


def test_speech_config_templates_applied():
    # the spoken sentences are fixed; no config holds a template
    transcript = run(load_scenario(demo_scenario_path())).transcript
    assert transcript.texts()[1] == "Text detected: EXIT"
    assert transcript.texts()[2] == "Detected chair"
    for cls, name in ((SpeechConfig, "ocr_template"), (AlertConfig, "speech_template")):
        with pytest.raises(TypeError, match=name):
            cls(**{name: "{text}"})
