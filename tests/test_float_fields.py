"""Every float field of every public dataclass in the package rejects NaN,
+inf and -inf when an instance is built, with a ValueError that names the
field, unless the field is on ``ALLOWED``; every number field declares its
range with ``checks.ranged``, unless the field is on ``UNRANGED``.

``INSTANCES`` holds one valid instance of each public dataclass. A new
dataclass fails ``test_every_public_dataclass_has_an_instance`` until it
gets one here, and its float fields are then covered with no new test.
"""

import dataclasses
import importlib
import math
import pkgutil
import typing

import pytest

import percept_cane
from percept_cane.alerts import AlertConfig, AlertState
from percept_cane.detector_lab import ModelSpec, PredictionBox, TruthBox
from percept_cane.ocr_lab import EngineProfile, OcrReport, SampleKind
from percept_cane.perception import BoundingBox, Frame, MockDetector, MockOcr
from percept_cane.pipeline import PerceptionConfig, PipelineConfig, RunReport, Scenario, ScenarioEvent, StageStats
from percept_cane.sensor import DistanceMeasurement, EchoSample, SensorConfig
from percept_cane.speech import SpeechConfig

_BOX = BoundingBox(0.1, 0.2, 0.5, 0.6)
INSTANCES = {
    type(instance): instance
    for instance in (
        AlertConfig(),
        AlertState(),
        TruthBox("img1", "cat", _BOX),
        PredictionBox("img1", "cat", 0.9, _BOX),
        ModelSpec("nano", "tf", 0.72, 0.95, 40.0, 20.6, 320, 1.8),
        EngineProfile("tesseract", 5.5, 0.7, 0.3, 0.25),
        OcrReport(SampleKind.NUMBERS, 10, 1),
        _BOX,
        Frame("f1"),
        MockDetector(),
        MockOcr(),
        PerceptionConfig(),
        PipelineConfig(),
        ScenarioEvent(1.0, 50.0),
        Scenario("walk", 0.5, 5.0, (ScenarioEvent(1.0, 50.0),)),
        StageStats(1, 0.1, 0.1),
        RunReport(0.1, 0.2, 0.1, [], {}, [], [], [], [], [], [], []),
        SensorConfig(),
        EchoSample(0.001),
        DistanceMeasurement(50.0, 0.01, True),
        SpeechConfig(),
    )
}

ALLOWED = {
    # the alert engine's state starts before any measurement, at -inf
    (AlertState, "last_alert_s"),
    (AlertState, "last_seen_s"),
    # the scenario loader builds one per event; Scenario rejects a
    # non-finite one (see test_pipeline.py)
    (ScenarioEvent, "t_s"),
    (ScenarioEvent, "distance_cm"),
}

# number fields without a declared range, and why
UNRANGED = {
    # the alert engine's state starts before any measurement, at -inf
    (AlertState, "last_alert_s"),
    (AlertState, "last_seen_s"),
    # the scenario loader builds one per event, and Scenario checks them all
    # in one pass over its events
    (ScenarioEvent, "t_s"),
    (ScenarioEvent, "distance_cm"),
    # one chain joins them: 0 <= x_min <= x_max <= 1, and the same for y
    (BoundingBox, "x_min"),
    (BoundingBox, "y_min"),
    (BoundingBox, "x_max"),
    (BoundingBox, "y_max"),
    # any int seeds a mock's draws
    (MockDetector, "seed"),
    (MockOcr, "seed"),
    # a reading may be stamped at any finite time
    (DistanceMeasurement, "timestamp_s"),
}

FLOAT_FIELDS = [
    (cls, f.name)
    for cls in INSTANCES
    for f in dataclasses.fields(cls)
    if typing.get_type_hints(cls)[f.name] in (float, float | None)
]


def _public_dataclasses() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(percept_cane.__path__):
        module = importlib.import_module(f"percept_cane.{info.name}")
        found.update(
            obj
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
        )
    return found


def test_every_public_dataclass_has_an_instance():
    assert sorted(c.__name__ for c in _public_dataclasses()) == sorted(c.__name__ for c in INSTANCES)


def test_allowed_fields_are_float_fields():
    assert ALLOWED <= set(FLOAT_FIELDS)


@pytest.mark.parametrize(
    "cls, name",
    [pair for pair in FLOAT_FIELDS if pair not in ALLOWED],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_float_field_rejects_nan_and_infinities(cls, name):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(INSTANCES[cls], **{name: value})


def test_every_number_field_declares_a_range_unless_unranged():
    number_fields = {
        (cls, f.name): "range" in f.metadata
        for cls in INSTANCES
        for f in dataclasses.fields(cls)
        if typing.get_type_hints(cls)[f.name] in (int, float, int | None, float | None)
    }
    unranged = {(cls.__name__, name) for (cls, name), ranged in number_fields.items() if not ranged}
    assert sorted(unranged) == sorted((cls.__name__, name) for cls, name in UNRANGED)
