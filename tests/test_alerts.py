import math
import random

import pytest

from percept_cane.alerts import (
    AlertConfig,
    AlertState,
    OutOfOrderError,
    on_measurement,
)
from percept_cane.sensor import DistanceMeasurement, SensorConfig

CFG = AlertConfig(threshold_cm=100.0, min_interval_s=2.0, rearm_margin_cm=0.0)


def m(distance_cm: float, t: float, sensor: SensorConfig | None = None) -> DistanceMeasurement:
    sensor = sensor or SensorConfig()
    return DistanceMeasurement(
        distance_cm=distance_cm,
        exec_time_s=0.005,
        in_range=sensor.min_range_cm <= distance_cm <= sensor.max_range_cm,
        timestamp_s=t,
    )


def test_fires_when_armed_and_below_threshold():
    state = AlertState()
    reading = m(53.4, 1.0)
    # the engine returns the reading that fired, not a copy of it
    assert on_measurement(state, reading, CFG) is reading
    assert state.last_alert_s == 1.0


def test_above_threshold_no_event():
    assert on_measurement(AlertState(), m(250.0, 0.0), CFG) is None


def test_debounce_then_refire():
    state = AlertState()
    assert on_measurement(state, m(60.0, 1.0), CFG) is not None
    assert on_measurement(state, m(60.0, 1.5), CFG) is None
    assert on_measurement(state, m(60.0, 3.1), CFG) is not None


def test_out_of_range_reading_never_fires():
    # 30 cm is below the sensor floor, so in_range is false even though it
    # is under the threshold
    assert on_measurement(AlertState(), m(30.0, 0.0), CFG) is None


def test_hysteresis_blocks_until_retreat():
    cfg = AlertConfig(threshold_cm=100.0, min_interval_s=0.0, rearm_margin_cm=20.0)
    state = AlertState()
    assert on_measurement(state, m(90.0, 0.0), cfg) is not None
    # still close: disarmed, interval alone would allow it
    assert on_measurement(state, m(90.0, 1.0), cfg) is None
    # retreat beyond threshold + margin re-arms
    assert on_measurement(state, m(130.0, 2.0), cfg) is None
    assert on_measurement(state, m(90.0, 3.0), cfg) is not None


def test_retreat_must_exceed_margin():
    cfg = AlertConfig(threshold_cm=100.0, min_interval_s=0.0, rearm_margin_cm=20.0)
    state = AlertState()
    assert on_measurement(state, m(90.0, 0.0), cfg) is not None
    # 110 <= threshold + margin: not enough to re-arm
    assert on_measurement(state, m(110.0, 1.0), cfg) is None
    assert on_measurement(state, m(95.0, 2.0), cfg) is None


def test_out_of_order_timestamp_raises():
    state = AlertState()
    on_measurement(state, m(250.0, 5.0), CFG)
    with pytest.raises(OutOfOrderError):
        on_measurement(state, m(250.0, 4.0), CFG)


def _nan_stamped(distance_cm: float) -> DistanceMeasurement:
    """A NaN-timestamped measurement, built around the constructor that
    rejects one, as any code that skips its checks could build it."""
    fields = vars(m(distance_cm, 0.0)) | {"timestamp_s": math.nan}
    bad = object.__new__(DistanceMeasurement)
    bad.__dict__.update(fields)
    return bad


def test_nan_timestamp_raises_first_and_after_finite():
    state = AlertState()
    with pytest.raises(OutOfOrderError, match=r"^measurement at t=nan after t=-inf$"):
        on_measurement(state, _nan_stamped(50.0), CFG)
    on_measurement(state, m(250.0, 5.0), CFG)
    with pytest.raises(OutOfOrderError, match=r"^measurement at t=nan after t=5.0$"):
        on_measurement(state, _nan_stamped(50.0), CFG)
    # the rejected reading left no trace: the engine still fires
    assert state.last_alert_s == -math.inf and state.last_seen_s == 5.0
    assert on_measurement(state, m(50.0, 6.0), CFG) is not None


def test_equal_timestamps_allowed():
    state = AlertState()
    on_measurement(state, m(250.0, 5.0), CFG)
    assert on_measurement(state, m(250.0, 5.0), CFG) is None


def test_config_invariants():
    with pytest.raises(ValueError):
        AlertConfig(threshold_cm=0.0)
    with pytest.raises(ValueError):
        AlertConfig(min_interval_s=-1.0)
    with pytest.raises(ValueError):
        AlertConfig(rearm_margin_cm=-5.0)


def _random_stream_properties(seed: int, cfg: AlertConfig) -> None:
    rng = random.Random(seed)
    sensor = SensorConfig()
    state = AlertState()
    t = 0.0
    events = []
    readings = []
    for _ in range(40):
        t += rng.uniform(0.0, 1.5)
        d = rng.uniform(0.0, 400.0)
        measurement = m(d, t, sensor)
        readings.append(measurement)
        event = on_measurement(state, measurement, cfg)
        if event is not None:
            events.append(event)

    for e in events:
        assert e.distance_cm <= cfg.threshold_cm
    for a, b in zip(events, events[1:]):
        assert b.timestamp_s - a.timestamp_s >= cfg.min_interval_s
    if cfg.rearm_margin_cm > 0:
        for a, b in zip(events, events[1:]):
            between = [
                r.distance_cm
                for r in readings
                if a.timestamp_s < r.timestamp_s <= b.timestamp_s
            ]
            assert any(
                d > cfg.threshold_cm + cfg.rearm_margin_cm for d in between
            )


def test_property_suite_small():
    for seed in range(300):
        _random_stream_properties(seed, CFG)
        _random_stream_properties(
            seed, AlertConfig(threshold_cm=120.0, min_interval_s=1.0, rearm_margin_cm=30.0)
        )
