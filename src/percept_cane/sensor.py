"""Ultrasonic time-of-flight ranging simulator.

Distance and echo time convert through the standard time-of-flight relation
(distance = wave speed x round trip / 2). The execution-time model is affine
in distance plus the physical round trip plus optional Gaussian jitter:

    exec_time = overhead_base + overhead_per_cm * d + roundtrip(d) + jitter

The default overhead coefficients and jitter scale are frozen from a linear
fit to the bundled reference timing table (``data/fig6_sensor_timings.csv``).
Simulated distances are exact; only timing is modeled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from .checks import check_number_cells, number, read_csv, require_finite_fields

SENSOR_TIMINGS_FILE = "fig6_sensor_timings.csv"
_INF = math.inf


@dataclass(frozen=True)
class SensorConfig:
    """Static parameters of the simulated ranging sensor."""

    speed_of_sound_mps: float = 343.0
    min_range_cm: float = 40.0
    max_range_cm: float = 300.0
    overhead_base_s: float = 0.003
    overhead_per_cm_s: float = 6e-5
    jitter_std_s: float = 0.0015

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.speed_of_sound_mps <= 0:
            raise ValueError("speed_of_sound_mps must be positive")
        if not 0 < self.min_range_cm < self.max_range_cm:
            raise ValueError("require 0 < min_range_cm < max_range_cm")
        if self.overhead_base_s < 0 or self.overhead_per_cm_s < 0:
            raise ValueError("overheads must be non-negative")
        if self.jitter_std_s < 0:
            raise ValueError("jitter_std_s must be non-negative")


@dataclass(frozen=True)
class EchoSample:
    """Trigger-to-echo elapsed time of one ultrasonic pulse."""

    roundtrip_s: float

    def __post_init__(self) -> None:
        if not 0 <= self.roundtrip_s < math.inf:  # NaN fails too
            raise ValueError("roundtrip_s must be finite and non-negative")


@dataclass(frozen=True)
class DistanceMeasurement:
    """One ranging result: distance, time it took to produce, range flag."""

    distance_cm: float
    exec_time_s: float
    in_range: bool
    timestamp_s: float = 0.0

    def __post_init__(self) -> None:
        # each chained test is False for NaN and for the infinity it bounds
        if not 0.0 <= self.distance_cm < _INF:
            raise ValueError("distance_cm must be finite and non-negative")
        if not 0.0 < self.exec_time_s < _INF:
            raise ValueError("exec_time_s must be finite and positive")
        if not -_INF < self.timestamp_s < _INF:
            raise ValueError("timestamp_s must be finite")


# an empty measurement, filled in by simulate_measurement
_new_measurement = partial(object.__new__, DistanceMeasurement)


def distance_from_echo(echo: EchoSample, cfg: SensorConfig) -> float:
    """Convert an echo round trip to a distance in centimeters (d = c*t/2)."""
    return cfg.speed_of_sound_mps * echo.roundtrip_s / 2.0 * 100.0


def _roundtrip_s(distance_cm: float, cfg: SensorConfig) -> float:
    return 2.0 * (distance_cm / 100.0) / cfg.speed_of_sound_mps


def echo_from_distance(distance_cm: float, cfg: SensorConfig) -> EchoSample:
    """Exact inverse of :func:`distance_from_echo`."""
    if not distance_cm >= 0:  # NaN fails too
        raise ValueError("distance_cm must be non-negative")
    return EchoSample(roundtrip_s=_roundtrip_s(distance_cm, cfg))


def simulate_measurement(
    true_distance_cm: float,
    cfg: SensorConfig,
    rng: random.Random,
    timestamp_s: float = 0.0,
) -> DistanceMeasurement:
    """Produce one measurement of a known true distance.

    The reported distance is the true distance (no ranging noise); execution
    time follows the affine-plus-physics latency model. Jitter is drawn from
    the passed-in RNG and clamped at zero so it only ever adds delay; the
    total is floored at a tiny positive value so ``exec_time_s > 0`` holds
    even for an all-zero configuration.

    Out-of-range distances still return a measurement, flagged with
    ``in_range=False``; policy belongs to the caller. A negative, NaN or
    infinite distance, a NaN or infinite timestamp, or an exec time that
    overflows to inf raises ``ValueError``.

    The result is built without re-running ``DistanceMeasurement``'s
    ``__post_init__``, whose checks hold by construction; it equals
    ``DistanceMeasurement(...)`` of the same fields.
    """
    # each chained test is False for NaN and for the infinity it bounds
    if not 0.0 <= true_distance_cm < _INF:
        raise ValueError("true_distance_cm must be finite and non-negative")
    if not -_INF < timestamp_s < _INF:
        raise ValueError("timestamp_s must be finite")
    exec_time = (
        cfg.overhead_base_s
        + cfg.overhead_per_cm_s * true_distance_cm
        + _roundtrip_s(true_distance_cm, cfg)
    )
    if cfg.jitter_std_s > 0:
        jitter = rng.gauss(0.0, cfg.jitter_std_s)
        if jitter > 0.0:
            exec_time += jitter
    # same floats as max(exec_time, 1e-12); a finite distance and config
    # give no NaN, but a large enough product overflows to inf
    if not 1e-12 <= exec_time < _INF:
        if exec_time < 1e-12:
            exec_time = 1e-12
        else:
            raise ValueError("exec_time_s must be finite and positive")
    # __post_init__'s checks hold by construction, so it is not run again:
    # the distance and timestamp passed its tests above, and the floor leaves
    # 1e-12 <= exec_time < inf
    m = _new_measurement()
    m.__dict__.update(
        distance_cm=true_distance_cm,
        exec_time_s=exec_time,
        in_range=cfg.min_range_cm <= true_distance_cm <= cfg.max_range_cm,
        timestamp_s=timestamp_s,
    )
    return m


def mean_response_time(samples: Sequence[DistanceMeasurement]) -> float:
    """Arithmetic mean of the execution times, in seconds."""
    if not samples:
        raise ValueError("mean_response_time needs at least one sample")
    return math.fsum(m.exec_time_s for m in samples) / len(samples)


def load_sensor_timings(path: str | Path) -> list[DistanceMeasurement]:
    """Load a ``distance_cm,exec_time_s`` CSV as measurements.

    Range flags are derived from the default :class:`SensorConfig`;
    timestamps are zero since the file carries none.
    """
    cfg = SensorConfig()
    columns = ("distance_cm", "exec_time_s")

    def measurement(row: list[str]) -> DistanceMeasurement:
        check_number_cells(row, columns)
        d, t = number(float(row[0]), "distance_cm"), number(float(row[1]), "exec_time_s")
        return DistanceMeasurement(d, t, in_range=cfg.min_range_cm <= d <= cfg.max_range_cm)

    return read_csv(path, {columns: measurement})


def sensor_bench_csv(samples: Iterable[DistanceMeasurement]) -> str:
    """Render measurements as a bench report CSV.

    One ``distance_cm,exec_time_s`` row per sample, then a trailing
    ``mean,<value>`` line. Floats use shortest round-trip formatting so the
    emitted file re-parses to identical values.
    """
    samples = list(samples)
    lines = ["distance_cm,exec_time_s"]
    lines.extend(f"{m.distance_cm!r},{m.exec_time_s!r}" for m in samples)
    lines.append(f"mean,{mean_response_time(samples)!r}")
    return "\n".join(lines) + "\n"
