"""Ultrasonic time-of-flight ranging simulator.

Distance and echo time convert through the standard time-of-flight relation
(distance = wave speed x round trip / 2). The execution-time model is affine
in distance plus the physical round trip plus optional Gaussian jitter:

    exec_time = overhead_base + overhead_per_cm * d + roundtrip(d) + jitter

The default overhead coefficients and jitter scale are frozen from a linear
fit to the bundled reference timing table (``data/fig6_sensor_timings.csv``).
Simulated distances are exact; only timing is modeled. A run draws every
tick's jitter up front with :func:`draw_jitter`, the same floats as one
``Random.gauss`` call per tick, and hands each tick's draw to
:func:`simulate_measurement`.
"""

from __future__ import annotations

import math
import random
from dataclasses import MISSING, dataclass
from functools import partial
from math import cos, log, sin, sqrt, tau
from pathlib import Path
from typing import Iterable, Sequence

from .checks import check_fields, number_cells, read_csv, ranged

SENSOR_TIMINGS_FILE = "fig6_sensor_timings.csv"
_INF = math.inf


@dataclass(frozen=True)
class SensorConfig:
    """Static parameters of the simulated ranging sensor."""

    speed_of_sound_mps: float = ranged(343.0, 0, above=True)
    min_range_cm: float = ranged(40.0, 0, above=True)
    max_range_cm: float = ranged(300.0, 0, above=True)
    overhead_base_s: float = ranged(0.003, 0)
    overhead_per_cm_s: float = ranged(6e-5, 0)
    jitter_std_s: float = ranged(0.0015, 0)

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.min_range_cm < self.max_range_cm:
            raise ValueError("require 0 < min_range_cm < max_range_cm")


@dataclass(frozen=True)
class EchoSample:
    """Trigger-to-echo elapsed time of one ultrasonic pulse."""

    roundtrip_s: float = ranged(MISSING, 0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class DistanceMeasurement:
    """One ranging result: distance, time it took to produce, range flag."""

    distance_cm: float = ranged(MISSING, 0)
    exec_time_s: float = ranged(MISSING, 0, above=True)
    in_range: bool
    timestamp_s: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)


# an empty measurement, filled in by simulate_measurement
_new_measurement = partial(object.__new__, DistanceMeasurement)


def distance_from_echo(echo: EchoSample, cfg: SensorConfig) -> float:
    """Convert an echo round trip to a distance in centimeters (d = c*t/2)."""
    return cfg.speed_of_sound_mps * echo.roundtrip_s / 2.0 * 100.0


def _roundtrip_s(distance_cm: float, cfg: SensorConfig) -> float:
    return 2.0 * (distance_cm / 100.0) / cfg.speed_of_sound_mps


def echo_from_distance(distance_cm: float, cfg: SensorConfig) -> EchoSample:
    """Exact inverse of :func:`distance_from_echo`; ``EchoSample`` checks the result."""
    return EchoSample(roundtrip_s=_roundtrip_s(distance_cm, cfg))


def draw_jitter(rng: random.Random, cfg: SensorConfig, n: int) -> list[float]:
    """The next ``n`` values of ``rng.gauss(0.0, cfg.jitter_std_s)``, in order.

    CPython's ``Random.gauss`` written inline: each pair of ``random()``
    draws gives a cosine and a sine value, and the second is kept in
    ``rng.gauss_next`` for the next call. Here a loop turn appends both, a
    value pending on entry is used first, and one left over on exit is
    stored back, so the floats and ``rng``'s state afterwards are those of
    ``n`` ``gauss`` calls. A zero ``jitter_std_s`` gives ``n`` zeros and
    draws nothing.
    """
    sigma = cfg.jitter_std_s
    if not sigma > 0.0:
        return [0.0] * n
    out: list[float] = []
    if n > 0 and rng.gauss_next is not None:
        out.append(0.0 + rng.gauss_next * sigma)
        rng.gauss_next = None
    draw, append = rng.random, out.append
    for _ in range((n - len(out) + 1) // 2):
        x2pi = draw() * tau
        g2rad = sqrt(-2.0 * log(1.0 - draw()))
        append(0.0 + cos(x2pi) * g2rad * sigma)
        append(0.0 + sin(x2pi) * g2rad * sigma)
    if len(out) > n:
        out.pop()
        rng.gauss_next = sin(x2pi) * g2rad
    return out


def simulate_measurement(
    true_distance_cm: float,
    cfg: SensorConfig,
    jitter_s: float,
    timestamp_s: float = 0.0,
) -> DistanceMeasurement:
    """Produce one measurement of a known true distance.

    The reported distance is the true distance (no ranging noise); execution
    time follows the affine-plus-physics latency model. ``jitter_s`` is the
    tick's raw jitter draw (see :func:`draw_jitter`); it is clamped at zero
    so it only ever adds delay, and the total is floored at a tiny positive
    value so ``exec_time_s > 0`` holds even for an all-zero configuration.

    Out-of-range distances still return a measurement, flagged with
    ``in_range=False``; policy belongs to the caller. A negative, NaN or
    infinite distance, a NaN or infinite timestamp, a NaN jitter, or an
    exec time that overflows to inf raises ``ValueError``.

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
    if jitter_s > 0.0:
        exec_time += jitter_s
    elif jitter_s != jitter_s:
        raise ValueError("jitter_s must not be NaN")
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

    def measurements(distances: list[str], times: list[str]) -> list[DistanceMeasurement]:
        d, t = number_cells((distances, times), columns)
        in_range = [cfg.min_range_cm <= x <= cfg.max_range_cm for x in d]
        return list(map(DistanceMeasurement, d, t, in_range))

    return read_csv(path, {columns: measurements})


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
