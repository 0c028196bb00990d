"""Obstacle alert engine: debounce and hysteresis.

Measurements stream in timestamp order; the engine decides which of them
become alerts. Two independent suppressions apply: a minimum interval
between alerts (debounce) and an optional re-arm margin (hysteresis). With
``rearm_margin_cm = 0`` the engine never disarms, so a constant obstacle
keeps alerting once per interval; with a positive margin the distance must
retreat past ``threshold + margin`` before the next alert can fire. The
engine formats nothing: the device loop builds what is spoken and logged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .checks import check_fields, ranged
from .sensor import DistanceMeasurement


class OutOfOrderError(ValueError):
    """A measurement arrived with a timestamp earlier than its predecessor."""


@dataclass(frozen=True)
class AlertConfig:
    threshold_cm: float = ranged(100.0, 0, above=True)
    min_interval_s: float = ranged(2.0, 0)
    rearm_margin_cm: float = ranged(0.0, 0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class AlertState:
    """Single-owner mutable engine state; one caller drives it at a time."""

    last_alert_s: float = -math.inf
    armed: bool = True
    last_seen_s: float = -math.inf


def on_measurement(
    state: AlertState, m: DistanceMeasurement, cfg: AlertConfig
) -> DistanceMeasurement | None:
    """Advance the engine by one measurement; return ``m`` itself if it
    fires an alert, else None.

    An alert fires iff the reading is in range, at or below the threshold,
    the engine is armed, and at least ``min_interval_s`` has passed since the
    previous alert. Firing disarms the engine only when ``rearm_margin_cm``
    is positive; any reading above ``threshold + margin`` re-arms it.

    Raises :class:`OutOfOrderError` for a timestamp earlier than the
    previous one, or NaN.
    """
    # written so that a NaN timestamp, which compares false, is rejected too
    if not m.timestamp_s >= state.last_seen_s:
        raise OutOfOrderError(
            f"measurement at t={m.timestamp_s} after t={state.last_seen_s}"
        )
    state.last_seen_s = m.timestamp_s

    if m.distance_cm > cfg.threshold_cm + cfg.rearm_margin_cm:
        state.armed = True

    # the interval test comes last, so a quiet tick never computes it
    if not (
        m.in_range
        and m.distance_cm <= cfg.threshold_cm
        and state.armed
        and m.timestamp_s - state.last_alert_s >= cfg.min_interval_s
    ):
        return None

    state.last_alert_s = m.timestamp_s
    if cfg.rearm_margin_cm > 0:
        state.armed = False
    return m
