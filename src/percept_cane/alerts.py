"""Obstacle alert engine: debounce, hysteresis, announcement formatting.

Measurements stream in timestamp order; the engine decides which of them
become alerts. Two independent suppressions apply: a minimum interval
between alerts (debounce) and an optional re-arm margin (hysteresis). With
``rearm_margin_cm = 0`` the engine never disarms, so a constant obstacle
keeps alerting once per interval; with a positive margin the distance must
retreat past ``threshold + margin`` before the next alert can fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checks import require_finite_fields
from .sensor import DistanceMeasurement


class OutOfOrderError(ValueError):
    """A measurement arrived with a timestamp earlier than its predecessor."""


@dataclass(frozen=True)
class AlertConfig:
    threshold_cm: float = 100.0
    min_interval_s: float = 2.0
    rearm_margin_cm: float = 0.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.threshold_cm <= 0:
            raise ValueError("threshold_cm must be positive")
        if self.min_interval_s < 0:
            raise ValueError("min_interval_s must be non-negative")
        if self.rearm_margin_cm < 0:
            raise ValueError("rearm_margin_cm must be non-negative")


@dataclass(frozen=True)
class AlertEvent:
    distance_cm: float
    timestamp_s: float
    message: str


@dataclass
class AlertState:
    """Single-owner mutable engine state; one caller drives it at a time."""

    last_alert_s: float | None = None
    armed: bool = True
    last_seen_s: float = field(default=float("-inf"))


def on_measurement(
    state: AlertState, m: DistanceMeasurement, cfg: AlertConfig
) -> AlertEvent | None:
    """Advance the engine by one measurement, returning an alert if one fires.

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

    interval_ok = (
        state.last_alert_s is None
        or m.timestamp_s - state.last_alert_s >= cfg.min_interval_s
    )
    if not (m.in_range and m.distance_cm <= cfg.threshold_cm and state.armed and interval_ok):
        return None

    state.last_alert_s = m.timestamp_s
    if cfg.rearm_margin_cm > 0:
        state.armed = False
    return AlertEvent(
        distance_cm=m.distance_cm,
        timestamp_s=m.timestamp_s,
        message=format_alert_speech(m.distance_cm),
    )


def format_distance_line(distance_cm: float) -> str:
    """Device log line for one reading, frozen bit-exact."""
    if distance_cm < 0:
        raise ValueError("distance_cm must be non-negative")
    return f"Measure Distance = {distance_cm:.1f} cm"


def format_alert_speech(distance_cm: float) -> str:
    """Spoken obstacle sentence, the distance at one decimal."""
    return f"Obstacle ahead at {distance_cm:.1f} centimeters"
