"""Finite-number checks shared by the loaders and the config dataclasses."""

from __future__ import annotations

import math
from dataclasses import fields


def finite(value: object, name: str) -> float:
    """``float(value)``, rejecting NaN and infinities by name."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def require_finite_fields(obj: object) -> None:
    """Reject a dataclass instance whose float fields hold NaN or an infinity."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float):
            finite(value, f.name)
