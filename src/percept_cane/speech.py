"""Prioritized speech queue and transcript recording.

Speech stands in for audio: speaking a message appends a transcript line
stamped with the virtual time it started, and the message then lasts a
modeled duration, ``base_per_char_s * len(text) / default_rate`` from the
run's ``SpeechConfig``. A drain starts at the time it is given and returns
the time its last message ended. Alerts outrank perception results,
which outrank informational messages; within a priority class order is
FIFO. The queue keeps one FIFO deque per priority class. It is bounded:
when a message would overfill it, the newest message of the lowest
non-empty class (the incoming one included) is popped into a drop report
rather than raising, so every submitted message is accounted for either in
the transcript or in that report.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .checks import require_finite_fields


class Priority(IntEnum):
    ALERT = 0
    PERCEPTION = 1
    INFO = 2


# Indexed by Priority: a tuple read, not an enum property, per transcript line.
_PRIORITY_NAMES = tuple(p.name for p in Priority)


class SpeechMessage(NamedTuple):
    text: str
    priority: Priority


class TranscriptEntry(NamedTuple):
    spoken_at_s: float
    priority: Priority
    text: str


class Transcript:
    """Ordered record of spoken messages: ``messages`` holds each message a
    drain dequeued (the queue's own object, not a copy), ``times`` its start,
    and ``end_s`` the time the last drain ended (``-inf`` before any)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.messages: list[SpeechMessage] = []
        self.end_s = -math.inf

    @property
    def entries(self) -> list[TranscriptEntry]:
        """The spoken messages as ``(spoken_at_s, priority, text)``, built on read."""
        return [TranscriptEntry(t, m.priority, m.text) for t, m in zip(self.times, self.messages)]

    def render(self) -> str:
        """One tab-separated line per message: time, priority, text."""
        return "".join(
            f"{t:.3f}\t{_PRIORITY_NAMES[m.priority]}\t{m.text}\n"
            for t, m in zip(self.times, self.messages)
        )

    def texts(self) -> list[str]:
        return [m.text for m in self.messages]

    def __len__(self) -> int:
        return len(self.messages)


@dataclass(frozen=True)
class SpeechConfig:
    base_per_char_s: float = 0.05
    default_rate: float = 1.0
    capacity: int = 64

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.base_per_char_s <= 0:
            raise ValueError("base_per_char_s must be positive")
        if self.default_rate <= 0:
            raise ValueError("default_rate must be positive")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")


class SpeechQueue:
    """Bounded priority queue; single consumer, any number of producers.

    One FIFO deque per priority class, highest class first; the right end
    of each deque holds its newest message.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.dropped: list[SpeechMessage] = []
        self._classes: tuple[deque[SpeechMessage], ...] = tuple(deque() for _ in Priority)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def submit(self, text: str, priority: Priority) -> None:
        """Build a message and enqueue it."""
        self.enqueue(
            SpeechMessage(text, priority if type(priority) is Priority else Priority(priority))
        )

    def enqueue(self, msg: SpeechMessage) -> None:
        """Store a message, evicting per drop policy when full.

        At capacity the lowest-priority newest message (incoming included)
        is dropped and appended to ``dropped``, the queue's drop report.
        """
        self._classes[msg.priority].append(msg)
        if self._len < self.capacity:
            self._len += 1
            return
        for messages in reversed(self._classes):
            if messages:
                self.dropped.append(messages.pop())
                return

    def dequeue_next(self) -> SpeechMessage | None:
        for messages in self._classes:
            if messages:
                self._len -= 1
                return messages.popleft()
        return None


def speak_all(
    queue: SpeechQueue, transcript: Transcript, now_s: float, cfg: SpeechConfig
) -> float:
    """Drain the queue into ``transcript`` from virtual time ``now_s``;
    return the time the last message ended.

    Each spoken message is appended to ``transcript`` at its start time and
    lasts ``cfg.base_per_char_s * len(text) / cfg.default_rate``. A drain
    may not start before the transcript's last drain ended, so speech never
    overlaps.
    """
    # once per drain, and False for a NaN start; inside a drain times only rise,
    # as SpeechConfig's positive base_per_char_s and default_rate keep durations >= 0
    if not now_s >= transcript.end_s:
        raise ValueError(
            f"transcript timestamps must be nondecreasing: a drain at {now_s},"
            f" the last one ended at {transcript.end_s}"
        )
    times, spoken = transcript.times, transcript.messages
    base_per_char_s, rate = cfg.base_per_char_s, cfg.default_rate
    while (msg := queue.dequeue_next()) is not None:
        times.append(now_s)
        spoken.append(msg)
        now_s += base_per_char_s * len(msg.text) / rate
    transcript.end_s = now_s
    return now_s
