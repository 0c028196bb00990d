"""OCR benchmarking: corpus generation, scoring, routing between engines.

Error rate is sample-level: the fraction of samples whose recognized string
differs from the truth at all (not a character error rate). Confusion
tallies come from a unit-cost edit-distance alignment of each mismatching
pair; only substitution steps are counted. Routing picks an engine from
benchmark profiles by accuracy (per sample kind) or speed (per compute
device).
"""

from __future__ import annotations

import json
import random
import re
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .checks import csv_cell, read_csv, read_text, require_finite_fields
from .perception import BackendError, OcrBackend
from .resources import data_path

WORDLIST_FILE = "wordlist.txt"
ENGINE_PROFILES_FILE = "engine_profiles.csv"


class SampleKind(str, Enum):
    ALPHABETS = "alphabets"
    NUMBERS = "numbers"


class Compute(str, Enum):
    CPU = "cpu"
    GPU = "gpu"


class RoutePolicy(str, Enum):
    ACCURACY = "accuracy"
    SPEED = "speed"


# One compiled shape check per sample; both classes are ASCII only.
_LOWERCASE_WORDS = re.compile(r"[a-z]+(?: [a-z]+)*").fullmatch
_NNNNN_NN = re.compile(r"[0-9]{5}\.[0-9]{2}").fullmatch


def _check_truth(label: str, kind: SampleKind, truth: str) -> None:
    """Raise unless ``truth`` has the shape of ``kind``'s samples: an
    alphabets truth is ASCII lowercase words joined by single spaces, a
    numbers truth is ASCII ``NNNNN.NN``."""
    if kind is SampleKind.ALPHABETS:
        if _LOWERCASE_WORDS(truth) is None:
            raise ValueError(f"{label}: not lowercase words: {truth!r}")
    elif _NNNNN_NN(truth) is None:
        raise ValueError(f"{label}: not NNNNN.NN: {truth!r}")


@dataclass(frozen=True)
class EngineProfile:
    engine_id: str
    error_rate_numbers: float
    error_rate_alphabets: float
    speed_cpu_s: float
    speed_gpu_s: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        for rate in (self.error_rate_numbers, self.error_rate_alphabets):
            if not 0.0 <= rate <= 100.0:
                raise ValueError(f"{self.engine_id}: error rate out of [0,100]")
        if self.speed_cpu_s <= 0 or self.speed_gpu_s <= 0:
            raise ValueError(f"{self.engine_id}: speeds must be positive")

    def error_rate(self, kind: SampleKind) -> float:
        if kind is SampleKind.NUMBERS:
            return self.error_rate_numbers
        return self.error_rate_alphabets

    def speed_s(self, compute: Compute) -> float:
        if compute is Compute.CPU:
            return self.speed_cpu_s
        return self.speed_gpu_s


@dataclass(frozen=True)
class OcrReport:
    kind: SampleKind
    total: int
    mismatches: int
    error_rate: float
    confusions: dict[tuple[str, str], int] = field(default_factory=dict)
    mean_speed_s: float = 0.0

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValueError("total must be positive")
        if not 0 <= self.mismatches <= self.total:
            raise ValueError("mismatches out of range")


def _check_words(words: Sequence[str], bad: Callable[[int, str], str], empty: str) -> None:
    """Raise unless ``words`` is non-empty and every word has the alphabets
    truth shape. One match of the joined words, holding one space per word
    boundary, accepts a good list; the per-word scan runs only to name the
    first bad word, as ``bad(i, word)``."""
    joined = " ".join(words)
    if _LOWERCASE_WORDS(joined) is None or joined.count(" ") != len(words) - 1:
        for i, word in enumerate(words):
            if " " in word or _LOWERCASE_WORDS(word) is None:
                raise ValueError(bad(i, word))
        raise ValueError(empty)


def load_wordlist(path: str | Path | None = None) -> list[str]:
    if path is None:
        path = data_path(WORDLIST_FILE)
    words = read_text(path).split()
    _check_words(words, lambda _, w: f"{path}: bad wordlist entry {w!r}", f"{path}: empty wordlist")
    return words


def _below(getrandbits: Callable[[int], int], n: int) -> Iterator[int]:
    """Endless ``randrange(n)`` draws: the rejection loop of CPython's
    ``Random._randbelow``, so each value equals what ``Random.choice`` and
    ``Random.randrange`` would draw from the same generator state."""
    k = n.bit_length()
    while True:
        r = getrandbits(k)
        if r < n:
            yield r


def generate_samples(
    kind: SampleKind,
    n: int,
    seed: int,
    words: Sequence[str] | None = None,
) -> list[str]:
    """Deterministic benchmark corpus for one sample kind: the truths, in
    the order of their ids (:func:`sample_ids`).

    Numbers follow the fixed NNNNN.NN shape; alphabets are two words drawn
    from ``words`` (default: the bundled wordlist), every one of which must
    have the alphabets truth shape, drawn or not. Each value is the one
    ``randrange`` would draw next from ``random.Random(seed)``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    kind = SampleKind(kind)
    getrandbits = random.Random(seed).getrandbits
    if kind is SampleKind.NUMBERS:
        draws = zip(_below(getrandbits, 100000), _below(getrandbits, 100))
        return [f"{a:05d}.{b:02d}" for a, b in islice(draws, n)]
    if words is None:
        words = load_wordlist()
    _check_words(words, lambda i, w: f"words[{i}]: bad word {w!r}", "words: empty")
    index = _below(getrandbits, len(words))
    return [f"{words[a]} {words[b]}" for a, b in islice(zip(index, index), n)]


def sample_ids(kind: SampleKind, n: int) -> list[str]:
    """The ids of a corpus's first ``n`` samples, ``f"{kind}-{index:05d}"``."""
    prefix = SampleKind(kind).value
    # str.zfill(5) is format spec 05d for i >= 0, at half the cost
    return [f"{prefix}-{str(i).zfill(5)}" for i in range(n)]


def align_confusions(truth: str, output: str) -> Counter[tuple[str, str]]:
    """Substitutions in a minimum-edit-distance alignment of one pair.

    Unit costs; the backtrace prefers the diagonal (match/substitute) over
    deletion over insertion at equal cost, so equal-length substitution-only
    corruptions are recovered position for position.

    Equal-length pairs that differ in at most two positions skip the table.
    Any alignment of equal-length strings with an insertion also has a
    deletion, so it costs at least 2; hence every prefix pair's edit
    distance is its Hamming distance, the backtrace takes the diagonal at
    every cell, and the answer is exactly the position-wise substitutions.
    At three (``abc`` -> ``bca``) a deletion and an insertion win.
    """
    n, m = len(truth), len(output)
    if n == m:
        substitutions = [(a, b) for a, b in zip(truth, output) if a != b]
        if len(substitutions) <= 2:
            return Counter(substitutions)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if truth[i - 1] == output[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j - 1] + cost, dp[i - 1][j] + 1, dp[i][j - 1] + 1)
    confusions: Counter[tuple[str, str]] = Counter()
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = 0 if truth[i - 1] == output[j - 1] else 1
            if dp[i][j] == dp[i - 1][j - 1] + cost:
                if cost:
                    confusions[(truth[i - 1], output[j - 1])] += 1
                i -= 1
                j -= 1
                continue
        if i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            i -= 1
            continue
        j -= 1
    return confusions


def score(pairs: Sequence[tuple[str, str]], kind: SampleKind) -> OcrReport:
    """Score (truth, output) pairs into a report.

    Permutation-invariant: mismatch counting and confusion tallies are both
    order-free sums.
    """
    if not pairs:
        raise ValueError("score needs at least one pair")
    kind = SampleKind(kind)
    mismatches = 0
    confusions: Counter[tuple[str, str]] = Counter()
    for truth, output in pairs:
        if output != truth:
            mismatches += 1
            confusions.update(align_confusions(truth, output))
    return OcrReport(
        kind=kind,
        total=len(pairs),
        mismatches=mismatches,
        error_rate=100.0 * mismatches / len(pairs),
        confusions=dict(confusions),
    )


def route(
    kind: SampleKind | str,
    compute: Compute | str,
    policy: RoutePolicy | str,
    profiles: Sequence[EngineProfile],
) -> str:
    """Pick an engine id from benchmark profiles.

    Accuracy policy minimizes the error rate for the sample kind; speed
    policy minimizes seconds/image on the compute device. Ties break by
    engine id.
    """
    if not profiles:
        raise ValueError("no engine profiles")
    kind = SampleKind(kind)
    compute = Compute(compute)
    policy = RoutePolicy(policy)
    if policy is RoutePolicy.ACCURACY:
        best = min(profiles, key=lambda p: (p.error_rate(kind), p.engine_id))
    else:
        best = min(profiles, key=lambda p: (p.speed_s(compute), p.engine_id))
    return best.engine_id


def run_benchmark(
    kind: SampleKind | str,
    n: int,
    backend: OcrBackend,
    seed: int,
    words: Sequence[str] | None = None,
) -> OcrReport:
    """Generate a corpus, run it through a backend, and score the output.

    ``mean_speed_s`` is the time of the whole transcription loop over ``n``.
    A failure names its sample, the one after the last pair made.
    """
    kind = SampleKind(kind)
    truths = generate_samples(kind, n, seed, words=words)
    ids = sample_ids(kind, n)
    transcribe = backend.transcribe
    pairs: list[tuple[str, str]] = []
    append = pairs.append
    t0 = time.perf_counter()
    try:
        for i, truth in enumerate(truths):
            append((truth, transcribe(truth, key=ids[i])))
    except BackendError as exc:
        raise BackendError(exc.backend_id, f"{ids[len(pairs)]}: {exc.cause}") from exc
    except Exception as exc:
        sample_id = ids[len(pairs)]
        raise BackendError(getattr(backend, "backend_id", "?"), f"{sample_id}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    return replace(score(pairs, kind), mean_speed_s=elapsed / n)


_PROFILE_COLUMNS = ("engine", "err_numbers", "err_alphabets", "speed_cpu_s", "speed_gpu_s")


def _profile(r: list[str]) -> EngineProfile:
    return EngineProfile(r[0].strip(), *map(float, r[1:]))


def load_engine_profiles(path: str | Path) -> list[EngineProfile]:
    """Load an engine profile CSV (columns by name); errors carry `path:line`."""
    return read_csv(path, {_PROFILE_COLUMNS: _profile})


def load_pairs(path: str | Path, kind: SampleKind | str) -> list[tuple[str, str]]:
    """Read ``truth,output`` rows (header optional); every truth must have
    the shape of ``kind``'s samples. Errors carry `path:line`."""
    kind = SampleKind(kind)

    def pair(row: list[str]) -> tuple[str, str]:
        _check_truth("truth", kind, row[0])
        return row[0], row[1]

    return read_csv(path, {("truth", "output"): pair}, header="optional")


def _confusion_items(report: OcrReport) -> list[tuple[str, str, int]]:
    return sorted((f, t, c) for (f, t), c in report.confusions.items())


def report_to_json(report: OcrReport, include_speed: bool = True) -> str:
    payload = {
        "kind": report.kind.value,
        "total": report.total,
        "mismatches": report.mismatches,
        "error_rate": report.error_rate,
        "confusions": [
            {"from": f, "to": t, "count": c} for f, t, c in _confusion_items(report)
        ],
        "mean_speed_s": report.mean_speed_s if include_speed else 0.0,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: OcrReport, include_speed: bool = True) -> str:
    confusions = ";".join(f"{f}>{t}:{c}" for f, t, c in _confusion_items(report))
    lines = [
        "kind,total,mismatches,error_rate,confusions,mean_speed_s",
        ",".join(
            [
                report.kind.value,
                str(report.total),
                str(report.mismatches),
                repr(report.error_rate),
                csv_cell(confusions),
                repr(report.mean_speed_s if include_speed else 0.0),
            ]
        ),
    ]
    return "\n".join(lines) + "\n"
