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
from dataclasses import MISSING, dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

from .checks import LINE_BREAK_OR_TAB, check_fields, check_name, csv_cell, number_cells, ranged, read_csv, read_text
from .perception import OcrBackend, transcribe_each
from .resources import data_path

WORDLIST_FILE = "wordlist.txt"
ENGINE_PROFILES_FILE = "engine_profiles.csv"
# Upper bound on a corpus's sample count, checked before anything is
# allocated; the benchmark corpus has 8,000 samples.
MAX_SAMPLES = 1_000_000
# Upper bound on the length of a truth or an output in a pairs file, checked
# before any alignment, whose table grows with the product of the two
# lengths; a generated truth has at most 17 characters.
MAX_PAIR_CHARS = 256


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
    error_rate_numbers: float = ranged(MISSING, 0, 100)
    error_rate_alphabets: float = ranged(MISSING, 0, 100)
    speed_cpu_s: float = ranged(MISSING, 0, above=True)
    speed_gpu_s: float = ranged(MISSING, 0, above=True)

    def __post_init__(self) -> None:
        check_name(self.engine_id, "engine_id")
        # ocr-route prints the id as its one output line
        if LINE_BREAK_OR_TAB.search(self.engine_id):
            raise ValueError("engine_id must be one line without tabs")
        check_fields(self)

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
    total: int = ranged(MISSING, 0, above=True)
    mismatches: int = ranged(MISSING, 0)
    confusions: dict[tuple[str, str], int] = field(default_factory=dict)
    mean_speed_s: float = ranged(0.0, 0)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.mismatches > self.total:
            raise ValueError("mismatches out of range")

    @property
    def error_rate(self) -> float:
        """Percentage of samples that mismatch."""
        return 100.0 * self.mismatches / self.total


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
    """The whitespace-separated words of a wordlist file; a bad one is named ``path:line``."""
    if path is None:
        path = data_path(WORDLIST_FILE)
    text = read_text(path)
    words = text.split()

    def bad(_: int, word: str) -> str:
        # the first bad word is the first occurrence of that word; lines end
        # at "\n", as read_text counts them, and the other line breaks that
        # str.splitlines knows are whitespace that splits words within a line
        line = next(n for n, row in enumerate(text.split("\n"), start=1) if word in row.split())
        return f"{path}:{line}: bad wordlist entry {word!r}"

    _check_words(words, bad, f"{path}: empty wordlist")
    return words


# Zero-padded digit strings. A numbers truth and a sample id are joined
# from them: a format spec with a width costs more than the joins.
_DIGITS3 = tuple(f"{i:03d}" for i in range(1000))
_DIGITS2 = tuple(f"{i:02d}" for i in range(100))


def generate_samples(
    kind: SampleKind,
    n: int,
    seed: int,
    words: Sequence[str] | None = None,
) -> list[str]:
    """Deterministic benchmark corpus for one sample kind: the truths, in
    the order of their ids (:func:`sample_ids`).

    Numbers follow the fixed NNNNN.NN shape, joined from the zero-padded
    digit tables; alphabets are two words drawn from ``words`` (default:
    the bundled wordlist), every one of which must have the alphabets truth
    shape, drawn or not. Each draw is the rejection loop of CPython's
    ``Random._randbelow`` written inline, ``getrandbits(k)`` until the value
    is below the bound, so each value is the one ``randrange`` (or
    ``choice``) would draw next from ``random.Random(seed)``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_SAMPLES:
        raise ValueError(f"n must be at most {MAX_SAMPLES}")
    kind = SampleKind(kind)
    getrandbits = random.Random(seed).getrandbits
    truths: list[str] = []
    append = truths.append
    if kind is SampleKind.NUMBERS:
        digits3, digits2 = _DIGITS3, _DIGITS2
        for _ in range(n):
            a = getrandbits(17)  # (100000).bit_length()
            while a >= 100000:
                a = getrandbits(17)
            b = getrandbits(7)  # (100).bit_length()
            while b >= 100:
                b = getrandbits(7)
            append(f"{digits3[a // 100]}{digits2[a % 100]}.{digits2[b]}")
        return truths
    if words is None:
        words = load_wordlist()
    _check_words(words, lambda i, w: f"words[{i}]: bad word {w!r}", "words: empty")
    m = len(words)
    k = m.bit_length()
    for _ in range(n):
        a = getrandbits(k)
        while a >= m:
            a = getrandbits(k)
        b = getrandbits(k)
        while b >= m:
            b = getrandbits(k)
        append(f"{words[a]} {words[b]}")
    return truths


def sample_ids(kind: SampleKind, n: int) -> list[str]:
    """The ids of a corpus's first ``n`` samples, ``f"{kind}-{index:05d}"``.

    Built from the digit tables a hundreds block at a time: each block's
    head (``_DIGITS3[h]``, or ``str(h)`` from block 1000 on, whose indices
    have six or more digits) is followed by every ``_DIGITS2`` tail, and
    the list is cut at ``n``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_SAMPLES:
        raise ValueError(f"n must be at most {MAX_SAMPLES}")
    prefix = f"{SampleKind(kind).value}-"
    heads = [prefix + (_DIGITS3[h] if h < 1000 else str(h)) for h in range(-(-n // 100))]
    ids = [head + tail for head in heads for tail in _DIGITS2]
    del ids[n:]
    return ids


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

    ``mean_speed_s`` is the time of the whole transcription over ``n``.
    Samples are transcribed under their ids, so a failure names its sample.
    """
    kind = SampleKind(kind)
    truths = generate_samples(kind, n, seed, words=words)
    ids = sample_ids(kind, n)
    t0 = time.perf_counter()
    outputs = transcribe_each(backend, truths, ids)
    elapsed = time.perf_counter() - t0
    return replace(score(list(zip(truths, outputs)), kind), mean_speed_s=elapsed / n)


_PROFILE_COLUMNS = ("engine", "err_numbers", "err_alphabets", "speed_cpu_s", "speed_gpu_s")


def _profiles(engines: list[str], *cells: list[str]) -> list[EngineProfile]:
    return list(map(EngineProfile, engines, *number_cells(cells, _PROFILE_COLUMNS[1:])))


def load_engine_profiles(path: str | Path) -> list[EngineProfile]:
    """Load an engine profile CSV (columns by name); errors carry `path:line`."""
    return read_csv(path, {_PROFILE_COLUMNS: _profiles})


def load_pairs(path: str | Path, kind: SampleKind | str) -> list[tuple[str, str]]:
    """Read ``truth,output`` rows (a header, if any, names them in any
    order); every truth must have the shape of ``kind``'s samples, and no
    cell may be longer than ``MAX_PAIR_CHARS``. Errors carry `path:line`."""
    kind = SampleKind(kind)

    def pairs(truths: list[str], outputs: list[str]) -> list[tuple[str, str]]:
        for name, texts in (("truth", truths), ("output", outputs)):
            if max(map(len, texts), default=0) > MAX_PAIR_CHARS:
                raise ValueError(f"{name} must be at most {MAX_PAIR_CHARS} characters")
        for truth in truths:
            _check_truth("truth", kind, truth)
        return list(zip(truths, outputs))

    return read_csv(path, {("truth", "output"): pairs}, optional_header=True)


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
