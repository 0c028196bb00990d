import csv
import hashlib
import io
import random
import re
import string
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dp_align_confusions
from percept_cane.ocr_lab import (
    _DIGITS2,
    _DIGITS3,
    ENGINE_PROFILES_FILE,
    MAX_SAMPLES,
    Compute,
    EngineProfile,
    OcrReport,
    RoutePolicy,
    SampleKind,
    _check_truth,
    align_confusions,
    generate_samples,
    load_engine_profiles,
    load_wordlist,
    report_to_csv,
    report_to_json,
    route,
    run_benchmark,
    sample_ids,
    score,
)
from percept_cane.perception import BackendError, build_ocr
from percept_cane.resources import data_path

NUMBER_RE = re.compile(r"^\d{5}\.\d{2}$")
ALPHA_RE = re.compile(r"^[a-z]+ [a-z]+$")


def test_wordlist_is_clean():
    words = load_wordlist()
    assert len(words) == 2048
    assert len(set(words)) == 2048
    assert all(w.isalpha() and w == w.lower() for w in words)


def test_wordlist_rejects_non_ascii_letters(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("cafe\ncafé\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad wordlist entry 'café'"):
        load_wordlist(path)


def test_generate_number_samples():
    (truth,) = generate_samples(SampleKind.NUMBERS, 1, seed=3)
    assert NUMBER_RE.match(truth)


def test_generate_alphabet_samples_format():
    truths = generate_samples(SampleKind.ALPHABETS, 1000, seed=3)
    assert len(truths) == 1000
    assert all(ALPHA_RE.match(t) for t in truths)


def test_generate_deterministic_per_seed():
    a = generate_samples(SampleKind.ALPHABETS, 50, seed=11)
    b = generate_samples(SampleKind.ALPHABETS, 50, seed=11)
    assert a == b
    c = generate_samples(SampleKind.ALPHABETS, 50, seed=12)
    assert a != c


CORPUS_SHA256 = {
    ("alphabets", 3): "6ba193ce9682ea30ef27ea29ac3d322e0a0d7ba71373128b323b736976831036",
    ("alphabets", 11): "984fb0727480adc462a5ac3853005f3d54902f1402753426a1141fc9ae03898e",
    ("numbers", 3): "f02d862146e9725de39de617331b37f6b733176ab60ddaba22f072eb3902c0d5",
    ("numbers", 11): "7b1d7c9091f6706a7d2115e4afa2136e4ca6113fb765861c5cb735bb0af9bbd7",
}


@pytest.mark.parametrize("kind, seed", sorted(CORPUS_SHA256))
def test_generated_corpus_is_pinned(kind, seed):
    """The corpus itself, not only its scores: a changed draw order or id
    format could score the same and still pass perfbench's digests."""
    truths = generate_samples(SampleKind(kind), 2000, seed=seed)
    listing = "\n".join(f"{i},{t}" for i, t in zip(sample_ids(SampleKind(kind), 2000), truths))
    assert hashlib.sha256(listing.encode()).hexdigest() == CORPUS_SHA256[kind, seed]


@pytest.mark.parametrize("kind", list(SampleKind))
@pytest.mark.parametrize("n", [1, 99, 100, 101, 99_999, 100_000, 100_001, 100_150])
def test_sample_ids_across_block_and_digit_count_boundaries(kind, n):
    """Ids are built a hundreds block at a time and cut at ``n``; from index
    100000 on they have six digits."""
    assert sample_ids(kind, n) == [f"{kind.value}-{i:05d}" for i in range(n)]


def test_digit_tables_render_every_zero_padding_shape():
    """The five digits of a numbers truth, for every value the draw can
    make: the corpus oracle rarely draws a value below 100."""
    assert [_DIGITS3[a // 100] + _DIGITS2[a % 100] for a in range(100000)] == [
        f"{a:05d}" for a in range(100000)
    ]
    assert list(_DIGITS2) == [f"{b:02d}" for b in range(100)]


def _words(count: int) -> list[str]:
    """``count`` distinct lowercase words: ``a``..``z``, then ``ba``, ``bb``..."""
    out = []
    for i in range(count):
        word = string.ascii_lowercase[i % 26]
        while i >= 26:
            i //= 26
            word = string.ascii_lowercase[i % 26] + word
        out.append(word)
    return out


@pytest.mark.parametrize("seed", [0, 3, 11, 2**40 + 7])
def test_generated_draws_match_random_choice_and_randrange(seed):
    """Differential oracle: the corpus is what ``Random.choice`` and
    ``Random.randrange`` draw, for word lists on both sides of a power of
    two, and every generated truth passes its kind's shape check."""
    rng = random.Random(seed)
    expected = [f"{rng.randrange(100000):05d}.{rng.randrange(100):02d}" for _ in range(500)]
    numbers = generate_samples(SampleKind.NUMBERS, 500, seed=seed)
    assert numbers == expected
    for truth in numbers:
        _check_truth("truth", SampleKind.NUMBERS, truth)
    for count in (1, 3, 2047, 2048, 2049):
        words = _words(count)
        assert len(set(words)) == count
        rng = random.Random(seed)
        expected = [f"{rng.choice(words)} {rng.choice(words)}" for _ in range(500)]
        generated = generate_samples(SampleKind.ALPHABETS, 500, seed=seed, words=words)
        assert generated == expected, count
        for truth in generated:
            _check_truth("truth", SampleKind.ALPHABETS, truth)


@pytest.mark.parametrize("bad", ["Word", "café", "", "a1", "a b"])
def test_generate_rejects_bad_word_even_if_never_drawn(bad):
    words = _words(8)
    rng = random.Random(5)
    drawn = {words.index(rng.choice(words)) for _ in range(2)}
    index = max(set(range(8)) - drawn)
    words[index] = bad
    with pytest.raises(ValueError, match=re.escape(f"words[{index}]: bad word {bad!r}")):
        generate_samples(SampleKind.ALPHABETS, 1, seed=5, words=words)


def test_generate_rejects_empty_words():
    with pytest.raises(ValueError, match="words: empty"):
        generate_samples(SampleKind.ALPHABETS, 1, seed=0, words=[])


def test_generate_rejects_zero():
    with pytest.raises(ValueError):
        generate_samples(SampleKind.NUMBERS, 0, seed=0)


def test_sample_count_is_capped_before_anything_is_built():
    message = f"n must be at most {MAX_SAMPLES}"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            generate_samples(SampleKind.NUMBERS, MAX_SAMPLES + 1, seed=0)
        with pytest.raises(ValueError, match=message):
            sample_ids(SampleKind.NUMBERS, MAX_SAMPLES + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # MAX_SAMPLES strings would take tens of MB


def test_score_error_rate_definition():
    pairs = [("okay", "okay")] * 945 + [("okay", "okey")] * 55
    report = score(pairs, SampleKind.ALPHABETS)
    assert report.total == 1000
    assert report.mismatches == 55
    assert report.error_rate == 5.50


def test_score_all_match():
    report = score([("one", "one"), ("two", "two")], SampleKind.ALPHABETS)
    assert report.error_rate == 0.0
    assert report.confusions == {}


def test_score_extracts_substitution_confusions():
    report = score([("text", "rexr")], SampleKind.ALPHABETS)
    assert report.confusions == {("t", "r"): 2}


def test_score_permutation_invariant(rng):
    pairs = [("abcd", "abcd"), ("text", "rexr"), ("hello", "heiio"), ("x", "y")]
    base = score(pairs, SampleKind.ALPHABETS)
    for _ in range(10):
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        again = score(shuffled, SampleKind.ALPHABETS)
        assert (again.mismatches, again.error_rate, again.confusions) == (
            base.mismatches,
            base.error_rate,
            base.confusions,
        )


def test_score_rejects_empty():
    with pytest.raises(ValueError):
        score([], SampleKind.NUMBERS)


def test_align_prefers_substitution_over_indel():
    assert align_confusions("ab", "cb") == {("a", "c"): 1}


def test_align_pure_insertions_and_deletions_yield_no_confusions():
    assert align_confusions("abc", "abcd") == {}
    assert align_confusions("abcd", "abc") == {}
    assert align_confusions("note", "note.") == {}


ALIGN_ALPHABET = "abc"
ALIGN_TEXT = st.text(alphabet=ALIGN_ALPHABET, max_size=8)


@st.composite
def substituted(draw):
    """An equal-length pair differing in 0-3 chosen positions."""
    truth = draw(ALIGN_TEXT)
    positions = draw(st.sets(st.integers(0, len(truth) - 1), max_size=3)) if truth else ()
    chars = list(truth)
    for i in positions:
        chars[i] = draw(st.sampled_from([c for c in ALIGN_ALPHABET if c != truth[i]]))
    return truth, "".join(chars)


@st.composite
def transposed(draw):
    """An equal-length pair with one or two adjacent characters swapped."""
    truth = draw(st.text(alphabet=ALIGN_ALPHABET, min_size=2, max_size=8))
    chars = list(truth)
    for i in draw(st.lists(st.integers(0, len(truth) - 2), min_size=1, max_size=2)):
        chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return truth, "".join(chars)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(pair=st.one_of(st.tuples(ALIGN_TEXT, ALIGN_TEXT), substituted(), transposed()))
def test_align_matches_full_table(pair):
    """The position-wise path for at most two substitutions agrees with the
    full table on every pair, including three-position pairs such as
    abc -> bca where an insertion and a deletion are cheaper."""
    truth, output = pair
    assert align_confusions(truth, output) == dp_align_confusions(truth, output)


def test_align_recovers_injected_substitutions(rng):
    # substitute letters with digits: alphabets are disjoint, so the
    # minimum-cost alignment is forced to report exactly the injections
    for _ in range(300):
        n = rng.randint(3, 12)
        truth = "".join(rng.choice(string.ascii_lowercase) for _ in range(n))
        k = rng.randint(1, n)
        positions = rng.sample(range(n), k)
        out = list(truth)
        injected = {}
        for pos in positions:
            digit = rng.choice(string.digits)
            injected[(truth[pos], digit)] = injected.get((truth[pos], digit), 0) + 1
            out[pos] = digit
        assert dict(align_confusions(truth, "".join(out))) == injected


def test_route_reference_matrix():
    profiles = load_engine_profiles(data_path(ENGINE_PROFILES_FILE))
    assert route(SampleKind.ALPHABETS, Compute.CPU, RoutePolicy.ACCURACY, profiles) == "tesseract"
    assert route(SampleKind.NUMBERS, Compute.GPU, RoutePolicy.ACCURACY, profiles) == "easyocr"
    assert route(SampleKind.NUMBERS, Compute.CPU, RoutePolicy.SPEED, profiles) == "tesseract"
    assert route(SampleKind.ALPHABETS, Compute.GPU, RoutePolicy.SPEED, profiles) == "easyocr"


def test_route_accepts_plain_strings():
    profiles = load_engine_profiles(data_path(ENGINE_PROFILES_FILE))
    assert route("alphabets", "cpu", "accuracy", profiles) == "tesseract"


def test_route_tie_break_by_engine_id():
    tie = [
        EngineProfile("zeta", 5.0, 5.0, 1.0, 1.0),
        EngineProfile("alpha", 5.0, 5.0, 1.0, 1.0),
    ]
    assert route(SampleKind.NUMBERS, Compute.CPU, RoutePolicy.ACCURACY, tie) == "alpha"
    with pytest.raises(ValueError):
        route(SampleKind.NUMBERS, Compute.CPU, RoutePolicy.ACCURACY, [])


def test_engine_profiles_bundled_values():
    profiles = {p.engine_id: p for p in load_engine_profiles(data_path(ENGINE_PROFILES_FILE))}
    tess, easy = profiles["tesseract"], profiles["easyocr"]
    assert (tess.error_rate_numbers, tess.error_rate_alphabets) == (5.50, 0.70)
    assert (tess.speed_cpu_s, tess.speed_gpu_s) == (0.30, 0.25)
    assert (easy.error_rate_numbers, easy.error_rate_alphabets) == (1.90, 4.30)
    assert (easy.speed_cpu_s, easy.speed_gpu_s) == (0.82, 0.07)


def test_benchmark_clean_engine_is_perfect():
    report = run_benchmark(SampleKind.ALPHABETS, 200, build_ocr("mock", seed=0), seed=0)
    assert report.error_rate == 0.0
    assert report.confusions == {}


def test_benchmark_calibrated_engine_in_band():
    backend = build_ocr("mock-tesseract", seed=42)
    report = run_benchmark(SampleKind.ALPHABETS, 1000, backend, seed=42)
    assert 0.1 <= report.error_rate <= 1.5
    assert report.error_rate == 100.0 * report.mismatches / report.total
    assert set(report.confusions) <= {("t", "r")}


def test_benchmark_easyocr_numbers_in_band():
    backend = build_ocr("mock-easyocr", seed=42)
    report = run_benchmark(SampleKind.NUMBERS, 1000, backend, seed=42)
    # only the decimal point is confusable in a number sample
    assert set(report.confusions) <= {(".", "_")}
    assert 0.5 <= report.error_rate <= 4.0


def test_benchmark_wraps_backend_failures():
    class Broken:
        backend_id = "broken"

        def transcribe(self, text, key):
            raise RuntimeError("lens cap on")

    with pytest.raises(BackendError, match="numbers-00000"):
        run_benchmark(SampleKind.NUMBERS, 3, Broken(), seed=0)


@pytest.mark.parametrize(
    "error", [BackendError("flaky", "lens cap on"), RuntimeError("lens cap on")], ids=["backend", "runtime"]
)
def test_benchmark_failure_names_the_failing_sample(error):
    class FailsThird:
        backend_id = "flaky"

        def __init__(self):
            self.keys = []

        def transcribe(self, text, key):
            self.keys.append(key)
            if len(self.keys) == 3:
                raise error
            return text

    backend = FailsThird()
    with pytest.raises(BackendError) as info:
        run_benchmark(SampleKind.NUMBERS, 5, backend, seed=0)
    assert backend.keys == ["numbers-00000", "numbers-00001", "numbers-00002"]
    assert str(info.value) == "backend 'flaky' failed: numbers-00002: lens cap on"
    assert info.value.__cause__ is error


def test_report_round_trip_exports():
    report = OcrReport(
        kind=SampleKind.ALPHABETS,
        total=10,
        mismatches=2,
        confusions={("t", "r"): 2, ("l", "i"): 1},
        mean_speed_s=0.125,
    )
    js = report_to_json(report)
    assert '"error_rate": 20.0' in js
    assert js.index('"from": "l"') < js.index('"from": "t"')
    csv_text = report_to_csv(report)
    assert csv_text.splitlines()[1] == "alphabets,10,2,20.0,l>i:1;t>r:2,0.125"
    hidden = report_to_csv(report, include_speed=False)
    assert hidden.splitlines()[1].endswith(",0.0")


def test_report_csv_quotes_confusions_from_input():
    # a numbers output read with a decimal comma would split the row
    report = score([("12345.67", "12345,67")], SampleKind.NUMBERS)
    _, row = csv.reader(io.StringIO(report_to_csv(report), newline=""))
    assert row == ["numbers", "1", "1", "100.0", ".>,:1", "0.0"]
    # a quote, LF and a lone CR are quoted as well
    pairs = [("abc", 'a"c'), ("abd", "a\nd"), ("abe", "a\re")]
    _, row = csv.reader(io.StringIO(report_to_csv(score(pairs, SampleKind.ALPHABETS)), newline=""))
    assert len(row) == 6 and row[4] == 'b>\n:1;b>\r:1;b>":1'
    # the mock engines' confusions stay plain bytes
    plain = {("t", "r"): 1, ("l", "i"): 1, ("h", "n"): 1, ("f", "t"): 1, ("d", "a"): 1, (".", "_"): 1}
    report = OcrReport(SampleKind.NUMBERS, 6, 6, plain, 0.0)
    assert report_to_csv(report).splitlines()[1] == "numbers,6,6,100.0,.>_:1;d>a:1;f>t:1;h>n:1;l>i:1;t>r:1,0.0"


def test_report_invariants():
    with pytest.raises(ValueError):
        OcrReport(kind=SampleKind.NUMBERS, total=0, mismatches=0)
    with pytest.raises(ValueError):
        OcrReport(kind=SampleKind.NUMBERS, total=5, mismatches=6)


def test_report_error_rate_is_derived_from_its_counts():
    # a stored rate could disagree with the counts it summarizes
    report = OcrReport(kind=SampleKind.NUMBERS, total=10, mismatches=1)
    assert report.error_rate == 10.0
    assert report_to_csv(report).splitlines()[1] == "numbers,10,1,10.0,,0.0"
    with pytest.raises(TypeError):
        OcrReport(kind=SampleKind.NUMBERS, total=10, mismatches=1, error_rate=99.0)


@pytest.mark.parametrize("engine_id", ["", "  ", "tesseract ", " easyocr"])
def test_engine_profile_rejects_empty_or_padded_engine_id(engine_id):
    # routing returns the id as the answer, so a blank or padded one would print as such
    message = f"^engine_id must be non-empty without leading or trailing whitespace, got {engine_id!r}$"
    with pytest.raises(ValueError, match=message):
        EngineProfile(engine_id, 5.5, 0.7, 0.3, 0.25)
