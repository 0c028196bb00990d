"""Generated input files through the CLI: every outcome is exit 0, or exit 1
with a message that starts with ``error: <the file's path>``.

The generators mix well-formed values with wrong types, special floats,
unknown keys, odd CSV cells and undecodable bytes. Scenario durations and
tick lengths are bounded (at most 200 ticks), so a valid scenario replays
quickly; examples are derandomized and few, so the suite stays fast.
"""

import csv
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from percept_cane.cli import main
from percept_cane.detector_lab import PRED_FIELDS, TRUTH_FIELDS, load_predictions, load_truths
from percept_cane.pipeline import demo_scenario_path

SETTINGS = settings(
    max_examples=25,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# wrong types and special values; no tiny positive float, so no generated
# tick length can ask for more than a few hundred ticks
ODD = st.sampled_from(
    [None, True, False, 0, -1, 2.5, 1e308, 10**400, float("nan"), float("inf")]
    + ["", "1", "{", [], {}]
)
UNIT = st.floats(0.0, 1.0, allow_nan=False)
# an explicit alphabet spares Hypothesis from building its Unicode tables
TEXT = st.text(alphabet="ab Z\u00e9{}\n", max_size=5)
BOX = st.one_of(
    st.lists(UNIT, min_size=4, max_size=4),
    st.lists(st.one_of(UNIT, ODD), min_size=3, max_size=5),
    ODD,
)


def entries(label: str, box: str, labels: st.SearchStrategy) -> st.SearchStrategy:
    entry = st.fixed_dictionaries(
        {label: st.one_of(labels, ODD), box: BOX}, optional={"extra": ODD}
    )
    return st.one_of(st.lists(st.one_of(entry, ODD), max_size=3), ODD)


FRAME = st.fixed_dictionaries(
    {},
    optional={
        "frame_id": st.one_of(TEXT, ODD),
        "texts": entries("text", "region", TEXT),
        "objects": entries("label", "box", st.sampled_from(["chair", "person", "door"])),
        "colour": ODD,
    },
)
EVENT = st.fixed_dictionaries(
    {
        "t": st.one_of(st.integers(0, 20), st.floats(0.0, 20.0), ODD),
        "distance_cm": st.one_of(st.floats(0.0, 400.0), ODD),
    },
    optional={"frame": st.one_of(FRAME, ODD), "speed": ODD},
)
SCENARIO = st.one_of(
    st.fixed_dictionaries(
        {
            "name": st.one_of(TEXT, ODD),
            "tick_s": st.one_of(st.sampled_from([0.1, 0.5, 1]), ODD),
            "duration_s": st.one_of(st.floats(0.5, 20.0), ODD),
            "events": st.one_of(st.lists(st.one_of(EVENT, ODD), max_size=4), ODD),
        },
        optional={"speed": ODD},
    ),
    ODD,
)

SECTIONS = {
    "sensor": {
        "jitter_std_s": st.floats(0.0, 0.01),
        "min_range_cm": st.floats(0.0, 500.0),
    },
    "alert": {
        "threshold_cm": st.floats(0.0, 300.0),
        "rearm_margin_cm": st.floats(0.0, 50.0),
    },
    "perception": {
        "ocr": st.sampled_from(["mock", "mock-tesseract", "mock-easyocr", "tesseract"]),
        "miss_prob": st.floats(0.0, 2.0),
        "ocr_latency_s": st.one_of(st.integers(-1, 2), st.floats(0.0, 1.0)),
    },
    "speech": {
        "capacity": st.integers(0, 3),
        "base_per_char_s": st.floats(0.0, 0.1),
    },
}
SECTION = {
    name: st.fixed_dictionaries({}, optional={k: st.one_of(v, ODD) for k, v in fields.items()})
    for name, fields in SECTIONS.items()
}
CONFIG = st.one_of(
    st.fixed_dictionaries(
        {}, optional={**{k: st.one_of(v, ODD) for k, v in SECTION.items()}, "motor": ODD}
    ),
    ODD,
)


def run_cli(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().err


def assert_located(code: int, err: str, *paths) -> None:
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith(tuple(f"error: {p}" for p in paths)), err


def write_json(path, doc, tail: bytes) -> None:
    path.write_bytes(json.dumps(doc).encode() + tail)


# appended to a generated file: nothing, junk, or bytes that are not UTF-8
TAIL = st.sampled_from([b"", b"\n", b"}", b"\xff", b"\n\xc3("])


@SETTINGS
@given(doc=SCENARIO, tail=TAIL)
def test_generated_scenarios_exit_0_or_name_their_path(doc, tail, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    write_json(path, doc, tail)
    assert_located(*run_cli(capsys, ["run", str(path)]), path)


@SETTINGS
@given(doc=CONFIG, tail=TAIL)
def test_generated_configs_exit_0_or_name_their_path(doc, tail, tmp_path, capsys):
    path = tmp_path / "config.json"
    write_json(path, doc, tail)
    argv = ["run", str(demo_scenario_path()), "--config", str(path)]
    assert_located(*run_cli(capsys, argv), path)


NUMERIC = st.one_of(
    st.floats(0.0, 1.0).map(lambda x: f"{x:.3f}"),
    st.sampled_from(["0", "1", "-1", "nan", "inf", "-", "", " 0.5 ", "1e999", "abc", "5", "0.9"]),
)
CELL = st.one_of(NUMERIC, st.text(alphabet="ab \",\n\r-", max_size=4))


def table(header: st.SearchStrategy, width: int, row: st.SearchStrategy | None = None):
    """CSV bytes: a header (or none), up to four rows, then a tail.

    A row is drawn from ``row`` or is ``width`` cells, with some rows one
    cell short or long.
    """
    odd_row = st.lists(CELL, min_size=max(width - 1, 0), max_size=width + 1)
    if row is None:
        row = st.lists(CELL, min_size=width, max_size=width)
    rows = st.lists(st.one_of(row, odd_row), max_size=4)

    def render(parts) -> bytes:
        head, body, tail = parts
        out = io.StringIO()
        csv.writer(out).writerows(([head] if head else []) + body)
        return out.getvalue().encode() + tail

    return st.tuples(header, rows, TAIL).map(render)


def columns(names: tuple[str, ...]) -> st.SearchStrategy:
    """The column names, as given, shuffled with an extra one, or broken."""
    return st.one_of(
        st.just(list(names)),
        st.permutations(list(names) + ["note"]),
        st.lists(st.sampled_from(list(names) + ["x"]), max_size=len(names)),
        st.none(),
    )


def records(names: tuple[str, ...]) -> st.SearchStrategy:
    """Detection records, header optional: mostly two images and labels
    with numeric-looking cells."""
    record = st.tuples(st.sampled_from(["img1", "img2"]), st.sampled_from(["cat", "dog"]))
    row = st.tuples(record, st.lists(NUMERIC, min_size=len(names) - 2, max_size=len(names) - 2))
    header = st.sampled_from([list(names), ["image_id", "label"], None])
    return table(header, len(names), row.map(lambda r: [*r[0], *r[1]]))


@SETTINGS
@given(
    truths=records(("image_id", "label", "x_min", "y_min", "x_max", "y_max")),
    preds=records(("image_id", "label", "confidence", "x_min", "y_min", "x_max", "y_max")),
)
def test_generated_detection_records_exit_0_or_name_their_path(truths, preds, tmp_path, capsys):
    t, p = tmp_path / "truths.csv", tmp_path / "preds.csv"
    t.write_bytes(truths)
    p.write_bytes(preds)
    argv = ["models-eval", "--truths", str(t), "--preds", str(p)]
    assert_located(*run_cli(capsys, argv), t, p)


@SETTINGS
@given(content=table(columns(("distance_cm", "exec_time_s")), 2))
def test_generated_sensor_tables_exit_0_or_name_their_path(content, tmp_path, capsys):
    path = tmp_path / "timings.csv"
    path.write_bytes(content)
    assert_located(*run_cli(capsys, ["sensor-bench", "--table", str(path)]), path)


PROFILE_NAMES = ("engine", "err_numbers", "err_alphabets", "speed_cpu_s", "speed_gpu_s")


@SETTINGS
@given(content=table(columns(PROFILE_NAMES), 5), policy=st.sampled_from(["speed", "accuracy"]))
def test_generated_profiles_exit_0_or_name_their_path(content, policy, tmp_path, capsys):
    path = tmp_path / "profiles.csv"
    path.write_bytes(content)
    argv = ["ocr-route", "--kind", "numbers", "--compute", "gpu", "--policy", policy]
    argv += ["--profiles", str(path)]
    assert_located(*run_cli(capsys, argv), path)


MODEL_HEADERS = st.sampled_from(
    [
        ["name", "framework", "gflops", "mparams", "map"],
        ["id", "name", "input_size", "gflops", "mparams", "size_mb", "map50", "map5095"],
        ["name", "gflops"],
        None,
    ]
)


@SETTINGS
@given(
    content=st.one_of(table(MODEL_HEADERS, 8), table(MODEL_HEADERS, 5)),
    field=st.sampled_from(["map50", "map5095"]),
)
def test_generated_model_tables_exit_0_or_name_their_path(content, field, tmp_path, capsys):
    path = tmp_path / "models.csv"
    path.write_bytes(content)
    argv = ["models-pareto", "--table", str(path), "--map-field", field]
    assert_located(*run_cli(capsys, argv), path)


PAIR_CELLS = st.one_of(
    st.sampled_from(["12345.67", "00000.00", "hello world", "text", "abc", "Word", "1234.56"]),
    CELL,
)


@SETTINGS
@given(
    content=table(
        st.sampled_from([["truth", "output"], None]),
        2,
        st.lists(PAIR_CELLS, min_size=2, max_size=2),
    ),
    kind=st.sampled_from(["alphabets", "numbers"]),
)
def test_generated_pairs_exit_0_or_name_their_path(content, kind, tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    path.write_bytes(content)
    assert_located(*run_cli(capsys, ["ocr-score", str(path), "--kind", kind]), path)


# One corruption of a valid detection row: (cell offset, new text), or a
# cell dropped or added.
CORRUPTIONS = st.sampled_from(
    [(-1, "abc"), (-1, "0.5_0"), (-3, "nan"), (1, " cat"), (-4, "0.95"), "drop", "add"]
)


@st.composite
def corrupted_detection_rows(draw, width: int) -> list[list[str]]:
    """Up to six valid detection rows of ``width`` cells, at most three of
    them corrupted: a bad number, an underscore, a NaN, a padded label,
    x_min above x_max, or a wrong width."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        x0, y0 = draw(st.sampled_from(["0.1", "0.2"])), draw(st.sampled_from(["0.1", "0.3"]))
        conf = ["0.7"] if width == 7 else []
        rows.append([draw(st.sampled_from(["img1", "img2"])), draw(st.sampled_from(["cat", "dog"])),
                     *conf, x0, y0, "0.5", "0.6"])
    for index, corruption in draw(st.lists(st.tuples(st.integers(0, 5), CORRUPTIONS), max_size=3)):
        row = rows[index % len(rows)]
        if corruption == "drop":
            del row[-1]
        elif corruption == "add":
            row.append("0.1")
        else:
            row[corruption[0]] = corruption[1]
    return rows


def _located_load(load, path, text: str) -> str | None:
    path.write_text(text)
    try:
        load(path)
    except ValueError as exc:
        return str(exc)
    return None


@settings(SETTINGS, max_examples=60)
@given(
    layout=st.sampled_from([("truths", TRUTH_FIELDS, load_truths), ("preds", PRED_FIELDS, load_predictions)]),
    data=st.data(),
)
def test_a_table_loads_exactly_when_each_row_loads_alone(layout, data, tmp_path):
    """The whole file fails with the first failing one-row file's message,
    its line mapped, and loads when every one-row file does."""
    name, fields, load = layout
    rows = data.draw(corrupted_detection_rows(len(fields)))
    header = ",".join(fields) + "\n"
    whole, one = tmp_path / f"{name}.csv", tmp_path / f"{name}-row.csv"
    expected = None
    for i, row in enumerate(rows):
        message = _located_load(load, one, header + ",".join(row) + "\n")
        if message is not None:
            prefix = f"{one}:2: "
            assert message.startswith(prefix), message
            expected = f"{whole}:{i + 2}: {message[len(prefix):]}"
            break
    assert _located_load(load, whole, header + "".join(",".join(r) + "\n" for r in rows)) == expected
