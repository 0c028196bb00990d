import argparse
import codecs
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from percept_cane.cli import build_parser, main

FIG8_FRONTIER_ROW = "mobilenet-ssd,2.316,79.8377"

FIG10_FRONTIER_ROWS = [
    "yolo-fastest@320,0.25,24.4",
    "yolo-fastest-xl@320,0.72,34.3",
    "yolov5-lite@320,1.43,36.2",
    "yolov5-lite@640,2.42,45.7",
    "yolov5s@640,17.0,55.4",
]

# models-eval on _seeded_detection_files(), recorded with the earlier
# per-threshold evaluator; any change here is a change of the metric.
PINNED_MODELS_EVAL = "map50,73.90427370394953\nmap5095,49.678988623290955\n"

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

def test_sensor_bench_stdout(capsys):
    code, out, err = run_cli(capsys, "sensor-bench")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "distance_cm,exec_time_s"
    assert lines[-1] == "mean,0.007137478"
    assert len(lines) == 12  # header + 10 rows + mean
    assert err == ""


@pytest.mark.parametrize(
    "row, message",
    [
        ("nan,0.01", "distance_cm must be finite, got nan"),
        ("50,inf", "exec_time_s must be finite, got inf"),
        ("50,-1", "exec_time_s must be positive"),
        ("60,0.02,99", "expected 2 fields, got 3"),
        ("60", "expected 2 fields, got 1"),
        ("9" * 140_000 + ",0.01", "field larger than field limit (131072)"),
    ],
    ids=["nan-distance", "inf-exec-time", "negative-exec-time", "long-row", "short-row", "huge-field"],
)
def test_sensor_bench_bad_table_names_line(row, message, tmp_path, capsys):
    table = tmp_path / "timings.csv"
    table.write_text(f"distance_cm,exec_time_s\n50,0.01\n{row}\n")
    code, out, err = run_cli(capsys, "sensor-bench", "--table", str(table))
    assert (code, out) == (1, "")
    assert err == f"error: {table}:3: {message}\n"


def test_models_pareto_default_table(capsys):
    code, out, err = run_cli(capsys, "models-pareto")
    assert code == 0
    assert out.splitlines() == [FIG8_FRONTIER_ROW]
    assert err == ""

def test_models_pareto_map50(capsys):
    code, out, err = run_cli(
        capsys, "models-pareto", "--table", "fig10_models.csv", "--map-field", "map50"
    )
    assert code == 0
    assert out.splitlines() == FIG10_FRONTIER_ROWS
    assert "nanodet-m@320" in err and "nanodet-m@416" in err  # no map50 values

def test_models_pareto_map5095(capsys):
    code, out, err = run_cli(
        capsys, "models-pareto", "--table", "fig10_models.csv", "--map-field", "map5095"
    )
    assert code == 0
    assert out.splitlines() == [
        "nanodet-m@320,0.72,20.6",
        "nanodet-m@416,1.2,23.5",
        "yolov5-lite@640,2.42,27.1",
        "yolov5s@640,17.0,36.7",
    ]
    assert "yolo-fastest@320" in err  # has no map5095 value

def test_models_recommend_within_budget(capsys):
    code, out, _ = run_cli(capsys, "models-recommend", "--budget", "3.0")
    assert code == 0
    assert out == FIG8_FRONTIER_ROW + "\n"

def test_models_recommend_budget_too_small(capsys):
    code, out, err = run_cli(capsys, "models-recommend", "--budget", "0.1")
    assert code == 1
    assert out == ""
    assert "mobilenet-ssd" in err and "2.316" in err

@pytest.mark.parametrize(
    "budget, shown", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e400", "inf")]
)
def test_models_recommend_budget_must_be_finite(budget, shown, capsys):
    code, out, err = run_cli(capsys, "models-recommend", f"--budget={budget}")
    assert (code, out, err) == (1, "", f"error: budget must be finite, got {shown}\n")


@pytest.mark.parametrize(
    "command, out",
    [
        (("models-pareto",), "".join(row + "\n" for row in FIG10_FRONTIER_ROWS)),
        (("models-recommend", "--budget", "2.0"), "yolov5-lite@320,1.43,36.2\n"),
    ],
    ids=["models-pareto", "models-recommend"],
)
def test_model_commands_note_the_rows_they_leave_out(command, out, capsys):
    code, got, err = run_cli(capsys, *command, "--table", "fig10_models.csv")
    assert (code, got) == (0, out)
    assert err == "note: excluded rows without map50: nanodet-m@320, nanodet-m@416\n"

def test_models_eval(tmp_path, capsys):
    truths = tmp_path / "truths.csv"
    truths.write_text(
        "image_id,label,x_min,y_min,x_max,y_max\n"
        "img1,cat,0.1,0.1,0.5,0.5\n"
        "img1,dog,0.6,0.6,0.9,0.9\n"
        "img2,cat,0.2,0.2,0.7,0.7\n"
    )
    preds = tmp_path / "preds.csv"
    preds.write_text(
        "image_id,label,confidence,x_min,y_min,x_max,y_max\n"
        "img1,cat,0.9,0.1,0.1,0.5,0.5\n"
        "img1,dog,0.8,0.6,0.6,0.9,0.88\n"
        "img2,cat,0.7,0.2,0.2,0.7,0.7\n"
    )
    code, out, _ = run_cli(
        capsys, "models-eval", "--truths", str(truths), "--preds", str(preds)
    )
    assert code == 0
    assert out.splitlines() == ["map50,100.0", "map5095,95.0"]


def test_models_eval_over_the_pair_cap_exits_1(tmp_path, capsys, monkeypatch):
    from percept_cane import detector_lab

    truths, preds = _seeded_detection_files(tmp_path)
    monkeypatch.setattr(detector_lab, "MAX_IOU_PAIRS", 10)
    code, out, err = run_cli(capsys, "models-eval", "--truths", str(truths), "--preds", str(preds))
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: \d+ truths and \d+ predictions make \d+ same-label, same-image pairs, "
                        r"more than MAX_IOU_PAIRS \(10\)\n", err)


@pytest.mark.parametrize("over", ["truths", "preds"])
def test_models_eval_over_the_row_cap_exits_1(over, tmp_path, capsys, monkeypatch):
    from percept_cane import checks

    rows = {"truths": 2, "preds": 2, over: 3}
    truths = tmp_path / "truths.csv"
    truths.write_text("".join(f"img{i},cat,0.1,0.1,0.5,0.5\n" for i in range(rows["truths"])))
    preds = tmp_path / "preds.csv"
    preds.write_text("".join(f"img{i},cat,0.9,0.1,0.1,0.5,0.5\n" for i in range(rows["preds"])))
    monkeypatch.setattr(checks, "MAX_ROWS", 2)
    code, out, err = run_cli(capsys, "models-eval", "--truths", str(truths), "--preds", str(preds))
    assert (code, out) == (1, "")
    assert err == f"error: {tmp_path / over}.csv: 3 rows exceed 2\n"

def _seeded_detection_files(tmp_path, seed=31):
    """~50 images over six labels: jittered hits, misses, false positives.

    Coordinates and confidences are written with two decimals, so tied
    confidences and coinciding boxes occur.
    """
    rng = random.Random(seed)
    labels = ("person", "car", "chair", "dog", "door", "sign")
    truth_rows = ["image_id,label,x_min,y_min,x_max,y_max"]
    pred_rows = ["image_id,label,confidence,x_min,y_min,x_max,y_max"]

    def fmt(*values):
        return ",".join(f"{v:.2f}" for v in values)

    for i in range(50):
        image = f"img{i:02d}"
        for _ in range(rng.randint(1, 4)):
            label = rng.choice(labels)
            w, h = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)
            x0, y0 = rng.uniform(0.0, 1.0 - w), rng.uniform(0.0, 1.0 - h)
            truth_rows.append(f"{image},{label}," + fmt(x0, y0, x0 + w, y0 + h))
            if rng.random() < 0.8:
                dx, dy = rng.uniform(-0.1, 0.1) * w, rng.uniform(-0.1, 0.1) * h
                px0, py0 = min(max(x0 + dx, 0.0), 1.0 - w), min(max(y0 + dy, 0.0), 1.0 - h)
                pred_rows.append(
                    f"{image},{label}," + fmt(rng.uniform(0.3, 1.0), px0, py0, px0 + w, py0 + h)
                )
        if rng.random() < 0.4:
            w = rng.uniform(0.1, 0.4)
            x0 = rng.uniform(0.0, 1.0 - w)
            label = rng.choice(labels)
            pred_rows.append(f"{image},{label}," + fmt(rng.uniform(0.0, 0.6), x0, x0, x0 + w, x0 + w))
    truths = tmp_path / "truths.csv"
    truths.write_text("\n".join(truth_rows) + "\n")
    preds = tmp_path / "preds.csv"
    preds.write_text("\n".join(pred_rows) + "\n")
    return truths, preds


def test_models_eval_seeded_output_pinned(tmp_path, capsys):
    truths, preds = _seeded_detection_files(tmp_path)
    code, out, err = run_cli(
        capsys, "models-eval", "--truths", str(truths), "--preds", str(preds)
    )
    assert (code, err) == (0, "")
    assert out == PINNED_MODELS_EVAL


def _eval_with_bad_row(tmp_path, capsys, truth_row, pred_row):
    truths = tmp_path / "truths.csv"
    truths.write_text("image_id,label,x_min,y_min,x_max,y_max\nimg1,cat,0.1,0.1,0.5,0.5\n" + truth_row)
    preds = tmp_path / "preds.csv"
    preds.write_text("image_id,label,confidence,x_min,y_min,x_max,y_max\n" + pred_row)
    code, out, err = run_cli(
        capsys, "models-eval", "--truths", str(truths), "--preds", str(preds)
    )
    assert (code, out) == (1, "")
    return err, truths, preds


def test_models_eval_non_numeric_coordinate_names_line(tmp_path, capsys):
    err, truths, _ = _eval_with_bad_row(
        tmp_path, capsys, "img1,dog,0.1,abc,0.5,0.5\n", "img1,cat,0.9,0.1,0.1,0.5,0.5\n"
    )
    assert err == f"error: {truths}:3: y_min must be a number, got 'abc'\n"


def test_models_eval_confidence_out_of_range_names_line(tmp_path, capsys):
    err, _, preds = _eval_with_bad_row(
        tmp_path, capsys, "", "img1,cat,0.9,0.1,0.1,0.5,0.5\nimg1,cat,1.5,0.1,0.1,0.5,0.5\n"
    )
    assert err == f"error: {preds}:3: confidence must be in [0,1]\n"


@pytest.mark.parametrize(
    "pred_row, field, got",
    [("img1,,0.9,0.1,0.1,0.5,0.5", "label", "''"),
     ("img1, cat,0.9,0.1,0.1,0.5,0.5", "label", "' cat'"),
     ("img1 ,cat,0.9,0.1,0.1,0.5,0.5", "image_id", "'img1 '")],
    ids=["empty-label", "padded-label", "padded-image-id"],
)
def test_models_eval_empty_or_padded_prediction_names_line(tmp_path, capsys, pred_row, field, got):
    err, _, preds = _eval_with_bad_row(tmp_path, capsys, "", f"img1,cat,0.9,0.1,0.1,0.5,0.5\n{pred_row}\n")
    assert err == f"error: {preds}:3: {field} must be non-empty without leading or trailing whitespace, got {got}\n"


def test_models_eval_inverted_box_names_line(tmp_path, capsys):
    err, _, preds = _eval_with_bad_row(tmp_path, capsys, "", "img1,cat,0.9,0.5,0.1,0.1,0.5\n")
    assert err.startswith(f"error: {preds}:2: require 0 <= x_min <= x_max <= 1, ")


def _pareto_with_row(tmp_path, capsys, row: str) -> tuple[str, str]:
    table = tmp_path / "models.csv"
    table.write_text("name,framework,gflops,mparams,map\nssd,tf,2.0,4.0,70.0\n" + row)
    code, out, err = run_cli(capsys, "models-pareto", "--table", str(table))
    assert (code, out) == (1, "")
    return err, str(table)


def test_models_pareto_quotes_a_name_with_a_comma(tmp_path, capsys):
    table = tmp_path / "models.csv"
    table.write_text('name,framework,gflops,mparams,map\n"ssd,lite",tf,1.5,2.0,50.0\n')
    code, out, _ = run_cli(capsys, "models-pareto", "--table", str(table))
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [["ssd,lite", "1.5", "50.0"]]


def test_models_pareto_short_row_names_line(tmp_path, capsys):
    err, table = _pareto_with_row(tmp_path, capsys, "yolo,torch,1.0\n")
    assert err == f"error: {table}:3: expected 5 fields, got 3\n"


def test_models_pareto_non_numeric_gflops_names_line(tmp_path, capsys):
    err, table = _pareto_with_row(tmp_path, capsys, "yolo,torch,fast,1.0,50.0\n")
    assert err == f"error: {table}:3: gflops must be a number, got 'fast'\n"


@pytest.mark.parametrize(
    "table, message",
    [
        ("engine,err_numbers,speed_cpu_s,speed_gpu_s\n", ":1: missing columns ['err_alphabets']"),
        (
            "engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\n"
            "tesseract,5.5,0.7,0.3,0.25\neasyocr,1.9,fast,0.82,0.07\n",
            ":3: err_alphabets must be a number, got 'fast'",
        ),
        (
            "engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\n"
            "tesseract,5.50,0.70,nan,0.25\neasyocr,1.9,3.0,0.82,0.07\n",
            ":2: speed_cpu_s must be finite, got nan",
        ),
        (
            "engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s,note\n"
            'tesseract,5.5,0.7,0.3,0.25,"two\nlines"\neasyocr,1.9,fast,0.82,0.07,\n',
            ":4: err_alphabets must be a number, got 'fast'",
        ),
        (
            "engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\n"
            "tesseract,150,0.7,0.3,0.25\n",
            ":2: error_rate_numbers must be in [0,100]",
        ),
        (
            "engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\n"
            "tesseract,5.5,0.7,0,0.25\n",
            ":2: speed_cpu_s must be positive",
        ),
    ],
    ids=[
        "missing-column",
        "non-numeric",
        "nan-speed",
        "after-multi-line-field",
        "error-rate-above-100",
        "zero-speed",
    ],
)
def test_ocr_route_bad_profiles_name_line(table, message, tmp_path, capsys):
    profiles = tmp_path / "profiles.csv"
    profiles.write_text(table)
    code, out, err = run_cli(
        capsys, "ocr-route", "--kind", "alphabets", "--compute", "cpu",
        "--policy", "accuracy", "--profiles", str(profiles),
    )
    assert (code, out) == (1, "")
    assert err == f"error: {profiles}{message}\n"


class _Raw(str):
    """File content written as it is, not encoded as JSON."""


_GOOD_EVENT = {"t": 0.0, "distance_cm": 80.0}
_TEXT = {"text": "EXIT", "region": [0.1, 0.1, 0.4, 0.4]}
# (scenario events, scenario keys, config document or raw file content,
# expected message after "path: ", or after "path" when it names the line
# as ":line: ...")
BAD_INPUTS = {
    "event-without-t": ([_GOOD_EVENT, {"distance_cm": 80.0}], "event 1: missing key 't'"),
    "text-without-region": (
        [{**_GOOD_EVENT, "frame": {"texts": [{"text": "EXIT"}]}}],
        "event 0: texts[0]: missing key 'region'",
    ),
    "event-not-object": ([5], "event 0: must be an object, got 5"),
    "events-not-list": ("abc", "events must be a list"),
    "nan-time": ([_GOOD_EVENT, {"t": float("nan"), "distance_cm": 80.0}], "event 1: t must be finite"),
    "nan-distance": (
        [{**_GOOD_EVENT, "distance_cm": float("nan"), "frame": {"texts": [_TEXT]}}],
        "event 0: distance_cm must be finite",
    ),
    "negative-distance": (
        [_GOOD_EVENT, {"t": 1.0, "distance_cm": -5.0}],
        "event 1: distance_cm must be non-negative",
    ),
    # an infinite tick count: a loader without the bound fails fast in run
    # instead of running 1e600 ticks
    "too-many-ticks": (
        {"tick_s": 1e-300, "duration_s": 1e300},
        "duration_s / tick_s exceeds 1000000 ticks",
    ),
    "not-json": (_Raw(""), "Expecting value: line 1 column 1 (char 0)"),
    "config-section-not-object": ({"sensor": 5}, "config section 'sensor' must be an object"),
    "config-nan-speech": (
        {"speech": {"base_per_char_s": float("nan")}},
        "config section 'speech': base_per_char_s must be finite, got nan",
    ),
    "config-nan-jitter": (
        {"sensor": {"jitter_std_s": float("nan")}},
        "config section 'sensor': jitter_std_s must be finite, got nan",
    ),
    "config-not-json": (_Raw("{"), "Expecting property name enclosed in double quotes"),
    "region-string": (
        [{**_GOOD_EVENT, "frame": {"texts": [{"text": "EXIT", "region": "0101"}]}}],
        "event 0: texts[0]: region must be a list of 4 numbers, got '0101'",
    ),
    "bool-tick": ({"tick_s": True}, "tick_s must be a number, got True"),
    "bool-distance": (
        [{"t": 0.0, "distance_cm": True}],
        "event 0: distance_cm must be a number, got True",
    ),
    "huge-int-tick": ({"tick_s": 10**400}, "tick_s must be finite, got inf"),
    "null-name": ({"name": None}, "name must be a string, got None"),
    "null-text": (
        [{**_GOOD_EVENT, "frame": {"texts": [{**_TEXT, "text": None}]}}],
        "event 0: texts[0]: text must be a string, got None",
    ),
    "string-in-box": (
        [{**_GOOD_EVENT, "frame": {"texts": [{**_TEXT, "region": [0.1, 0.1, 0.5, "0.3"]}]}}],
        "event 0: texts[0]: region must be a number, got '0.3'",
    ),
    "text-unknown-key": (
        [{**_GOOD_EVENT, "frame": {"texts": [_TEXT, {**_TEXT, "font": "serif"}]}}],
        "event 0: texts[1]: unknown keys ['font']",
    ),
    # the transcript is one tab-separated line per message, so a text with a
    # line break or a tab could forge a line or a column of it
    "text-forges-transcript-line": (
        [{**_GOOD_EVENT, "frame": {"texts": [{**_TEXT, "text": "EXIT\n0.000\tALERT\tforged line"}]}}],
        "event 0: texts[0]: text must be one line without tabs\n",
    ),
    "text-with-tab-in-full-frame": (
        [{**_GOOD_EVENT, "frame": {"frame_id": "f", "texts": [_TEXT, {**_TEXT, "text": "a\tb"}], "objects": []}}],
        "event 0: texts[1]: text must be one line without tabs\n",
    ),
    "text-with-line-separator": (
        [{**_GOOD_EVENT, "frame": {"texts": [{**_TEXT, "text": "EXIT\u2028ALERT"}]}}],
        "event 0: texts[0]: text must be one line without tabs\n",
    ),
    "text-not-object": (
        [{**_GOOD_EVENT, "frame": {"texts": [_TEXT, _TEXT, 5]}}],
        "event 0: texts[2]: must be an object, got 5",
    ),
    "object-unknown-key": (
        [{**_GOOD_EVENT, "frame": {"objects": [{"label": "chair", "box": [0.1, 0.1, 0.4, 0.4], "hue": 3}]}}],
        "event 0: objects[0]: unknown keys ['hue']",
    ),
    # each case below fails the loader's one-test fast path and must get the
    # same message from the full checks
    "inverted-region": (
        [{**_GOOD_EVENT, "frame": {"texts": [{**_TEXT, "region": [0.5, 0.1, 0.2, 0.4]}]}}],
        "event 0: texts[0]: require 0 <= x_min <= x_max <= 1, "
        "got BoundingBox(x_min=0.5, y_min=0.1, x_max=0.2, y_max=0.4)\n",
    ),
    "inverted-y-box": (
        [{**_GOOD_EVENT, "frame": {"objects": [{"label": "chair", "box": [0.1, 0.5, 0.4, 0.2]}]}}],
        "event 0: objects[0]: require 0 <= y_min <= y_max <= 1, "
        "got BoundingBox(x_min=0.1, y_min=0.5, x_max=0.4, y_max=0.2)\n",
    ),
    "box-above-one": (
        [{**_GOOD_EVENT, "frame": {"objects": [{"label": "chair", "box": [0.1, 0.1, 1.5, 0.4]}]}}],
        "event 0: objects[0]: require 0 <= x_min <= x_max <= 1, "
        "got BoundingBox(x_min=0.1, y_min=0.1, x_max=1.5, y_max=0.4)\n",
    ),
    "negative-int-in-box": (
        [{**_GOOD_EVENT, "frame": {"objects": [{"label": "chair", "box": [-1, 0, 1, 1]}]}}],
        "event 0: objects[0]: require 0 <= x_min <= x_max <= 1, "
        "got BoundingBox(x_min=-1.0, y_min=0.0, x_max=1.0, y_max=1.0)\n",
    ),
    "bool-in-box": (
        [{**_GOOD_EVENT, "frame": {"texts": [{**_TEXT, "region": [0.1, True, 0.4, 0.4]}]}}],
        "event 0: texts[0]: region must be a number, got True\n",
    ),
    "nan-in-box": (
        [{**_GOOD_EVENT, "frame": {"objects": [{"label": "chair", "box": [0.1, float("nan"), 0.4, 0.2]}]}}],
        "event 0: objects[0]: box must be finite, got nan\n",
    ),
    "inf-in-box": (
        _Raw(
            '{"name": "x", "tick_s": 0.5, "duration_s": 5.0, "events": [{"t": 0.0, "distance_cm": 80.0,'
            ' "frame": {"texts": [{"text": "EXIT", "region": [0.1, 0.1, 1e999, 0.4]}]}}]}'
        ),
        "event 0: texts[0]: region must be finite, got inf\n",
    ),
    "object-unknown-label": (
        [{**_GOOD_EVENT, "frame": {"objects": [{"label": "unicorn", "box": [0.1, 0.1, 0.4, 0.4]}]}}],
        "event 0: frame 'frame-000': label 'unicorn' not in vocabulary\n",
    ),
    "object-without-label": (
        [{**_GOOD_EVENT, "frame": {"objects": [{"box": [0.1, 0.1, 0.4, 0.4]}]}}],
        "event 0: objects[0]: missing key 'label'\n",
    ),
    "frame-unknown-key": (
        [{**_GOOD_EVENT, "frame": {"texts": [_TEXT], "pixels": []}}],
        "event 0: unknown keys ['pixels']\n",
    ),
    "negative-distance-with-frame": (
        [{"t": 0.0, "distance_cm": -5.0, "frame": {"frame_id": "f", "texts": [], "objects": []}}],
        "event 0: distance_cm must be non-negative\n",
    ),
    "inf-time-with-frame": (
        [{"t": float("inf"), "distance_cm": 80.0, "frame": {"frame_id": "f", "texts": [], "objects": []}}],
        "event 0: t must be finite, got inf\n",
    ),
    "nan-distance-with-frame": (
        [{"t": 0.0, "distance_cm": float("nan"), "frame": {"frame_id": "f", "texts": [], "objects": []}}],
        "event 0: distance_cm must be finite, got nan\n",
    ),
    "int-frame-id": (
        [{**_GOOD_EVENT, "frame": {"frame_id": 7, "texts": [], "objects": []}}],
        "event 0: frame_id must be a string, got 7\n",
    ),
    "full-frame-unknown-key": (
        [{**_GOOD_EVENT, "frame": {"frame_id": "f", "texts": [], "objects": [], "pixels": []}}],
        "event 0: unknown keys ['pixels']\n",
    ),
    "event-unknown-key-with-frame": (
        [{**_GOOD_EVENT, "frame": {"frame_id": "f", "texts": [], "objects": []}, "speed": 3}],
        "event 0: unknown keys ['speed']\n",
    ),
    "not-utf8": (b'{"name": "caf\xe9"}', ":1: 'utf-8' codec can't decode byte 0xe9"),
    "not-utf8-on-line-3": (b'{\n"name":\n"caf\xe9"}', ":3: 'utf-8' codec can't decode byte 0xe9"),
    # valid documents in encodings that json.loads would detect in bytes
    "utf16": (
        json.dumps({"name": "u", "tick_s": 0.5, "duration_s": 5.0, "events": [_GOOD_EVENT]}).encode("utf-16"),
        ":1: 'utf-8' codec can't decode byte 0x",
    ),
    "config-utf32": (json.dumps({"speech": {"capacity": 2}}).encode("utf-32"), ":1: 'utf-8' codec can't decode byte 0x"),
    # without a BOM, UTF-16 ASCII text is valid UTF-8 holding NUL bytes
    "utf16-without-bom": (
        json.dumps({"name": "u", "tick_s": 0.5, "duration_s": 5.0, "events": [_GOOD_EVENT]}).encode("utf-16-le"),
        ":1: NUL byte; input files are UTF-8 text, not UTF-16 or UTF-32\n",
    ),
    "nul-on-line-2": (b'{"name":\n"a\x00b"}', ":2: NUL byte"),
    # a JSON \u escape can hold a lone surrogate, which no UTF-8 output can write
    "surrogate-name": ({"name": "a\ud800"}, "name must hold no lone surrogate, got 'a\\ud800'\n"),
    "surrogate-frame-id": (
        [{**_GOOD_EVENT, "frame": {"frame_id": "\ud800", "texts": [{**_TEXT, "text": "tot"}], "objects": []}}],
        "event 0: frame_id must hold no lone surrogate, got '\\ud800'\n",
    ),
    "surrogate-text": (
        [{**_GOOD_EVENT, "frame": {"texts": [{**_TEXT, "text": "t\ud800t"}]}}],
        "event 0: texts[0]: text must hold no lone surrogate, got 't\\ud800t'\n",
    ),
    "surrogate-label": (
        [{**_GOOD_EVENT, "frame": {"objects": [{"label": "chair\udfff", "box": [0.1, 0.1, 0.4, 0.4]}]}}],
        "event 0: objects[0]: label must hold no lone surrogate, got 'chair\\udfff'\n",
    ),
    "deep-nesting": (_Raw("[" * 100_000), "maximum recursion depth exceeded"),
    "config-fractional-capacity": (
        {"speech": {"capacity": 2.5}},
        "config section 'speech': capacity must be an integer, got 2.5",
    ),
    "config-bool-capacity": (
        {"speech": {"capacity": True}},
        "config section 'speech': capacity must be an integer, got True",
    ),
    # the seed is run's --seed alone, and the spoken sentences are fixed:
    # a config naming either is refused by its key, whatever the value
    "config-fractional-seed": (
        {"sensor": {"seed": 1.5}},
        "config section 'sensor': unknown keys ['seed']\n",
    ),
    "config-sensor-seed": (
        {"sensor": {"seed": 3}},
        "config section 'sensor': unknown keys ['seed']\n",
    ),
    "config-unknown-placeholder": (
        {"speech": {"ocr_template": "{nope}"}},
        "config section 'speech': unknown keys ['ocr_template']\n",
    ),
    "config-ocr-template": (
        {"speech": {"ocr_template": "{text}"}},
        "config section 'speech': unknown keys ['ocr_template']\n",
    ),
    "config-int-template": (
        {"alert": {"speech_template": 5}},
        "config section 'alert': unknown keys ['speech_template']\n",
    ),
    "config-speech-template": (
        {"alert": {"speech_template": "x {d}"}},
        "config section 'alert': unknown keys ['speech_template']\n",
    ),
    "config-unknown-detector": (
        {"perception": {"detector": "yolo"}},
        "config section 'perception': unknown keys ['detector']",
    ),
    "config-mock-detector": (
        {"perception": {"detector": "mock"}},
        "config section 'perception': unknown keys ['detector']",
    ),
    "config-unknown-ocr": (
        {"perception": {"ocr": "tesseract"}},
        "config section 'perception': unknown ocr backend 'tesseract'",
    ),
    "config-miss-prob-above-one": (
        {"perception": {"miss_prob": 2}},
        "config section 'perception': miss_prob must be in [0,1]",
    ),
    "config-not-utf8": (b'{"speech": \xfe}', ":1: 'utf-8' codec can't decode byte 0xfe"),
    "config-zero-capacity": (
        {"speech": {"capacity": 0}},
        "config section 'speech': capacity must be at least 1\n",
    ),
    # the cycle budget is a constant, so there is no budget section
    "config-budget-lower-bound": (
        {"budget": {"lower_s": 3.0, "upper_s": 5.0}},
        "unknown keys ['budget']\n",
    ),
    "config-negative-budget": (
        {"budget": {"upper_s": -1.0}},
        "unknown keys ['budget']\n",
    ),
    "config-budget-section": (
        {"budget": {"upper_s": 5.0}},
        "unknown keys ['budget']\n",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_run_rejects_malformed_input_with_location(case, tmp_path, capsys):
    from percept_cane.pipeline import demo_scenario_path

    content, message = BAD_INPUTS[case]
    path = tmp_path / f"{case}.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, _Raw):
        path.write_text(content)
    elif case.startswith("config"):
        path.write_text(json.dumps(content))  # writes NaN, which json.load accepts
    else:
        doc = {"name": case, "tick_s": 0.5, "duration_s": 5.0, "events": [_GOOD_EVENT]}
        doc.update(content if isinstance(content, dict) else {"events": content})
        path.write_text(json.dumps(doc))
    if case.startswith("config"):
        argv = ["run", str(demo_scenario_path()), "--config", str(path)]
    else:
        argv = ["run", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}{'' if message.startswith(':') else ': '}{message}")


def test_run_report_reads_integer_latency_as_float(tmp_path, capsys):
    from percept_cane.pipeline import demo_scenario_path

    reports = []
    for latency in ("1", "1.0"):
        cfg = tmp_path / f"cfg-{latency}.json"
        cfg.write_text(f'{{"perception": {{"ocr_latency_s": {latency}}}}}')
        code, out, _ = run_cli(capsys, "run", str(demo_scenario_path()), "--config", str(cfg))
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    assert "\nocr,1,1.0,1.0\n" in reports[0]


_TRUTHS_HEADER = b"image_id,label,x_min,y_min,x_max,y_max\n"
_MODELS_DUAL_HEADER = b"id,name,input_size,gflops,mparams,size_mb,map50,map5095\n"
# (subcommand and flags, with the file under test as "{}"; its content;
# the expected message after "error: <path>")
BAD_TABLES = {
    "truths-not-utf8": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,caf\xe9,0.1,0.1,0.5,0.5\n",
        ":2: 'utf-8' codec can't decode byte 0xe9",
    ),
    "truths-after-multi-line-field": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b'img1,"c\nat",0.1,0.1,0.5,0.5\nimg1,dog,0.1,abc,0.5,0.5\n',
        ":4: y_min must be a number, got 'abc'",
    ),
    "truths-multi-line-record-after-blank-line": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b'\nimg1,"c\nat",0.1,abc,0.5,0.5\n',
        ":3: y_min must be a number, got 'abc'",
    ),
    # CR LF is one line break, as is a lone CR
    "truths-crlf-and-cr-in-record": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b'img1,"c\r\na\rt",0.1,abc,0.5,0.5\n',
        ":2: y_min must be a number, got 'abc'",
    ),
    # a record that cannot be read names the line where reading stopped,
    # not the start of the record before it
    "truths-over-limit-field-after-multi-line-record": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b'img1,"c\nat",0.1,0.1,0.5,0.5\nimg1,' + b"x" * 131073 + b",0.1,0.1,0.5,0.5\n",
        ":4: field larger than field limit (131072)",
    ),
    "truths-empty-label": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,,0.1,0.1,0.5,0.5\n,cat,0.1,0.1,0.5,0.5\n",
        ":2: label must be non-empty without leading or trailing whitespace, got ''",
    ),
    "truths-empty-image-id": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,cat,0.1,0.1,0.5,0.5\n,cat,0.1,0.1,0.5,0.5\n",
        ":3: image_id must be non-empty without leading or trailing whitespace, got ''",
    ),
    "truths-padded-label": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1, cat ,0.1,0.1,0.5,0.5\n",
        ":2: label must be non-empty without leading or trailing whitespace, got ' cat '",
    ),
    "truths-header-only": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER,
        ": no data rows",
    ),
    "sensor-not-utf8": (
        ("sensor-bench", "--table", "{}"),
        b"distance_cm,exec_time_s\n50,0.01\n\xff60,0.02\n",
        ":3: 'utf-8' codec can't decode byte 0xff",
    ),
    "models-inf-gflops": (
        ("models-pareto", "--table", "{}"),
        b"name,framework,gflops,mparams,map\nssd,tf,inf,4.0,70.0\n",
        ":2: gflops must be finite, got inf",
    ),
    "models-nan-size": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,nano,320,0.72,0.95,nan,-,20.6\n",
        ":2: size_mb must be finite, got nan",
    ),
    "models-zero-mparams": (
        ("models-pareto", "--table", "{}"),
        b"name,framework,gflops,mparams,map\nssd,tf,2.0,0,70.0\n",
        ":2: mparams must be positive",
    ),
    "models-negative-size": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,nano,320,0.72,0.95,-1.8,-,20.6\n",
        ":2: size_mb must be positive",
    ),
    "models-negative-input-size": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,yolo,-640,0.72,0.95,1.8,-,20.6\n",
        ":2: input_size must be positive",
    ),
    "models-zero-input-size": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,yolo,0,0.72,0.95,1.8,-,20.6\n",
        ":2: input_size must be positive",
    ),
    "models-without-map-field": (
        ("models-recommend", "--table", "{}", "--budget", "1.0"),
        _MODELS_DUAL_HEADER + b"1,nano,320,0.72,0.95,1.8,-,20.6\n",
        ": no row has a map50 value",
    ),
    # float() and int() read an underscore between digits; CSV number cells may not hold one
    "truths-underscore-number": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,cat,0.1,0.1,0.5,0.5_0\n",
        ":2: y_max must be a number, got '0.5_0'",
    ),
    "preds-underscore-number": (
        ("models-eval", "--truths", "TRUTHS", "--preds", "{}"),
        b"img1,cat,0.9_0,0.1,0.1,0.5,0.5\n",
        ":1: confidence must be a number, got '0.9_0'",
    ),
    "models-underscore-gflops": (
        ("models-pareto", "--table", "{}"),
        b"name,framework,gflops,mparams,map\nssd,tf,2_316,4.0,70.0\n",
        ":2: gflops must be a number, got '2_316'",
    ),
    "models-underscore-input-size": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,nano,3_20,0.72,0.95,1.8,-,20.6\n",
        ":2: input_size must be a number, got '3_20'",
    ),
    "profiles-underscore-number": (
        ("ocr-route", "--kind", "alphabets", "--compute", "cpu", "--policy", "accuracy", "--profiles", "{}"),
        b"engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\ntesseract,5_5,0.7,0.3,0.25\n",
        ":2: err_numbers must be a number, got '5_5'",
    ),
    "sensor-underscore-number": (
        ("sensor-bench", "--table", "{}"),
        b"distance_cm,exec_time_s\n5_0,0.001\n",
        ":2: distance_cm must be a number, got '5_0'",
    ),
    # a float cell that reads as NaN or an infinity is named by its column
    "truths-nan-box": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,cat,nan,0.1,0.5,0.5\n",
        ":2: x_min must be finite, got nan",
    ),
    "truths-overflowing-box": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,cat,0.1,0.1,1e999,0.5\n",
        ":2: x_max must be finite, got inf",
    ),
    "preds-nan-confidence": (
        ("models-eval", "--truths", "TRUTHS", "--preds", "{}"),
        b"img1,cat,nan,0.1,0.1,0.5,0.5\n",
        ":1: confidence must be finite, got nan",
    ),
    "profiles-nan-error-rate": (
        ("ocr-route", "--kind", "numbers", "--compute", "cpu", "--policy", "accuracy", "--profiles", "{}"),
        b"engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\ntesseract,nan,0.7,0.3,0.25\n",
        ":2: err_numbers must be finite, got nan",
    ),
    # an integer cell too large for a float stays out of the test
    "models-huge-input-size-and-inf-size": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,nano," + b"9" * 400 + b",0.72,0.95,-inf,-,20.6\n",
        ":2: size_mb must be finite, got -inf",
    ),
    # a number cell that float() or int() rejects is named by its column
    "preds-non-numeric-confidence": (
        ("models-eval", "--truths", "TRUTHS", "--preds", "{}"),
        b"img1,cat,high,0.1,0.1,0.5,0.5\n",
        ":1: confidence must be a number, got 'high'",
    ),
    "models-non-integer-input-size": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,nano,320.5,0.72,0.95,1.8,-,20.6\n",
        ":2: input_size must be an integer, got '320.5'\n",
    ),
    "models-non-numeric-map": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,nano,320,0.72,0.95,1.8,-,n/a\n",
        ":2: map5095 must be a number, got 'n/a'\n",
    ),
    "models-nan-map5095": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,nano,320,0.72,0.95,1.8,-,nan\n",
        ":2: map5095 must be finite, got nan\n",
    ),
    # the dual layout converts input_size, then the three floats, then the
    # two mAPs: the first group with a bad cell names it
    "models-non-integer-input-size-before-underscore-gflops": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1,nano,320,0.72,0.95,1.8,-,20.6\n2,small,abc,1_0,0.95,1.8,-,20.6\n",
        ":3: input_size must be an integer, got 'abc'\n",
    ),
    # a model table's header must equal one of its two layouts' column lists
    "models-unrecognized-header": (
        ("models-pareto", "--table", "{}"),
        b"name,gflops,mparams,map\nssd,2.0,4.0,70.0\n",
        ":1: unrecognized header ['name', 'gflops', 'mparams', 'map']\n",
    ),
    "models-dual-header-swapped-columns": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        b"id,name,input_size,mparams,gflops,size_mb,map50,map5095\n1,nano,320,0.95,0.72,1.8,-,20.6\n",
        ":1: unrecognized header ['id', 'name', 'input_size', 'mparams', 'gflops', 'size_mb', 'map50', 'map5095']\n",
    ),
    "sensor-non-numeric": (
        ("sensor-bench", "--table", "{}"),
        b"exec_time_s,distance_cm\n0.01,50\nslow,60\n",
        ":3: exec_time_s must be a number, got 'slow'\n",
    ),
    # in one row, an underscore anywhere comes first, then the first cell
    # that float() rejects, then the first NaN or infinity
    "truths-two-non-numeric-cells": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,cat,abc,0.1,xyz,0.5\n",
        ":2: x_min must be a number, got 'abc'",
    ),
    "truths-underscore-after-non-numeric": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,cat,abc,0.1,0.5_0,0.5\n",
        ":2: x_max must be a number, got '0.5_0'",
    ),
    "truths-non-numeric-after-nan": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,cat,nan,abc,0.5,0.5\n",
        ":2: y_min must be a number, got 'abc'",
    ),
    # a long cell is shown shortened, whatever is wrong with it
    "truths-long-non-numeric-cell": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,cat,0.1,0.1,0.5," + b"9" * 999 + b"x\n",
        ":2: y_max must be a number, got '999999999999...999999999999x'\n",
    ),
    "truths-long-underscore-cell": (
        ("models-eval", "--truths", "{}", "--preds", "PREDS"),
        _TRUTHS_HEADER + b"img1,cat,0.1,0.1,0.5," + b"9" * 999 + b"_9\n",
        ":2: y_max must be a number, got '999999999999...99999999999_9'\n",
    ),
    # a name is non-empty without leading or trailing whitespace
    "models-empty-name": (
        ("models-pareto", "--table", "{}"),
        b"name,framework,gflops,mparams,map\n,tf,1.0,4.0,50.0\n",
        ":2: name must be non-empty without leading or trailing whitespace, got ''",
    ),
    "models-padded-name": (
        ("models-pareto", "--table", "{}", "--map-field", "map5095"),
        _MODELS_DUAL_HEADER + b"1, nano,320,0.72,0.95,1.8,-,20.6\n",
        ":2: name must be non-empty without leading or trailing whitespace, got ' nano'",
    ),
    "profiles-blank-engine": (
        ("ocr-route", "--kind", "alphabets", "--compute", "cpu", "--policy", "accuracy", "--profiles", "{}"),
        b"engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\ntesseract,5.5,0.7,0.3,0.25\n,1.9,0.1,0.82,0.07\n",
        ":3: engine_id must be non-empty without leading or trailing whitespace, got ''",
    ),
    "profiles-padded-engine": (
        ("ocr-route", "--kind", "alphabets", "--compute", "cpu", "--policy", "accuracy", "--profiles", "{}"),
        b"engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\n tesseract,5.5,0.7,0.3,0.25\n",
        ":2: engine_id must be non-empty without leading or trailing whitespace, got ' tesseract'",
    ),
    "profiles-engine-line-break": (
        ("ocr-route", "--kind", "numbers", "--compute", "cpu", "--policy", "speed", "--profiles", "{}"),
        b'engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\n"fast\nengine",1.9,0.1,0.02,0.07\n'
        b"tesseract,5.5,0.7,0.3,0.25\n",
        ":2: engine_id must be one line without tabs",
    ),
    # a row's error names the line where its record starts, whatever its cells span
    "profiles-record-spanning-a-blank-line": (
        ("ocr-route", "--kind", "numbers", "--compute", "cpu", "--policy", "speed", "--profiles", "{}"),
        b'engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\n"fast\n\nengine",1,1,1,abc\n',
        ":2: speed_gpu_s must be a number, got 'abc'",
    ),
    "profiles-engine-tab": (
        ("ocr-route", "--kind", "numbers", "--compute", "cpu", "--policy", "speed", "--profiles", "{}"),
        b"engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\nfast\tengine,1.9,0.1,0.02,0.07\n",
        ":2: engine_id must be one line without tabs",
    ),
    # a pair's alignment table grows with the product of its lengths
    "pairs-truth-over-cap": (
        ("ocr-score", "{}", "--kind", "alphabets"),
        b"truth,output\n" + b"a" * 257 + b",abc\n",
        ":2: truth must be at most 256 characters",
    ),
    "pairs-output-over-cap": (
        ("ocr-score", "{}", "--kind", "numbers"),
        b"truth,output\n12345.67," + b"1" * 257 + b"\n",
        ":2: output must be at most 256 characters",
    ),
    "pairs-wrong-kind": (
        ("ocr-score", "{}", "--kind", "numbers"),
        b"truth,output\nabc,abc\n",
        ":2: truth: not NNNNN.NN: 'abc'",
    ),
    "pairs-short-number": (
        ("ocr-score", "{}", "--kind", "numbers"),
        b"truth,output\n1234.56,1234.56\n",
        ":2: truth: not NNNNN.NN: '1234.56'",
    ),
    "pairs-superscript-digits": (
        ("ocr-score", "{}", "--kind", "numbers"),
        "truth,output\n²³456.78,23456.78\n".encode(),
        ":2: truth: not NNNNN.NN: '²³456.78'",
    ),
    "pairs-arabic-indic-digits": (
        ("ocr-score", "{}", "--kind", "numbers"),
        "truth,output\n١٢٣٤٥.٦٧,12345.67\n".encode(),
        ":2: truth: not NNNNN.NN: '١٢٣٤٥.٦٧'",
    ),
    "pairs-non-ascii-letters": (
        ("ocr-score", "{}", "--kind", "alphabets"),
        "truth,output\ncafé,cafe\n".encode(),
        ":2: truth: not lowercase words: 'café'",
    ),
    "pairs-capitalized-words": (
        ("ocr-score", "{}", "--kind", "alphabets"),
        b"truth,output\nWord pair,word pair\n",
        ":2: truth: not lowercase words: 'Word pair'",
    ),
    "pairs-empty": (("ocr-score", "{}", "--kind", "numbers"), b"", ": no data rows"),
    "pairs-header-only": (
        ("ocr-score", "{}", "--kind", "numbers"),
        b"truth,output\n",
        ": no data rows",
    ),
    "pairs-after-multi-line-field": (
        ("ocr-score", "{}", "--kind", "alphabets"),
        b'truth,output\nhello,"he\nllo"\nworld\n',
        ":4: expected 2 fields, got 1",
    ),
    # an unclosed quote would swallow the rest of the file into one cell
    "pairs-unclosed-quote": (
        ("ocr-score", "{}", "--kind", "alphabets"),
        b'truth,output\nabc,"abd\nxyz,xyz\n',
        ":3: unexpected end of data",
    ),
    "pairs-text-after-closing-quote": (
        ("ocr-score", "{}", "--kind", "alphabets"),
        b'truth,output\nabc,"abd"e\n',
        ":2: ',' expected after '\"'",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_bad_table_names_path_and_line(case, tmp_path, capsys):
    argv, content, message = BAD_TABLES[case]
    path = tmp_path / f"{case}.csv"
    path.write_bytes(content)
    preds = tmp_path / "preds.csv"
    preds.write_text("img1,cat,0.9,0.1,0.1,0.5,0.5\n")
    truths = tmp_path / "truths.csv"
    truths.write_text("img1,cat,0.1,0.1,0.5,0.5\n")
    others = {"{}": str(path), "PREDS": str(preds), "TRUTHS": str(truths)}
    argv = [others.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}{message}")


def test_finite_cells_whose_sum_overflows_are_accepted(tmp_path, capsys):
    table = tmp_path / "timings.csv"
    table.write_text("distance_cm,exec_time_s\n1e308,1e308\n")
    code, out, _ = run_cli(capsys, "sensor-bench", "--table", str(table))
    assert (code, out) == (0, "distance_cm,exec_time_s\n1e+308,1e+308\nmean,1e+308\n")


# An early row's error wins over any later one, whichever check finds it.
_EARLY_BAD_NUMBER = _TRUTHS_HEADER + b"img1,cat,0.1,abc,0.5,0.5\nimg1,cat,0.1,0.1,0.5,0.5\n"


@pytest.mark.parametrize(
    "later",
    [
        b"img1,cat,0.1,0.1,0.5\n",
        b'img1,"cat,0.1,0.1,0.5,0.5\n',
        b"img1," + b"x" * 131073 + b",0.1,0.1,0.5,0.5\n",
        b"img1,cat,0.1,0.1,0.5,0.5_0\n",
    ],
    ids=["wrong-width", "unclosed-quote", "over-limit-field", "underscore-number"],
)
def test_an_early_bad_number_wins_over_a_later_error(later, tmp_path, capsys):
    truths = tmp_path / "truths.csv"
    truths.write_bytes(_EARLY_BAD_NUMBER + later)
    code, out, err = run_cli(capsys, "models-eval", "--truths", str(truths), "--preds", str(truths))
    assert (code, out, err) == (1, "", f"error: {truths}:2: y_min must be a number, got 'abc'\n")


def test_an_early_bad_name_wins_over_a_later_bad_number(tmp_path, capsys):
    truths = tmp_path / "truths.csv"
    truths.write_bytes(_TRUTHS_HEADER + b"img1, cat,0.1,0.1,0.5,0.5\nimg1,cat,nan,abc,0.5,0.5\n")
    code, out, err = run_cli(capsys, "models-eval", "--truths", str(truths), "--preds", str(truths))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {truths}:2: label must be non-empty without leading or trailing whitespace, got ' cat'\n"
    )


def test_a_table_error_that_no_row_shows_is_still_raised(tmp_path):
    from percept_cane.checks import read_csv

    def one_row_only(cells):  # a table-level check, which no loader has
        if len(cells) > 1:
            raise ValueError("more than one row")
        return cells

    table = tmp_path / "t.csv"
    table.write_text("a\n1\n2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(table))}: more than one row$"):
        read_csv(table, {("a",): one_row_only})


@pytest.mark.parametrize(
    "argv",
    [
        ("models-eval", "--truths", "TRUTHS", "--preds", "PREDS"),
        ("models-pareto",),
        ("models-pareto", "--table", "fig10_models.csv", "--map-field", "map5095"),
        ("ocr-route", "--kind", "numbers", "--compute", "cpu", "--policy", "speed"),
        ("sensor-bench",),
        ("ocr-score", "PAIRS", "--kind", "numbers"),
    ],
    ids=["detection", "single-map-models", "dual-map-models", "profiles", "sensor", "pairs"],
)
def test_a_valid_table_never_enters_the_row_locator(argv, tmp_path, capsys, monkeypatch):
    from percept_cane import checks

    truths, preds = _seeded_detection_files(tmp_path)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("truth,output\n12345.67,12345.61\n00000.00,00000.00\n")
    files = {"TRUTHS": str(truths), "PREDS": str(preds), "PAIRS": str(pairs)}
    entered = []
    locate = checks._locate_error
    monkeypatch.setattr(checks, "_locate_error", lambda *a: entered.append(a) or locate(*a))
    assert run_cli(capsys, *(files.get(a, a) for a in argv))[0] == 0
    assert entered == []
    # the spy sees an invalid table
    pairs.write_text("truth,output\n12345.67\n")
    assert run_cli(capsys, "ocr-score", str(pairs), "--kind", "numbers")[0] == 1
    assert len(entered) == 1


def test_accepted_table_layouts(tmp_path, capsys):
    """Columns by name in any order with extras, and files without a header."""
    sensor_table = tmp_path / "timings.csv"
    sensor_table.write_text("note,exec_time_s,distance_cm\nwarm,0.004,10\n,0.01,50\n")
    code, out, _ = run_cli(capsys, "sensor-bench", "--table", str(sensor_table))
    assert (code, out) == (0, "distance_cm,exec_time_s\n10.0,0.004\n50.0,0.01\nmean,0.007\n")
    # a leading UTF-8 byte order mark is dropped, and hides no column name
    sensor_table.write_bytes(codecs.BOM_UTF8 + b"distance_cm,exec_time_s\n10,0.004\n50,0.01\n")
    assert run_cli(capsys, "sensor-bench", "--table", str(sensor_table))[:2] == (code, out)

    profiles = tmp_path / "profiles.csv"
    profiles.write_text(
        "speed_gpu_s,engine,source,speed_cpu_s,err_alphabets,err_numbers\n"
        "0.25,tesseract,lab,0.3,0.7,5.5\n0.07,easyocr,lab,0.82,3.0,1.9\n"
    )
    argv = ("ocr-route", "--kind", "numbers", "--compute", "cpu", "--profiles", str(profiles))
    assert run_cli(capsys, *argv, "--policy", "speed")[:2] == (0, "tesseract\n")
    assert run_cli(capsys, *argv, "--policy", "accuracy")[:2] == (0, "easyocr\n")

    truths = tmp_path / "truths.csv"
    truths.write_text("image_id,label,x_min,y_min,x_max,y_max\nimg1,cat,0.1,0.1,0.5,0.5\n")
    preds = tmp_path / "preds.csv"
    preds.write_text("image_id,label,confidence,x_min,y_min,x_max,y_max\n")
    code, out, _ = run_cli(capsys, "models-eval", "--truths", str(truths), "--preds", str(preds))
    assert (code, out) == (0, "map50,0.0\nmap5095,0.0\n")

    pairs = tmp_path / "pairs.csv"
    pairs.write_text("12345.67,12345.61\n\n00000.00,00000.00\n")
    code, out, _ = run_cli(capsys, "ocr-score", str(pairs), "--kind", "numbers")
    assert (code, out.splitlines()[1]) == (0, "numbers,2,1,50.0,7>1:1,0.0")


TRUTH_COLUMNS = ("image_id", "label", "x_min", "y_min", "x_max", "y_max")
PRED_COLUMNS = ("image_id", "label", "confidence", "x_min", "y_min", "x_max", "y_max")


def _table(columns, order, rows) -> str:
    """A CSV table whose header names ``columns`` in ``order``, each row's
    cells moved with their column."""
    lines = [",".join(columns[i] for i in order)]
    lines += [",".join(row[i] for i in order) for row in rows]
    return "\n".join(lines) + "\n"


_TRUTH_ROWS = [("a", "person", "0.1", "0.1", "0.5", "0.5"), ("b", "cat", "0.2", "0.3", "0.6", "0.9")]
_PRED_ROWS = [
    ("a", "person", "0.9", "0.1", "0.1", "0.5", "0.5"),
    ("b", "cat", "0.4", "0.25", "0.3", "0.6", "0.85"),
    ("b", "cat", "0.7", "0.0", "0.0", "0.1", "0.1"),
]


def test_prediction_header_with_confidence_last_is_read_by_name(tmp_path, capsys):
    truths, preds = tmp_path / "truths.csv", tmp_path / "preds.csv"
    truths.write_text("image_id,label,x_min,y_min,x_max,y_max\na,person,0.1,0.1,0.5,0.5\n")
    preds.write_text("image_id,label,x_min,y_min,x_max,y_max,confidence\na,person,0.1,0.1,0.5,0.5,0.9\n")
    code, out, _ = run_cli(capsys, "models-eval", "--truths", str(truths), "--preds", str(preds))
    assert (code, out.splitlines()[0]) == (0, "map50,100.0")


def test_pairs_header_in_any_order_is_read_by_name(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("output,truth\nabd,abc\n")
    code, out, _ = run_cli(capsys, "ocr-score", str(pairs), "--kind", "alphabets")
    # one pair, truth abc read as abd; the header is not scored
    assert (code, out.splitlines()[1]) == (0, "alphabets,1,1,100.0,c>d:1,0.0")


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    truth_order=st.permutations(range(6)),
    pred_order=st.permutations(range(7)),
    pair_order=st.permutations(range(2)),
)
def test_permuted_headers_read_the_same_records(truth_order, pred_order, pair_order, tmp_path, capsys):
    outputs = []
    for truth_cols, pred_cols, pair_cols in [(range(6), range(7), range(2)), (truth_order, pred_order, pair_order)]:
        truths, preds, pairs = tmp_path / "truths.csv", tmp_path / "preds.csv", tmp_path / "pairs.csv"
        truths.write_text(_table(TRUTH_COLUMNS, truth_cols, _TRUTH_ROWS))
        preds.write_text(_table(PRED_COLUMNS, pred_cols, _PRED_ROWS))
        pairs.write_text(_table(("truth", "output"), pair_cols, [("left door", "ieft door"), ("fire", "fire")]))
        outputs.append(run_cli(capsys, "models-eval", "--truths", str(truths), "--preds", str(preds)))
        outputs.append(run_cli(capsys, "ocr-score", str(pairs), "--kind", "alphabets"))
    assert outputs[0][0] == outputs[1][0] == 0
    assert outputs[:2] == outputs[2:]


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("models-eval", "--truths", "{}", "--preds", "PREDS"),
         "image_id,label,x_min,y_mn,x_max,y_max\na,cat,0.1,0.1,0.5,0.5\n", "missing columns ['y_min']"),
        (("models-eval", "--truths", "{}", "--preds", "PREDS"),
         "image_id,label,x_min,y_min,x_max\na,cat,0.1,0.1,0.5\n", "missing columns ['y_max']"),
        (("models-eval", "--truths", "TRUTHS", "--preds", "{}"),
         "image_id,label,x_min,y_min,x_max,y_max,conf\na,cat,0.1,0.1,0.5,0.5,0.9\n",
         "missing columns ['confidence']"),
        (("models-eval", "--truths", "TRUTHS", "--preds", "{}"),
         "label,image_id,x0,y0,x1,y1,confidence\n", "missing columns ['x_min', 'y_min', 'x_max', 'y_max']"),
        (("ocr-score", "{}", "--kind", "alphabets"), "output,truht\nabc,abc\n", "missing columns ['truth']"),
        # a first row that is neither a header nor valid data is a data row
        # that fails, at line 1
        (("models-eval", "--truths", "{}", "--preds", "PREDS"),
         "imageid,label,x_min,y_min,x_max,y_max\na,cat,0.1,0.1,0.5,0.5\n", "x_min must be a number, got 'x_min'"),
        (("ocr-score", "{}", "--kind", "numbers"), "truths,output\n12345.67,12345.67\n",
         "truth: not NNNNN.NN: 'truths'"),
    ],
    ids=["truths-misspelt", "truths-missing", "preds-misspelt", "preds-renamed", "pairs-misspelt",
         "truths-not-a-header", "pairs-not-a-header"],
)
def test_bad_header_exits_1_at_line_1(argv, text, message, tmp_path, capsys):
    table, truths, preds = tmp_path / "table.csv", tmp_path / "truths.csv", tmp_path / "preds.csv"
    table.write_text(text)
    truths.write_text("image_id,label,x_min,y_min,x_max,y_max\na,cat,0.1,0.1,0.5,0.5\n")
    preds.write_text("")
    argv = [str(table) if a == "{}" else str(truths) if a == "TRUTHS" else str(preds) if a == "PREDS" else a
            for a in argv]
    assert run_cli(capsys, *argv) == (1, "", f"error: {table}:1: {message}\n")


def test_ocr_gen_deterministic(capsys):
    code, first, _ = run_cli(capsys, "ocr-gen", "--kind", "numbers", "--n", "3", "--seed", "7")
    assert code == 0
    code, second, _ = run_cli(capsys, "ocr-gen", "--kind", "numbers", "--n", "3", "--seed", "7")
    assert code == 0
    assert first == second
    # the README example, byte for byte
    assert first == (
        "sample_id,kind,truth\n"
        "numbers-00000,numbers,42445.19\n"
        "numbers-00001,numbers,51750.83\n"
        "numbers-00002,numbers,06328.09\n"
    )

def test_ocr_score_json(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("truth,output\nhello,hello\ntext,rexr\n")
    code, out, _ = run_cli(
        capsys, "ocr-score", str(pairs), "--kind", "alphabets", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 2
    assert payload["mismatches"] == 1
    assert payload["error_rate"] == 50.0
    assert payload["confusions"] == [{"from": "t", "to": "r", "count": 2}]

def test_ocr_route(capsys):
    code, out, _ = run_cli(
        capsys, "ocr-route", "--kind", "alphabets", "--compute", "cpu", "--policy", "accuracy"
    )
    assert code == 0
    assert out == "tesseract\n"
    code, out, _ = run_cli(
        capsys, "ocr-route", "--kind", "numbers", "--compute", "gpu", "--policy", "speed"
    )
    assert code == 0
    assert out == "easyocr\n"

def test_ocr_bench_byte_stable(capsys):
    argv = ("ocr-bench", "--kind", "alphabets", "--n", "50", "--seed", "42")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert first == second
    # timing column is zero unless requested
    assert first.splitlines()[1].endswith(",0.0")

def test_ocr_bench_timing_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "ocr-bench", "--kind", "alphabets", "--n", "10", "--seed", "1",
        "--format", "json", "--timing",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mean_speed_s"] > 0.0

def test_run_writes_artifacts(tmp_path, capsys):
    from percept_cane.pipeline import demo_scenario_path

    out_file = tmp_path / "report.json"
    transcript_file = tmp_path / "transcript.txt"
    log_file = tmp_path / "device.log"
    code, out, _ = run_cli(
        capsys,
        "run", str(demo_scenario_path()),
        "--format", "json",
        "--out", str(out_file),
        "--transcript", str(transcript_file),
        "--log", str(log_file),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_file.read_text())
    assert payload["alerts_fired"] == 1
    transcript = transcript_file.read_text()
    assert "Obstacle ahead at 80.0 centimeters" in transcript
    log = log_file.read_text()
    assert "Measure Distance = 80.0 cm" in log
    assert "time taken to execute " in log

@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_run_whose_report_fails_writes_no_side_file(fmt, tmp_path, capsys):
    # the report's folds raise when it is rendered, after the run returned;
    # neither side file may be written before that
    from percept_cane.pipeline import demo_scenario_path

    config = tmp_path / "config.json"
    config.write_text('{"perception":{"ocr_latency_s":1e308,"detect_latency_s":1e308}}')
    transcript_file, log_file = tmp_path / "transcript.txt", tmp_path / "device.log"
    code, out, err = run_cli(
        capsys,
        "run", str(demo_scenario_path()),
        "--config", str(config),
        "--format", fmt,
        "--transcript", str(transcript_file),
        "--log", str(log_file),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert not transcript_file.exists()
    assert not log_file.exists()

@pytest.mark.parametrize(
    "options, message",
    [
        (("--transcript", "-"), "--transcript cannot be '-': only --out writes to standard output"),
        (("--log", "-"), "--log cannot be '-': only --out writes to standard output"),
        (("--out", "same.txt", "--transcript", "{}/same.txt"), "--out and --transcript name the same file"),
        (("--out", "same.txt", "--log", "{}/same.txt"), "--out and --log name the same file"),
        (("--transcript", "same.txt", "--log", "{}/./same.txt"), "--transcript and --log name the same file"),
    ],
    ids=["transcript-stdout", "log-stdout", "out-transcript", "out-log", "transcript-log"],
)
def test_run_rejects_colliding_outputs(options, message, tmp_path, monkeypatch, capsys):
    # "-" would name a file called "-", and two outputs on one file would
    # overwrite each other; paths are compared resolved, before any input
    # is read
    from percept_cane import pipeline

    loads = []
    load_scenario = pipeline.load_scenario
    monkeypatch.setattr(pipeline, "load_scenario", lambda path: loads.append(path) or load_scenario(path))
    monkeypatch.chdir(tmp_path)
    argv = [a.format(tmp_path) for a in options]
    code, out, err = run_cli(capsys, "run", str(pipeline.demo_scenario_path()), *argv)
    assert (code, out, loads) == (1, "", [])
    assert err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "SCENARIO", "--transcript", "{}/transcript.txt", "--log", "{}/log.txt"),
        ("sensor-bench",),
        ("models-pareto",),
        ("models-recommend", "--budget", "3.0"),
        ("models-eval", "--truths", "{}/truths.csv", "--preds", "{}/preds.csv"),
        ("ocr-gen", "--kind", "numbers", "--n", "3"),
        ("ocr-score", "{}/pairs.csv", "--kind", "numbers"),
        ("ocr-route", "--kind", "numbers", "--compute", "cpu", "--policy", "speed"),
        ("ocr-bench", "--kind", "numbers", "--n", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_one(argv, tmp_path, capsys):
    # main writes every subcommand's output; run's side files come first
    from percept_cane.pipeline import demo_scenario_path

    (tmp_path / "pairs.csv").write_text("truth,output\n12345.67,12345.61\n")
    (tmp_path / "truths.csv").write_text("img1,cat,0.1,0.1,0.5,0.5\n")
    (tmp_path / "preds.csv").write_text("img1,cat,0.9,0.1,0.1,0.5,0.5\n")
    argv = [str(demo_scenario_path()) if a == "SCENARIO" else a.format(tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    if argv[0] == "run":
        assert "Obstacle ahead" in (tmp_path / "transcript.txt").read_text()
        assert (tmp_path / "log.txt").read_text()


@pytest.mark.parametrize("command", ["ocr-gen", "ocr-bench"])
def test_sample_count_over_the_cap_exits_one(command, capsys):
    from percept_cane.ocr_lab import MAX_SAMPLES

    argv = (command, "--kind", "numbers", "--n", str(MAX_SAMPLES + 1))
    assert run_cli(capsys, *argv) == (1, "", f"error: n must be at most {MAX_SAMPLES}\n")


def _cafe_run(tmp_path, *args: str) -> subprocess.CompletedProcess:
    """``run`` on the multi-event replay with one OCR text set to ``café``,
    under an ASCII locale; stdout and stderr are captured as bytes."""
    golden = Path(__file__).parent / "golden"
    raw = json.loads((golden / "multi_event_scenario.json").read_text(encoding="utf-8"))
    frame = next(e["frame"] for e in raw["events"] if e.get("frame", {}).get("texts"))
    frame["texts"][0]["text"] = "café"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env.pop("PYTHONIOENCODING", None)
    argv = [sys.executable, "-m", "percept_cane.cli", "run", str(scenario), *args]
    return subprocess.run(argv, capture_output=True, env=env)

def test_run_writes_utf8_files_under_ascii_locale(tmp_path):
    # inputs are read as UTF-8 whatever the locale; the files run writes
    # must be too, or a non-ASCII OCR text fails the run after the report
    out_file, transcript_file = tmp_path / "report.csv", tmp_path / "transcript.txt"
    proc = _cafe_run(tmp_path, "--out", str(out_file), "--transcript", str(transcript_file))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert "café".encode() in transcript_file.read_bytes()
    assert out_file.read_text(encoding="utf-8").startswith("stage,count,mean_s,max_s\n")

def test_run_writes_utf8_stdout_under_ascii_locale(tmp_path):
    # standard output is UTF-8 like the files, and the files come first
    transcript_file, log_file = tmp_path / "transcript.txt", tmp_path / "log.txt"
    args = ("--print-transcript", "--transcript", str(transcript_file), "--log", str(log_file))
    proc = _cafe_run(tmp_path, *args)
    assert (proc.returncode, proc.stderr) == (0, b"")
    transcript = transcript_file.read_bytes()
    assert "café".encode() in transcript
    assert proc.stdout.startswith(transcript)
    assert proc.stdout[len(transcript):].startswith(b"stage,count,mean_s,max_s\n")
    assert log_file.read_bytes()

def test_run_print_transcript_stdout(capsys):
    from percept_cane.pipeline import demo_scenario_path

    argv = ("run", str(demo_scenario_path()), "--print-transcript")
    code, first, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert first.startswith("20.")  # first transcript entry timestamp
    assert "ALERT\tObstacle ahead at 80.0 centimeters" in first
    assert "stage,count,mean_s,max_s" in first
    code, second, _ = run_cli(capsys, *argv)
    assert first == second
    # the seed defaults to 0, and seeds the sensor jitter
    assert run_cli(capsys, *argv, "--seed", "0")[1] == first
    assert run_cli(capsys, *argv, "--seed", "1")[1] != first

def test_run_renders_transcript_once(tmp_path, capsysbinary, monkeypatch):
    from percept_cane.pipeline import demo_scenario_path
    from percept_cane.speech import Transcript

    scenario = str(demo_scenario_path())
    assert main(["run", scenario]) == 0
    report = capsysbinary.readouterr().out
    render, calls = Transcript.render, []
    monkeypatch.setattr(Transcript, "render", lambda self: calls.append(1) or render(self))
    transcript_file = tmp_path / "transcript.txt"
    assert main(["run", scenario, "--print-transcript", "--transcript", str(transcript_file)]) == 0
    out = capsysbinary.readouterr().out
    assert len(calls) == 1
    golden = Path(__file__).parent / "golden" / "demo_transcript.csv"
    assert out == golden.read_bytes()
    assert transcript_file.read_bytes() + report == out


def test_run_verbose_keeps_stdout_clean(capsys):
    from percept_cane.pipeline import demo_scenario_path

    argv = ("run", str(demo_scenario_path()))
    _, plain, _ = run_cli(capsys, *argv)
    _, verbose_out, verbose_err = run_cli(capsys, *argv, "--verbose")
    assert verbose_out == plain
    assert "wall time:" in verbose_err

def test_run_with_config_override(tmp_path, capsys):
    from percept_cane.pipeline import demo_scenario_path

    cfg = tmp_path / "cfg.json"
    # a leading UTF-8 byte order mark is dropped
    for bom in (b"", codecs.BOM_UTF8):
        cfg.write_bytes(bom + b'{"alert": {"threshold_cm": 10.0}}')
        code, out, _ = run_cli(
            capsys, "run", str(demo_scenario_path()), "--config", str(cfg), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["alerts_fired"] == 0

@pytest.mark.parametrize(
    "argv",
    [
        ("models-pareto", "--table", "{}/typo-dir/fig10_models.csv"),
        ("models-recommend", "--table", "{}/typo-dir/fig8_models.csv", "--budget", "3.0"),
        ("sensor-bench", "--table", "/no/such/fig6_sensor_timings.csv"),
        ("ocr-route", "--kind", "numbers", "--compute", "cpu", "--policy", "speed",
         "--profiles", "{}/typo-dir/engine_profiles.csv"),
    ],
    ids=["models-pareto", "models-recommend", "sensor-bench", "ocr-route"],
)
def test_missing_table_path_exits_one(argv, tmp_path, capsys):
    # a path with a directory part never falls back to the bundled file of
    # the same name, so a typo cannot print the bundled table's results
    argv = [a.format(tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    missing = Path(argv[argv.index("--table" if "--table" in argv else "--profiles") + 1])
    assert (code, out) == (1, "")
    assert err == f"error: table not found: {missing}\n"


@pytest.mark.parametrize("value", ["", ".", ".."])
@pytest.mark.parametrize(
    "argv",
    [
        ("sensor-bench", "--table"),
        ("models-pareto", "--table"),
        ("models-recommend", "--budget", "3.0", "--table"),
        ("ocr-route", "--kind", "numbers", "--compute", "cpu", "--policy", "speed", "--profiles"),
    ],
    ids=["sensor-bench", "models-pareto", "models-recommend", "ocr-route"],
)
def test_table_option_naming_no_file_exits_one(argv, value, capsys):
    # the message names the value as given, not the bundled data directory
    assert run_cli(capsys, *argv, value) == (1, "", f"error: table not found: {value!r}\n")


@pytest.mark.parametrize("name",["engine_profiles.csv", "data/engine_profiles.csv"])
def test_bundled_names_resolve_from_any_directory(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    route = ("ocr-route", "--kind", "alphabets", "--compute", "cpu", "--policy", "accuracy")
    assert run_cli(capsys, *route, "--profiles", name) == (0, "tesseract\n", "")
    table = name.replace("engine_profiles", "fig10_models")
    code, out, _ = run_cli(capsys, "models-pareto", "--table", table)
    assert (code, out.splitlines()) == (0, FIG10_FRONTIER_ROWS)
    table = name.replace("engine_profiles", "fig6_sensor_timings")
    code, out, _ = run_cli(capsys, "sensor-bench", "--table", table)
    assert (code, out.splitlines()[-1]) == (0, "mean,0.007137478")


def test_ocr_route_default_profiles_ignore_the_working_directory(tmp_path, monkeypatch, capsys):
    # a file of the bundled name in the working directory is read only when named
    monkeypatch.chdir(tmp_path)
    (tmp_path / "engine_profiles.csv").write_text(
        "engine,err_numbers,err_alphabets,speed_cpu_s,speed_gpu_s\nlocal,0.0,0.0,0.1,0.1\n"
    )
    route = ("ocr-route", "--kind", "alphabets", "--compute", "cpu", "--policy", "accuracy")
    assert run_cli(capsys, *route) == (0, "tesseract\n", "")
    assert run_cli(capsys, *route, "--profiles", "engine_profiles.csv") == (0, "local\n", "")


_DECOYS = {
    "fig6_sensor_timings.csv": ("distance_cm,exec_time_s\n50,1.0\n", "mean,1.0"),
    "fig8_models.csv": ("name,framework,gflops,mparams,map\nlocal-net,x,1.0,1.0,99.0\n", "local-net,1.0,99.0"),
}


@pytest.mark.parametrize(
    "argv, decoy, bundled",
    [
        (("sensor-bench",), "fig6_sensor_timings.csv", "mean,0.007137478"),
        (("models-pareto",), "fig8_models.csv", FIG8_FRONTIER_ROW),
        (("models-recommend", "--budget", "3.0"), "fig8_models.csv", FIG8_FRONTIER_ROW),
    ],
    ids=["sensor-bench", "models-pareto", "models-recommend"],
)
def test_default_tables_ignore_the_working_directory(argv, decoy, bundled, tmp_path, monkeypatch, capsys):
    # without --table the bundled file is read, never a file of its name here
    monkeypatch.chdir(tmp_path)
    text, decoy_line = _DECOYS[decoy]
    (tmp_path / decoy).write_text(text)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out.splitlines()[-1], err) == (0, bundled, "")
    code, out, _ = run_cli(capsys, *argv, "--table", decoy)
    assert (code, out.splitlines()[-1]) == (0, decoy_line)


def test_default_model_table_names_itself_in_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "models-pareto", "--map-field", "map5095")
    assert (code, out, err) == (1, "", "error: fig8_models.csv: no row has a map5095 value\n")


def test_missing_input_file_exits_one(capsys):
    code, out, err = run_cli(capsys, "run", "/nonexistent/scenario.json")
    assert code == 1
    assert out == ""
    assert "error:" in err

def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "error:" in err

def test_bad_choice_exits_one(capsys):
    code, _, _ = run_cli(capsys, "ocr-gen", "--kind", "emoji", "--n", "3")
    assert code == 1

def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "run", "--help")[0] == 0

_HELP = ("help", "==SUPPRESS==", None, False, None)
_OUT = ("out", "-", None, False, None)
_KIND = ("kind", None, None, True, ("alphabets", "numbers"))
_FORMAT = ("format", "csv", None, False, ("csv", "json"))
_SEED = ("seed", 0, "int", False, None)
_N = ("n", None, "int", True, None)
_MODEL_TABLE = ("table", None, None, False, None)
_MAP_FIELD = ("map_field", "map50", None, False, ("map50", "map5095"))

# per subcommand: the whitespace-normalised usage line and each action's
# (dest, default, type name, required, choices), in declaration order
PARSER_SURFACE = {
    "run": (
        "usage: percept-cane run [-h] [--config CONFIG] [--seed SEED] [--format {csv,json}]"
        " [--transcript TRANSCRIPT] [--log LOG] [--print-transcript] [--verbose] [--out OUT]"
        " scenario",
        [
            _HELP,
            ("scenario", None, None, True, None),
            ("config", None, None, False, None),
            _SEED,
            _FORMAT,
            ("transcript", None, None, False, None),
            ("log", None, None, False, None),
            ("print_transcript", False, None, False, None),
            ("verbose", False, None, False, None),
            _OUT,
        ],
    ),
    "sensor-bench": (
        "usage: percept-cane sensor-bench [-h] [--table TABLE] [--out OUT]",
        [_HELP, ("table", None, None, False, None), _OUT],
    ),
    "models-pareto": (
        "usage: percept-cane models-pareto [-h] [--table TABLE] [--map-field {map50,map5095}]"
        " [--out OUT]",
        [_HELP, _MODEL_TABLE, _MAP_FIELD, _OUT],
    ),
    "models-recommend": (
        "usage: percept-cane models-recommend [-h] [--table TABLE] [--map-field {map50,map5095}]"
        " --budget BUDGET [--out OUT]",
        [_HELP, _MODEL_TABLE, _MAP_FIELD, ("budget", None, "float", True, None), _OUT],
    ),
    "models-eval": (
        "usage: percept-cane models-eval [-h] --truths TRUTHS --preds PREDS [--out OUT]",
        [_HELP, ("truths", None, None, True, None), ("preds", None, None, True, None), _OUT],
    ),
    "ocr-gen": (
        "usage: percept-cane ocr-gen [-h] --kind {alphabets,numbers} --n N [--seed SEED]"
        " [--out OUT]",
        [_HELP, _KIND, _N, _SEED, _OUT],
    ),
    "ocr-score": (
        "usage: percept-cane ocr-score [-h] --kind {alphabets,numbers} [--format {csv,json}]"
        " [--out OUT] pairs",
        [_HELP, ("pairs", None, None, True, None), _KIND, _FORMAT, _OUT],
    ),
    "ocr-route": (
        "usage: percept-cane ocr-route [-h] --kind {alphabets,numbers} --compute {cpu,gpu}"
        " --policy {accuracy,speed} [--profiles PROFILES] [--out OUT]",
        [
            _HELP,
            _KIND,
            ("compute", None, None, True, ("cpu", "gpu")),
            ("policy", None, None, True, ("accuracy", "speed")),
            ("profiles", None, None, False, None),
            _OUT,
        ],
    ),
    "ocr-bench": (
        "usage: percept-cane ocr-bench [-h] --kind {alphabets,numbers} [--engine ENGINE] --n N"
        " [--seed SEED] [--format {csv,json}] [--timing] [--out OUT]",
        [
            _HELP,
            _KIND,
            ("engine", "mock-tesseract", None, False, None),
            _N,
            _SEED,
            _FORMAT,
            ("timing", False, None, False, None),
            _OUT,
        ],
    ),
}


def _subparsers() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

def test_parser_surface():
    subparsers = _subparsers()
    assert list(subparsers) == list(PARSER_SURFACE)
    for name, p in subparsers.items():
        usage, actions = PARSER_SURFACE[name]
        assert " ".join(p.format_usage().split()) == usage, name
        got = [
            (a.dest, a.default, a.type and a.type.__name__, a.required, a.choices and tuple(a.choices))
            for a in p._actions
        ]
        assert got == actions, name

@pytest.mark.parametrize("command", list(PARSER_SURFACE))
def test_subcommand_help_exits_zero(command, capsys):
    # argparse %-formats the help strings only when it prints them
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: percept-cane {command} ")

def test_models_eval_help_names_its_ap(capsys):
    code, out, _ = run_cli(capsys, "models-eval", "--help")
    text = " ".join(out.split())
    assert code == 0
    assert "all-point interpolated" in text and "no per-image detection cap" in text
    assert "not COCO's 101-point AP" in text

def test_readme_shows_every_subcommand():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    shown = set(re.findall(r"^\$ percept-cane ([\w-]+)", cli_section, re.M))
    assert [name for name in _subparsers() if name not in shown] == []

def test_version_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("percept-cane ")

def test_backend_failure_exits_two(tmp_path, capsys, monkeypatch):
    import percept_cane.cli as cli_mod

    class Boom:
        backend_id = "boom"

        def transcribe(self, text, key):
            raise RuntimeError("device lost")

    monkeypatch.setattr(cli_mod, "build_ocr", lambda engine, seed=0: Boom())
    code, _, err = run_cli(capsys, "ocr-bench", "--kind", "numbers", "--n", "2")
    assert code == 2
    assert "error:" in err
