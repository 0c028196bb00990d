"""Shipping checklist.

One test per release criterion. Each prints a single "criterion NN PASS/FAIL"
line, so the suite output doubles as the sign-off readout (run with -rA to see
the lines for passing tests too). Tolerances here are contractual; do not
loosen them to make a change land.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import product

import pytest

from conftest import random_box
from oracles import brute_force_ap, brute_force_frontier, grid_iou

from percept_cane.alerts import AlertConfig, AlertState, on_measurement
from percept_cane.cli import main
from percept_cane.detector_lab import (
    MAP_RANGE_THRESHOLDS,
    PredictionBox,
    TruthBox,
    average_precision,
    iou,
    load_model_table,
    map_at,
    map_range,
    pareto_frontier,
)
from percept_cane.ocr_lab import (
    ENGINE_PROFILES_FILE,
    align_confusions,
    load_engine_profiles,
    load_wordlist,
    route,
    score,
)
from percept_cane.perception import BoundingBox
from percept_cane.pipeline import (
    demo_scenario_path,
    load_scenario,
    run,
    run_report_to_json,
)
from percept_cane.resources import data_path
from percept_cane.sensor import (
    DistanceMeasurement,
    EchoSample,
    SensorConfig,
    distance_from_echo,
    echo_from_distance,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}")
        raise
    print(f"criterion {number:02d} PASS  {description}")


def test_c01_sensor_bench_mean(tmp_path):
    with criterion(1, "sensor-bench reports mean 0.007137478 in under a second"):
        out_file = tmp_path / "bench.csv"
        t0 = time.perf_counter()
        code = main(["sensor-bench", "--out", str(out_file)])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert out_file.read_text().splitlines()[-1] == "mean,0.007137478"
        assert elapsed < 1.0


def test_c02_distance_formula():
    with criterion(2, "3.1137 ms echo reads 53.4 cm; echo/distance round-trip is stable"):
        cfg = SensorConfig()
        assert distance_from_echo(EchoSample(0.00311370), cfg) == pytest.approx(53.4, abs=0.05)
        rng = random.Random(20260815)
        for _ in range(10_000):
            d = rng.uniform(1.0, 600.0)
            back = distance_from_echo(echo_from_distance(d, cfg), cfg)
            assert back == pytest.approx(d, rel=1e-9)


FIG10_FRONTIER = {
    "yolo-fastest@320",
    "yolo-fastest-xl@320",
    "yolov5-lite@320",
    "yolov5-lite@640",
    "yolov5s@640",
}


def test_c03_pareto_frontiers():
    with criterion(3, "bundled model frontiers match a pairwise dominance oracle"):
        fig8 = load_model_table(data_path("fig8_models.csv"))
        names8 = [m.display_name for m in pareto_frontier(fig8, "map50")]
        assert names8 == ["mobilenet-ssd"]
        assert set(names8) == brute_force_frontier(fig8, "map50")

        fig10 = load_model_table(data_path("fig10_models.csv"))
        names10 = {m.display_name for m in pareto_frontier(fig10, "map50")}
        assert names10 == FIG10_FRONTIER
        assert names10 == brute_force_frontier(fig10, "map50")


def test_c04_iou_grid_oracle():
    with criterion(4, "analytic IoU within 0.01 of a 512-grid count on 1,000 pairs"):
        a = BoundingBox(0.0, 0.0, 0.2, 0.2)
        b = BoundingBox(0.1, 0.1, 0.3, 0.3)
        assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-6)
        rng = random.Random(2024)
        worst = 0.0
        for _ in range(1000):
            first, second = random_box(rng), random_box(rng)
            worst = max(worst, abs(iou(first, second) - grid_iou(first, second)))
        assert worst <= 0.01


# Exhaustive AP fixture family: up to 3 truths on a diagonal, up to 4
# predictions each drawn from {strong hit, weak hit} per truth plus a
# background box. x-only shifts of an 0.2-side square give IoU
# (0.2-s)/(0.2+s), so the two shift levels land at 0.90 and 0.55: one
# survives both scoring thresholds, the other only the looser one.
_STRONG_SHIFT = 0.02 / 1.9
_WEAK_SHIFT = 0.09 / 1.55
_BACKGROUND = BoundingBox(0.75, 0.05, 0.95, 0.25)


def _truth_slot(i: int) -> BoundingBox:
    return BoundingBox(0.3 * i, 0.3 * i, 0.3 * i + 0.2, 0.3 * i + 0.2)


def _shifted(i: int, shift: float) -> BoundingBox:
    base = _truth_slot(i)
    return BoundingBox(base.x_min + shift, base.y_min, base.x_max + shift, base.y_max)


def _ap_fixtures():
    for n_truth in (1, 2, 3):
        truths = [TruthBox("img", "obj", _truth_slot(i)) for i in range(n_truth)]
        options = [_BACKGROUND]
        for i in range(n_truth):
            options.append(_shifted(i, _STRONG_SHIFT))
            options.append(_shifted(i, _WEAK_SHIFT))
        for n_pred in range(5):
            for combo in product(options, repeat=n_pred):
                yield truths, combo


def _preds_for(combo, equal_conf: bool) -> list[PredictionBox]:
    return [
        PredictionBox("img", "obj", 0.5 if equal_conf else 0.9 - 0.1 * i, box)
        for i, box in enumerate(combo)
    ]


def test_c05_ap_matches_assignment_oracle():
    with criterion(5, "AP equals a brute-force assignment oracle on all small fixtures"):
        checked = 0
        for truths, combo in _ap_fixtures():
            for equal_conf in (False, True):
                preds = _preds_for(combo, equal_conf)
                for threshold in (0.5, 0.7):
                    got = average_precision(preds, truths, "obj", threshold)
                    want = brute_force_ap(preds, truths, "obj", threshold)
                    assert got == float(want), (truths, preds, threshold)
                    checked += 1
        # family size is frozen: (3^k, 5^k, 7^k summed over k=0..4) x 2 x 2
        assert checked == 14_812

        assert MAP_RANGE_THRESHOLDS == tuple(i / 100 for i in range(50, 100, 5))
        assert len(MAP_RANGE_THRESHOLDS) == 10
        for case_idx, (truths, combo) in enumerate(_ap_fixtures()):
            if case_idx % 137 or not combo:
                continue
            preds = _preds_for(combo, equal_conf=False)
            # the exact mean of the oracle's ten APs, as a percentage
            aps = [brute_force_ap(preds, truths, "obj", t) for t in MAP_RANGE_THRESHOLDS]
            assert map_range(preds, truths) == float(sum(aps) * 100 / len(aps))


def test_c06_ocr_scoring():
    with criterion(6, "error rate exact at 55/1000; injected confusions recovered"):
        words = load_wordlist()
        pairs = []
        for i in range(1000):
            truth = words[i % len(words)]
            pairs.append((truth, truth.upper() if i < 55 else truth))
        report = score(pairs, "alphabets")
        assert report.mismatches == 55
        assert report.error_rate == 5.50

        rng = random.Random(4242)
        digits = "0123456789"
        for _ in range(1000):
            word = rng.choice(words)
            out = list(word)
            expected: Counter[tuple[str, str]] = Counter()
            for pos in rng.sample(range(len(word)), rng.randrange(1, min(3, len(word)) + 1)):
                digit = rng.choice(digits)
                expected[(word[pos], digit)] += 1
                out[pos] = digit
            assert align_confusions(word, "".join(out)) == expected


def test_c07_routing_matrix():
    with criterion(7, "benchmark routing picks the right engine in all four cells"):
        profiles = load_engine_profiles(data_path(ENGINE_PROFILES_FILE))
        assert route("alphabets", "cpu", "accuracy", profiles) == "tesseract"
        assert route("numbers", "cpu", "accuracy", profiles) == "easyocr"
        assert route("alphabets", "cpu", "speed", profiles) == "tesseract"
        assert route("alphabets", "gpu", "speed", profiles) == "easyocr"


def test_c08_end_to_end_determinism():
    with criterion(8, "scenario replay is byte-identical across runs and processes"):
        scenario = load_scenario(demo_scenario_path())
        first = run(scenario)
        second = run(scenario)
        assert first.report.alerts_fired == 1
        rendered = first.transcript.render()
        report_json = run_report_to_json(first.report)
        assert rendered == second.transcript.render()
        assert report_json == run_report_to_json(second.report)
        assert first.log == second.log

        texts = first.transcript.texts()
        alert_i = next(i for i, s in enumerate(texts) if s.startswith("Obstacle ahead"))
        ocr_i = next(i for i, s in enumerate(texts) if "EXIT" in s)
        det_i = next(i for i, s in enumerate(texts) if "chair" in s)
        assert alert_i < ocr_i < det_i

        argv = [
            sys.executable,
            "-m",
            "percept_cane.cli",
            "run",
            str(demo_scenario_path()),
            "--print-transcript",
            "--format",
            "json",
        ]
        runs = [subprocess.run(argv, capture_output=True, text=True, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout == rendered + report_json


def test_c09_latency_budget():
    with criterion(9, "cycle time passes the 3-5 s budget; host cost stays under 50 ms"):
        scenario = load_scenario(demo_scenario_path())
        result = run(scenario)
        assert result.report.budget_pass
        assert 3.0 <= result.report.end_to_end.mean_s <= 5.0

        def timed() -> float:
            t0 = time.perf_counter()
            run(scenario)
            return time.perf_counter() - t0

        assert min(timed() for _ in range(3)) <= 0.050


def test_c10_alert_property_suite():
    with criterion(10, "alert invariants hold over 10,000 random measurement streams"):
        rng = random.Random(1009)
        sensor_cfg = SensorConfig()
        for _ in range(10_000):
            threshold = rng.uniform(60.0, 150.0)
            interval = rng.uniform(0.5, 3.0)
            margin = rng.choice((0.0, 0.0, rng.uniform(5.0, 40.0)))
            cfg = AlertConfig(
                threshold_cm=threshold,
                min_interval_s=interval,
                rearm_margin_cm=margin,
            )
            state = AlertState()
            t = 0.0
            readings: list[tuple[float, float]] = []
            alerts = []
            for _ in range(rng.randrange(5, 25)):
                t += rng.uniform(0.05, 1.2)
                d = rng.uniform(10.0, 350.0)
                measurement = DistanceMeasurement(
                    distance_cm=d,
                    exec_time_s=0.005,
                    in_range=sensor_cfg.min_range_cm <= d <= sensor_cfg.max_range_cm,
                    timestamp_s=t,
                )
                event = on_measurement(state, measurement, cfg)
                readings.append((t, d))
                if event is not None:
                    assert d <= threshold
                    assert measurement.in_range
                    alerts.append(event)
            for prev, nxt in zip(alerts, alerts[1:]):
                assert nxt.timestamp_s - prev.timestamp_s >= interval - 1e-12
                if margin > 0.0:
                    between = [
                        d for rt, d in readings if prev.timestamp_s < rt < nxt.timestamp_s
                    ]
                    assert any(d > threshold + margin for d in between)
