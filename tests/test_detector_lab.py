import random
import re
from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest

from oracles import brute_force_ap, brute_force_frontier, grid_iou, literal_ap
from conftest import random_box
from percept_cane.detector_lab import (
    MAP_FIELDS,
    MAP_RANGE_THRESHOLDS,
    _exact_sum,
    _interpolated_ap,
    ModelSpec,
    PredictionBox,
    TruthBox,
    average_precision,
    iou,
    load_model_table,
    load_predictions,
    load_truths,
    map_at,
    map50_and_range,
    map_range,
    pareto_frontier,
    recommend,
    split_by_map_field,
)
from percept_cane.perception import BoundingBox
from percept_cane.resources import data_path

# -- IoU ---------------------------------------------------------------


def test_iou_hand_case():
    a = BoundingBox(0.0, 0.0, 0.2, 0.2)
    b = BoundingBox(0.1, 0.1, 0.3, 0.3)
    assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-6)


def test_iou_identity_and_disjoint():
    a = BoundingBox(0.1, 0.2, 0.4, 0.6)
    assert iou(a, a) == 1.0
    b = BoundingBox(0.5, 0.7, 0.9, 0.9)
    assert iou(a, b) == 0.0


def test_iou_degenerate_union():
    p = BoundingBox(0.3, 0.3, 0.3, 0.3)
    assert iou(p, p) == 0.0


def test_iou_underflowing_areas_is_zero():
    # both boxes have a positive side, but every product underflows to 0.0
    tiny = BoundingBox(0.0, 0.0, 1e-200, 1e-200)
    assert (tiny.x_max - tiny.x_min) * (tiny.y_max - tiny.y_min) == 0.0
    assert iou(tiny, tiny) == 0.0


def test_iou_touching_edges_is_zero():
    a = BoundingBox(0.0, 0.0, 0.5, 0.5)
    b = BoundingBox(0.5, 0.0, 1.0, 0.5)
    assert iou(a, b) == 0.0


def test_iou_symmetric_and_bounded(rng):
    for _ in range(300):
        a, b = random_box(rng), random_box(rng)
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


def test_iou_matches_grid_oracle(rng):
    for _ in range(300):
        a, b = random_box(rng), random_box(rng)
        assert abs(iou(a, b) - grid_iou(a, b)) <= 0.01


# -- AP / mAP ----------------------------------------------------------


def t(label, box, image="img"):
    return TruthBox(image, label, box)


def p(label, conf, box, image="img"):
    return PredictionBox(image, label, conf, box)


UNIT = BoundingBox(0.2, 0.2, 0.4, 0.4)
FAR = BoundingBox(0.7, 0.7, 0.9, 0.9)


def test_ap_perfect_single():
    assert average_precision([p("cat", 0.9, UNIT)], [t("cat", UNIT)], "cat", 0.5) == 1.0


def test_ap_single_below_threshold():
    shifted = BoundingBox(0.35, 0.2, 0.55, 0.4)  # IoU = 1/7 with UNIT
    assert average_precision([p("cat", 0.9, shifted)], [t("cat", UNIT)], "cat", 0.5) == 0.0


def test_ap_hand_enumerated_curve():
    # ranked TP, FP, TP over two truths
    truths = [t("cat", UNIT), t("cat", FAR)]
    preds = [
        p("cat", 0.9, UNIT),
        p("cat", 0.8, BoundingBox(0.0, 0.6, 0.2, 0.8)),
        p("cat", 0.7, FAR),
    ]
    assert average_precision(preds, truths, "cat", 0.5) == pytest.approx(0.8333, abs=1e-4)


def test_ap_undefined_without_truths():
    with pytest.raises(ValueError):
        average_precision([p("cat", 0.9, UNIT)], [t("dog", UNIT)], "cat", 0.5)


def test_ap_threshold_out_of_range():
    with pytest.raises(ValueError):
        average_precision([], [t("cat", UNIT)], "cat", 0.0)


def test_ap_duplicate_hits_are_false_positives():
    truths = [t("cat", UNIT)]
    preds = [p("cat", 0.9, UNIT), p("cat", 0.8, UNIT)]
    # second hit on the same truth cannot raise AP above 1 truth's worth
    assert average_precision(preds, truths, "cat", 0.5) == 1.0
    # reversed confidences: first ranked prediction misses nothing; still 1.0
    preds = [p("cat", 0.8, UNIT), p("cat", 0.9, UNIT)]
    assert average_precision(preds, truths, "cat", 0.5) == 1.0


def test_ap_monotone_nonincreasing_in_threshold(rng):
    for _ in range(50):
        truths = [t("cat", random_box(rng)) for _ in range(3)]
        preds = [p("cat", rng.random(), random_box(rng)) for _ in range(5)]
        values = [average_precision(preds, truths, "cat", thr) for thr in MAP_RANGE_THRESHOLDS]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def _fixture_family(max_preds: int, equal_conf: bool):
    """All prediction layouts over diagonal truths at three overlap levels."""
    shift_for_level = {0.3: 0.1077, 0.6: 0.05, 0.9: 0.01053}
    background = BoundingBox(0.75, 0.05, 0.95, 0.25)
    for n_truth in (1, 2, 3):
        truth_boxes = [
            BoundingBox(0.3 * i, 0.3 * i, 0.3 * i + 0.2, 0.3 * i + 0.2)
            for i in range(n_truth)
        ]
        truths = [t("obj", b) for b in truth_boxes]
        choices = [
            (i, level) for i in range(n_truth) for level in shift_for_level
        ] + [None]
        for n_pred in range(max_preds + 1):
            for combo in product(choices, repeat=n_pred):
                preds = []
                for slot, choice in enumerate(combo):
                    conf = 0.5 if equal_conf else 0.9 - 0.1 * slot
                    if choice is None:
                        preds.append(p("obj", conf, background))
                    else:
                        i, level = choice
                        base = truth_boxes[i]
                        s = shift_for_level[level]
                        box = BoundingBox(
                            base.x_min + s, base.y_min, base.x_max + s, base.y_max
                        )
                        preds.append(p("obj", conf, box))
                yield preds, truths


def test_ap_matches_assignment_oracle_sampled():
    # unit-level slice of the exhaustive family (acceptance runs it in full)
    rng = random.Random(8)
    cases = list(_fixture_family(max_preds=3, equal_conf=False))
    for preds, truths in rng.sample(cases, 400):
        for thr in (0.5, 0.7):
            expected = brute_force_ap(preds, truths, "obj", thr)
            assert average_precision(preds, truths, "obj", thr) == float(expected)


def test_ap_iou_tie_goes_to_the_first_truth():
    t0, t1 = BoundingBox(0.0, 0.0, 0.5, 0.5), BoundingBox(0.5, 0.0, 1.0, 0.5)
    straddle = BoundingBox(0.25, 0.0, 0.75, 0.5)
    assert iou(straddle, t0) == iou(straddle, t1) == pytest.approx(1 / 3)
    # the straddling prediction takes t0, the earlier truth, and leaves t1
    # for the exact hit; taking t1 would make the exact hit a duplicate
    preds = [p("cat", 0.9, straddle), p("cat", 0.8, t1)]
    assert average_precision(preds, [t("cat", t0), t("cat", t1)], "cat", 0.3) == 1.0


def test_ap_matches_oracle_with_tied_confidences():
    rng = random.Random(9)
    cases = list(_fixture_family(max_preds=3, equal_conf=True))
    for preds, truths in rng.sample(cases, 200):
        expected = brute_force_ap(preds, truths, "obj", 0.5)
        assert average_precision(preds, truths, "obj", 0.5) == float(expected)


def test_ap_multi_image_matching_is_per_image():
    truths = [t("cat", UNIT, "a"), t("cat", UNIT, "b")]
    # high-confidence prediction in the wrong image must not steal a's truth
    preds = [p("cat", 0.9, UNIT, "b"), p("cat", 0.5, UNIT, "a")]
    assert average_precision(preds, truths, "cat", 0.5) == 1.0
    expected = brute_force_ap(preds, truths, "cat", 0.5)
    assert average_precision(preds, truths, "cat", 0.5) == float(expected)


def test_map_at_basics():
    truths = [t("cat", UNIT), t("dog", FAR)]
    perfect = [p("cat", 0.9, UNIT), p("dog", 0.8, FAR)]
    assert map_at(perfect, truths, 0.5) == 100.0
    half = [p("cat", 0.9, UNIT)]  # dog never predicted -> AP 0
    assert map_at(half, truths, 0.5) == 50.0
    with pytest.raises(ValueError):
        map_at(perfect, [], 0.5)


def test_map_range_thresholds():
    assert len(MAP_RANGE_THRESHOLDS) == 10
    assert MAP_RANGE_THRESHOLDS[0] == 0.50
    assert MAP_RANGE_THRESHOLDS[-1] == 0.95
    assert [round(b - a, 2) for a, b in zip(MAP_RANGE_THRESHOLDS, MAP_RANGE_THRESHOLDS[1:])] == [
        0.05
    ] * 9


def test_map_range_perfect_and_partial():
    truths = [t("cat", BoundingBox(0.0, 0.0, 0.7, 1.0))]
    assert map_range([p("cat", 0.9, BoundingBox(0.0, 0.0, 0.7, 1.0))], truths) == 100.0
    # IoU exactly 0.70: passes thresholds 0.50..0.70, fails 0.75..0.95
    wide = [p("cat", 0.9, BoundingBox(0.0, 0.0, 1.0, 1.0))]
    assert iou(BoundingBox(0.0, 0.0, 0.7, 1.0), BoundingBox(0.0, 0.0, 1.0, 1.0)) == 0.7
    assert map_range(wide, truths) == 50.0


def _exact_mean(values: list[Fraction]) -> float:
    """The correctly rounded mean of exact values, as map_range promises."""
    return float(sum(values) / len(values))


def test_map_range_equals_mean_of_map_at(rng):
    for _ in range(20):
        truths = [t(label, random_box(rng)) for label in ("cat", "dog") for _ in range(2)]
        preds = [
            p(label, rng.random(), random_box(rng))
            for label in ("cat", "dog")
            for _ in range(3)
        ]
        values = [map_at(preds, truths, thr) for thr in MAP_RANGE_THRESHOLDS]
        exact = [
            sum(brute_force_ap(preds, truths, label, thr) for label in ("cat", "dog")) * 50
            for thr in MAP_RANGE_THRESHOLDS
        ]
        assert values == [float(v) for v in exact]
        # the mean of the exact values, not of their rounded floats
        assert map_range(preds, truths) == _exact_mean(exact)
        # one table for all thresholds gives map_at at 0.5 exactly
        assert map50_and_range(preds, truths) == (values[0], _exact_mean(exact))


# Multi-label, multi-image fixtures for the threshold ladder: at most four
# predictions per label keep the assignment oracle fast, confidences come
# from a small set so ties occur, and x-shifted copies of truths spread their
# IoUs across the ladder. One extra label pins a pair at IoU exactly 0.70;
# another has a prediction at IoU 0.6 with two truths, where the lower truth
# position must win (dyadic coordinates make the two IoUs bit-equal).
_EXACT_TRUTH = BoundingBox(0.0, 0.0, 0.7, 1.0)
_EXACT_PRED = BoundingBox(0.0, 0.0, 1.0, 1.0)
_TIED_TRUTHS = (BoundingBox(0.0, 0.0, 0.5, 0.25), BoundingBox(0.25, 0.0, 0.75, 0.25))
_TIED_PRED = BoundingBox(0.125, 0.0, 0.625, 0.25)


def _x_shifted(rng, box):
    w = box.x_max - box.x_min
    s = rng.uniform(0.0, 0.3) * w
    x0 = box.x_min + s if box.x_max + s <= 1.0 else box.x_min - s
    return BoundingBox(x0, box.y_min, min(1.0, x0 + w), box.y_max)


def _multilabel_fixture(rng):
    images = ("a", "b", "c")
    truths, preds = [], []
    for label in ("cat", "dog", "person"):
        label_truths = [t(label, random_box(rng), rng.choice(images)) for _ in range(rng.randint(1, 3))]
        truths += label_truths
        for _ in range(rng.randint(0, 4)):
            conf = rng.choice((0.3, 0.6, 0.6, 0.9))
            if rng.random() < 0.75:
                base = rng.choice(label_truths)
                preds.append(p(label, conf, _x_shifted(rng, base.box), base.image_id))
            else:
                preds.append(p(label, conf, random_box(rng), rng.choice(images)))
    truths.append(t("sign", _EXACT_TRUTH, "b"))
    preds.append(p("sign", 0.6, _EXACT_PRED, "b"))
    truths += [t("door", box, "c") for box in _TIED_TRUTHS]
    preds += [p("door", 0.9, _TIED_PRED, "c"), p("door", 0.6, _TIED_TRUTHS[0], "c")]
    preds.append(p("bus", 0.9, _EXACT_PRED, "a"))  # label without truths: ignored
    rng.shuffle(preds)
    return truths, preds


def test_map_ladder_matches_assignment_oracle():
    assert iou(_EXACT_TRUTH, _EXACT_PRED) == 0.7 == MAP_RANGE_THRESHOLDS[4]
    assert iou(_TIED_PRED, _TIED_TRUTHS[0]) == iou(_TIED_PRED, _TIED_TRUTHS[1]) == 0.6
    rng = random.Random(2718)
    for _ in range(40):
        truths, preds = _multilabel_fixture(rng)
        labels = sorted({x.label for x in truths})
        exact = []
        for thr in MAP_RANGE_THRESHOLDS:
            mean = sum(brute_force_ap(preds, truths, label, thr) for label in labels) / len(labels)
            exact.append(mean * 100)
            assert map_at(preds, truths, thr) == float(exact[-1]), (truths, preds, thr)
        assert map_range(preds, truths) == _exact_mean(exact)


# -- exact AP terms against the literal formula ------------------------


def _term_sum_ap(tp_ranks, n_truth):
    num, den = _exact_sum(_interpolated_ap(tp_ranks, n_truth))
    return Fraction(num, den)


def test_ap_terms_match_literal_formula_on_rank_lists():
    rng = random.Random(31)
    assert _term_sum_ap([], 3) == literal_ap([], 3) == 0
    for _ in range(200):
        n_preds = rng.randint(1, 60)
        tp_ranks = sorted(rng.sample(range(1, n_preds + 1), rng.randint(1, n_preds)))
        n_truth = len(tp_ranks) + rng.randrange(4)
        assert _term_sum_ap(tp_ranks, n_truth) == literal_ap(tp_ranks, n_truth), tp_ranks


def test_ap_terms_match_literal_formula_on_many_plateaus():
    # thousands of terms: the pairwise sum recurses a dozen levels deep.
    # At rank k(k+1)/2 the k-th true positive's precision is 2/(k+1), which
    # falls at every true positive, so each is a plateau of its own.
    tp_ranks = [k * (k + 1) // 2 for k in range(1, 2501)]
    assert len(_interpolated_ap(tp_ranks, 2600)) == 2500
    assert _term_sum_ap(tp_ranks, 2600) == literal_ap(tp_ranks, 2600)
    mixed = sorted(random.Random(32).sample(range(1, 20_000), 3000))
    assert _term_sum_ap(mixed, 3100) == literal_ap(mixed, 3100)


_MISS = BoundingBox(0.8, 0.0, 1.0, 0.2)  # disjoint from _EXACT_TRUTH


def _known_ranks_fixture(rng):
    """Labels whose every truth is _EXACT_TRUTH alone in its image, hit by
    exact copies (IoU 1), by _EXACT_PRED (IoU 0.7) or missed by _MISS, at
    distinct confidences; returns truths, shuffled predictions and each
    label's true-positive ranks per threshold, found from the construction."""
    truths, preds, tp_ranks = [], [], {}
    for label in ("cat", "dog", "person", "traffic light"):
        n_truth = rng.randint(20, 40)
        truths += [t(label, _EXACT_TRUTH, f"{label}-{i}") for i in range(n_truth)]
        n_preds = rng.randint(30, 70)
        boxes = (_EXACT_TRUTH, _EXACT_PRED, _MISS)
        hits = [(rng.randrange(n_truth), rng.choice(boxes)) for _ in range(n_preds)]
        for rank, (i, box) in enumerate(hits, start=1):
            preds.append(p(label, 1 - rank / (n_preds + 1), box, f"{label}-{i}"))
        for thr in MAP_RANGE_THRESHOLDS:
            matched, ranks = set(), []
            for rank, (i, box) in enumerate(hits, start=1):
                if (box is _EXACT_TRUTH or (box is _EXACT_PRED and thr <= 0.7)) and i not in matched:
                    matched.add(i)
                    ranks.append(rank)
            tp_ranks[label, thr] = (ranks, n_truth)
    rng.shuffle(preds)
    return truths, preds, tp_ranks


def test_map_matches_literal_formula_on_many_terms():
    rng = random.Random(33)
    labels = ("cat", "dog", "person", "traffic light")
    for _ in range(5):
        truths, preds, tp_ranks = _known_ranks_fixture(rng)
        exact = []
        for thr in MAP_RANGE_THRESHOLDS:
            aps = {label: literal_ap(*tp_ranks[label, thr]) for label in labels}
            assert sum(len(_interpolated_ap(*tp_ranks[label, thr])) for label in labels) > 16
            exact.append(sum(aps.values()) / len(labels) * 100)
            assert map_at(preds, truths, thr) == float(exact[-1])
            for label in labels:
                assert average_precision(preds, truths, label, thr) == float(aps[label])
        assert map50_and_range(preds, truths) == (float(exact[0]), _exact_mean(exact))


# -- record files ------------------------------------------------------


def test_truth_and_prediction_files_round_trip(tmp_path):
    truths_file = tmp_path / "t.csv"
    truths_file.write_text(
        "image_id,label,x_min,y_min,x_max,y_max\nimg1,cat,0.1,0.2,0.3,0.4\n"
    )
    truths = load_truths(truths_file)
    assert truths == [TruthBox("img1", "cat", BoundingBox(0.1, 0.2, 0.3, 0.4))]

    preds_file = tmp_path / "p.csv"
    preds_file.write_text("img1,cat,0.75,0.1,0.2,0.3,0.4\n")
    preds = load_predictions(preds_file)
    assert preds == [PredictionBox("img1", "cat", 0.75, BoundingBox(0.1, 0.2, 0.3, 0.4))]

    bad = tmp_path / "bad.csv"
    bad.write_text("img1,cat,0.1,0.2,0.3\n")
    with pytest.raises(ValueError):
        load_truths(bad)
    with pytest.raises(ValueError):
        load_predictions(bad)


@pytest.mark.parametrize(
    "image_id, label, field",
    [("img1", "", "label"), ("", "cat", "image_id"), ("img1", " cat ", "label"),
     ("img1", "cat ", "label"), (" img1", "cat", "image_id"), ("img1", "  ", "label")],
)
def test_records_reject_empty_or_padded_names(tmp_path, image_id, label, field):
    truths_file = tmp_path / "t.csv"
    truths_file.write_text(f"img0,cat,0.1,0.2,0.3,0.4\n{image_id},{label},0.1,0.2,0.3,0.4\n")
    got = label if field == "label" else image_id
    message = f"{field} must be non-empty without leading or trailing whitespace, got {got!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{truths_file}:2: {message}')}$"):
        load_truths(truths_file)
    preds_file = tmp_path / "p.csv"
    preds_file.write_text(f"{image_id},{label},0.75,0.1,0.2,0.3,0.4\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{preds_file}:1: {message}')}$"):
        load_predictions(preds_file)


@pytest.mark.parametrize(
    "image_id, label, field",
    [("img1", " cat ", "label"), ("img1", "", "label"), ("img1 ", "cat", "image_id")],
)
def test_code_built_records_reject_empty_or_padded_names(image_id, label, field):
    # a padded label would never match its unpadded twin, and an empty one
    # would match another empty one, so both types refuse them when built
    b = BoundingBox(0.1, 0.2, 0.3, 0.4)
    got = label if field == "label" else image_id
    message = f"^{field} must be non-empty without leading or trailing whitespace, got {got!r}$"
    with pytest.raises(ValueError, match=message):
        map_at([PredictionBox("img1", "cat", 0.9, b)], [TruthBox(image_id, label, b)], 0.5)
    with pytest.raises(ValueError, match=message):
        map_at([PredictionBox(image_id, label, 0.9, b)], [TruthBox("img1", "cat", b)], 0.5)


def test_records_keep_inner_spaces_in_labels(tmp_path):
    truths_file = tmp_path / "t.csv"
    truths_file.write_text("img 1,traffic light,0.1,0.2,0.3,0.4\n")
    assert load_truths(truths_file)[0].label == "traffic light"
    preds_file = tmp_path / "p.csv"
    preds_file.write_text("img 1,traffic light,0.75,0.1,0.2,0.3,0.4\n")
    assert load_predictions(preds_file)[0].image_id == "img 1"


# -- model tables ------------------------------------------------------


def test_load_single_map_table():
    models = load_model_table(data_path("fig8_models.csv"))
    assert len(models) == 12
    by_name = {m.name: m for m in models}
    best = by_name["mobilenet-ssd"]
    assert (best.gflops, best.mparams, best.map50) == (2.316, 5.783, 79.8377)
    assert by_name["YOLO v3"].map50 == 62.27
    assert all(m.map5095 is None for m in models)


def test_load_dual_map_table():
    models = load_model_table(data_path("fig10_models.csv"))
    assert len(models) == 10
    nano320 = next(m for m in models if m.display_name == "nanodet-m@320")
    assert nano320.map50 is None
    assert nano320.map5095 == 20.6
    lite640 = next(m for m in models if m.display_name == "yolov5-lite@640")
    assert (lite640.gflops, lite640.map50, lite640.map5095) == (2.42, 45.7, 27.1)


def test_load_model_table_reads_the_path_it_is_given(tmp_path, monkeypatch):
    # the bundled-name rule belongs to the CLI, as for the other loaders
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError):
        load_model_table("fig8_models.csv")


def test_load_model_table_rejects_unknown_header(tmp_path):
    odd = tmp_path / "odd.csv"
    odd.write_text("model,flops\nx,1\n")
    with pytest.raises(ValueError):
        load_model_table(odd)


# -- frontier / recommendation -----------------------------------------


def test_frontier_single_map_table():
    models = load_model_table(data_path("fig8_models.csv"))
    front = pareto_frontier(models)
    assert [m.name for m in front] == ["mobilenet-ssd"]
    assert brute_force_frontier(models, "map50") == {"mobilenet-ssd"}


def test_frontier_dual_map_table():
    models = load_model_table(data_path("fig10_models.csv"))
    front = pareto_frontier(models, "map50")
    names = {m.display_name for m in front}
    assert names == {
        "yolo-fastest@320",
        "yolo-fastest-xl@320",
        "yolov5-lite@320",
        "yolov5-lite@640",
        "yolov5s@640",
    }
    assert names == brute_force_frontier(models, "map50")
    eligible, excluded = split_by_map_field(models, "map50")
    assert {m.display_name for m in excluded} == {"nanodet-m@320", "nanodet-m@416"}
    assert len(eligible) == 8


def test_frontier_single_model():
    only = ModelSpec("solo", "fw", 1.0, 1.0, map50=10.0)
    assert pareto_frontier([only]) == [only]


def test_frontier_requires_eligible_rows():
    blank = ModelSpec("x", "fw", 1.0, 1.0)
    with pytest.raises(ValueError, match="^no row has a map50 value$"):
        pareto_frontier([blank])


def _random_models(rng, n):
    return [
        ModelSpec(
            name=f"m{i}",
            framework="fw",
            gflops=round(rng.uniform(0.1, 50.0), 2),
            mparams=1.0,
            map50=round(rng.uniform(1.0, 99.0), 2),
        )
        for i in range(n)
    ]


def test_frontier_matches_oracle_on_random_tables(rng):
    for _ in range(100):
        models = _random_models(rng, rng.randint(1, 12))
        front = pareto_frontier(models)
        assert {m.display_name for m in front} == brute_force_frontier(models, "map50")
        # no member dominates another member
        for a in front:
            for b in front:
                if a is not b:
                    assert not (
                        a.gflops <= b.gflops
                        and a.map50 >= b.map50
                        and (a.gflops < b.gflops or a.map50 > b.map50)
                    )


def test_frontier_matches_oracle_with_ties_and_duplicates(rng):
    # values from small grids, so equal gflops, equal mAP and exact
    # duplicates are common
    for _ in range(200):
        models = [
            ModelSpec(f"m{i}", "fw", rng.choice((1.0, 2.0, 3.0)), 1.0, map50=rng.choice((10.0, 20.0, 30.0)))
            for i in range(rng.randint(1, 8))
        ]
        front = pareto_frontier(models)
        assert {m.display_name for m in front} == brute_force_frontier(models, "map50")


def test_frontier_contains_extreme_holders(rng):
    for _ in range(50):
        models = _random_models(rng, 8)
        front = pareto_frontier(models)
        names = {m.name for m in front}
        min_g = min(m.gflops for m in models)
        max_m = max(m.map50 for m in models)
        cheapest = [m for m in models if m.gflops == min_g]
        best = [m for m in models if m.map50 == max_m]
        if len(cheapest) == 1:
            assert cheapest[0].name in names
        if len(best) == 1:
            assert best[0].name in names


def test_recommend_reference_budgets():
    models = load_model_table(data_path("fig8_models.csv"))
    assert recommend(models, 3.0).name == "mobilenet-ssd"
    assert recommend(models, 1000.0).name == "mobilenet-ssd"
    with pytest.raises(ValueError, match="mobilenet-ssd"):
        recommend(models, 0.1)


def test_recommend_optimality_scan(rng):
    for _ in range(100):
        models = _random_models(rng, 10)
        budget = rng.uniform(0.1, 60.0)
        try:
            choice = recommend(models, budget)
        except ValueError:
            assert all(m.gflops > budget for m in models)
            continue
        assert choice.gflops <= budget
        for m in models:
            if m.gflops <= budget:
                assert m.map50 <= choice.map50


def test_recommend_needs_a_model_with_the_field():
    models = [ModelSpec("x", "fw", 1.0, 1.0, map50=10.0)]
    with pytest.raises(ValueError, match="^no row has a map5095 value$"):
        recommend(models, 10.0, "map5095")


def test_recommend_tie_breaks():
    a = ModelSpec("bravo", "fw", 2.0, 1.0, map50=50.0)
    b = ModelSpec("alpha", "fw", 2.0, 1.0, map50=50.0)
    c = ModelSpec("cheap", "fw", 1.0, 1.0, map50=50.0)
    assert recommend([a, b, c], 10.0).name == "cheap"  # lower gflops first
    assert recommend([a, b], 10.0).name == "alpha"  # then lexicographic


def test_model_spec_invariants():
    with pytest.raises(ValueError):
        ModelSpec("x", "fw", 0.0, 1.0, map50=10.0)
    with pytest.raises(ValueError):
        ModelSpec("x", "fw", 1.0, 1.0, map50=101.0)
    with pytest.raises(ValueError):
        ModelSpec("x", "fw", float("nan"), 1.0, map50=10.0)


def test_map_fields_are_the_dual_header_names():
    # one name per mAP column: the table header, the ModelSpec field and
    # the map_field argument
    header = data_path("fig10_models.csv").read_text().splitlines()[0].split(",")
    assert tuple(header[-2:]) == MAP_FIELDS
    assert set(MAP_FIELDS) <= {f.name for f in fields(ModelSpec)}


def test_split_by_map_field_rejects_unknown_field():
    spec = ModelSpec("x", "fw", 1.0, 1.0, map50=10.0, map5095=5.0)
    assert [split_by_map_field([spec], f) for f in MAP_FIELDS] == [([spec], [])] * 2
    for call in (split_by_map_field, pareto_frontier, lambda m, f: recommend(m, 10.0, f)):
        with pytest.raises(ValueError, match="^unknown mAP field 'map_75'$"):
            call([spec], "map_75")
