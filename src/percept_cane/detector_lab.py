"""Detection-quality metrics and accuracy-versus-compute model selection.

Metrics side: IoU, per-class average precision with greedy confidence-order
matching and all-point interpolation, mAP at one threshold and averaged over
the 0.50-0.95 threshold ladder. One engine serves all three: it buckets the
truths per label by image and the predictions per label once, ranks each
label's predictions once and computes each same-label, same-image IoU once
into a candidate table, then matches every requested threshold from that
table (the COCO evaluation design), trying each prediction's best pair
first. A call costs O(N log N + pairs) whatever the number of labels and
thresholds.
AP is exact: each precision plateau adds one term, a pair of plain
integers (numerator, denominator), and the terms of all labels at one
threshold are added by a balanced pairwise (binary-splitting) sum with no
gcd per step, which keeps the cost near-linear in the number of plateaus.
The one float is made at the API boundary by a single int/int division,
which CPython rounds correctly, so results do not depend on summation
order and are reproducible to the last bit.

Selection side: model tables (compute cost vs accuracy), weak Pareto
dominance on (minimize gflops, maximize mAP) found by one sort-and-sweep
pass, and budgeted recommendation.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass
from itertools import groupby, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .checks import check_fields, check_name, check_range, collector_paused, number, number_cells, ranged, read_csv
from .perception import BoundingBox

MAP_RANGE_THRESHOLDS = tuple(i / 100 for i in range(50, 100, 5))
MODEL_TABLE_FILE = "fig8_models.csv"
# The mAP columns of a model table, named as the dual-mAP header names them:
# the ModelSpec fields and every map_field argument use these names.
MAP_FIELDS = ("map50", "map5095")

TRUTH_FIELDS = ("image_id", "label", "x_min", "y_min", "x_max", "y_max")
PRED_FIELDS = ("image_id", "label", "confidence", "x_min", "y_min", "x_max", "y_max")
# Upper bound on the same-label, same-image (truth, prediction) pairs of one
# call, checked before any IoU is computed: the candidate table's time and
# memory grow with their count. It is ~10x the 96,000 of the 32k-prediction
# AP fixture (scripts/ap_scale.py), and seed-0 detect-eval makes 7,168.
MAX_IOU_PAIRS = 1_000_000

# One label's candidate table: (rank, [(iou, truth input position), ...]) for
# each ranked prediction that overlaps a truth enough to match, best first.
_Candidates = list[tuple[int, list[tuple[float, int]]]]


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when the union has no area."""
    # Conditional expressions, not min()/max(): this runs once per candidate
    # pair, and the builtin calls cost more than the arithmetic.
    ix = (a.x_max if a.x_max < b.x_max else b.x_max) - (a.x_min if a.x_min > b.x_min else b.x_min)
    if ix <= 0:
        return 0.0
    iy = (a.y_max if a.y_max < b.y_max else b.y_max) - (a.y_min if a.y_min > b.y_min else b.y_min)
    if iy <= 0:
        return 0.0
    inter = ix * iy
    # the two areas (width times height), less the overlap they both count
    union = (a.x_max - a.x_min) * (a.y_max - a.y_min) + (b.x_max - b.x_min) * (b.y_max - b.y_min) - inter
    if union <= 0:
        return 0.0
    return inter / union


@dataclass(frozen=True)
class TruthBox:
    image_id: str
    label: str
    box: BoundingBox

    def __post_init__(self) -> None:
        check_name(self.image_id, "image_id")
        check_name(self.label, "label")


@dataclass(frozen=True)
class PredictionBox:
    image_id: str
    label: str
    confidence: float = ranged(MISSING, 0, 1)
    box: BoundingBox

    def __post_init__(self) -> None:
        check_name(self.image_id, "image_id")
        check_name(self.label, "label")
        # one field, not check_fields: a detection table builds one record per row
        check_range(PredictionBox, "confidence", self.confidence)


def _ranked_candidates(
    preds: Sequence[PredictionBox],
    truths: Sequence[TruthBox],
    labels: Sequence[str],
    min_threshold: float,
) -> list[tuple[_Candidates, int]]:
    """One candidate table per label: ([(rank, candidates)], truth count).

    Truths are bucketed per label by image (``cells[label][image_id]``) and
    predictions per label, in one pass each. Each label's predictions are
    ranked canonically: descending confidence, then image id, then input
    position, so equal inputs give equal outputs regardless of how the
    caller assembled them. A ranked prediction's candidates are the truths
    of its label's bucket for its image that it overlaps by at least
    ``min_threshold``, as (iou, truth input position) pairs, best first, so
    on IoU ties the lowest position comes first. Predictions (1-based rank)
    without candidates are left out: they are false positives at every
    threshold. Every pair's IoU is computed once, and more than
    ``MAX_IOU_PAIRS`` pairs are refused before the first.
    """
    cells: dict[str, dict[str, list[tuple[int, BoundingBox]]]] = {label: {} for label in labels}
    for t_idx, t in enumerate(truths):
        by_image = cells.get(t.label)
        if by_image is not None:
            by_image.setdefault(t.image_id, []).append((t_idx, t.box))

    # (-confidence, image id, input position, box): the tuple is its own
    # rank key, and the unique position means boxes are never compared
    by_label: dict[str, list[tuple[float, str, int, BoundingBox]]] = {label: [] for label in labels}
    n_pairs = 0
    for i, p in enumerate(preds):
        ranked = by_label.get(p.label)
        if ranked is not None:
            ranked.append((-p.confidence, p.image_id, i, p.box))
            n_pairs += len(cells[p.label].get(p.image_id, ()))
    if n_pairs > MAX_IOU_PAIRS:
        raise ValueError(
            f"{len(truths)} truths and {len(preds)} predictions make {n_pairs} same-label, same-image"
            f" pairs, more than MAX_IOU_PAIRS ({MAX_IOU_PAIRS})"
        )

    tables: list[tuple[_Candidates, int]] = []
    for label, by_image in cells.items():
        if not by_image:
            raise ValueError(f"no ground-truth instances of label {label!r}; AP undefined")
        ranked = by_label[label]
        ranked.sort()
        candidates: _Candidates = []
        for rank, (_, image_id, _, box) in enumerate(ranked, start=1):
            pairs = []
            for t_idx, t_box in by_image.get(image_id, ()):
                v = iou(box, t_box)
                if v >= min_threshold:
                    pairs.append((v, t_idx))
            if pairs:
                # stable, so equal IoUs keep ascending truth position
                pairs.sort(key=itemgetter(0), reverse=True)
                candidates.append((rank, pairs))
        tables.append((candidates, sum(map(len, by_image.values()))))
    return tables


def _tp_ranks(candidates: _Candidates, iou_threshold: float) -> list[int]:
    """Ranks of the true positives under greedy matching.

    Each prediction, in rank order, takes the best unmatched candidate at or
    above the threshold; further hits on a matched truth are false
    positives. Its best pair is tested first: below the threshold the
    prediction is a false positive, and an unmatched truth is taken. Only
    when that truth is already matched are its pairs walked, best first,
    for an unmatched truth at or above the threshold. The walk alone gives
    the same ranks, but the first test saves ~7 % of the seed-0 detect-eval
    op: 2.7 against 3.6 ms for its 11 thresholds (min of 20 alternated runs).
    """
    matched: set[int] = set()
    ranks: list[int] = []
    for rank, pairs in candidates:
        v, t_idx = pairs[0]
        if v < iou_threshold:
            continue
        if t_idx not in matched:
            matched.add(t_idx)
            ranks.append(rank)
            continue
        for v, t_idx in pairs:
            if v < iou_threshold:
                break
            if t_idx not in matched:
                matched.add(t_idx)
                ranks.append(rank)
                break
    return ranks


def _interpolated_ap(tp_ranks: list[int], n_truth: int) -> list[tuple[int, int]]:
    """Exact all-point-interpolated AP as (numerator, denominator) terms.

    The interpolated precision at a true positive is the best precision at
    that rank or later, which is always reached at a true positive (a false
    positive only lowers precision). Walking the true positives backwards,
    each run that shares one best precision tp/k adds the term
    count * tp / (k * n_truth); the terms sum to the label's AP.
    """
    terms: list[tuple[int, int]] = []
    best_tp, best_rank, count = 0, 1, 0
    for tp in range(len(tp_ranks), 0, -1):
        rank = tp_ranks[tp - 1]
        if tp * best_rank > best_tp * rank:
            if count:
                terms.append((count * best_tp, best_rank * n_truth))
            best_tp, best_rank, count = tp, rank, 1
        else:
            count += 1
    if count:
        terms.append((count * best_tp, best_rank * n_truth))
    return terms


def _exact_sum(terms: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Exact sum of the terms as an unreduced (numerator, denominator).

    A short run is added left to right; a longer one is split in half and
    the halves are added, so the operands of each multiplication stay about
    the same size and the whole sum costs little more than its last product.
    """
    if len(terms) <= 8:
        num, den = 0, 1
        for n, d in terms:
            num, den = num * d + n * den, den * d
        return num, den
    mid = len(terms) // 2
    (n1, d1), (n2, d2) = _exact_sum(terms[:mid]), _exact_sum(terms[mid:])
    return n1 * d2 + n2 * d1, d1 * d2


@collector_paused
def _ap_sums(
    preds: Sequence[PredictionBox],
    truths: Sequence[TruthBox],
    labels: Sequence[str],
    thresholds: Sequence[float],
) -> list[tuple[int, int]]:
    """Exact AP summed over labels, one (numerator, denominator) per
    threshold, from one table.

    The collector is paused: the tables are lists, tuples and numbers that
    form no cycle, and reference counting frees them when this returns.
    """
    for threshold in thresholds:
        if not 0.0 < threshold < 1.0:
            raise ValueError("iou_threshold must be in (0,1)")
    tables = _ranked_candidates(preds, truths, labels, min(thresholds))
    return [
        _exact_sum(
            [t for cands, n_truth in tables for t in _interpolated_ap(_tp_ranks(cands, threshold), n_truth)]
        )
        for threshold in thresholds
    ]


def average_precision(
    preds: Sequence[PredictionBox],
    truths: Sequence[TruthBox],
    label: str,
    iou_threshold: float,
) -> float:
    """AP in [0,1] for one label at one IoU threshold."""
    num, den = _ap_sums(preds, truths, [label], [iou_threshold])[0]
    return num / den


def _truth_labels(truths: Sequence[TruthBox]) -> list[str]:
    labels = sorted({t.label for t in truths})
    if not labels:
        raise ValueError("empty truth set; mAP undefined")
    return labels


def map_at(
    preds: Sequence[PredictionBox],
    truths: Sequence[TruthBox],
    iou_threshold: float,
) -> float:
    """Mean AP over the labels present in the truth set, as a percentage."""
    labels = _truth_labels(truths)
    num, den = _ap_sums(preds, truths, labels, [iou_threshold])[0]
    return num * 100 / (den * len(labels))


def map50_and_range(
    preds: Sequence[PredictionBox], truths: Sequence[TruthBox]
) -> tuple[float, float]:
    """map_at at 0.50 and map_range, matched from one candidate table.

    The mean is the exact sum of the ten thresholds' sums, each reduced by
    its gcd, divided once, so no float sum rounds it on any Python.
    """
    labels = _truth_labels(truths)
    sums = _ap_sums(preds, truths, labels, MAP_RANGE_THRESHOLDS)
    num, den = _exact_sum([(n // (g := math.gcd(n, d)), d // g) for n, d in sums])
    num50, den50 = sums[0]
    return num50 * 100 / (den50 * len(labels)), num * 100 / (den * len(labels) * len(sums))


def map_range(preds: Sequence[PredictionBox], truths: Sequence[TruthBox]) -> float:
    """Exact mean of map_at over the ten thresholds 0.50, 0.55, ..., 0.95."""
    return map50_and_range(preds, truths)[1]


def _truths(image_ids: list[str], labels: list[str], *cells: list[str]) -> list[TruthBox]:
    boxes = map(BoundingBox, *number_cells(cells, TRUTH_FIELDS[2:]))
    return list(map(TruthBox, image_ids, labels, boxes))


def _predictions(image_ids: list[str], labels: list[str], *cells: list[str]) -> list[PredictionBox]:
    confidences, *coords = number_cells(cells, PRED_FIELDS[2:])
    return list(map(PredictionBox, image_ids, labels, confidences, map(BoundingBox, *coords)))


def load_truths(path: str | Path) -> list[TruthBox]:
    """Read truth records (6 comma-separated fields; a header, if any, names
    them in any order)."""
    return read_csv(path, {TRUTH_FIELDS: _truths}, optional_header=True)


def load_predictions(path: str | Path) -> list[PredictionBox]:
    """Read prediction records (7 fields, confidence third; a header, if any,
    names them in any order); a file without any is an empty list."""
    return read_csv(path, {PRED_FIELDS: _predictions}, optional_header=True, allow_empty=True)


@dataclass(frozen=True)
class ModelSpec:
    """One row of a model comparison table."""

    name: str
    framework: str
    gflops: float = ranged(MISSING, 0, above=True)
    mparams: float = ranged(MISSING, 0, above=True)
    map50: float | None = ranged(None, 0, 100)
    map5095: float | None = ranged(None, 0, 100)
    input_size: int | None = ranged(None, 0, above=True)
    size_mb: float | None = ranged(None, 0, above=True)

    def __post_init__(self) -> None:
        check_name(self.name, "name")
        check_fields(self)

    @property
    def display_name(self) -> str:
        """Name qualified by input size when the table carries one."""
        if self.input_size is None:
            return self.name
        return f"{self.name}@{self.input_size}"


_SINGLE_MAP_COLUMNS = ("name", "framework", "gflops", "mparams", "map")
_DUAL_MAP_COLUMNS = ("id", "name", "input_size", "gflops", "mparams", "size_mb", *MAP_FIELDS)


def _opt_float(text: str) -> float | None:
    return None if text.strip() in ("", "-") else float(text)


def _single_map_table(names: list[str], frameworks: list[str], *cells: list[str]) -> list[ModelSpec]:
    gflops, mparams, map50 = number_cells(cells, _SINGLE_MAP_COLUMNS[2:])
    return list(map(ModelSpec, names, frameworks, gflops, mparams, map50))


def _dual_map_table(ids: list[str], names: list[str], sizes: list[str], *cells: list[str]) -> list[ModelSpec]:
    (input_size,) = number_cells([sizes], _DUAL_MAP_COLUMNS[2:3], int)
    gflops, mparams, size_mb = number_cells(cells[:3], _DUAL_MAP_COLUMNS[3:6])
    map50, map5095 = number_cells(cells[3:], MAP_FIELDS, _opt_float)
    # ModelSpec's field order; this layout has no framework
    return list(map(ModelSpec, names, repeat(""), gflops, mparams, map50, map5095, input_size, size_mb))


_MODEL_TABLE_LAYOUTS = {_SINGLE_MAP_COLUMNS: _single_map_table, _DUAL_MAP_COLUMNS: _dual_map_table}


def load_model_table(path: str | Path) -> list[ModelSpec]:
    """Load a model comparison CSV in the layout its header names (see
    `_MODEL_TABLE_LAYOUTS`; `-` marks an absent value). Errors carry `path:line`."""
    return read_csv(path, _MODEL_TABLE_LAYOUTS)


def split_by_map_field(
    models: Iterable[ModelSpec], map_field: str = "map50"
) -> tuple[list[ModelSpec], list[ModelSpec]]:
    """Partition models into (eligible, excluded) on presence of the field.

    The one eligibility rule of model selection: a field outside MAP_FIELDS
    or a table with no eligible row raises ValueError.
    """
    if map_field not in MAP_FIELDS:
        raise ValueError(f"unknown mAP field {map_field!r}")
    eligible: list[ModelSpec] = []
    excluded: list[ModelSpec] = []
    for m in models:
        (eligible if getattr(m, map_field) is not None else excluded).append(m)
    if not eligible:
        raise ValueError(f"no row has a {map_field} value")
    return eligible, excluded


def pareto_frontier(
    models: Sequence[ModelSpec], map_field: str = "map50"
) -> list[ModelSpec]:
    """Models not weakly dominated under (min gflops, max mAP).

    Rows missing the selected mAP field are excluded by
    :func:`split_by_map_field`, which also raises its errors. Result is
    sorted by ascending gflops, then name.

    One sort-and-sweep pass (Kung, Luccio & Preparata 1975): in ascending
    gflops, a model survives when its mAP beats every cheaper model's and is
    the best of its own gflops group, so exact duplicates survive together.
    """
    eligible, _ = split_by_map_field(models, map_field)
    front: list[ModelSpec] = []
    best_cheaper = -math.inf
    ordered = sorted(eligible, key=lambda m: m.gflops)
    for _, group in groupby(ordered, key=lambda m: m.gflops):
        group_maps = [(m, getattr(m, map_field)) for m in group]
        top = max(v for _, v in group_maps)
        if top > best_cheaper:
            front.extend(m for m, v in group_maps if v == top)
            best_cheaper = top
    front.sort(key=lambda m: (m.gflops, m.name, m.input_size or 0))
    return front


def recommend(
    models: Sequence[ModelSpec], gflops_budget: float, map_field: str = "map50"
) -> ModelSpec:
    """Highest-mAP model within the compute budget.

    Eligibility is :func:`split_by_map_field`'s. Ties break toward lower
    gflops, then lexicographic name. The budget must be a finite number
    (:func:`checks.number`). When nothing fits, the error names the
    cheapest eligible model so the caller can see how far off the budget is.
    """
    number(gflops_budget, "budget")
    eligible, _ = split_by_map_field(models, map_field)
    in_budget = [m for m in eligible if m.gflops <= gflops_budget]
    if not in_budget:
        cheapest = min(eligible, key=lambda m: (m.gflops, m.name))
        raise ValueError(
            f"no model fits {gflops_budget} gflops; cheapest is "
            f"{cheapest.display_name} at {cheapest.gflops} gflops"
        )
    return min(in_budget, key=lambda m: (-getattr(m, map_field), m.gflops, m.name))
