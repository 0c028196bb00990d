"""Detection-quality metrics and accuracy-versus-compute model selection.

Metrics side: IoU, per-class average precision with greedy confidence-order
matching and all-point interpolation, mAP at one threshold and averaged over
the 0.50-0.95 threshold ladder. One engine serves all three: it buckets the
inputs once, ranks each label's predictions once and computes each
same-label, same-image IoU once into a candidate table, then matches every
requested threshold from that table (the COCO evaluation design). A call
costs O(N log N + pairs) whatever the number of labels and thresholds.
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
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .checks import read_csv, require_finite_fields
from .perception import BoundingBox

MAP_RANGE_THRESHOLDS = tuple(i / 100 for i in range(50, 100, 5))
MODEL_TABLE_FILE = "fig8_models.csv"
# The mAP columns of a model table, named as the dual-mAP header names them:
# the ModelSpec fields and every map_field argument use these names.
MAP_FIELDS = ("map50", "map5095")

TRUTH_FIELDS = ("image_id", "label", "x_min", "y_min", "x_max", "y_max")
PRED_FIELDS = ("image_id", "label", "confidence", "x_min", "y_min", "x_max", "y_max")

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
        _check_names(self.image_id, self.label)


@dataclass(frozen=True)
class PredictionBox:
    image_id: str
    label: str
    confidence: float
    box: BoundingBox

    def __post_init__(self) -> None:
        _check_names(self.image_id, self.label)
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of [0,1]: {self.confidence}")


def _ranked_candidates(
    preds: Sequence[PredictionBox],
    truths: Sequence[TruthBox],
    labels: Sequence[str],
    min_threshold: float,
) -> list[tuple[_Candidates, int]]:
    """One candidate table per label: ([(rank, candidates)], truth count).

    Truths are bucketed by (label, image) and predictions by label in one
    pass each. Each label's predictions are ranked canonically: descending
    confidence, then image id, then input position, so equal inputs give
    equal outputs regardless of how the caller assembled them. A ranked
    prediction's candidates are the same-label, same-image truths it
    overlaps by at least ``min_threshold``, as (iou, truth input position)
    pairs, best first, so on IoU ties the lowest position comes first.
    Predictions (1-based rank) without candidates are left out: they are
    false positives at every threshold. Every pair's IoU is computed once.
    """
    wanted = set(labels)
    truth_cells: dict[tuple[str, str], list[tuple[int, BoundingBox]]] = {}
    n_truth = dict.fromkeys(labels, 0)
    for t_idx, t in enumerate(truths):
        if t.label in wanted:
            truth_cells.setdefault((t.label, t.image_id), []).append((t_idx, t.box))
            n_truth[t.label] += 1
    for label, count in n_truth.items():
        if count == 0:
            raise ValueError(f"no ground-truth instances of label {label!r}; AP undefined")

    # (-confidence, image id, input position, box): the tuple is its own
    # rank key, and the unique position means boxes are never compared
    by_label: dict[str, list[tuple[float, str, int, BoundingBox]]] = {label: [] for label in labels}
    for i, p in enumerate(preds):
        if p.label in wanted:
            by_label[p.label].append((-p.confidence, p.image_id, i, p.box))

    tables: list[tuple[_Candidates, int]] = []
    for label in labels:
        ranked = by_label[label]
        ranked.sort()
        candidates: _Candidates = []
        for rank, (_, image_id, _, box) in enumerate(ranked, start=1):
            cell = truth_cells.get((label, image_id), ())
            pairs = [(v, t_idx) for t_idx, t_box in cell if (v := iou(box, t_box)) >= min_threshold]
            if pairs:
                # stable, so equal IoUs keep ascending truth position
                pairs.sort(key=itemgetter(0), reverse=True)
                candidates.append((rank, pairs))
        tables.append((candidates, n_truth[label]))
    return tables


def _tp_ranks(candidates: _Candidates, iou_threshold: float) -> list[int]:
    """Ranks of the true positives under greedy matching.

    Each prediction, in rank order, takes the best unmatched candidate at or
    above the threshold; further hits on a matched truth are false positives.
    """
    matched: set[int] = set()
    ranks: list[int] = []
    for rank, pairs in candidates:
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


def _exact_sum(terms: Sequence[tuple[int, int]], lo: int = 0, hi: int | None = None) -> tuple[int, int]:
    """Exact sum of terms[lo:hi] as an unreduced (numerator, denominator).

    A short run is added left to right; a longer one is split in half and
    the halves are added, so the operands of each multiplication stay about
    the same size and the whole sum costs little more than its last product.
    """
    if hi is None:
        hi = len(terms)
    if hi - lo <= 8:
        num, den = 0, 1
        for n, d in terms[lo:hi]:
            num, den = num * d + n * den, den * d
        return num, den
    mid = (lo + hi) // 2
    n1, d1 = _exact_sum(terms, lo, mid)
    n2, d2 = _exact_sum(terms, mid, hi)
    return n1 * d2 + n2 * d1, d1 * d2


def _ap_sums(
    preds: Sequence[PredictionBox],
    truths: Sequence[TruthBox],
    labels: Sequence[str],
    thresholds: Sequence[float],
) -> list[tuple[int, int]]:
    """Exact AP summed over labels, one (numerator, denominator) per
    threshold, from one table."""
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


def _check_names(image_id: str, label: str) -> None:
    """Reject an empty or whitespace-padded image id or label: a padded
    label would never match its unpadded twin. Inner spaces are allowed."""
    if image_id and label and image_id.strip() == image_id and label.strip() == label:
        return
    for field, text in (("image_id", image_id), ("label", label)):
        if not text or text.strip() != text:
            raise ValueError(
                f"{field} must be non-empty without leading or trailing whitespace, got {text!r}"
            )


def _truth(r: list[str]) -> TruthBox:
    return TruthBox(r[0], r[1], BoundingBox(*map(float, r[2:])))


def _prediction(r: list[str]) -> PredictionBox:
    return PredictionBox(r[0], r[1], float(r[2]), BoundingBox(*map(float, r[3:])))


def load_truths(path: str | Path) -> list[TruthBox]:
    """Read truth records (6 comma-separated fields, header optional)."""
    return read_csv(path, {TRUTH_FIELDS: _truth}, "optional")


def load_predictions(path: str | Path) -> list[PredictionBox]:
    """Read prediction records (7 fields, confidence third, header optional);
    a file without any is an empty list."""
    return read_csv(path, {PRED_FIELDS: _prediction}, "optional", allow_empty=True)


@dataclass(frozen=True)
class ModelSpec:
    """One row of a model comparison table."""

    name: str
    framework: str
    gflops: float
    mparams: float
    map50: float | None = None
    map5095: float | None = None
    input_size: int | None = None
    size_mb: float | None = None

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if not self.gflops > 0:
            raise ValueError(f"{self.name}: gflops must be positive")
        if not self.mparams > 0:
            raise ValueError(f"{self.name}: mparams must be positive")
        if self.size_mb is not None and not self.size_mb > 0:
            raise ValueError(f"{self.name}: size_mb must be positive")
        if self.input_size is not None and self.input_size <= 0:
            raise ValueError(f"{self.name}: input_size must be positive")
        for value in (self.map50, self.map5095):
            if value is not None and not 0.0 <= value <= 100.0:
                raise ValueError(f"{self.name}: mAP out of [0,100]: {value}")

    @property
    def display_name(self) -> str:
        """Name qualified by input size when the table carries one."""
        if self.input_size is None:
            return self.name
        return f"{self.name}@{self.input_size}"


def _opt_float(text: str) -> float | None:
    return None if text.strip() in ("", "-") else float(text)


def _single_map_row(r: list[str]) -> ModelSpec:
    return ModelSpec(
        name=r[0], framework=r[1], gflops=float(r[2]), mparams=float(r[3]), map50=float(r[4])
    )


def _dual_map_row(r: list[str]) -> ModelSpec:
    return ModelSpec(
        name=r[1],
        framework="",
        gflops=float(r[3]),
        mparams=float(r[4]),
        map50=_opt_float(r[6]),
        map5095=_opt_float(r[7]),
        input_size=int(r[2]),
        size_mb=float(r[5]),
    )


_MODEL_TABLE_LAYOUTS = {
    ("name", "framework", "gflops", "mparams", "map"): _single_map_row,
    ("id", "name", "input_size", "gflops", "mparams", "size_mb", *MAP_FIELDS): _dual_map_row,
}


def load_model_table(path: str | Path) -> list[ModelSpec]:
    """Load a model comparison CSV in the layout its header names (see
    `_MODEL_TABLE_LAYOUTS`; `-` marks an absent value). Errors carry `path:line`."""
    return read_csv(path, _MODEL_TABLE_LAYOUTS, header="exact")


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
    gflops, then lexicographic name. When nothing fits, the error names the
    cheapest eligible model so the caller can see how far off the budget is.
    """
    eligible, _ = split_by_map_field(models, map_field)
    in_budget = [m for m in eligible if m.gflops <= gflops_budget]
    if not in_budget:
        cheapest = min(eligible, key=lambda m: (m.gflops, m.name))
        raise ValueError(
            f"no model fits {gflops_budget} gflops; cheapest is "
            f"{cheapest.display_name} at {cheapest.gflops} gflops"
        )
    return min(in_budget, key=lambda m: (-getattr(m, map_field), m.gflops, m.name))
