"""percept-cane benchmark: seeded workloads, checked outputs, layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload replay-sparse --seed 0 --seconds 10 --trace 0

The workload's inputs are generated from the seed into ``.bench_out/``,
loaded through the package's loaders (``setup_s``, median of several
loads), run once untimed as a warm-up, then run in whole passes until
``--seconds`` have elapsed (``wall_s`` and ``items_per_s``, medians over
the passes). Every operation of every pass is checked; one that raises or
fails a check counts as failed and the run goes on.

Two clocks never mix. Host times are measured here with
``time.perf_counter``; the end-to-end times are host times corrected for
the host's current speed (see ``CAL_REF_S``). Names starting with
``device_`` are virtual-clock seconds read from ``RunReport``; they depend
only on the inputs, so they repeat exactly across passes, traced or not.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, including
the tracing overhead (traced minus untraced median pass time); its spans
are written to ``.bench_out/trace-<workload>-seed<seed>.jsonl``. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
EXPECTED_FILE = BENCH_DIR / "expected.json"
# Set-up is timed SETUP_REPS times; each repetition loads the inputs as
# often as fills SETUP_BATCH_S, so a millisecond load still times steadily.
SETUP_REPS = 7
SETUP_BATCH_S = 0.05
MIN_PASSES = 3
# On a shared host (measured on 2 vCPUs, x86_64) the speed of the whole
# machine drifts by up to 2x for minutes, moving entire runs at once. So a
# fixed reference mix, calibrate(), runs before and after every timed pass
# and set-up repetition, and end-to-end times are reported in reference
# seconds: host seconds times CAL_REF_S over the mean host time of the two
# bracketing calibrations. On a host where the mix takes CAL_REF_S,
# reference and host seconds coincide. Package changes cannot move the mix,
# so they move reference seconds as they move host seconds. Raw host times
# are printed next to them. Set-up is timed in one burst before the passes:
# loads interleaved with passes measured less steadily, because each one
# then inherits the garbage and cold caches a pass leaves behind.
CAL_REF_S = 0.04
perf = time.perf_counter

# Per-layer metrics: (name, unit, source). A source reads a traced pass's
# totals, ("busy"|"self"|"count", layer) or ("ratio", count, count), or
# names a value taken outside the traced passes.
PER_LAYER = (
    ("pipeline.run_s", "s", ("busy", "pipeline.run")),
    ("pipeline.self_s", "s", ("self", "pipeline.run")),
    ("pipeline.report_s", "s", ("busy", "pipeline.report")),
    ("pipeline.load_s", "s", ("setup", "replay")),
    ("pipeline.events", "count", ("input", "events")),
    ("sensor.calls", "count", ("count", "sensor")),
    ("sensor.busy_s", "s", ("busy", "sensor")),
    ("alerts.calls", "count", ("count", "alerts")),
    ("alerts.busy_s", "s", ("busy", "alerts")),
    ("alerts.fired", "count", ("count", "alerts.fired")),
    ("alerts.log_line_s", "s", ("busy", "alerts.log_line")),
    ("perception.ocr_calls", "count", ("count", "perception.ocr")),
    ("perception.ocr_s", "s", ("busy", "perception.ocr")),
    ("perception.detect_calls", "count", ("count", "perception.detect")),
    ("perception.detect_s", "s", ("busy", "perception.detect")),
    ("perception.transcribe_calls", "count", ("count", "perception.transcribe")),
    ("perception.transcribe_s", "s", ("busy", "perception.transcribe")),
    ("speech.submit_calls", "count", ("count", "speech.submit")),
    ("speech.submit_s", "s", ("busy", "speech.submit")),
    ("speech.drain_calls", "count", ("count", "speech.drain")),
    ("speech.drain_s", "s", ("busy", "speech.drain")),
    ("speech.spoken", "count", ("count", "speech.spoken")),
    ("speech.dropped", "count", ("count", "speech.dropped")),
    ("speech.render_s", "s", ("busy", "speech.render")),
    ("detector_lab.load_s", "s", ("setup", "detect")),
    ("detector_lab.map50_s", "s", ("busy", "detector_lab.map50")),
    ("detector_lab.map5095_s", "s", ("busy", "detector_lab.map5095")),
    ("detector_lab.ap_top_label_s", "s", ("busy", "detector_lab.ap_top_label")),
    ("detector_lab.iou_calls", "count", ("count", "detector_lab.iou_calls")),
    ("ocr_lab.generate_s", "s", ("busy", "ocr_lab.generate")),
    ("ocr_lab.score_s", "s", ("busy", "ocr_lab.score")),
    ("ocr_lab.align_calls", "count", ("count", "ocr_lab.align")),
    ("ocr_lab.align_s", "s", ("busy", "ocr_lab.align")),
    ("ocr_lab.mismatch_frac", "frac", ("ratio", "ocr_lab.mismatches", "ocr_lab.total")),
    ("device_cycle_mean_s", "s", ("device", 0)),
    ("device_cycle_max_s", "s", ("device", 1)),
    ("trace.wall_s", "s", ("trace", "wall")),
    ("trace.overhead_s", "s", ("trace", "overhead")),
    ("trace.spans", "count", ("count", "trace.spans")),
)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def import_package() -> None:
    """Put this checkout's ``src`` first on the path and import from it.

    Raises ImportError when the checkout holds no package source, so the
    benchmark never measures some other installed copy.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ.pop("PERCEPT_CANE_DATA", None)  # always the bundled data
    import percept_cane

    if Path(percept_cane.__file__).resolve().parent.parent != src:
        raise ImportError(f"percept_cane not found under {src}")


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def json_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if self.x < 0:
            raise ValueError("negative")


def calibrate() -> float:
    """Host seconds taken by a fixed pure-Python mix.

    The mix resembles the package's hot paths: str hashing, dict building
    and sorting, exact Fraction sums, frozen dataclasses with validation,
    float formatting and sha256 digests.
    """
    t0 = perf()
    table = {str(i): i * 7 % 13 for i in range(20000)}
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7, i)
    for i in range(6000):
        text = f"{_Point(i * 0.5, i * 0.25).x:.1f}"
        hashlib.sha256(text.encode()).digest()
    return perf() - t0


def pass_digest(digests: list[str | None]) -> str:
    return hashlib.sha256("/".join(d or "-" for d in digests).encode()).hexdigest()[:16]


def load_expected(name: str, seed: int) -> list[str] | None:
    """Recorded per-operation digests; only the recorded seed has them."""
    recorded = json.loads(EXPECTED_FILE.read_text())
    if seed != recorded["seed"] or name not in recorded["workloads"]:
        return None
    return list(recorded["workloads"][name]["ops"])


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: int | None = None,
    ocr=None,
    expected: list[str] | None = None,
) -> Result:
    """Generate, set up, run and check one workload; see the module docstring."""
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    setup_host, setup_ref = [], []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload.generate(seed, Path(tmp), size)
        t0 = perf()
        loaded = workload.load(Path(tmp))
        batch = max(1, math.ceil(SETUP_BATCH_S / (perf() - t0)))
        cal = calibrate()
        for _ in range(SETUP_REPS):
            t0 = perf()
            for _ in range(batch):
                loaded = workload.load(Path(tmp))
            host = (perf() - t0) / batch
            cal, prev = calibrate(), cal
            setup_host.append(host)
            setup_ref.append(host * CAL_REF_S * 2 / (prev + cal))
    ops = workload.operations(loaded, seed, ocr)
    null = tracing.NullTracer()
    tracer = tracing.Tracer()
    unwrapped = tracing.originals()

    problems: list[str] = []
    reference = list(expected) if expected is not None else [None] * len(ops)
    if len(reference) != len(ops):
        problems.append(f"{len(ops)} operations, {len(reference)} recorded digests")
        reference = [None] * len(ops)
    attempted = failed = 0
    device = None

    def run_pass(tr) -> tuple[float, int, list]:
        nonlocal attempted, failed, device
        elapsed = 0.0
        outcomes = []
        for i, op in enumerate(ops):
            t0 = perf()
            try:
                with tr.span(f"op/{op.name}"):
                    outcome = op.run(tr)
            except Exception as exc:  # counted as a failed operation
                outcome = None
                problem = f"{type(exc).__name__}: {exc}"
            elapsed += perf() - t0
            attempted += 1
            if outcome is not None:
                digest = outcome.digest()
                problem = workload.check(outcome)
                if reference[i] is None:
                    reference[i] = digest
                elif digest != reference[i]:
                    problem = problem or f"digest {digest} != {reference[i]}"
            if problem:
                failed += 1
                problems.append(f"{op.name}: {problem}")
            outcomes.append(outcome)
        if hasattr(workload, "device") and None not in outcomes:
            dev = workload.device(outcomes)
            if device is None:
                device = dev
            elif dev != device:
                problems.append(f"device metrics changed between passes: {dev} != {device}")
        items = sum(o.items for o in outcomes if o is not None)
        return elapsed, items, outcomes

    run_pass(null)  # warm-up: fills the digest references, untimed
    walls, ref_walls, rates, cals, traced_walls, layer_passes = [], [], [], [], [], []
    deadline = perf() + seconds
    cal = calibrate()
    while perf() < deadline or len(walls) < MIN_PASSES or (trace and len(traced_walls) < MIN_PASSES):
        elapsed, items, _ = run_pass(null)
        cal, prev = calibrate(), cal
        cals.append(cal)
        walls.append(elapsed)
        ref_walls.append(elapsed * CAL_REF_S * 2 / (prev + cal))
        rates.append(items / ref_walls[-1])
        if trace:
            n_spans = len(tracer.spans)
            tracer.install()
            try:
                elapsed, _, _ = run_pass(tracer)
                totals = tracer.take()
                for probe, call in workload.probes(loaded):
                    with tracer.span(probe):
                        call()
                busy, _, _ = tracer.take()
                totals[0].update(busy)
            finally:
                tracer.remove()
            traced_walls.append(elapsed)
            layer_passes.append((totals, len(tracer.spans) - n_spans))
    if tracing.originals() != unwrapped:
        problems.append("tracing wrappers left installed")

    setup_s = statistics.median(setup_ref)
    report = {
        "workload": name,
        "seed": seed,
        "passes": len(walls),
        "host_wall_s": (min(walls), statistics.median(walls), max(walls)),
        "host_setup_s": statistics.median(setup_host),
        "cal_s": statistics.median(cals),
        "setup_loads": (SETUP_REPS, batch),
        "operations": len(ops),
        "items": workload.item_kind,
        "op_digests": reference,
        "pass_digest": pass_digest(reference),
        "digest_source": "recorded" if expected is not None else "warm-up pass",
        "device": device,
        "events": workload.events(loaded),
    }
    if trace:
        metrics = layer_metrics(
            layer_passes, report["host_setup_s"], name, device, report["events"], walls, traced_walls, problems
        )
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(ref_walls), "s"),
            "items_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return Result(not problems and failed == 0, attempted, failed, metrics, report, problems)


def layer_metrics(layer_passes, host_setup_s, name, device, events, walls, traced_walls, problems):
    """Per-layer metrics: host-time medians over traced passes, exact counts."""
    import tracing

    per_pass = []
    for (busy, self_s, counts), n_spans in layer_passes:
        counts["trace.spans"] = n_spans
        values = {}
        for metric, _, (kind, *key) in PER_LAYER:
            if kind == "busy":
                values[metric] = busy.get(key[0], 0.0)
            elif kind == "self":
                values[metric] = self_s.get(key[0], 0.0)
            elif kind == "count":
                values[metric] = counts[key[0]]
            elif kind == "ratio":
                values[metric] = counts[key[0]] / counts[key[1]] if counts[key[1]] else 0.0
        run_s = busy.get("pipeline.run", 0.0)
        parts = sum(busy.get(child, 0.0) for child in tracing.RUN_CHILDREN) + self_s.get("pipeline.run", 0.0)
        if abs(parts - run_s) > 1e-9 + 1e-6 * run_s:
            problems.append(f"layer times {parts} do not add up to pipeline.run {run_s}")
        per_pass.append(values)

    metrics = {}
    for metric, unit, (kind, *key) in PER_LAYER:
        if kind in ("count", "ratio"):
            seen = {values[metric] for values in per_pass}
            if len(seen) != 1:
                problems.append(f"{metric} differs between traced passes: {sorted(seen)}")
            value = per_pass[0][metric]
        elif kind in ("busy", "self"):
            value = statistics.median(values[metric] for values in per_pass)
        elif kind == "setup":
            value = host_setup_s if name.startswith(key[0]) else 0.0
        elif kind == "input":
            value = events
        elif kind == "device":
            value = device[key[0]] if device else 0.0
        elif metric == "trace.wall_s":
            value = statistics.median(traced_walls)
        else:
            value = statistics.median(traced_walls) - statistics.median(walls)
        metrics[metric] = (value, unit)
    return metrics


ITEM_RATE_NAMES = {"ticks": "ticks_per_s", "predictions": "preds_per_s", "samples": "samples_per_s"}


def describe(result: Result) -> list[str]:
    """Human-readable summary: every end-to-end quantity by name, unit and clock."""
    r, m = result.report, result.metrics
    lines = [
        f"workload {r['workload']} seed {r['seed']}: {r['passes']} timed passes of "
        f"{r['operations']} operations; python {platform.python_version()}, nproc {os.cpu_count()}"
    ]
    if "wall_s" in m:
        rate = ITEM_RATE_NAMES[r["items"]]
        fastest, median, slowest = r["host_wall_s"]
        reps, batch = r["setup_loads"]
        lines.append(f"  calibration loop {r['cal_s']:.6f} host s (reference {CAL_REF_S} s)")
        lines.append(
            f"  setup_s      {m['setup_s'][0]:.6f} reference s, median of {reps} x {batch} loads "
            f"(host {r['host_setup_s']:.6f} s)"
        )
        lines.append(
            f"  wall_s       {m['wall_s'][0]:.6f} reference s, median of {r['passes']} passes "
            f"(host: fastest {fastest:.6f} s, median {median:.6f} s, slowest {slowest:.6f} s)"
        )
        for other in ITEM_RATE_NAMES.values():
            value = f"{m['items_per_s'][0]:.1f} per reference s (items_per_s)" if other == rate else "n/a"
            lines.append(f"  {other:<12} {value}")
        lines.append(f"  peak_rss_mb  {m['peak_rss_mb'][0]:.1f} MB  host")
    dev = r["device"]
    lines.append(f"  device_cycle_mean_s  {f'{dev[0]!r} s virtual' if dev else 'n/a'}")
    lines.append(f"  device_cycle_max_s   {f'{dev[1]!r} s virtual' if dev else 'n/a'}")
    lines.append(f"  failed_frac  {result.failed / result.attempted!r} ({result.failed} of {result.attempted})")
    lines.append(f"  digest       {r['pass_digest']} (reference: {r['digest_source']})")
    if "trace.wall_s" in m:
        lines.extend(f"  {k:<30} {v!r} {u}" for k, (v, u) in m.items())
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import the package from this checkout: {exc}\n")
        return 1
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 1
    expected = load_expected(args.workload, args.seed)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected=expected)
    for problem in result.problems[:20]:
        sys.stderr.write(f"problem: {problem}\n")
    print("\n".join(describe(result)))
    print(result.json_line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
