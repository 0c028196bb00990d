"""Command-line entry point.

Subcommands cover the runtime (scenario replay, sensor bench) and the lab
(model selection, detection metrics, OCR corpus/scoring/routing/bench).
Data output goes to --out ("-" for standard output) as UTF-8 whatever the
locale, and is byte-stable for a given argv and input files. Wall-clock
numbers appear only on request: run --verbose writes the wall time to
standard error, and ocr-bench --timing puts the measured mean_speed_s in
the report it writes to --out, which is then no longer byte-stable.

Exit codes: 0 success, 1 bad input (usage, missing file, validation),
2 runtime failure (backend errors, unexpected exceptions).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__, detector_lab, ocr_lab, pipeline, sensor
from .checks import csv_cell
from .perception import OCR_BACKENDS, BackendError, build_ocr
from .resources import DATA_ENV_VAR, resolve_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for runtime
    # failures
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _write(text: str, out: str) -> None:
    """Write ``text`` as UTF-8 to the file ``out``, or to standard output
    for "-", whatever the locale's encoding."""
    if out == "-":
        sys.stdout.flush()  # text written earlier stays ahead of these bytes
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        Path(out).write_text(text, encoding="utf-8")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", help="output file, or - for stdout (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="percept-cane",
        description=(
            "Assistive-perception pipeline simulator and evaluation lab. "
            f"Set {DATA_ENV_VAR} to override the bundled data directory."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    kinds = [k.value for k in ocr_lab.SampleKind]

    p = sub.add_parser("run", help="replay a scenario through the device loop")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--config", help="pipeline config JSON file")
    p.add_argument("--seed", type=int, default=0, help="seeds the jitter, miss and OCR draws")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    p.add_argument("--transcript", help="also write the transcript to this file")
    p.add_argument("--log", help="also write the device log to this file")
    p.add_argument(
        "--print-transcript",
        action="store_true",
        help="print the transcript before the report",
    )
    p.add_argument(
        "--verbose", action="store_true", help="wall-clock timing to stderr"
    )
    _add_out(p)

    p = sub.add_parser("sensor-bench", help="ranging timing table with mean line")
    p.add_argument("--table", help="timings CSV (default: the bundled fig6_sensor_timings.csv)")
    _add_out(p)

    p = sub.add_parser("models-pareto", help="compute-versus-accuracy frontier of a model table")
    p.add_argument("--table", help="model table CSV (default: the bundled fig8_models.csv)")
    p.add_argument(
        "--map-field",
        choices=detector_lab.MAP_FIELDS,
        default="map50",
        help="which mAP column to use",
    )
    _add_out(p)

    p = sub.add_parser("models-recommend", help="best model within a gflops budget")
    p.add_argument("--table", help="model table CSV (default: the bundled fig8_models.csv)")
    p.add_argument("--map-field", choices=detector_lab.MAP_FIELDS, default="map50")
    p.add_argument("--budget", type=float, required=True, help="gflops budget")
    _add_out(p)

    p = sub.add_parser("models-eval", help="score predictions against ground truth")
    p.add_argument("--truths", required=True, help="truth records: image_id,label,x0,y0,x1,y1")
    p.add_argument(
        "--preds", required=True, help="prediction records: image_id,label,conf,x0,y0,x1,y1"
    )
    _add_out(p)

    p = sub.add_parser("ocr-gen", help="generate a benchmark corpus")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)

    p = sub.add_parser("ocr-score", help="score recognition output pairs")
    p.add_argument("pairs", help="CSV of truth,output rows")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(p)

    p = sub.add_parser("ocr-route", help="pick an engine from benchmark profiles")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--compute", choices=[c.value for c in ocr_lab.Compute], required=True)
    p.add_argument("--policy", choices=[r.value for r in ocr_lab.RoutePolicy], required=True)
    p.add_argument(
        "--profiles", help="engine profile CSV (default: the bundled engine_profiles.csv)"
    )
    _add_out(p)

    p = sub.add_parser("ocr-bench", help="run a mock engine over a generated corpus")
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument(
        "--engine",
        default="mock-tesseract",
        help=f"backend id: {', '.join(OCR_BACKENDS)}",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--timing",
        action="store_true",
        help="include measured mean_speed_s (breaks byte-stable output)",
    )
    _add_out(p)

    return parser


def _cmd_run(args) -> int:
    cfg = pipeline.load_config(args.config) if args.config else pipeline.PipelineConfig()
    scenario = pipeline.load_scenario(args.scenario)
    t0 = time.perf_counter()
    result = pipeline.run(scenario, cfg, seed=args.seed)
    wall_s = time.perf_counter() - t0
    if args.format == "json":
        report_text = pipeline.run_report_to_json(result.report)
    else:
        report_text = pipeline.run_report_to_csv(result.report)
    transcript = result.transcript.render() if args.print_transcript or args.transcript else ""
    body = transcript + report_text if args.print_transcript else report_text
    # the files first: a failing standard output must not leave them unwritten
    if args.transcript:
        Path(args.transcript).write_text(transcript, encoding="utf-8")
    if args.log:
        Path(args.log).write_text(result.log.render(), encoding="utf-8")
    _write(body, args.out)
    if args.verbose:
        sys.stderr.write(f"wall time: {wall_s * 1000:.1f} ms\n")
    return EXIT_OK


def _cmd_sensor_bench(args) -> int:
    samples = sensor.load_sensor_timings(resolve_table(args.table, sensor.SENSOR_TIMINGS_FILE))
    _write(sensor.sensor_bench_csv(samples), args.out)
    return EXIT_OK


def _model_row(m: detector_lab.ModelSpec, map_field: str) -> str:
    return f"{csv_cell(m.display_name)},{m.gflops!r},{getattr(m, map_field)!r}"


def _eligible_models(args) -> list:
    """The table's rows with a value for --map-field; the rows without one
    are named in a note on stderr, and the table's name leads
    split_by_map_field's error."""
    table = resolve_table(args.table, detector_lab.MODEL_TABLE_FILE)
    models = detector_lab.load_model_table(table)
    try:
        eligible, excluded = detector_lab.split_by_map_field(models, args.map_field)
    except ValueError as exc:
        raise ValueError(f"{args.table or table.name}: {exc}") from None
    if excluded:
        names = ", ".join(m.display_name for m in excluded)
        sys.stderr.write(f"note: excluded rows without {args.map_field}: {names}\n")
    return eligible


def _cmd_models_pareto(args) -> int:
    front = detector_lab.pareto_frontier(_eligible_models(args), args.map_field)
    _write("".join(_model_row(m, args.map_field) + "\n" for m in front), args.out)
    return EXIT_OK


def _cmd_models_recommend(args) -> int:
    choice = detector_lab.recommend(_eligible_models(args), args.budget, args.map_field)
    _write(_model_row(choice, args.map_field) + "\n", args.out)
    return EXIT_OK


def _cmd_models_eval(args) -> int:
    truths = detector_lab.load_truths(args.truths)
    preds = detector_lab.load_predictions(args.preds)
    map50, map5095 = detector_lab.map50_and_range(preds, truths)
    _write(f"map50,{map50!r}\nmap5095,{map5095!r}\n", args.out)
    return EXIT_OK


def _cmd_ocr_gen(args) -> int:
    kind = ocr_lab.SampleKind(args.kind)
    truths = ocr_lab.generate_samples(kind, args.n, args.seed)
    lines = ["sample_id,kind,truth"]
    lines.extend(f"{i},{kind.value},{t}" for i, t in zip(ocr_lab.sample_ids(kind, args.n), truths))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_ocr_score(args) -> int:
    kind = ocr_lab.SampleKind(args.kind)
    report = ocr_lab.score(ocr_lab.load_pairs(args.pairs, kind), kind)
    text = (
        ocr_lab.report_to_json(report)
        if args.format == "json"
        else ocr_lab.report_to_csv(report)
    )
    _write(text, args.out)
    return EXIT_OK


def _cmd_ocr_route(args) -> int:
    profiles = ocr_lab.load_engine_profiles(
        resolve_table(args.profiles, ocr_lab.ENGINE_PROFILES_FILE)
    )
    engine = ocr_lab.route(args.kind, args.compute, args.policy, profiles)
    _write(engine + "\n", args.out)
    return EXIT_OK


def _cmd_ocr_bench(args) -> int:
    backend = build_ocr(args.engine, seed=args.seed)
    report = ocr_lab.run_benchmark(args.kind, args.n, backend, args.seed)
    text = (
        ocr_lab.report_to_json(report, include_speed=args.timing)
        if args.format == "json"
        else ocr_lab.report_to_csv(report, include_speed=args.timing)
    )
    _write(text, args.out)
    return EXIT_OK


_HANDLERS = {
    "run": _cmd_run,
    "sensor-bench": _cmd_sensor_bench,
    "models-pareto": _cmd_models_pareto,
    "models-recommend": _cmd_models_recommend,
    "models-eval": _cmd_models_eval,
    "ocr-gen": _cmd_ocr_gen,
    "ocr-score": _cmd_ocr_score,
    "ocr-route": _cmd_ocr_route,
    "ocr-bench": _cmd_ocr_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BackendError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - safety net
        sys.stderr.write(f"unexpected error: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
