"""Command-line entry point.

Subcommands cover the runtime (scenario replay, sensor bench) and the lab
(model selection, detection metrics, OCR corpus/scoring/routing/bench).
``build_parser`` declares each subcommand once, with its handler and
options; an option that several subcommands take is one module constant.
Each subcommand returns its output text, and ``main`` alone writes it to
--out ("-" for standard output) as UTF-8 whatever the locale and picks the
exit code. The output is byte-stable for a given argv and input files.
Wall-clock numbers appear only on request: run --verbose writes the wall
time to standard error, and ocr-bench --timing puts the measured
mean_speed_s in the report, which is then no longer byte-stable.

Exit codes: 0 success, 1 bad input (usage, missing file, validation),
2 runtime failure (backend errors, unexpected exceptions).
"""

from __future__ import annotations

import argparse
import os
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


def _opt(*flags: str, **kwargs) -> tuple:
    """The arguments of one ``add_argument`` call."""
    return flags, kwargs


_OUT = _opt("--out", default="-", help="output file, or - for stdout (default)")
_KIND = _opt("--kind", choices=[k.value for k in ocr_lab.SampleKind], required=True)
_N = _opt("--n", type=int, required=True, help="sample count")
_SEED = _opt("--seed", type=int, default=0, help="seeds every random draw (default: 0)")
_FORMAT = _opt("--format", choices=("csv", "json"), default="csv", help="report format")
_MAP_FIELD = _opt("--map-field", choices=detector_lab.MAP_FIELDS, default="map50",
                  help="which mAP column to use")
_MODEL_TABLE = _opt("--table", help="model table CSV (default: the bundled fig8_models.csv)")


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

    def command(name: str, handler, help: str, *options: tuple) -> None:
        """Declare subcommand ``name``: its options in usage order, then --out."""
        p = sub.add_parser(name, help=help, description=help)
        for flags, kwargs in (*options, _OUT):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler)

    command(
        "run", _cmd_run, "replay a scenario through the device loop",
        _opt("scenario", help="scenario JSON file"),
        _opt("--config", help="pipeline config JSON file"),
        _SEED,
        _FORMAT,
        _opt("--transcript", help="also write the transcript to this file"),
        _opt("--log", help="also write the device log to this file"),
        _opt("--print-transcript", action="store_true",
             help="print the transcript before the report"),
        _opt("--verbose", action="store_true", help="wall-clock timing to stderr"),
    )
    command(
        "sensor-bench", _cmd_sensor_bench, "ranging timing table with mean line",
        _opt("--table", help="timings CSV (default: the bundled fig6_sensor_timings.csv)"),
    )
    command(
        "models-pareto", _cmd_models_pareto, "compute-versus-accuracy frontier of a model table",
        _MODEL_TABLE,
        _MAP_FIELD,
    )
    command(
        "models-recommend", _cmd_models_recommend, "best model within a gflops budget",
        _MODEL_TABLE,
        _MAP_FIELD,
        _opt("--budget", type=float, required=True, help="gflops budget"),
    )
    command(
        "models-eval", _cmd_models_eval,
        "score predictions against ground truth: mAP at IoU 0.50 and over 0.50-0.95, each AP "
        "all-point interpolated, with greedy confidence-order matching and no per-image "
        "detection cap (not COCO's 101-point AP)",
        _opt("--truths", required=True, help="truth records: image_id,label,x_min,y_min,x_max,y_max"),
        _opt("--preds", required=True,
             help="prediction records: image_id,label,confidence,x_min,y_min,x_max,y_max"),
    )
    command("ocr-gen", _cmd_ocr_gen, "generate a benchmark corpus", _KIND, _N, _SEED)
    command(
        "ocr-score", _cmd_ocr_score, "score recognition output pairs",
        _opt("pairs", help="CSV of truth,output rows"),
        _KIND,
        _FORMAT,
    )
    command(
        "ocr-route", _cmd_ocr_route, "pick an engine from benchmark profiles",
        _KIND,
        _opt("--compute", choices=[c.value for c in ocr_lab.Compute], required=True),
        _opt("--policy", choices=[r.value for r in ocr_lab.RoutePolicy], required=True),
        _opt("--profiles", help="engine profile CSV (default: the bundled engine_profiles.csv)"),
    )
    command(
        "ocr-bench", _cmd_ocr_bench, "run a mock engine over a generated corpus",
        _KIND,
        _opt("--engine", default="mock-tesseract", help=f"backend id: {', '.join(OCR_BACKENDS)}"),
        _N,
        _SEED,
        _FORMAT,
        _opt("--timing", action="store_true",
             help="include measured mean_speed_s (breaks byte-stable output)"),
    )
    return parser


def _render(args, report, to_csv, to_json, **options) -> str:
    """``report`` in the --format that ``args`` names: the one reading of
    that option."""
    return (to_json if args.format == "json" else to_csv)(report, **options)


def _cmd_run(args) -> str:
    # before any input is read; realpath resolves like Path.resolve but never raises on a symlink loop
    files: dict[str, str] = {}
    for flag, out in (("--out", args.out), ("--transcript", args.transcript), ("--log", args.log)):
        if out == "-" and flag != "--out":
            raise ValueError(f"{flag} cannot be '-': only --out writes to standard output")
        if out and out != "-" and (first := files.setdefault(os.path.realpath(out), flag)) != flag:
            raise ValueError(f"{first} and {flag} name the same file: {out}")
    cfg = pipeline.load_config(args.config) if args.config else pipeline.PipelineConfig()
    scenario = pipeline.load_scenario(args.scenario)
    t0 = time.perf_counter()
    result = pipeline.run(scenario, cfg, seed=args.seed)
    wall_s = time.perf_counter() - t0
    report_text = _render(args, result.report, pipeline.run_report_to_csv, pipeline.run_report_to_json)
    transcript = result.transcript.render() if args.print_transcript or args.transcript else ""
    # the files first: a failing standard output must not leave them unwritten
    if args.transcript:
        Path(args.transcript).write_text(transcript, encoding="utf-8")
    if args.log:
        Path(args.log).write_text(result.report.render_log(), encoding="utf-8")
    if args.verbose:
        sys.stderr.write(f"wall time: {wall_s * 1000:.1f} ms\n")
    return transcript + report_text if args.print_transcript else report_text


def _cmd_sensor_bench(args) -> str:
    samples = sensor.load_sensor_timings(resolve_table(args.table, sensor.SENSOR_TIMINGS_FILE))
    return sensor.sensor_bench_csv(samples)


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


def _cmd_models_pareto(args) -> str:
    front = detector_lab.pareto_frontier(_eligible_models(args), args.map_field)
    return "".join(_model_row(m, args.map_field) + "\n" for m in front)


def _cmd_models_recommend(args) -> str:
    choice = detector_lab.recommend(_eligible_models(args), args.budget, args.map_field)
    return _model_row(choice, args.map_field) + "\n"


def _cmd_models_eval(args) -> str:
    truths = detector_lab.load_truths(args.truths)
    preds = detector_lab.load_predictions(args.preds)
    map50, map5095 = detector_lab.map50_and_range(preds, truths)
    return f"map50,{map50!r}\nmap5095,{map5095!r}\n"


def _cmd_ocr_gen(args) -> str:
    truths = ocr_lab.generate_samples(args.kind, args.n, args.seed)
    ids = ocr_lab.sample_ids(args.kind, args.n)
    lines = ["sample_id,kind,truth"]
    lines.extend(f"{i},{args.kind},{t}" for i, t in zip(ids, truths))
    return "\n".join(lines) + "\n"


def _cmd_ocr_score(args) -> str:
    report = ocr_lab.score(ocr_lab.load_pairs(args.pairs, args.kind), args.kind)
    return _render(args, report, ocr_lab.report_to_csv, ocr_lab.report_to_json)


def _cmd_ocr_route(args) -> str:
    profiles = ocr_lab.load_engine_profiles(
        resolve_table(args.profiles, ocr_lab.ENGINE_PROFILES_FILE)
    )
    return ocr_lab.route(args.kind, args.compute, args.policy, profiles) + "\n"


def _cmd_ocr_bench(args) -> str:
    backend = build_ocr(args.engine, seed=args.seed)
    report = ocr_lab.run_benchmark(args.kind, args.n, backend, args.seed)
    return _render(args, report, ocr_lab.report_to_csv, ocr_lab.report_to_json, include_speed=args.timing)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _write(args.handler(args), args.out)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BackendError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - safety net
        sys.stderr.write(f"unexpected error: {exc}\n")
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
