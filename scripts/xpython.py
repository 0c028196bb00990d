"""Check that every supported Python gives the same bytes.

Run from anywhere inside the repository:

    python3 scripts/xpython.py
    python3 scripts/xpython.py --python /usr/bin/python3.12 --python python3.10

Without ``--python`` it runs every CPython 3.10+ that pyenv installed
(``$PYENV_ROOT/versions/3.1[0-9]*``, ``PYENV_ROOT`` defaulting to
``~/.pyenv``). Each interpreter runs, from this checkout's ``src``:

* the golden CLI commands of ``tests/test_golden.py``: ``percept-cane run``
  on the demo scenario under the default and stress configs, and on the
  multi-event scenario under the default, stress, drop and rate configs,
  each with ``--print-transcript --log``, and once each for the CSV and the
  JSON report;
* ``perfbench/run.py --workload W --seed 0 --seconds 1 --trace 0`` for each
  workload of ``BENCHMARK.json``, which checks every output against the
  recorded seed-0 digests.

It prints one line per interpreter: its version, the sha256 of each golden
output (``<scenario>.<config>.<output>=<sha256>``) and perfbench's
``correct`` for each workload (``<workload>=true``). A last line says
whether the golden digests agree across the interpreters. The exit status
is 0 when they agree and every workload is correct, 1 otherwise. Stdlib
only; it stays out of the test suite because it needs other interpreters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMO_SCENARIO = ROOT / "src" / "percept_cane" / "data" / "scenario_demo.json"
SCENARIOS = {
    "demo": (DEMO_SCENARIO, ("default", "stress")),
    "multi": (GOLDEN / "multi_event_scenario.json", ("default", "stress", "drop", "rate")),
}
CONFIGS = {
    "default": (),
    "stress": ("--config", str(GOLDEN / "stress_config.json")),
    "drop": ("--config", str(GOLDEN / "drop_config.json")),
    "rate": ("--config", str(GOLDEN / "rate_config.json")),
}


def pyenv_pythons() -> list[str]:
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = root.glob("versions/3.1[0-9]*/bin/python3")
    return [str(p) for p in sorted(found, key=lambda p: _version_key(p.parent.parent.name))]


def _version_key(name: str) -> tuple[int, ...]:
    return tuple(int(part) if part.isdigit() else -1 for part in name.split("."))


def run(python: str, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([python, *args], cwd=ROOT, capture_output=True, env=env)


def golden_digests(python: str) -> dict[str, str]:
    """sha256 of each golden CLI output, by ``<scenario>.<config>.<output>``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PERCEPT_CANE_DATA", None)
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.txt"
        for scenario, (path, configs) in SCENARIOS.items():
            for config in configs:
                cli = ("-m", "percept_cane.cli", "run", str(path), *CONFIGS[config])
                outputs = {}
                for name, extra in (
                    ("transcript", ("--print-transcript", "--log", str(log))),
                    ("csv", ()),
                    ("json", ("--format", "json")),
                ):
                    proc = run(python, *cli, *extra, env=env)
                    if proc.returncode != 0:
                        command = " ".join((*cli, *extra))
                        raise RuntimeError(f"{command}: {proc.stderr.decode()}")
                    outputs[name] = proc.stdout
                outputs["log"] = log.read_bytes()
                for name in ("transcript", "log", "csv", "json"):
                    digest = hashlib.sha256(outputs[name]).hexdigest()
                    digests[f"{scenario}.{config}.{name}"] = digest
    return digests


def perfbench_correct(python: str, workload: str) -> bool:
    bench = ("perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1")
    proc = run(python, *bench, "--trace", "0")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return False
    return json.loads(lines[-1]).get("correct") is True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--python", action="append", help="interpreter to check (repeatable; default: pyenv's 3.1x)"
    )
    args = parser.parse_args(argv)
    pythons = args.python or pyenv_pythons()
    if not pythons:
        sys.stderr.write("error: no interpreter found; name one with --python\n")
        return 1
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    seen: dict[tuple, list[str]] = {}
    all_correct = True
    for python in pythons:
        version = run(python, "-c", "import platform; print(platform.python_version())")
        label = version.stdout.decode().strip() or python
        try:
            digests = golden_digests(python)
        except (OSError, RuntimeError) as exc:
            print(f"{label} error: {exc}", flush=True)
            all_correct = False
            continue
        correct = {w: perfbench_correct(python, w) for w in workloads}
        all_correct &= all(correct.values())
        seen.setdefault(tuple(sorted(digests.items())), []).append(label)
        fields = [f"{k}={v}" for k, v in digests.items()]
        fields += [f"{w}={str(ok).lower()}" for w, ok in correct.items()]
        print(f"{label} {' '.join(fields)}", flush=True)
    groups = " | ".join(", ".join(labels) for labels in seen.values())
    agree = len(seen) == 1
    print(f"golden digests {'identical' if agree else 'differ'}: {groups}")
    return 0 if agree and all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
