"""Record the output digests that the default seed must reproduce.

    python3 perfbench/record_expected.py

Runs every workload at full size with the recorded seed and writes the
per-operation digests of its byte-stable outputs to ``expected.json``.
Re-record only when a change is meant to alter those outputs or the
generated inputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_package()
    from workloads import WORKLOADS

    seed = json.loads(run.EXPECTED_FILE.read_text())["seed"]
    record = {"seed": seed, "workloads": {}}
    for name in WORKLOADS:
        result = run.measure(name, seed, 0, False)
        if not result.correct:
            sys.stderr.write(f"{name}: not recorded, the run is incorrect: {result.problems[:5]}\n")
            return 1
        record["workloads"][name] = {
            "pass": result.report["pass_digest"],
            "ops": result.report["op_digests"],
        }
    run.EXPECTED_FILE.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
