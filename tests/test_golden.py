"""Byte-for-byte pins of the demo run's outputs across versions.

The files under tests/golden/ were recorded from `percept-cane run` on the
bundled demo scenario, once under the default config and once under
stress_config.json (a two-message speech queue, a 30% detector miss rate
and a 10 cm re-arm margin; the seeded miss loses the demo's one detection,
so the cycle speaks one message fewer). A refactor that
keeps behaviour must leave every one of them unchanged; re-record them only
for an intended change of output.
"""

from pathlib import Path

import pytest

from percept_cane.cli import main
from percept_cane.pipeline import demo_scenario_path

GOLDEN = Path(__file__).parent / "golden"
CASES = {"demo": [], "stress": ["--config", str(GOLDEN / "stress_config.json")]}


@pytest.mark.parametrize("case", sorted(CASES))
def test_demo_outputs_match_golden(case, capsys, tmp_path):
    scenario = str(demo_scenario_path())
    log = tmp_path / "log.txt"

    assert main(["run", scenario, *CASES[case], "--print-transcript", "--log", str(log)]) == 0
    transcript_csv = capsys.readouterr().out
    assert main(["run", scenario, *CASES[case], "--format", "json"]) == 0
    report_json = capsys.readouterr().out

    assert transcript_csv.encode() == (GOLDEN / f"{case}_transcript.csv").read_bytes()
    assert report_json.encode() == (GOLDEN / f"{case}_report.json").read_bytes()
    assert log.read_bytes() == (GOLDEN / f"{case}_log.txt").read_bytes()
