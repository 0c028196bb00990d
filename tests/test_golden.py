"""Byte-for-byte pins of the demo run's outputs across versions.

The files under tests/golden/ were recorded from `percept-cane run` on the
bundled demo scenario, once under the default config and once under
stress_config.json (a two-message speech queue, a 30% detector miss rate
and a 10 cm re-arm margin; the seeded miss loses the demo's one detection,
so the cycle speaks one message fewer). The multi-event scenario is also
pinned under drop_config.json, a one-message speech queue that drops every
perception result behind its cycle's alert, and under rate_config.json, a
non-unit speaking rate and per-character time, since at rate 1.0 a
duration divided by the rate, or not, is the same float. A refactor that keeps
behaviour must leave every one of them unchanged; re-record them only for
an intended change of output.
"""

import hashlib
from pathlib import Path

import pytest

from percept_cane.cli import main
from percept_cane.pipeline import demo_scenario_path, load_config, load_scenario, run
from percept_cane.speech import Priority

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


# sha256 of the multi-event replay's outputs: (--print-transcript stdout,
# --log file, CSV report, JSON report). The scenario puts two events inside
# one tick interval (1.02 s is never sensed), an event exactly on a tick,
# frameless events that clear the frame, repeated equal distances and
# several alerts on a 0.1 s tick, whose tick times are inexact floats.
MULTI_EVENT = GOLDEN / "multi_event_scenario.json"
MULTI_EVENT_CASES = {
    **CASES,
    "drop": ["--config", str(GOLDEN / "drop_config.json")],
    "rate": ["--config", str(GOLDEN / "rate_config.json")],
}
MULTI_EVENT_SHA256 = {
    "demo": (
        "b284325ebedc5ba68163a51ac69509d41de4ceaa6447a104d0a0a20b0f553cbe",
        "9decbbcd5be55fc093466da9caa8b196943e7af358e3140573c4906010a02283",
        "d8490f5cd5e439ecc632199e8df4cd38258b6348a82e1989c0afd76d51097541",
        "17b17202fbbfdc261583c6d409bfc050d14d97b4cb242a6e839cb113809b6f6b",
    ),
    "stress": (
        "97b33b946deebaa7b3d389539e388615dd96df0bdc793ba56d5f3820f139a160",
        "228525927ad135e874f38750e08af665768bd43bd4068c94e109b4a469c266f3",
        "b12424c1fe741711e9ba725901cfe286e5999656640173aef62d68b7bc39f386",
        "aa18e793462a21ef70ee5521e19259c759cd0b4116d7e8fe1599f2132843f639",
    ),
    "drop": (
        "d0372cc8626b6359e0b0935ea7bf7d2c474cae006020509f0d82fcb48cb5ddd9",
        "9decbbcd5be55fc093466da9caa8b196943e7af358e3140573c4906010a02283",
        "ab8894a40862e9c4cf1fd0bb1f2f35ef49df112ae1b863a7e452435f0ff59b61",
        "5a05ce1f89c83921cba09bfa85a0f792e37723609682f8005482f50a207aaa5c",
    ),
    "rate": (
        "efaa22191256d47e1cb66a1df9a9de8bbe3e8753c57fc5e41e33889f37a1b916",
        "9decbbcd5be55fc093466da9caa8b196943e7af358e3140573c4906010a02283",
        "1b4a7688560f1554f3436bd12e845d953e6bc9e94495a043a929633de2536ab3",
        "6b1251a47043efb9d15ea6082d5c96ac8df1b3a0f0c38dfb8c8d8b1e1611af22",
    ),
}


@pytest.mark.parametrize("case", sorted(MULTI_EVENT_CASES))
def test_multi_event_outputs_match_digests(case, capsys, tmp_path):
    scenario = str(MULTI_EVENT)
    log = tmp_path / "log.txt"
    outputs = []
    for extra in (["--print-transcript", "--log", str(log)], [], ["--format", "json"]):
        assert main(["run", scenario, *MULTI_EVENT_CASES[case], *extra]) == 0
        outputs.append(capsys.readouterr().out.encode())
    outputs.insert(1, log.read_bytes())

    digests = tuple(hashlib.sha256(data).hexdigest() for data in outputs)
    assert digests == MULTI_EVENT_SHA256[case]


def test_drop_case_speaks_less_than_default():
    scenario = load_scenario(MULTI_EVENT)
    default = run(scenario).transcript
    dropping = run(scenario, load_config(GOLDEN / "drop_config.json")).transcript
    assert 0 < len(dropping) < len(default)
    # the alerts survive; only perception results are lost
    assert dropping.texts() == [e.text for e in default.entries if e.priority == Priority.ALERT]
