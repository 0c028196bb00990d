import math
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percept_cane.resources import data_path
from percept_cane.sensor import (
    SENSOR_TIMINGS_FILE,
    DistanceMeasurement,
    EchoSample,
    SensorConfig,
    distance_from_echo,
    echo_from_distance,
    load_sensor_timings,
    mean_response_time,
    sensor_bench_csv,
    simulate_measurement,
)

CFG = SensorConfig()

# reference timing table bundled with the package
FIG6_ROWS = [
    (8.7, 0.0037789),
    (32.0, 0.003605),
    (61.0, 0.00524),
    (62.0, 0.00587),
    (65.0, 0.00560188),
    (77.0, 0.00597),
    (97.0, 0.007149),
    (118.0, 0.00804),
    (142.0, 0.01002),
    (161.0, 0.0161),
]
FIG6_MEAN = 0.007137478


def test_distance_from_echo_zero():
    assert distance_from_echo(EchoSample(0.0), CFG) == 0.0


def test_distance_from_echo_known_roundtrips():
    assert distance_from_echo(EchoSample(0.00311370), CFG) == pytest.approx(53.4, abs=0.05)
    assert distance_from_echo(EchoSample(0.00938776), CFG) == pytest.approx(161.0, abs=0.05)


def test_echo_from_distance_zero():
    assert echo_from_distance(0.0, CFG).roundtrip_s == 0.0


def test_echo_from_distance_known_value():
    assert echo_from_distance(53.4, CFG).roundtrip_s == pytest.approx(0.00311370, abs=1e-8)


def test_round_trip_identity_seeded():
    rng = random.Random(99)
    for _ in range(2000):
        d = rng.uniform(0.0, 500.0)
        back = distance_from_echo(echo_from_distance(d, CFG), CFG)
        assert back == pytest.approx(d, rel=1e-9)


def test_echo_rejects_negative_distance():
    with pytest.raises(ValueError):
        echo_from_distance(-1.0, CFG)


def test_simulate_zero_jitter_is_exact_formula():
    cfg = SensorConfig(jitter_std_s=0.0)
    m = simulate_measurement(50.0, cfg, random.Random(0))
    expected = cfg.overhead_base_s + 50.0 * cfg.overhead_per_cm_s + 2.0 * 0.50 / 343.0
    assert m.exec_time_s == expected
    assert m.distance_cm == 50.0
    assert m.in_range


def test_simulate_out_of_range_flag():
    m = simulate_measurement(350.0, CFG, random.Random(0))
    assert not m.in_range
    m = simulate_measurement(30.0, CFG, random.Random(0))
    assert not m.in_range


def test_simulate_jitter_only_adds_delay():
    cfg = SensorConfig(jitter_std_s=0.01)
    base = simulate_measurement(80.0, SensorConfig(jitter_std_s=0.0), random.Random(0))
    rng = random.Random(5)
    for _ in range(200):
        m = simulate_measurement(80.0, cfg, rng)
        assert m.exec_time_s >= base.exec_time_s


def test_simulate_all_zero_config_still_positive():
    cfg = SensorConfig(overhead_base_s=0.0, overhead_per_cm_s=0.0, jitter_std_s=0.0)
    m = simulate_measurement(0.0, cfg, random.Random(0))
    assert m.exec_time_s > 0


def test_zero_jitter_monotonic_in_distance():
    cfg = SensorConfig(jitter_std_s=0.0)
    rng = random.Random(0)
    times = [simulate_measurement(d, cfg, rng).exec_time_s for d in range(0, 400, 10)]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_simulate_deterministic_per_seed():
    def run():
        rng = random.Random(77)
        return [repr(simulate_measurement(d, CFG, rng)) for d in (50.0, 120.0, 250.0)]

    assert run() == run()


def test_mean_response_time_reference_table_exact():
    samples = [
        DistanceMeasurement(d, t, in_range=True) for d, t in FIG6_ROWS
    ]
    assert mean_response_time(samples) == FIG6_MEAN


def test_mean_response_time_basics():
    one = DistanceMeasurement(10.0, 0.004, in_range=False)
    assert mean_response_time([one]) == 0.004
    two = [
        DistanceMeasurement(10.0, 0.001, in_range=False),
        DistanceMeasurement(10.0, 0.003, in_range=False),
    ]
    assert mean_response_time(two) == 0.002
    with pytest.raises(ValueError):
        mean_response_time([])


def test_load_sensor_timings_bundled():
    samples = load_sensor_timings(data_path(SENSOR_TIMINGS_FILE))
    assert [(m.distance_cm, m.exec_time_s) for m in samples] == FIG6_ROWS
    assert mean_response_time(samples) == FIG6_MEAN
    flags = [m.in_range for m in samples]
    assert flags == [d >= 40.0 for d, _ in FIG6_ROWS]


def test_load_sensor_timings_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_sensor_timings(bad_header)
    bad_row = tmp_path / "r.csv"
    bad_row.write_text("distance_cm,exec_time_s\nfoo,0.1\n")
    with pytest.raises(ValueError):
        load_sensor_timings(bad_row)
    empty = tmp_path / "e.csv"
    empty.write_text("distance_cm,exec_time_s\n")
    with pytest.raises(ValueError):
        load_sensor_timings(empty)


def test_bench_csv_round_trips(tmp_path):
    samples = load_sensor_timings(data_path(SENSOR_TIMINGS_FILE))
    text = sensor_bench_csv(samples)
    assert text.splitlines()[-1] == "mean,0.007137478"
    out = tmp_path / "bench.csv"
    # the mean line is not a data row; drop it before re-parsing
    out.write_text("\n".join(text.splitlines()[:-1]) + "\n")
    again = load_sensor_timings(out)
    assert [(m.distance_cm, m.exec_time_s) for m in again] == [
        (m.distance_cm, m.exec_time_s) for m in samples
    ]


def test_config_invariants():
    with pytest.raises(ValueError):
        SensorConfig(speed_of_sound_mps=0.0)
    with pytest.raises(ValueError):
        SensorConfig(min_range_cm=300.0, max_range_cm=40.0)
    with pytest.raises(ValueError):
        SensorConfig(overhead_base_s=-0.1)
    with pytest.raises(ValueError):
        SensorConfig(jitter_std_s=-1.0)
    with pytest.raises(ValueError):
        EchoSample(-0.1)
    with pytest.raises(ValueError):
        DistanceMeasurement(10.0, 0.0, in_range=True)


@pytest.mark.parametrize("roundtrip_s", [math.nan, math.inf, -math.inf, -0.1])
def test_echo_sample_rejects_what_it_cannot_model(roundtrip_s):
    with pytest.raises(ValueError, match="^roundtrip_s must be finite and non-negative$"):
        EchoSample(roundtrip_s)


def test_default_model_magnitudes_match_reference_endpoints():
    # frozen overhead defaults should land in the same order of magnitude
    # as the measured endpoints
    cfg = SensorConfig(jitter_std_s=0.0)
    rng = random.Random(0)
    low = simulate_measurement(8.7, cfg, rng).exec_time_s
    high = simulate_measurement(161.0, cfg, rng).exec_time_s
    assert math.floor(math.log10(low)) == math.floor(math.log10(0.0037789))
    assert math.floor(math.log10(high)) == math.floor(math.log10(0.0161))
    assert high == pytest.approx(0.0221, abs=0.0005)


# --- simulate_measurement's unchecked build against DistanceMeasurement(...)

ZERO_CFG = SensorConfig(overhead_base_s=0.0, overhead_per_cm_s=0.0, jitter_std_s=0.0)


@st.composite
def _configs(draw) -> SensorConfig:
    low = draw(st.floats(0.01, 500.0))
    return SensorConfig(
        speed_of_sound_mps=draw(st.floats(1.0, 2000.0)),
        min_range_cm=low,
        max_range_cm=low + draw(st.floats(0.01, 1000.0)),
        overhead_base_s=draw(st.sampled_from([0.0, 0.003]) | st.floats(0.0, 0.1)),
        overhead_per_cm_s=draw(st.sampled_from([0.0, 6e-5]) | st.floats(0.0, 1e-3)),
        jitter_std_s=draw(st.sampled_from([0.0, 0.0015]) | st.floats(0.0, 0.05)),
    )


def _distances(cfg: SensorConfig):
    edges = [0.0, -0.0, cfg.min_range_cm, cfg.max_range_cm]
    return st.sampled_from(edges) | st.floats(min_value=0.0, max_value=1e6)


_CASES = (st.just(ZERO_CFG) | st.just(CFG) | _configs()).flatmap(
    lambda cfg: st.tuples(st.just(cfg), _distances(cfg))
)


def _oracle_exec_time(d: float, cfg: SensorConfig, rng: random.Random) -> float:
    base, per_cm, c = cfg.overhead_base_s, cfg.overhead_per_cm_s, cfg.speed_of_sound_mps
    jitter = rng.gauss(0.0, cfg.jitter_std_s) if cfg.jitter_std_s > 0 else 0.0
    return max(base + per_cm * d + 2.0 * (d / 100.0) / c + max(jitter, 0.0), 1e-12)


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    case=_CASES,
    t=st.floats(allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32),
)
@example(case=(ZERO_CFG, 0.0), t=0.0, seed=0)
@example(case=(ZERO_CFG, -0.0), t=-1.5, seed=0)
@example(case=(CFG, CFG.min_range_cm), t=1.0, seed=0)
@example(case=(CFG, CFG.max_range_cm), t=2.0, seed=0)
def test_simulate_measurement_matches_checked_build(case, t, seed):
    cfg, d = case
    rng, twin = random.Random(seed), random.Random(seed)
    m = simulate_measurement(d, cfg, rng, timestamp_s=t)

    checked = DistanceMeasurement(m.distance_cm, m.exec_time_s, m.in_range, m.timestamp_s)
    assert type(m) is DistanceMeasurement
    assert m == checked and hash(m) == hash(checked) and repr(m) == repr(checked)
    assert list(vars(m)) == list(vars(checked))
    with pytest.raises(FrozenInstanceError):
        m.distance_cm = 1.0

    assert _same_float(m.distance_cm, d) and _same_float(m.timestamp_s, t)
    assert m.in_range is (cfg.min_range_cm <= d <= cfg.max_range_cm)
    assert _same_float(m.exec_time_s, _oracle_exec_time(d, cfg, twin))
    assert rng.getstate() == twin.getstate()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(cfg=st.just(CFG) | _configs(), d=st.floats(max_value=-5e-324))
def test_simulate_measurement_rejects_negative_distance(cfg, d):
    with pytest.raises(ValueError, match=r"^true_distance_cm must be finite and non-negative$"):
        simulate_measurement(d, cfg, random.Random(0))


@pytest.mark.parametrize("nan", [math.nan, -math.nan, float("nan")])
def test_nan_distance_is_rejected(nan):
    rng = random.Random(0)
    with pytest.raises(ValueError, match=r"^true_distance_cm must be finite and non-negative$"):
        simulate_measurement(nan, CFG, rng)
    # the rejection comes before the jitter draw
    assert rng.getstate() == random.Random(0).getstate()
    with pytest.raises(ValueError, match=r"^distance_cm must be finite and non-negative$"):
        DistanceMeasurement(nan, 0.01, in_range=False)
    with pytest.raises(ValueError, match=r"^distance_cm must be non-negative$"):
        echo_from_distance(nan, CFG)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, math.nan, True), "exec_time_s must be finite and positive"),
        ((1.0, math.inf, True), "exec_time_s must be finite and positive"),
        ((1.0, 0.01, True, math.nan), "timestamp_s must be finite"),
        ((1.0, 0.01, True, -math.inf), "timestamp_s must be finite"),
        ((math.inf, 0.01, False), "distance_cm must be finite and non-negative"),
    ],
    ids=["nan-exec-time", "inf-exec-time", "nan-timestamp", "inf-timestamp", "inf-distance"],
)
def test_distance_measurement_rejects_what_it_cannot_model(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DistanceMeasurement(*args)


@pytest.mark.parametrize(
    "cfg, d, t, message",
    [
        (CFG, math.inf, 0.0, "true_distance_cm must be finite and non-negative"),
        (ZERO_CFG, math.inf, 0.0, "true_distance_cm must be finite and non-negative"),
        (CFG, 80.0, math.nan, "timestamp_s must be finite"),
        (CFG, 80.0, math.inf, "timestamp_s must be finite"),
        (SensorConfig(overhead_per_cm_s=1e300), 1e10, 0.0, "exec_time_s must be finite and positive"),
    ],
    ids=["inf-distance", "inf-distance-zero-config", "nan-timestamp", "inf-timestamp", "overflowing-exec-time"],
)
def test_simulate_measurement_rejects_what_the_constructor_rejects(cfg, d, t, message):
    # the unchecked build must equal DistanceMeasurement(...), so whatever
    # the constructor cannot model is rejected before the build
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate_measurement(d, cfg, random.Random(0), timestamp_s=t)
