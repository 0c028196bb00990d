from pathlib import Path

import pytest

from percept_cane.resources import DATA_ENV_VAR, data_dir, data_path, resolve_table


def test_bundled_data_dir_contents():
    d = data_dir()
    assert (d / "fig6_sensor_timings.csv").is_file()
    assert (d / "fig8_models.csv").is_file()
    assert (d / "wordlist.txt").is_file()


def test_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
    assert data_dir() == tmp_path
    (tmp_path / "custom.csv").write_text("a,b\n")
    assert data_path("custom.csv") == tmp_path / "custom.csv"


def test_missing_data_file(monkeypatch, tmp_path):
    monkeypatch.setenv(DATA_ENV_VAR, str(tmp_path))
    with pytest.raises(FileNotFoundError, match="nope.csv"):
        data_path("nope.csv")


def test_resolve_table_default_reads_the_data_directory(tmp_path, monkeypatch):
    # a file of the default's name in the working directory is never read
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig8_models.csv").write_text("decoy\n")
    assert resolve_table(None, "fig8_models.csv") == data_dir() / "fig8_models.csv"
    other = tmp_path / "other"
    other.mkdir()
    (other / "fig8_models.csv").write_text("x\n")
    monkeypatch.setenv(DATA_ENV_VAR, str(other))
    assert resolve_table(None, "fig8_models.csv") == other / "fig8_models.csv"
    with pytest.raises(FileNotFoundError, match="bundled data file not found"):
        resolve_table(None, "fig10_models.csv")


def test_resolve_table_prefers_real_paths(tmp_path):
    real = tmp_path / "table.csv"
    real.write_text("x\n")
    assert resolve_table(real, "fig8_models.csv") == real
    assert resolve_table(str(real), "fig8_models.csv") == real


def test_resolve_table_falls_back_to_bundle():
    p = resolve_table("fig8_models.csv", "fig6_sensor_timings.csv")
    assert p.is_file()
    assert p.name == "fig8_models.csv"
    # a data/ prefix is tolerated for convenience
    assert resolve_table(Path("data") / "fig8_models.csv", "fig6_sensor_timings.csv") == p


def test_resolve_table_missing():
    with pytest.raises(FileNotFoundError):
        resolve_table("definitely_absent.csv", "fig8_models.csv")


@pytest.mark.parametrize(
    "path", ["/no/such/fig8_models.csv", "typo-dir/fig8_models.csv", "../fig8_models.csv"]
)
def test_resolve_table_keeps_a_missing_path_with_a_directory(path):
    # only a bare name or data/<name> falls back to the bundled file
    with pytest.raises(FileNotFoundError, match=f"^table not found: {Path(path)}$"):
        resolve_table(path, "fig8_models.csv")
