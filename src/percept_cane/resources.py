"""Location of the bundled reference data files.

The package ships its reference tables (sensor timings, model comparison
tables, OCR engine profiles, the class vocabulary, the word list and a demo
scenario) under ``percept_cane/data``. The ``PERCEPT_CANE_DATA`` environment
variable points lookups at a different directory instead, e.g. to swap in
locally re-measured tables without touching the install.
"""

from __future__ import annotations

import os
from pathlib import Path

DATA_ENV_VAR = "PERCEPT_CANE_DATA"


def data_dir() -> Path:
    """Directory holding the bundled data files (env override wins)."""
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def data_path(name: str) -> Path:
    """Resolve a bundled data file by name.

    Raises FileNotFoundError if the file does not exist in the active data
    directory.
    """
    path = data_dir() / name
    if not path.is_file():
        raise FileNotFoundError(f"bundled data file not found: {path}")
    return path


def resolve_table(path_or_name: str | Path | None, default_name: str) -> Path:
    """Resolve a table option: the one rule for where a table is read from.

    None names the bundled ``default_name``, never a file in the working
    directory. A path that exists is used as given. A missing bare name or
    ``data/<name>`` is looked up in the bundled data directory, so
    ``data/fig8_models.csv`` works from any working directory; any other
    missing path raises FileNotFoundError, as does a value that names no
    file (``""``, ``.`` or ``..``).
    """
    if path_or_name is None:
        return data_path(default_name)
    p = Path(path_or_name)
    if p.is_file():
        return p
    if p.parent not in (Path(), Path("data")):
        raise FileNotFoundError(f"table not found: {p}")
    if p.name in ("", ".."):  # "" and "." both parse to the empty name
        raise FileNotFoundError(f"table not found: {str(path_or_name)!r}")
    return data_path(p.name)
