"""Small helpers for sidecar metadata files and CSV tables.

Sidecars are line-delimited ``key=value`` text files written next to binary
artifacts (spectrogram matrices) so every file is self-describing without a
database.  Each CSV table is a header row, then rows.
"""

from __future__ import annotations

from collections.abc import Iterator
import csv
from pathlib import Path


def write_sidecar(path: str | Path, fields: dict) -> None:
    """Write ``key=value`` lines; values are stringified as-is."""
    lines = [f"{k}={v}" for k, v in fields.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_sidecar(path: str | Path) -> dict[str, str]:
    """Read ``key=value`` lines back into a string dict."""
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """A header row, then each row of cells; the caller formats the cells."""
    with open(str(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path) -> Iterator[dict[str, str]]:
    """The data rows of a CSV file, one at a time, each keyed by the header row."""
    with open(str(path), newline="") as fh:
        yield from csv.DictReader(fh)
