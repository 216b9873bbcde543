"""Small helpers for sidecar metadata files and CSV tables.

Sidecars are line-delimited ``key=value`` text files written next to binary
artifacts (spectrogram matrices) so every file is self-describing without a
database.  Each CSV table is a header row, then rows.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
import csv
from pathlib import Path
from typing import TextIO

from .errors import InvalidParamsError


def write_sidecar(path: str | Path, fields: dict) -> None:
    """Write ``key=value`` lines; values are stringified as-is."""
    lines = [f"{k}={v}" for k, v in fields.items()]
    Path(path).write_text("\n".join(lines) + "\n")


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` opened to read as UTF-8 text; bytes that are not UTF-8, met
    while the block reads, raise InvalidParamsError naming the first one's
    offset in the file."""
    try:
        with open(str(path), encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        # A text stream decodes in chunks, and its error counts from the chunk.
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidParamsError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                                     f"{exc.start}") from None
        raise


def read_sidecar(path: str | Path) -> dict[str, str]:
    """Read ``key=value`` lines back into a string dict; bytes that are not UTF-8
    raise InvalidParamsError."""
    with open_text(path) as fh:
        text = fh.read()
    out: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def parse_field(kind: type, fields: dict, key: str, where):
    """``kind(fields[key])`` for int or float; a value that is missing (or ``None``, as
    ``csv.DictReader`` fills a short row) or malformed raises InvalidParamsError."""
    text = fields.get(key)
    try:
        return kind(text)
    except (TypeError, ValueError):
        what = ("missing" if text is None else
                f"{text!r}, not {'an integer' if kind is int else 'a number'}")
        raise InvalidParamsError(f"{where}: {key} is {what}") from None


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """A header row, then each row of cells; the caller formats the cells."""
    with open(str(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def require_columns(path: str | Path, header, names) -> None:
    """Raise InvalidParamsError naming each of ``names`` that ``path``'s ``header`` lacks."""
    missing = [name for name in names if name not in header]
    if missing:
        raise InvalidParamsError(f"{path} lacks the column(s) {', '.join(missing)}")


def read_csv(path: str | Path, columns=()) -> Iterator[dict[str, str]]:
    """The data rows of a UTF-8 CSV file, one at a time, each keyed by the header
    row; a header that lacks one of ``columns``, or bytes that are not UTF-8,
    raise InvalidParamsError."""
    with open_text(path, newline="") as fh:
        rows = csv.DictReader(fh)
        require_columns(path, rows.fieldnames or [], columns)
        yield from rows
