"""Every text file the toolkit reads or writes: configs, descriptors, JSON
stats and reports, and CSVs. All are UTF-8, and a file that is not is a
FormatError whichever command reads it. CSVs are in the csv module's default
dialect: comma separated, quoted only where needed, lines ending in ``\\r\\n``.
Binary files (WAV, checkpoint, SKFB) are read through ``read_bytes`` and
written through ``write_bytes`` too, and output directories are made by
``make_dirs``, so a path that no file can have is a FormatError for every
reader and writer.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .errors import FormatError

ENCODING = "utf-8"


def _checked(path, what: str) -> Path:
    """``path`` as a Path. A path holding a NUL byte, which no file can have
    and for which ``open`` raises a bare ValueError, is a FormatError naming
    ``what``."""
    if "\0" in str(path):
        raise FormatError(f"{what} path {str(path)!r} holds a NUL byte")
    return Path(path)


def read_bytes(path, what: str) -> bytes:
    return _checked(path, what).read_bytes()


def write_bytes(path, data: bytes, what: str) -> None:
    _checked(path, what).write_bytes(data)


def make_dirs(path) -> Path:
    """Make the output directory ``path`` and its parents if they are missing."""
    path = _checked(path, "output directory")
    path.mkdir(parents=True, exist_ok=True)
    return path


def read_text(path, what: str) -> str:
    """The text of ``path`` with its line ends as stored; ``what`` names the
    file in the error raised when it is not UTF-8."""
    try:
        return read_bytes(path, what).decode(ENCODING)
    except UnicodeDecodeError:
        raise FormatError(f"{what} {path} is not UTF-8 text") from None


def write_text(path, text: str) -> None:
    write_bytes(path, text.encode(ENCODING), "output file")


def read_csv(path, what: str) -> list[list[str]]:
    """Every row of a CSV in file order, a blank line as an empty row."""
    try:
        return list(csv.reader(io.StringIO(read_text(path, what), newline="")))
    except csv.Error as exc:
        raise FormatError(f"{what} {path} is not a CSV: {exc}") from None


def write_csv(path, header: list, rows) -> None:
    rendered = io.StringIO(newline="")
    writer = csv.writer(rendered)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, rendered.getvalue())
