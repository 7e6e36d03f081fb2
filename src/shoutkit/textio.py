"""Every text file the toolkit reads or writes: configs, descriptors, JSON
stats and reports, and CSVs. All are UTF-8, and a file that is not is a
FormatError whichever command reads it. CSVs are in the csv module's default
dialect: comma separated, quoted only where needed, lines ending in ``\\r\\n``.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .errors import FormatError

ENCODING = "utf-8"


def read_text(path, what: str) -> str:
    """The text of ``path`` with its line ends as stored; ``what`` names the
    file in the error raised when it is not UTF-8."""
    try:
        return Path(path).read_bytes().decode(ENCODING)
    except UnicodeDecodeError:
        raise FormatError(f"{what} {path} is not UTF-8 text") from None


def write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding=ENCODING)


def read_csv(path, what: str) -> list[list[str]]:
    """Every row of a CSV in file order, a blank line as an empty row."""
    try:
        return list(csv.reader(io.StringIO(read_text(path, what), newline="")))
    except csv.Error as exc:
        raise FormatError(f"{what} {path} is not a CSV: {exc}") from None


def write_csv(path, header: list, rows) -> None:
    with open(path, "w", encoding=ENCODING, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
