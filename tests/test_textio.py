"""textio: one owner of the text encoding and the CSV dialect, and a guard
that no other source module reads or writes text by itself."""

import ast
import re
from pathlib import Path

import pytest

from shoutkit import textio
from shoutkit.audio_io import load_wav
from shoutkit.errors import FormatError
from shoutkit.features import load_blocks
from shoutkit.neural import load_checkpoint

SOURCE_ROOT = Path(textio.__file__).parent


def text_io_calls(source: str) -> list[int]:
    """Line numbers of the text I/O calls in ``source``: an ``open`` whose mode
    is not a binary literal, ``.read_text``, ``.write_text``, and the csv
    module's readers and writers."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)):
                lines.append(node.lineno)
        elif name in ("read_text", "write_text") and isinstance(func, ast.Attribute):
            lines.append(node.lineno)
        elif (name in ("reader", "writer", "DictReader", "DictWriter")
              and isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id == "csv"):
            lines.append(node.lineno)
    return sorted(lines)


def test_text_io_goes_through_textio_only():
    found = [f"{path.relative_to(SOURCE_ROOT)}:{line}"
             for path in sorted(SOURCE_ROOT.rglob("*.py")) if path.name != "textio.py"
             for line in text_io_calls(path.read_text(encoding="utf-8"))]
    assert not found, f"text I/O outside shoutkit.textio at {', '.join(found)}"


@pytest.mark.parametrize("snippet", [
    "open(path)", "open(path, 'w', newline='')", "open(path, mode='rt')",
    "Path(p).read_text()", "p.write_text(s)", "csv.reader(fh)", "csv.writer(fh)",
])
def test_guard_flags_each_form_of_text_io(snippet):
    assert text_io_calls(f"x = 1\n{snippet}\n") == [2]


@pytest.mark.parametrize("snippet", [
    "open(path, 'rb')", "open(path, mode='wb')", "wave.open(str(path), 'rb')",
    "Path(p).read_bytes()", "read_text(path, 'config')",
])
def test_guard_passes_binary_io_and_textio_calls(snippet):
    assert text_io_calls(snippet) == []


def test_non_utf8_text_is_a_format_error_naming_the_file(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"seed = 1  # caf\xe9\n")
    with pytest.raises(FormatError, match=re.escape(f"config {path} is not UTF-8 text")):
        textio.read_text(path, "config")
    with pytest.raises(FormatError, match="manifest .* is not UTF-8 text"):
        textio.read_csv(path, "manifest")


@pytest.mark.parametrize("read", [lambda p: textio.read_text(p, "config"), load_wav,
                                  load_checkpoint, load_blocks],
                         ids=["text", "wav", "checkpoint", "block-container"])
def test_a_path_holding_a_nul_byte_is_a_format_error(tmp_path, read):
    # open raises a bare ValueError for it, which the CLI would not map
    with pytest.raises(FormatError, match="holds a NUL byte"):
        read(tmp_path / "a\0b")


def test_csv_field_over_the_csv_module_limit_is_a_format_error(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a" * 200_000 + ",x\n")
    with pytest.raises(FormatError, match="manifest .* is not a CSV"):
        textio.read_csv(path, "manifest")


def test_csv_is_utf8_with_crlf_line_ends_and_round_trips(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["café", 1], ["a,b", "say \"hi\""], ["", 2.5]]
    textio.write_csv(path, ["name", "value"], rows)
    raw = path.read_bytes()
    assert raw.startswith(b"name,value\r\ncaf\xc3\xa9,1\r\n") and raw.endswith(b"\r\n")
    assert textio.read_csv(path, "table") == [["name", "value"]] + [
        [str(v) for v in row] for row in rows]


def test_text_keeps_its_line_ends(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"a = 1\r\nb = 2\n")
    assert textio.read_text(path, "config") == "a = 1\r\nb = 2\n"
    textio.write_text(path, "k = é\n")
    assert path.read_bytes() == b"k = \xc3\xa9\n"
