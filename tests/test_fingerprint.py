"""fingerprint.py: two runs agree digest for digest, and the compare finds
and sizes a moved number."""

import base64
import json
import subprocess
import sys
from pathlib import Path

import fingerprint

SCRIPT = Path(__file__).resolve().parent / "fingerprint.py"


def test_two_processes_give_identical_digests(tmp_path, capsys):
    runs = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        subprocess.run([sys.executable, str(SCRIPT), str(out)], check=True, timeout=300)
        runs.append(json.loads(out.read_text()))
    first, second = runs
    assert len(first) == 3 * 2 * 2 * 3 + 2 + 3
    assert {name: g["sha256"] for name, g in first.items()} == \
        {name: g["sha256"] for name, g in second.items()}
    assert fingerprint.compare(tmp_path / "run0.json", tmp_path / "run1.json") == 0
    assert capsys.readouterr().out == f"0 of {len(first)} groups differ\n"

    # move the losses by a relative 1e-3 and one number in the suite's table
    losses = fingerprint._arrays(first["train.losses"])["train_loss"] * 1.001
    first["train.losses"]["arrays"]["train_loss"]["data"] = \
        base64.b64encode(losses.tobytes()).decode("ascii")
    first["train.losses"]["sha256"] = "moved"
    table = first["suite.aggregate.csv"]
    table["numbers"][-1] *= 1.5
    table["sha256"] = "moved"
    (tmp_path / "moved.json").write_text(json.dumps(first))
    assert fingerprint.compare(tmp_path / "moved.json", tmp_path / "run1.json") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("suite.aggregate.csv: largest relative difference 0.5 ")
    assert lines[1].startswith("train.losses: largest relative difference 0.001")
    assert lines[2] == f"2 of {len(first)} groups differ"
