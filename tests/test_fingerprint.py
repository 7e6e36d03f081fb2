"""fingerprint.py: two runs agree digest for digest, and the compare finds
and sizes a moved number."""

import base64
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import fingerprint

SCRIPT = Path(__file__).resolve().parent / "fingerprint.py"


def test_two_processes_give_identical_digests(tmp_path, capsys):
    runs = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        subprocess.run([sys.executable, str(SCRIPT), str(out)], check=True, timeout=300)
        runs.append(json.loads(out.read_text()))
    assert runs[0]["machine"] == runs[1]["machine"]
    assert runs[0]["machine"]["numpy"] == np.__version__
    first, second = (run["groups"] for run in runs)
    assert len(first) == 3 * 2 * 2 * 3 + 2 * 2 + 2 * 2 * 2 + 2 + 2 + 1 + 3 + 3 * 2 + 8
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
    (tmp_path / "moved.json").write_text(json.dumps({"machine": runs[0]["machine"],
                                                     "groups": first}))
    assert fingerprint.compare(tmp_path / "moved.json", tmp_path / "run1.json") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("suite.aggregate.csv: largest relative difference 0.5 ")
    assert lines[1].startswith("train.losses: largest relative difference 0.001")
    assert lines[2] == f"2 of {len(first)} groups differ"


def test_compare_names_a_thread_count_mismatch_before_the_groups(tmp_path, capsys):
    # the same groups, written at one and at two BLAS threads
    groups = {"train.losses": fingerprint.numeric_group({"train_loss": np.arange(3.0)})}
    facts = fingerprint.machine_facts()
    for name, threads in (("one.json", 1), ("two.json", 2)):
        (tmp_path / name).write_text(json.dumps({"machine": {**facts, "blas_threads": threads},
                                                 "groups": groups}))
    assert fingerprint.compare(tmp_path / "one.json", tmp_path / "two.json") == 0
    assert capsys.readouterr().out.splitlines() == [
        "machine facts differ: blas_threads 1 against 2", "0 of 1 groups differ"]
