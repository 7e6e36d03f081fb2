"""Mutation check: does the fast test suite catch each listed fault?

    python tests/mutants.py              # run every mutant
    python tests/mutants.py NAME ...     # run the named mutants only
    python tests/mutants.py --list       # list the mutants and stop

Each entry of ``MUTANTS`` is a fault written as a text edit: the file under
``src/shoutkit``, the exact old text (it must occur once in that file), the
new text, and what the edit breaks. For each mutant the script copies
``src/``, ``tests/``, ``perfbench/``, ``demos/`` and the top-level files the
tests read into a fresh temporary directory, applies the edit to the copy,
and runs the fast tests there: ``pytest -x -q`` over every test except
acceptance c06-c08 (and this script's own text check, which the edit would
trip). The source tree is never edited. A mutant is caught when pytest
reports a failure and survived when every test passes; any other pytest
exit is reported as an error. The unmutated copy runs first and must pass,
or the script stops: a failure there would count every mutant as caught.
Each run costs about half a minute on two cores. The script prints one row
per mutant and exits 1 unless every mutant was caught.

A survivor needs a test that fails on it, or a note in its ``breaks`` text
saying why it is equivalent. ``tests/test_mutants.py`` checks in tier-1 only
that every old text still occurs exactly once, so the list cannot rot.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shoutkit"
COPIED = ("src", "tests", "perfbench", "demos", "BENCHMARK.json", "pyproject.toml")
FAST_TESTS = ["-x", "-q", "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py",
              "-k", "not test_c06 and not test_c07 and not test_c08"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/shoutkit
    old: str
    new: str
    breaks: str


MUTANTS = [
    Mutant("stats_std_floor", "features.py",
           "std = np.maximum(pooled.std(axis=1), 1e-8)",
           "std = np.maximum(pooled.std(axis=1), 1e-3)",
           "a dimension whose spread is below 1e-3 is no longer scaled to unit spread"),
    Mutant("val_loss_tie", "experiments/training.py",
           "if has_val and val_loss < log.best_val_loss:",
           "if has_val and val_loss <= log.best_val_loss:",
           "a tie in validation loss keeps the later epoch"),
    Mutant("pool_first_max", "neural/layers.py",
           "greater = rows[:, :, r] > out",
           "greater = rows[:, :, r] >= out",
           "a tied pooling window routes its gradient to the last maximum"),
    Mutant("adam_epsilon", "neural/optim.py",
           "EPSILON = 1e-8",
           "EPSILON = 1e-6",
           "Adam's step adds the wrong epsilon to sqrt(v_hat)"),
    Mutant("adam_second_moment_correction", "neural/optim.py",
           "np.divide(v, correct2, out=scratch)",
           "np.divide(v, 1.0, out=scratch)",
           "Adam drops the second moment's bias correction"),
    Mutant("binary_decision", "models.py",
           "return (rows[:, 0] > 0.5)",
           "return (rows[:, 0] >= 0.5)",
           "a binary probability of exactly 0.5 counts as a shout"),
    Mutant("spectrogram_log_floor", "features.py",
           "feats = np.log(np.maximum(power, LOG_FLOOR))",
           "feats = np.log(np.maximum(power, 1e-12))",
           "the spectrogram floors power at 1e-12 instead of LOG_FLOOR"),
    Mutant("unpool_dropped_rows", "neural/layers.py",
           "d_y[:, ho * kernel :] = 0",
           "d_y[:, ho * kernel :] = d_y[:, ho * kernel :]",
           "the rows pooling dropped keep whatever the gradient buffer held"),
    Mutant("conv_buffer_dtype", "neural/layers.py",
           "d_y = np.empty((out_ch, ho, *g.shape[2:]), g.dtype)",
           "d_y = np.empty((out_ch, ho, *g.shape[2:]), x.dtype)",
           "a float64 pool gradient is unpooled into a float32 buffer"),
    Mutant("conv_stack_want_x", "neural/layers.py",
           "s > 0 or x.requires_grad, best, kernel)",
           "s > 0, best, kernel)",
           "the conv stack gives no input gradient to an x that needs one"),
    Mutant("relu_mask", "neural/layers.py",
           'g = np.multiply(g, out > 0.0, order="C")',
           'g = np.multiply(g, out >= 0.0, order="C")',
           "the conv stack's ReLU passes gradient where its output is 0"),
    Mutant("bigru_final_step", "neural/layers.py",
           "np.concatenate([fwd.data[:, -1], bwd.data[:, 0]], axis=1)",
           "np.concatenate([fwd.data[:, -1], bwd.data[:, -1]], axis=1)",
           "the BiGRU's backward direction reports its first step, not its last"),
    Mutant("mlp_pair", "models.py",
           "if len(kinds) > 1:",
           "if len(kinds) > 2:",
           "check_cell lets the baseline MLP fuse"),
    Mutant("snr_bound", "experiments/config.py",
           "math.isfinite(snr_db) and snr_db >= MIN_SNR_DB",
           "math.isfinite(snr_db)",
           "an SNR below MIN_SNR_DB is accepted"),
    Mutant("empty_batch_chunk", "neural/layers.py",
           "* kw * max(1, step)))",
           "* kw * step))",
           "an empty batch through a conv ends in ZeroDivisionError"),
    Mutant("fusion_block_counts", "models.py",
           "if len(x[0]) != len(x[1]):",
           "if False:",
           "a fusion pair of unequal block counts runs both branches"),
    Mutant("pooled_heights", "models.py",
           "return dim // k, dim // k ** 2, dim // k ** 3",
           "return (dim + 2) // k, dim // k ** 2, dim // k ** 3",
           "the first stage's height rounds up for some dims (not 512 or 30)"),
    Mutant("conv_kernel_check", "neural/layers.py",
           "if ho < 1 or wo < 1:",
           "if ho < 0 or wo < 0:",
           "a kernel one row larger than the padded input is not refused"),
    Mutant("pooled_chunk_windows", "neural/layers.py",
           "rows = max(window, rows - rows % window)",
           "rows = max(window, rows)",
           "a pooled conv chunk ends inside a window, so later windows start off their rows"),
    Mutant("chunk_bias_sum", "neural/layers.py",
           "d_bias += g_chunk.sum(axis=1)",
           "d_bias = g_chunk.sum(axis=1)",
           "a conv's bias gradient keeps only its last row chunk's sum"),
    Mutant("train_release", "experiments/training.py",
           "    optimizer.zero_grad()\n    return log",
           "    return log",
           "a trained model keeps its last step's gradients"),
    Mutant("step_graph_kept", "experiments/training.py",
           "del out, batch_loss",
           "del out",
           "a step's loss graph stays alive through the next step's forward"),
    Mutant("model_zero_fill", "models.py",
           "            p.grad = None",
           "            p.zero_grad()",
           "model.zero_grad() allocates zero-filled gradients again"),
    Mutant("first_contribution_copy", "neural/tensor.py",
           "np.add(grad_in, np.zeros((), parent.data.dtype))",
           "np.array(grad_in, copy=True)",
           "a released gradient keeps a -0.0 that zero-filling would turn into +0.0"),
    Mutant("adam_block_end", "neural/optim.py",
           "slice(start, start + rows)",
           "slice(start, start + rows - 1)",
           "each Adam block stops one row short, so one row per block is never updated"),
    Mutant("checkpoint_finite", "neural/checkpoint.py",
           "if not np.isfinite(payload).all():",
           "if False:",
           "a checkpoint holding NaN loads, and evaluate writes NaN metrics"),
    Mutant("gru_keeps_projection", "neural/layers.py",
           "d_gi = np.empty((steps, n, 3 * k), states.dtype)",
           "d_gi = np.empty_like(gi)",
           "a recorded GRU direction keeps its (T, N, 3k) input projection"),
    Mutant("conv_operands_through_d_x", "neural/layers.py",
           "    del operands, operand  # the last views of the rebuilt buffer\n",
           "",
           "a conv's rebuilt operands stay alive while its input gradient builds its own"),
    Mutant("width_edge_zeroing", "neural/layers.py",
           "taps[:, j, ra:rb, :xa] = taps[:, j, ra:rb, xb:] = 0",
           "taps[:, j, ra:rb, :xa] = 0",
           "the width taps' right edges hold whatever memory the allocator handed back"),
    Mutant("four_class_target_dtype", "models.py",
           "return y.astype(np.int64)",
           "return y.astype(dtype)",
           "four-class targets are cast to the model dtype instead of int64 class indices"),
    Mutant("regression_scale", "models.py",
           "T.add(T.mul(T.sigmoid(z), 6.0), 1.0)",
           "T.add(T.mul(T.sigmoid(z), 5.0), 1.0)",
           "the regression head maps onto [1, 6] instead of the 1-7 intensity scale"),
    Mutant("fusion_shuffle_tag", "experiments/training.py",
           '"shuffle.fusion")',
           '"shuffle")',
           "the fusion stage shuffles with another seed than its documented one"),
    Mutant("write_nul_check", "textio.py",
           "_checked(path, what).write_bytes(data)",
           "Path(path).write_bytes(data)",
           "a NUL byte in an output path ends in a bare ValueError and a traceback"),
]


def mutated_source(mutant: Mutant) -> str:
    """The text of ``mutant``'s source file with the edit applied."""
    source = (SRC / mutant.path).read_text()
    count = source.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    return source.replace(mutant.old, mutant.new)


def run(mutant: Mutant | None) -> tuple[str, float]:
    """Run the fast tests against a copy with ``mutant`` applied (None: the
    unmutated copy); returns (result, seconds)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", "results"))
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            (copy / "src" / "shoutkit" / mutant.path).write_text(mutated_source(mutant))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", *FAST_TESTS, "tests"], cwd=copy,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
    result = {0: "survived", 1: "caught"}.get(done.returncode, f"error {done.returncode}")
    return result, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and stop")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or MUTANTS
    width = max(len(m.name) for m in chosen)
    if args.list:
        for m in chosen:
            print(f"{m.name:<{width}}  {m.path}: {m.breaks}")
        return 0
    result, seconds = run(None)
    passed = result == "survived"
    print(f"{'(unmutated)':<{width}}  {'passes' if passed else result:<8}  {seconds:5.1f} s",
          flush=True)
    if not passed:
        print("the unmutated copy does not pass the fast tests; no mutant was run")
        return 2
    caught = 0
    for m in chosen:
        result, seconds = run(m)
        caught += result == "caught"
        print(f"{m.name:<{width}}  {result:<8}  {seconds:5.1f} s  {m.breaks}", flush=True)
    print(f"{caught} of {len(chosen)} caught")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
