"""shoutkit benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload cnn_fusion_cell --seed 1 --seconds 30 --trace 0

Run from the repository root. ``--trace 0`` times whole passes of the
workload and prints the end-to-end metrics; ``--trace 1`` adds the layer
table, the model table and one traced pass, and prints the per-layer metrics.
Every metric is printed by name with its unit, then the correctness checks,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A result file with the machine
facts (and, when traced, a span file) is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tables
from spans import StepClock, Tracer, installed
from workloads import BATCH, make_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cnn_fusion_cell", "gru_train", "snr_sweep_eval")
SETUP_REPS = 5
TAIL_BEYOND = 10   # samples the tail percentile must leave above it


def import_shoutkit():
    """Import shoutkit from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "shoutkit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no shoutkit sources at {package}")
    sys.path.insert(0, str(package.parent))
    import shoutkit
    if Path(shoutkit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported shoutkit from {shoutkit.__file__}, not {package}")
    return shoutkit


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads(),
            "platform": platform.platform(), "seed": seed}


def tail(values: list) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 50, statistics.median(ordered)
    p = 100 * (n - TAIL_BEYOND) // n
    return p, ordered[math.ceil(p * n / 100) - 1]


def end_to_end(setup_times, results) -> tuple[dict, dict]:
    steps = [s for r in results for s in r.steps if not s[3]]
    # an epoch's short last batch is a step of another size: left out of the step times
    step_ms = [1e3 * s[0] for s in steps if s[1] == BATCH]
    tail_p, tail_ms = tail(step_ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(r.seconds for r in results), "s"),
        "train_blocks_per_s": (sum(s[1] for s in steps) / sum(s[0] for s in steps), "1/s"),
        "train_step_ms_p50": (statistics.median(step_ms), "ms"),
        "train_step_ms_tail": (tail_ms, "ms"),
        "eval_clip_conditions_per_s": (statistics.median(
            r.clips_per_call / s for r in results for s in r.clip_call_seconds), "1/s"),
        "eval_block_scores_per_s": (statistics.median(
            r.blocks_per_call / s for r in results for s in r.block_call_seconds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"train_step_ms_tail": {"percentile": tail_p, "samples": len(step_ms)},
               "passes": len(results), "setup_s_samples": setup_times,
               "pass_s_samples": [r.seconds for r in results], "step_ms_samples": step_ms}
    return metrics, details


def layer_unit(name: str) -> str:
    if name.endswith(".flops"):
        return "flop"
    return "bytes" if name.endswith(".bytes_computed") else "ms"


def per_layer(sk, workload, inputs, untraced, traced, tracer) -> dict:
    batches, labels = tables.block_batches(sk, inputs.examples)
    layer = tables.layer_table(sk, batches, inputs.cfg.seed)
    model_metrics, nodes = tables.model_table(sk, batches, labels, inputs.cfg.seed)
    metrics = {name: (value, layer_unit(name)) for name, value in {**layer, **model_metrics}.items()}
    spans = tracer.summary()
    for name, entry in spans.items():
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.s"] = (entry["s"], "s")
        if name.startswith("experiments.") or name == "models.predict_clip":
            metrics[f"{name}.self_s"] = (entry["self_s"], "s")
    predict = spans["models.predict_clip"]
    metrics["models.predict_clip.blocks_per_call"] = (predict["units"] / predict["calls"], "count")
    metrics["models.graph_nodes_per_step"] = (nodes[workload.graph_prefix], "count")
    metrics["features.train_x.bytes"] = (sum(a.nbytes for a in traced.data.train_x.values()),
                                         "bytes")
    metrics["bench.tracing_overhead_pct"] = (100.0 * (traced.seconds / untraced.seconds - 1.0),
                                             "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sk = import_shoutkit()
    reference = json.loads((HERE / "reference.json").read_text())
    workload = make_workloads(sk)[args.workload]
    facts = machine_facts(args.seed)

    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = workload.setup(sk, args.seed)
        setup_times.append(time.perf_counter() - start)

    results, crashed = [], 0
    tracer = Tracer()
    try:
        with installed(StepClock(), sk) as clock:
            if args.trace:
                # warm-up pass, traced pass, then the untraced pass the overhead
                # is measured against: a first pass is a few percent slower
                results.append(workload.run_pass(sk, inputs, clock))
                with installed(tracer, sk):
                    tracer.phase = "setup"
                    traced_inputs = workload.setup(sk, args.seed)
                    tracer.phase = "pass"
                    results.append(workload.run_pass(sk, traced_inputs, clock))
                results.append(workload.run_pass(sk, inputs, clock))
            else:
                for _ in range(max(1, int(args.seconds // workload.pass_seconds))):
                    results.append(workload.run_pass(sk, inputs, clock))
    except Exception:  # report the failed run instead of a bare traceback
        traceback.print_exc()
        crashed = 1

    checks = workload.check(sk, inputs, results, reference) if results else []
    failed = crashed + sum(not c.ok for c in checks)
    attempted = crashed + len(checks) + sum(
        len(r.steps) + (r.clips_per_call + r.blocks_per_call) * len(workload.snrs)
        for r in results)
    metrics, details = {}, {}
    if results and not crashed:
        if args.trace:
            metrics = per_layer(sk, workload, inputs, results[2], results[1], tracer)
        else:
            metrics, details = end_to_end(setup_times, results)

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        tracer.write(out_dir / f"{stem}_spans.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "details": details,
              "error_rate": failed / attempted,
              "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
              "metrics": reported}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2))

    print(f"machine: {json.dumps(facts)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:56s} {value:14.6g} {unit}")
    if "train_step_ms_tail" in metrics:
        t = details["train_step_ms_tail"]
        print(f"train_step_ms_tail is p{t['percentile']} of {t['samples']} steps")
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
