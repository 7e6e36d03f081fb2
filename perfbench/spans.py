"""Timing hooks placed around calls into shoutkit's modules.

Both hooks swap a module or class attribute for a wrapper and put the
original back on exit, so the program under test is run unmodified.

* ``StepClock`` is cheap enough for the timed end-to-end runs: it times each
  mini-batch step of ``train_model`` (from ``model.zero_grad()`` to the end of
  ``Adam.step()``) and keeps the step's loss and batch size.
* ``Tracer`` records one span per call at every module boundary the
  benchmark names (name, start, end, parent span, phase), keeps them in
  memory and summarises them into per-layer metrics. It runs only in the
  traced pass.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name: str, make_wrapper):
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            replacement = staticmethod(make_wrapper(getattr(owner, name)))
        else:
            replacement = make_wrapper(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, replacement)

    def restore(self):
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


@contextmanager
def installed(hook, sk):
    patches = Patches()
    hook.install(patches, sk)
    try:
        yield hook
    finally:
        patches.restore()


class StepClock:
    """Wall time, batch size and loss of every optimiser step.

    The first step of each optimiser (``step_count == 1``) is flagged as a
    warm-up step; the metrics leave those out.
    """

    def __init__(self):
        self.steps = []     # (seconds, batch, loss, warmup)
        self._start = None
        self._loss = None

    def install(self, patches: Patches, sk):
        clock = self

        def zero_grad(original):
            def timed(model):
                clock._start = time.perf_counter()
                clock._loss = None
                return original(model)
            return timed

        def loss(original):
            def recorded(pred, target, kind):
                out = original(pred, target, kind)
                if clock._start is not None:
                    clock._loss = (out, pred.data.shape[0])
                return out
            return recorded

        def step(original):
            def timed(optimizer):
                result = original(optimizer)
                if clock._start is not None and clock._loss is not None:
                    tensor, batch = clock._loss
                    clock.steps.append((time.perf_counter() - clock._start, batch,
                                        float(tensor.data), optimizer.state.step_count == 1))
                clock._start = None
                return result
            return timed

        patches.wrap(sk.models.NetworkGraph, "zero_grad", zero_grad)
        patches.wrap(sk.experiments.training, "loss_fn", loss)
        patches.wrap(sk.neural.Adam, "step", step)


# (owner, attribute, span name, per-call unit count or None); the owners are
# looked up on the imported package so the table is resolved at install time.
def _span_points(sk):
    training = sk.experiments.training
    blocks = lambda args, kwargs: len(args[1])
    return [
        (sk.experiments, "build_fold_data", "experiments.build_fold_data", None),
        (sk.experiments, "train_model", "experiments.train_model", None),
        (training, "train_model", "experiments.train_model", None),
        (sk.experiments, "evaluate_model", "experiments.evaluate_model", None),
        (sk.models.NetworkGraph, "forward", "models.forward", None),
        (training, "predict_clip", "models.predict_clip", blocks),
        (training, "loss_fn", "neural.loss", None),
        (sk.neural.Tensor, "backward", "neural.backward", None),
        (sk.neural.Adam, "step", "neural.Adam.step", None),
        (training, "feature_matrix", "features.feature_matrix", None),
        (training, "split_blocks", "features.split_blocks", None),
        (sk.features.FeatureStats, "fit", "features.FeatureStats.fit", None),
        (training, "mix_noise_at_snr", "audio_io.mix_noise_at_snr", None),
    ]


class Tracer:
    """In-memory spans: [id, name, parent id, start, end, phase, units].

    ``phase`` is set by the caller ("setup" or "pass") and tags every span
    opened while it holds.
    """

    def __init__(self):
        self.spans = []
        self.names = []     # span names in table order, reported even when never called
        self.phase = None
        self._open = []

    def install(self, patches: Patches, sk):
        for owner, attr, name, units in _span_points(sk):
            if name not in self.names:
                self.names.append(name)
            patches.wrap(owner, attr, lambda original, n=name, u=units: self._wrap(n, original, u))

    def _wrap(self, name, original, units):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [len(spans), name, stack[-1][0] if stack else None,
                    time.perf_counter(), None, self.phase,
                    units(args, kwargs) if units else None]
            spans.append(span)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, units."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[2] is not None:
                child_time[span[2]] += span[4] - span[3]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "units": 0} for name in self.names}
        for span in self.spans:
            entry = out[span[1]]
            duration = span[4] - span[3]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[span[0]]
            entry["units"] += span[6] or 0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"id": span[0], "name": span[1], "parent": span[2],
                                     "start": span[3], "end": span[4], "phase": span[5],
                                     "units": span[6]}) + "\n")
