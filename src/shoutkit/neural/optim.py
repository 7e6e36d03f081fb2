"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ShapeError
from .tensor import Tensor

BETA1 = 0.9         # first-moment decay
BETA2 = 0.999       # second-moment decay
EPSILON = 1e-8      # added to sqrt(v_hat)


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    lr: float = 1e-4
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


class Adam:
    """Updates parameters in place from their accumulated gradients.

    update = lr * m_hat / (sqrt(v_hat) + eps), with m_hat, v_hat the
    bias-corrected first and second moments.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = dict(params)
        self.state = AdamState(lr=lr)
        for name, p in self.params.items():
            self.state.first_moment[name] = np.zeros_like(p.data)
            self.state.second_moment[name] = np.zeros_like(p.data)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        """Update every parameter that has a gradient.

        Every gradient is checked first: one of the wrong shape, with a
        non-finite value or with a square that overflows its dtype (it would
        leave the second moment at inf for good) is refused before the step
        count, the moments or any parameter change.
        """
        s = self.state
        grads = {}
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
            if not _squares_finite(g):
                raise NumericError(f"non-finite gradient, or one whose square overflows "
                                   f"{g.dtype}, in parameter {name!r}")
            grads[name] = g
        s.step_count += 1
        correct1 = 1.0 - BETA1 ** s.step_count
        correct2 = 1.0 - BETA2 ** s.step_count
        for name, g in grads.items():
            m = s.first_moment[name]
            v = s.second_moment[name]
            scratch = np.empty_like(g)  # the one temporary, freed before the next
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=scratch)
            v *= BETA2
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - BETA2
            v += scratch
            np.divide(v, correct2, out=scratch)     # v_hat
            np.sqrt(scratch, out=scratch)
            scratch += EPSILON
            np.divide(m, scratch, out=scratch)
            scratch *= s.lr / correct1              # lr * m_hat / (sqrt(v_hat) + eps)
            self.params[name].data -= scratch
            del scratch


def _squares_finite(g: np.ndarray) -> bool:
    """Whether every element of ``g`` and its square are finite. One dot
    product decides the common case; a non-finite one is checked
    element-wise, so a gradient whose sum of squares overflows but whose
    every square fits passes."""
    flat = g.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.dot(flat, flat))) or bool(np.isfinite(np.square(g)).all())
