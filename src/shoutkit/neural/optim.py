"""Adam optimizer with bias correction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ShapeError
from .tensor import Tensor

BETA1 = 0.9         # first-moment decay
BETA2 = 0.999       # second-moment decay
EPSILON = 1e-8      # added to sqrt(v_hat)
BLOCK_ELEMENTS = 32 * 1024  # elements per update block (see Adam)


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
    bias-corrected first and second moments. A step walks each parameter in
    blocks of leading-axis rows of about ``BLOCK_ELEMENTS`` elements, so a
    block's gradient, moments and parameter stay in cache through every
    operation; the one temporary is a block-sized buffer per parameter.
    Every element goes through the same operations in the same order as a
    one-pass update, so the result is the same to the bit, in any memory
    layout. ``zero_grad`` releases the gradients (``grad = None``).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = dict(params)
        self.state = AdamState(lr=lr)
        for name, p in self.params.items():
            self.state.first_moment[name] = np.zeros_like(p.data)
            self.state.second_moment[name] = np.zeros_like(p.data)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

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
            g = np.atleast_1d(g)    # a 0-d array as one row, a view
            blocks = _blocks(g)
            if not _squares_finite(g, blocks):
                raise NumericError(f"non-finite gradient, or one whose square overflows "
                                   f"{g.dtype}, in parameter {name!r}")
            grads[name] = g, blocks
        s.step_count += 1
        correct1 = 1.0 - BETA1 ** s.step_count
        correct2 = 1.0 - BETA2 ** s.step_count
        for name, (g, blocks) in grads.items():
            m_all, v_all, p_all = (np.atleast_1d(a) for a in (
                s.first_moment[name], s.second_moment[name], self.params[name].data))
            buffer = np.empty(g[blocks[0]].size, g.dtype)  # the one temporary
            for block in blocks:
                gb, m, v, p = g[block], m_all[block], v_all[block], p_all[block]
                scratch = buffer[: gb.size].reshape(gb.shape)
                m *= BETA1
                m += np.multiply(gb, 1.0 - BETA1, out=scratch)
                v *= BETA2
                np.multiply(gb, gb, out=scratch)
                scratch *= 1.0 - BETA2
                v += scratch
                np.divide(v, correct2, out=scratch)     # v_hat
                np.sqrt(scratch, out=scratch)
                scratch += EPSILON
                np.divide(m, scratch, out=scratch)
                scratch *= s.lr / correct1              # lr * m_hat / (sqrt(v_hat) + eps)
                p -= scratch
            del buffer


def _blocks(a: np.ndarray) -> list[slice]:
    """Slices of ``a``'s leading axis of about BLOCK_ELEMENTS elements each
    (at least one row), covering every row once; one empty slice if ``a``
    has no rows."""
    rows = max(1, BLOCK_ELEMENTS // max(1, math.prod(a.shape[1:])))
    return [slice(start, start + rows) for start in range(0, len(a), rows)] or [slice(0, 0)]


def _squares_finite(g: np.ndarray, blocks: list[slice]) -> bool:
    """Whether every element of ``g`` and its square are finite. One dot
    product per block decides the common case; a block whose dot product is
    not finite is checked element-wise, so a gradient whose sum of squares
    overflows but whose every square fits passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            part = g[block]
            flat = part.ravel()
            if not (np.isfinite(np.dot(flat, flat)) or np.isfinite(np.square(part)).all()):
                return False
    return True
