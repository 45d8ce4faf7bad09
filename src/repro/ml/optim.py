"""First-order optimizers over lists of parameter arrays."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


class Adam:
    """Adam (Kingma & Ba) with the standard bias correction.

    Row ``i`` (index ``i`` on axis 0) of every parameter array is its own
    optimizer with its own step count, so one instance steps a ``(K, P)``
    stack of K models.  ``step(grads, rows=a)`` updates rows ``[:a]``
    only and leaves the others, moments and counts included, untouched;
    stepping every row every time is plain Adam.  The bias corrections
    ``1 - beta**t`` come from a table filled with Python float powers,
    the scalars a single-model step computes, so each row's update is
    bit for bit the one it would get alone.
    """

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float = 0.1,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if len({p.shape[:1] for p in params}) > 1 or any(p.ndim == 0 for p in params):
            raise TrainingError("parameter arrays must share their leading axis")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._t = np.zeros(len(params[0]) if params else 0, dtype=np.int64)
        self._bc1 = self._bc2 = np.ones(0)
        self._steps = 0  # bounds every row's count

    def step(self, grads: list[np.ndarray], rows: int | None = None) -> None:
        if len(grads) != len(self.params):
            raise TrainingError("gradient list length mismatch")
        self._steps += 1
        if self._steps >= self._bc1.size:
            ts = range(2 * self._steps)
            self._bc1 = np.array([1 - self.beta1**t for t in ts])
            self._bc2 = np.array([1 - self.beta2**t for t in ts])
        t = self._t[:rows]
        t += 1
        b1, b2 = self.beta1, self.beta2
        bc1, bc2 = self._bc1[t], self._bc2[t]
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            p, g, m, v = p[:rows], g[:rows], m[:rows], v[:rows]
            shape = (-1,) + (1,) * (p.ndim - 1)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / bc1.reshape(shape)) / (
                np.sqrt(v / bc2.reshape(shape)) + self.eps
            )

    def select(self, index: np.ndarray) -> None:
        """Keep only rows ``index`` of the parameters and their state;
        ``params`` then holds new arrays."""
        self.params = [p[index] for p in self.params]
        self._m = [m[index] for m in self._m]
        self._v = [v[index] for v in self._v]
        self._t = self._t[index]


class SGD:
    """Plain SGD with optional momentum (ablation baseline)."""

    def __init__(
        self,
        params: list[np.ndarray],
        lr: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise TrainingError("gradient list length mismatch")
        for p, g, v in zip(self.params, grads, self._velocity):
            v *= self.momentum
            v -= self.lr * g
            p += v
