"""A small feedforward network in pure NumPy.

The paper's classifier: 4 fully connected layers shaped
``6 -> 12 -> 12 -> 6 -> 1`` (325 parameters), ReLU hidden activations,
sigmoid output, Xavier-initialized weights with zero biases.  Training
(backprop) and the deployment trick — folding the mean-variance
normalization into the first layer so batched inference is a handful of
matmuls — both live here.

All weights and biases are views into one contiguous float64 buffer,
``MLP.flat``, laid out ``w0, b0, w1, b1, ...`` (the order of
:meth:`MLP.get_parameters`).  The trainer steps Adam once over that
buffer instead of once per array, and :meth:`MLP.backprop_into` writes
the gradients into the same views of a second buffer.  Every update is
elementwise, so the per-element arithmetic — and every trained bit — is
the same as stepping each array on its own.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError

PAPER_LAYERS = (6, 12, 12, 6, 1)


class MLP:
    """Feedforward ReLU network with a single sigmoid output."""

    def __init__(
        self,
        layer_sizes: tuple[int, ...] = PAPER_LAYERS,
        seed: int = 0,
    ) -> None:
        if len(layer_sizes) < 2:
            raise TrainingError("need at least input and output layer sizes")
        if layer_sizes[-1] != 1:
            raise TrainingError("the ELF classifier has a single output unit")
        self.layer_sizes = tuple(layer_sizes)
        size = sum((n_in + 1) * n_out for n_in, n_out in self._shapes())
        self.flat = np.zeros(size)
        self.weights, self.biases = self.parameter_views(self.flat)
        rng = np.random.default_rng(seed)
        for w in self.weights:
            # Xavier/Glorot uniform, biases zero (paper SS IV-A).
            n_in, n_out = w.shape
            bound = float(np.sqrt(6.0 / (n_in + n_out)))
            w[...] = rng.uniform(-bound, bound, size=(n_in, n_out))

    def _shapes(self) -> list[tuple[int, int]]:
        return list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))

    def parameter_views(
        self, buffer: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a flat buffer shaped like
        :attr:`flat` (layout ``w0, b0, w1, b1, ...``)."""
        if buffer.shape != self.flat.shape:
            raise TrainingError("parameter buffer shape mismatch")
        weights, biases = [], []
        offset = 0
        for n_in, n_out in self._shapes():
            weights.append(buffer[offset : offset + n_in * n_out].reshape(n_in, n_out))
            offset += n_in * n_out
            biases.append(buffer[offset : offset + n_out])
            offset += n_out
        return weights, biases

    @property
    def n_parameters(self) -> int:
        return self.flat.size

    # -- inference ---------------------------------------------------------

    def forward_logits(self, x: np.ndarray) -> np.ndarray:
        """Logits for a batch ``(n, d_in)``; returns shape ``(n,)``."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.layer_sizes[0]:
            raise TrainingError(
                f"expected (n, {self.layer_sizes[0]}) input, got {h.shape}"
            )
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h[:, 0]

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Sigmoid probabilities for a batch."""
        return sigmoid(self.forward_logits(x))

    # -- training support ----------------------------------------------------

    def forward_cached(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Forward pass retaining pre-activation inputs for backprop.

        Returns ``(layer_inputs, logits)`` where ``layer_inputs[i]`` is the
        input fed to layer ``i``.
        """
        h = np.asarray(x, dtype=np.float64)
        inputs = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            h = h @ w
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return inputs, h[:, 0]

    def backprop(
        self,
        layer_inputs: list[np.ndarray],
        dlogits: np.ndarray,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradients of all weights/biases given dLoss/dLogits."""
        grad_w, grad_b = self.parameter_views(np.empty_like(self.flat))
        self.backprop_into(layer_inputs, dlogits, grad_w, grad_b)
        return grad_w, grad_b

    def backprop_into(
        self,
        layer_inputs: list[np.ndarray],
        dlogits: np.ndarray,
        grad_w: list[np.ndarray],
        grad_b: list[np.ndarray],
    ) -> None:
        """:meth:`backprop` writing into preallocated gradient arrays
        (views of one flat buffer, from :meth:`parameter_views`)."""
        delta = dlogits[:, None]  # (n, 1)
        for i in range(len(self.weights) - 1, -1, -1):
            x_in = layer_inputs[i]
            np.matmul(x_in.T, delta, out=grad_w[i])
            np.add.reduce(delta, axis=0, out=grad_b[i])
            if i > 0:
                delta = delta @ self.weights[i].T
                # ReLU derivative: the layer-(i) input is the ReLU output
                # of layer i-1, so its positive entries mark active units.
                delta *= x_in > 0.0

    # -- parameter plumbing ---------------------------------------------------

    def get_parameters(self) -> list[np.ndarray]:
        return [a for pair in zip(self.weights, self.biases) for a in pair]

    def set_parameters(self, params: list[np.ndarray]) -> None:
        """Copy ``params`` (in :meth:`get_parameters` order) into place."""
        if len(params) != 2 * len(self.weights):
            raise TrainingError("parameter list length mismatch")
        for dst, src in zip(self.get_parameters(), params):
            if np.shape(src) != dst.shape:
                raise TrainingError("parameter shape mismatch")
            dst[...] = src

    def copy(self) -> "MLP":
        dup = MLP(self.layer_sizes)
        dup.set_parameters(self.get_parameters())
        return dup

    # Pickle the buffer alone: pickling the views would store copies, and
    # the unpickled weights would no longer alias ``flat``.
    def __getstate__(self) -> dict:
        return {"layer_sizes": self.layer_sizes, "flat": self.flat}

    def __setstate__(self, state: dict) -> None:
        self.layer_sizes = state["layer_sizes"]
        self.flat = state["flat"]
        self.weights, self.biases = self.parameter_views(self.flat)

    # -- deployment ---------------------------------------------------------

    def fuse_normalization(self, mean: np.ndarray, std: np.ndarray) -> "MLP":
        """Fold ``(x - mean) / std`` into the first layer.

        Returns a network with identical outputs on *raw* features — the
        paper's merged Mean-Variance-Normalization node, which removes the
        per-batch normalization pass at inference time.
        """
        mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        if mean.shape != (self.layer_sizes[0],) or std.shape != mean.shape:
            raise TrainingError("normalization stats shape mismatch")
        if np.any(std <= 0):
            raise TrainingError("std must be strictly positive")
        fused = self.copy()
        fused.weights[0][...] = self.weights[0] / std[:, None]
        fused.biases[0][...] = self.biases[0] - (mean / std) @ self.weights[0]
        return fused


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, without boolean masks.

    ``e = exp(-|z|)`` never overflows; ``1 / (1 + e)`` serves ``z >= 0``
    and ``e / (1 + e)`` the rest.  Per element this is the same
    arithmetic as the masked two-branch form, so the results are bitwise
    equal to it.  ``minimum(z, -z)`` rather than ``-abs(z)`` keeps a
    NaN's sign bit, which the masked form passes through unchanged.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
