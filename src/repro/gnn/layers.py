"""Neural-network layers with manual forward/backward passes (numpy only).

The paper's model (Table II) is a GraphSAGE network with mean aggregation and
concatenation: an input dense layer lifting the raw features to the hidden
width, two SAGE layers whose weight matrices are ``[2*hidden, hidden]``
(concatenation of self and neighbour states), and a dense softmax classifier.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["DenseLayer", "GraphSageLayer", "Dropout", "glorot"]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class DenseLayer:
    """Fully connected layer ``Y = act(X W + b)``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        activation: Optional[str] = "relu",
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        self.weight = glorot(rng, in_dim, out_dim)
        self.bias = np.zeros(out_dim)
        self.activation = activation
        self._cache: Dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        z = x @ self.weight + self.bias
        out = np.maximum(z, 0.0) if self.activation == "relu" else z
        self._cache = {"x": x, "z": z}
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, z = self._cache["x"], self._cache["z"]
        if self.activation == "relu":
            grad_out = grad_out * (z > 0)
        self.grad_weight = x.T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    @property
    def parameters(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]

    def __getstate__(self) -> Dict[str, object]:
        # The last forward pass's activations are scratch, not model state.
        return {**self.__dict__, "_cache": {}}


class GraphSageLayer:
    """GraphSAGE layer with mean aggregation and concatenation.

    ``h_i' = act( [ h_i || mean_{j in N(i)} h_j ] W + b )`` where the mean is
    computed with the row-normalised adjacency operator passed to ``forward``.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        activation: Optional[str] = "relu",
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        self.weight = glorot(rng, 2 * in_dim, out_dim)
        self.bias = np.zeros(out_dim)
        self.activation = activation
        self.in_dim = in_dim
        self._cache: Dict[str, object] = {}

    def forward(
        self, x: np.ndarray, adj_norm: sp.csr_matrix, training: bool = False
    ) -> np.ndarray:
        neighbour_mean = adj_norm @ x
        h = np.concatenate([x, neighbour_mean], axis=1)
        z = h @ self.weight + self.bias
        out = np.maximum(z, 0.0) if self.activation == "relu" else z
        self._cache = {"h": h, "z": z, "adj": adj_norm}
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        h, z, adj = self._cache["h"], self._cache["z"], self._cache["adj"]
        if self.activation == "relu":
            grad_out = grad_out * (z > 0)
        self.grad_weight = h.T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        grad_h = grad_out @ self.weight.T
        grad_self = grad_h[:, : self.in_dim]
        grad_neigh = grad_h[:, self.in_dim:]
        return grad_self + adj.T @ grad_neigh

    @property
    def parameters(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]

    def __getstate__(self) -> Dict[str, object]:
        # The last forward pass's activations are scratch, not model state.
        return {**self.__dict__, "_cache": {}}


class Dropout:
    """Inverted dropout."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask

    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "_mask": None}
