"""The GNNUnlock node-classification model.

Architecture (paper Table II, hidden width configurable):

* input dense layer  ``[|f|, hidden]`` + ReLU,
* GraphSAGE layer 1  ``[2*hidden, hidden]`` (mean + concatenation) + ReLU,
* GraphSAGE layer 2  ``[2*hidden, hidden]`` + ReLU,
* output dense layer ``[hidden, n_classes]`` + softmax,
* dropout 0.1 in front of every trainable layer, Adam optimiser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .layers import DenseLayer, Dropout, GraphSageLayer

__all__ = ["GnnConfig", "GraphSageClassifier", "softmax", "cross_entropy_loss"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift for numerical stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy_loss(
    probs: np.ndarray,
    labels: np.ndarray,
    *,
    sample_weight: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Mean weighted cross-entropy and its gradient w.r.t. the logits."""
    n = probs.shape[0]
    if n == 0:
        return 0.0, np.zeros_like(probs)
    eps = 1e-12
    picked = probs[np.arange(n), labels]
    losses = -np.log(picked + eps)
    if sample_weight is None:
        sample_weight = np.ones(n)
    weight_sum = sample_weight.sum() + eps
    loss = float((losses * sample_weight).sum() / weight_sum)
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad *= (sample_weight / weight_sum)[:, None]
    return loss, grad


@dataclass(frozen=True)
class GnnConfig:
    """Hyper-parameters of the GNNUnlock model and its training loop.

    The defaults follow the paper (Table II) except for ``hidden_dim`` and the
    epoch budget, which are scaled down so training completes in seconds on a
    CPU; both can be restored to the paper's values (512 / 2000).
    """

    n_features: int = 13
    n_classes: int = 2
    hidden_dim: int = 64
    dropout: float = 0.1
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    epochs: int = 120
    patience: int = 30
    eval_every: int = 5
    class_weighting: bool = True
    sampler: str = "random_walk"
    walk_length: int = 2
    root_nodes: int = 3000
    seed: int = 0

    def describe(self) -> Dict[str, object]:
        """Table II-style description of the configuration."""
        return {
            "Input Layer": f"[{self.n_features}, {self.hidden_dim}]",
            "Hidden Layer 1": f"[{2 * self.hidden_dim}, {self.hidden_dim}]",
            "Hidden Layer 2": f"[{2 * self.hidden_dim}, {self.hidden_dim}]",
            "Output Layer": f"[{self.hidden_dim}, {self.n_classes}]",
            "Aggregation": "Mean with concatenation",
            "Activation": "ReLU",
            "Classification": "Softmax",
            "Optimizer": "Adam",
            "Learning Rate": self.learning_rate,
            "Dropout": self.dropout,
            "Sampler": "Random Walk" if self.sampler == "random_walk" else self.sampler,
            "Walk Length": self.walk_length,
            "Root Nodes": self.root_nodes,
            "Max # Epochs": self.epochs,
        }


class GraphSageClassifier:
    """Two-SAGE-layer node classifier with manual numpy backpropagation."""

    def __init__(self, config: GnnConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.hidden_dim
        self.input_layer = DenseLayer(config.n_features, d, activation="relu", rng=rng)
        self.sage1 = GraphSageLayer(d, d, activation="relu", rng=rng)
        self.sage2 = GraphSageLayer(d, d, activation="relu", rng=rng)
        self.output_layer = DenseLayer(d, config.n_classes, activation=None, rng=rng)
        self.dropouts = [Dropout(config.dropout, rng) for _ in range(4)]
        self._layers = [self.input_layer, self.sage1, self.sage2, self.output_layer]

    # ------------------------------------------------------------------
    def forward(
        self,
        features: np.ndarray,
        adj_norm: sp.csr_matrix,
        *,
        training: bool = False,
    ) -> np.ndarray:
        """Return class probabilities for every node."""
        h = self.dropouts[0].forward(features, training)
        h = self._step(self.input_layer, training, h)
        h = self.dropouts[1].forward(h, training)
        h = self._step(self.sage1, training, h, adj_norm)
        h = self.dropouts[2].forward(h, training)
        h = self._step(self.sage2, training, h, adj_norm)
        h = self.dropouts[3].forward(h, training)
        logits = self._step(self.output_layer, training, h)
        return softmax(logits)

    @staticmethod
    def _step(layer, training: bool, *inputs) -> np.ndarray:
        out = layer.forward(*inputs, training=training)
        if not training:
            # No backward pass follows inference: free the saved activations
            # now rather than holding every layer's until the next pass.
            layer._cache = {}
        return out

    def backward(self, grad_logits: np.ndarray) -> None:
        grad = self.output_layer.backward(grad_logits)
        grad = self.dropouts[3].backward(grad)
        grad = self.sage2.backward(grad)
        grad = self.dropouts[2].backward(grad)
        grad = self.sage1.backward(grad)
        grad = self.dropouts[1].backward(grad)
        grad = self.input_layer.backward(grad)
        self.dropouts[0].backward(grad)

    def predict(self, features: np.ndarray, adj_norm: sp.csr_matrix) -> np.ndarray:
        """Hard class predictions (no dropout)."""
        return self.forward(features, adj_norm, training=False).argmax(axis=1)

    # ------------------------------------------------------------------
    @property
    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for layer in self._layers:
            params.extend(layer.parameters)
        return params

    @property
    def gradients(self) -> List[np.ndarray]:
        grads: List[np.ndarray] = []
        for layer in self._layers:
            grads.extend(layer.gradients)
        return grads

    def get_weights(self) -> List[np.ndarray]:
        return [p.copy() for p in self.parameters]

    def set_weights(self, weights: List[np.ndarray]) -> None:
        params = self.parameters
        if len(weights) != len(params):
            raise ValueError("weight list does not match parameter count")
        for param, weight in zip(params, weights):
            param[...] = weight
