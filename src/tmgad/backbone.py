"""GCN encoder: node features + normalized adjacency -> node embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc


@dataclass
class GCNConfig:
    layers: int = 2
    hidden_dim: int = 16
    out_dim: int = 8
    dropout: float = 0.1

    def __post_init__(self):
        if self.layers not in (2, 3, 4):
            raise ValueError(f"layers must be 2, 3 or 4, got {self.layers}")
        if self.hidden_dim not in (16, 32, 64):
            raise ValueError(f"hidden_dim must be 16, 32 or 64, got {self.hidden_dim}")
        if self.out_dim <= 0:
            raise ValueError("out_dim must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_gcn_weights(rng: np.random.Generator, in_dim: int, cfg: GCNConfig) -> list:
    dims = [in_dim] + [cfg.hidden_dim] * (cfg.layers - 1) + [cfg.out_dim]
    return [dc.parameter(glorot(rng, dims[i], dims[i + 1])) for i in range(cfg.layers)]


def gcn_forward(x, a_hat, weights, *, training: bool = False,
                dropout: float = 0.0, rng: np.random.Generator | None = None) -> dc.Tensor:
    """Stacked propagation layers H <- ReLU(A_hat @ H @ W).

    Each layer pushes the narrower of its two widths through A_hat: a layer
    whose W is in x out with out < in computes ReLU(A_hat @ (H @ W)), any
    other layer ReLU((A_hat @ H) @ W). The two differ only by float
    reassociation. A_hat must be symmetric, as `normalized_adjacency` builds
    it: `diffcore.spmm` multiplies by it in both directions.
    Dropout (inverted, on the layer input H) only runs in training mode and
    needs an rng so runs stay reproducible per seed.
    """
    h = x if isinstance(x, dc.Tensor) else dc.tensor(x)
    if a_hat.shape != (h.shape[0], h.shape[0]):
        raise dc.ShapeMismatchError(
            f"gcn_forward: adjacency {a_hat.shape} vs features {h.shape}")
    for w in weights:
        if training and dropout > 0.0:
            if rng is None:
                raise ValueError("training-mode dropout needs an rng")
            mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
            h = dc.mul_const(h, mask)
        if w.shape[1] < w.shape[0]:
            h = dc.relu(dc.spmm(a_hat, dc.matmul(h, w)))
        else:
            h = dc.relu(dc.matmul(dc.spmm(a_hat, h), w))
    return h
