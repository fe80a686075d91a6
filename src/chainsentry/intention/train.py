"""Seeded minibatch training and the estimator-style wrapper.

Updates use Adam (per-parameter adaptive steps) on batch-mean gradients.
Given the same data, config, and seed, the loss trace and final parameters
are bit-reproducible.

The parameters and Adam's moments are float64 master copies whatever the
batch's dtype: the network computes in the batch's dtype, and its gradients
are cast to float64 before each update.  The noise is drawn in float64, so
the random stream does not depend on the dtype either.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import ParamsMixin
from ..errors import DataError, NotFittedError
from .network import (ForwardPass, SequenceBatch, compute_loss_and_grads,
                      forward_pass)
from .params import (Dims, IntentionConfig, flatten_params, init_params,
                     unflatten_params)


@dataclass(slots=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_size(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n))

    def update(self, flat_params: np.ndarray, flat_grads: np.ndarray,
               learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
               eps: float = 1e-8) -> np.ndarray:
        self.step += 1
        self.m = beta1 * self.m + (1 - beta1) * flat_grads
        self.v = beta2 * self.v + (1 - beta2) * flat_grads * flat_grads
        m_hat = self.m / (1 - beta1 ** self.step)
        v_hat = self.v / (1 - beta2 ** self.step)
        return flat_params - learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def train(batch: SequenceBatch, dims: Dims, config: IntentionConfig,
          checkpoint_hook=None):
    """Train on the full batch; returns (params, epoch_losses).

    ``checkpoint_hook(epoch, params, mean_loss)`` is invoked after every
    epoch when provided.
    """
    params = init_params(dims, config.seed)
    if config.epochs == 0:
        return params, []
    rng = np.random.default_rng(config.seed)
    flat = flatten_params(params)
    adam = AdamState.for_size(flat.size)
    epoch_losses: list[float] = []
    n = batch.n_addresses
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            sub = batch.subset(idx)
            noise = rng.standard_normal((sub.n_steps, sub.n_addresses, dims.d_z))
            terms, grads, _ = compute_loss_and_grads(params, sub, dims, config, noise)
            total += terms["total"]
            flat_grads = flatten_params(grads).astype(np.float64) / idx.size
            flat = adam.update(flat, flat_grads, config.learning_rate)
            params = unflatten_params(params, flat)
        epoch_losses.append(total / n)
        if checkpoint_hook is not None:
            checkpoint_hook(epoch, params, epoch_losses[-1])
    return params, epoch_losses


class IntentionNetwork(ParamsMixin):
    """fit/forward wrapper around the sequence network."""

    def __init__(self, config: IntentionConfig | None = None):
        self.config = config or IntentionConfig()
        self.params_: dict | None = None
        self.dims_: Dims | None = None
        self.epoch_losses_: list[float] | None = None

    def fit(self, batch: SequenceBatch, k_status: int, k_action: int):
        if batch.status_idx.max() >= k_status or batch.action_idx.max() >= k_action:
            raise DataError("cluster index exceeds the declared catalog size")
        self.dims_ = Dims.from_config(self.config, batch.features.shape[2],
                                      k_status, k_action)
        self.params_, self.epoch_losses_ = train(batch, self.dims_, self.config)
        return self

    def forward(self, batch: SequenceBatch) -> ForwardPass:
        if self.params_ is None:
            raise NotFittedError("IntentionNetwork is not fitted")
        return forward_pass(self.params_, batch, self.dims_, noise=None)
