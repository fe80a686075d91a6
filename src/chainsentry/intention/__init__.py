from .params import (Dims, IntentionConfig, flatten_params, init_params,
                     load_params, param_shapes, save_params, unflatten_params)
from .network import (SequenceBatch, compute_loss, compute_loss_and_grads,
                      forward_pass, intention_index_of)
from .train import IntentionNetwork

__all__ = [
    "Dims",
    "IntentionConfig",
    "IntentionNetwork",
    "SequenceBatch",
    "compute_loss",
    "compute_loss_and_grads",
    "flatten_params",
    "forward_pass",
    "init_params",
    "intention_index_of",
    "load_params",
    "param_shapes",
    "save_params",
    "unflatten_params",
]
