from .adam import AdamState, adam_step
from .bilstm import BiLstmConfig, bilstm_backward, bilstm_forward, init_bilstm_params
from .encoder import EncoderConfig, encoder_backward, encoder_forward, init_encoder_params
from .functional import (
    batched_cross_entropy,
    dropout,
    dropout_backward,
    gelu,
    gelu_backward,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    softmax,
    softmax_backward,
    trunc_normal,
)

__all__ = [
    "AdamState",
    "adam_step",
    "BiLstmConfig",
    "bilstm_forward",
    "bilstm_backward",
    "init_bilstm_params",
    "EncoderConfig",
    "encoder_forward",
    "encoder_backward",
    "init_encoder_params",
    "softmax",
    "softmax_backward",
    "batched_cross_entropy",
    "linear",
    "linear_backward",
    "layer_norm",
    "layer_norm_backward",
    "gelu",
    "gelu_backward",
    "dropout",
    "dropout_backward",
    "trunc_normal",
]
