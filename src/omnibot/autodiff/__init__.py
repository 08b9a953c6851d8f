"""Reverse-mode autodiff over dense numpy-backed tensors."""

from .gradcheck import GradCheckReport, finite_diff_check
from . import ops
from .ops import (
    AttentionMask,
    concat,
    conv2d,
    embedding,
    film,
    gelu,
    layer_norm,
    linear,
    masked_attention,
    scatter_tokens,
    take,
)
from .tensor import (
    Tensor,
    backward,
    no_grad,
    param,
    tensor,
    zeros,
)

__all__ = [
    "GradCheckReport",
    "Tensor",
    "AttentionMask",
    "backward",
    "concat",
    "conv2d",
    "embedding",
    "film",
    "finite_diff_check",
    "gelu",
    "layer_norm",
    "linear",
    "masked_attention",
    "no_grad",
    "param",
    "scatter_tokens",
    "take",
    "tensor",
    "zeros",
]
