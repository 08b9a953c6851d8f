"""Per-embodiment action decoding and the masked training objectives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import Config, HeadSection
from .embodiments import EMBODIMENTS, embodiment
from .errors import ContractError, DimensionError

# which action head each embodiment draws from; a view of the registry
# kept for `perfbench/workloads.py`, which imports it
EMBODIMENT_HEADS = {name: spec.head for name, spec in EMBODIMENTS.items()}


def owned_head(name: str) -> str:
    """The action head an embodiment draws from; raises ContractError for an unknown one."""
    return embodiment(name).head


@dataclass
class ActionChunk:
    head: str
    values: np.ndarray  # [chunk_size, action_dim]


def init_head_params(cfg: Config, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    d = cfg.backbone.d_model
    params: dict[str, Tensor] = {}
    for h in cfg.heads:
        params[f"head/{h.name}/w"] = ad.param(
            rng.standard_normal((d, h.action_dim)).astype(dtype) / dtype(np.sqrt(d))
        )
        params[f"head/{h.name}/b"] = ad.param(np.zeros(h.action_dim, dtype=dtype))
    return params


def project(readouts: Tensor, params: dict[str, Tensor], head: str) -> Tensor:
    """Affine projection of readout embeddings to the action dimension."""
    return ad.linear(readouts, params[f"head/{head}/w"], params[f"head/{head}/b"])


def decode(readouts: Tensor, params: dict[str, Tensor], spec: HeadSection) -> ActionChunk:
    """[chunk, d_model] readout embeddings -> one action chunk."""
    if readouts.ndim != 2 or readouts.shape[0] != spec.chunk_size:
        raise DimensionError(
            f"head {spec.name!r} expects readouts [{spec.chunk_size}, d_model], got {readouts.shape}"
        )
    return ActionChunk(spec.name, project(readouts, params, spec.name).data)


def _masked_objective(
    predictions: dict[str, Tensor],
    targets: dict[str, np.ndarray],
    loss_masks: dict[str, np.ndarray],
    squared: bool,
) -> Tensor:
    """Mean per-element masked error; each batch element owns exactly one head.

    loss_masks[head] is [B, k, chunk] with 1.0 exactly on the element's own
    head at valid, within-episode positions. Non-owned heads and padded
    chunk rows therefore contribute exactly zero loss and zero gradient.
    """
    if not predictions:
        raise ContractError("no predictions given")
    first = next(iter(predictions.values()))
    b = first.shape[0]
    num = None
    den = np.zeros(b)
    for head, pred in predictions.items():
        tgt = targets[head]
        mask = loss_masks[head]
        if pred.shape != tgt.shape:
            raise DimensionError(f"head {head!r}: predictions {pred.shape} vs targets {tgt.shape}")
        if mask.shape != pred.shape[:3]:
            raise DimensionError(f"head {head!r}: mask {mask.shape} vs predictions {pred.shape}")
        diff = pred - ad.tensor(tgt, dtype=pred.data.dtype)
        err = diff * diff if squared else diff.abs()
        err = err * ad.tensor(mask[..., None], dtype=pred.data.dtype)
        contrib = err.sum(axis=(1, 2, 3))
        num = contrib if num is None else num + contrib
        den += mask.reshape(b, -1).sum(axis=1) * pred.shape[3]
    if (den == 0).any():
        missing = int(np.flatnonzero(den == 0)[0])
        raise ContractError(f"batch element {missing} owns no supervised head positions")
    per_element = num * ad.tensor(1.0 / den, dtype=first.data.dtype)
    return per_element.mean()


def training_loss(predictions, targets, loss_masks) -> Tensor:
    """Masked mean absolute error, averaged per element then over the batch."""
    return _masked_objective(predictions, targets, loss_masks, squared=False)


def validation_mse(predictions, targets, loss_masks) -> Tensor:
    """Same masking as training_loss with squared error."""
    return _masked_objective(predictions, targets, loss_masks, squared=True)
