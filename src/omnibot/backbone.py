"""Decoder-only transformer over assembled windows.

Pre-norm residual blocks; the window's attention mask is applied unchanged
in every layer, so the assembler's causality/pad/readout guarantees hold
end to end.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .assembler import AssembledWindow
from .config import Config
from .errors import DimensionError


def init_backbone_params(cfg: Config, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    bb = cfg.backbone
    if bb.d_model % bb.heads:
        raise DimensionError(f"d_model {bb.d_model} not divisible by {bb.heads} heads")
    d, dm = bb.d_model, bb.d_mlp
    params: dict[str, Tensor] = {}

    def normal(shape, std):
        return ad.param(rng.standard_normal(shape).astype(dtype) * dtype(std))

    def ln(prefix):
        params[f"{prefix}/g"] = ad.param(np.ones(d, dtype=dtype))
        params[f"{prefix}/b"] = ad.param(np.zeros(d, dtype=dtype))

    for i in range(bb.layers):
        ln(f"bb/layer{i}/ln1")
        for nm in ("wq", "wk", "wv", "wo"):
            params[f"bb/layer{i}/attn/{nm}"] = normal((d, d), 1.0 / np.sqrt(d))
            params[f"bb/layer{i}/attn/{nm[-1]}b"] = ad.param(np.zeros(d, dtype=dtype))
        ln(f"bb/layer{i}/ln2")
        params[f"bb/layer{i}/mlp/w1"] = normal((d, dm), 1.0 / np.sqrt(d))
        params[f"bb/layer{i}/mlp/b1"] = ad.param(np.zeros(dm, dtype=dtype))
        params[f"bb/layer{i}/mlp/w2"] = normal((dm, d), 1.0 / np.sqrt(dm))
        params[f"bb/layer{i}/mlp/b2"] = ad.param(np.zeros(d, dtype=dtype))
    ln("bb/final_ln")
    return params


def forward(window: AssembledWindow, params: dict[str, Tensor], cfg: Config) -> Tensor:
    """[B, k*S, d_model] embeddings for every token in the window."""
    bb = cfg.backbone
    x = window.tokens
    if x.shape[-1] != bb.d_model:
        raise DimensionError(f"window has d_model {x.shape[-1]}, backbone expects {bb.d_model}")
    b, t, d = x.shape
    nh, dh = bb.heads, bb.d_model // bb.heads
    mask = ad.ops.AttentionMask(window.attn_mask) if bb.layers else None

    for i in range(bb.layers):
        p = f"bb/layer{i}"
        h = ad.layer_norm(x, params[f"{p}/ln1/g"], params[f"{p}/ln1/b"])
        q = ad.linear(h, params[f"{p}/attn/wq"], params[f"{p}/attn/qb"])
        k = ad.linear(h, params[f"{p}/attn/wk"], params[f"{p}/attn/kb"])
        v = ad.linear(h, params[f"{p}/attn/wv"], params[f"{p}/attn/vb"])
        q = q.reshape(b, t, nh, dh).transpose((0, 2, 1, 3))
        k = k.reshape(b, t, nh, dh).transpose((0, 2, 1, 3))
        v = v.reshape(b, t, nh, dh).transpose((0, 2, 1, 3))
        att = ad.masked_attention(q, k, v, mask)
        att = att.transpose((0, 2, 1, 3)).reshape(b, t, d)
        x = x + ad.linear(att, params[f"{p}/attn/wo"], params[f"{p}/attn/ob"])

        h2 = ad.layer_norm(x, params[f"{p}/ln2/g"], params[f"{p}/ln2/b"])
        m = ad.gelu(ad.linear(h2, params[f"{p}/mlp/w1"], params[f"{p}/mlp/b1"]))
        x = x + ad.linear(m, params[f"{p}/mlp/w2"], params[f"{p}/mlp/b2"])

    return ad.layer_norm(x, params["bb/final_ln/g"], params["bb/final_ln/b"])


def gather_readouts(embeddings: Tensor, window: AssembledWindow, head: str) -> Tensor:
    """A head's readout embeddings at each step whose readouts the window holds.

    [B, steps, chunk, d_model]: every step for a full window, and for a
    window from `assembler.compact` the steps it was compacted for. Slots
    are found by their original index, so both kinds of window work.
    """
    idx = window.layout.readout_indices(head)  # [k, chunk]
    cols = np.flatnonzero(np.isin(window.slots, idx))
    b, _, d = embeddings.shape
    return ad.take(embeddings, cols, axis=1).reshape(b, -1, idx.shape[1], d)
