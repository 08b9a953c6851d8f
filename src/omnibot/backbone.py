"""Decoder-only transformer over assembled windows.

Pre-norm residual blocks; the window's attention mask is applied unchanged
in every layer (in the last one, for a head's compact window, only its
trailing rows, the readouts), so the assembler's causality/pad/readout
guarantees hold end to end.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .assembler import AssembledWindow
from .config import Config
from .errors import DimensionError


def init_backbone_params(cfg: Config, rng: np.random.Generator) -> dict[str, Tensor]:
    bb = cfg.backbone
    if bb.d_model % bb.heads:
        raise DimensionError(f"d_model {bb.d_model} not divisible by {bb.heads} heads")
    d, dm = bb.d_model, bb.d_mlp
    params: dict[str, Tensor] = {}

    def normal(shape, std):
        return ad.param(rng.standard_normal(shape).astype(np.float32) * np.float32(std))

    def ln(prefix):
        params[f"{prefix}/g"] = ad.param(np.ones(d, dtype=np.float32))
        params[f"{prefix}/b"] = ad.param(np.zeros(d, dtype=np.float32))

    for i in range(bb.layers):
        ln(f"bb/layer{i}/ln1")
        for nm in ("wq", "wk", "wv", "wo"):
            params[f"bb/layer{i}/attn/{nm}"] = normal((d, d), 1.0 / np.sqrt(d))
            params[f"bb/layer{i}/attn/{nm[-1]}b"] = ad.param(np.zeros(d, dtype=np.float32))
        ln(f"bb/layer{i}/ln2")
        params[f"bb/layer{i}/mlp/w1"] = normal((d, dm), 1.0 / np.sqrt(d))
        params[f"bb/layer{i}/mlp/b1"] = ad.param(np.zeros(dm, dtype=np.float32))
        params[f"bb/layer{i}/mlp/w2"] = normal((dm, d), 1.0 / np.sqrt(dm))
        params[f"bb/layer{i}/mlp/b2"] = ad.param(np.zeros(d, dtype=np.float32))
    ln("bb/final_ln")
    return params


def forward(window: AssembledWindow, params: dict[str, Tensor], cfg: Config) -> Tensor:
    """Backbone embeddings of the window's tokens.

    For a full window (`window.readouts` None): [B, T, d_model], one row
    per token column. For a head's compact window: [B, steps, chunk,
    d_model], the embeddings of the readout columns `window.readouts`
    names. Every layer but the last runs on all rows, which later layers
    read as keys and values. The last layer needs all rows only for its
    keys and values; its queries, attention output, MLP and the final norm
    are row-wise, so they run on the readout rows alone and give the same
    numbers as the full forward. A compact window lists those rows last,
    so the last layer attends from the first readout row of the window's
    mask, with the first layer's plan cut there.

    Every op reads and writes [B, rows, d_model]: `masked_attention`
    splits the heads itself, as strided views, so a layer is two norms,
    six linears, one attention, one gelu and two residual adds.
    """
    bb = cfg.backbone
    x = window.tokens
    if x.shape[-1] != bb.d_model:
        raise DimensionError(f"window has d_model {x.shape[-1]}, backbone expects {bb.d_model}")
    rows = None if window.readouts is None else window.readouts.ravel()
    first = 0  # the mask row of the first query

    for i in range(bb.layers):
        p = f"bb/layer{i}"
        h = ad.layer_norm(x, params[f"{p}/ln1/g"], params[f"{p}/ln1/b"])
        k = ad.linear(h, params[f"{p}/attn/wk"], params[f"{p}/attn/kb"])
        v = ad.linear(h, params[f"{p}/attn/wv"], params[f"{p}/attn/vb"])
        if rows is not None and i == bb.layers - 1:
            first = x.shape[1] - rows.size  # the readouts are the trailing rows
            tail = np.arange(first, x.shape[1])
            x, h = ad.take(x, tail, axis=1), ad.take(h, tail, axis=1)
        q = ad.linear(h, params[f"{p}/attn/wq"], params[f"{p}/attn/qb"])
        att = ad.masked_attention(q, k, v, window.mask, bb.heads, first)
        x = x + ad.linear(att, params[f"{p}/attn/wo"], params[f"{p}/attn/ob"])

        h2 = ad.layer_norm(x, params[f"{p}/ln2/g"], params[f"{p}/ln2/b"])
        m = ad.gelu(ad.linear(h2, params[f"{p}/mlp/w1"], params[f"{p}/mlp/b1"]))
        x = x + ad.linear(m, params[f"{p}/mlp/w2"], params[f"{p}/mlp/b2"])

    out = ad.layer_norm(x, params["bb/final_ln/g"], params["bb/final_ln/b"])
    if rows is None:
        return out
    if (rows != tail).any():  # steps asked for out of order
        out = ad.take(out, rows - first, axis=1)
    return out.reshape(x.shape[0], *window.readouts.shape, bb.d_model)
