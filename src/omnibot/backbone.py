"""Decoder-only transformer over assembled windows.

Pre-norm residual blocks; the window's attention mask is applied unchanged
in every layer (in the last one, for a head's compact window, only its
trailing rows, the readouts), so the assembler's causality/pad/readout
guarantees hold end to end. Several compact windows (one per bucket of a
training batch) run as one pass over their packed rows, each window's
attention on its own segment with its own mask.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .assembler import AssembledWindow
from .config import Config
from .errors import ContractError, DimensionError


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


def forward(window: AssembledWindow | Sequence[AssembledWindow], params: dict[str, Tensor], cfg: Config) -> Tensor:
    """Backbone embeddings of one window's tokens, or the readouts of several compact windows in one pass.

    For a full window (`window.readouts` None): [B, T, d_model], one row
    per token column. For a head's compact window: [B, steps, chunk,
    d_model], the embeddings of the readout columns `window.readouts`
    names. Every layer but the last runs on all rows, which later layers
    read as keys and values. The last layer needs all rows only for its
    keys and values; its queries, attention output, MLP and the final norm
    are row-wise, so they run on the readout rows alone and give the same
    numbers as the full forward. A compact window lists those rows last,
    in the order of its steps, so the last layer attends from the first
    readout row of the window's mask, with the first layer's plan cut
    there, and its output rows are the readouts in order.

    Every op reads and writes [B, rows, d_model]: `masked_attention`
    splits the heads itself, as strided views, so a layer is two norms,
    six linears, one attention, one gelu and two residual adds.

    A sequence of compact windows (`Policy.predict` gives one per bucket,
    the windows of one robot and frame count) runs as one pass over their
    rows packed into one [1, N, d_model] array, each window's [B, T] rows
    in turn: every row-wise op runs once
    per layer over all of them, and attention is one node per layer that
    runs each window's segment with its own mask and plan (see
    `masked_attention`). The last layer takes every window's readout rows
    in one gather. It returns [1, R, d_model]: each window's readouts in
    turn, in its [B, steps, chunk] order, which is the order of its rows.
    Each window's numbers are those of its own forward up to the order of
    floating-point sums, since the row-wise products and norms now run over
    more rows.
    """
    bb = cfg.backbone
    packed = not isinstance(window, AssembledWindow)
    windows = list(window) if packed else [window]
    if any(w.tokens.shape[-1] != bb.d_model for w in windows):
        raise DimensionError(f"window has d_model {windows[0].tokens.shape[-1]}, backbone expects {bb.d_model}")
    if packed:
        if not windows or any(w.readouts is None for w in windows):
            raise ContractError("one pass over several windows needs one or more compact windows")
        x = ad.concat([w.tokens.reshape(1, -1, bb.d_model) for w in windows], axis=1)
        masks, start = [w.mask for w in windows], [0] * len(windows)
        cut = [w.tokens.shape[1] - w.readouts.size for w in windows]  # each mask's row of its first readout
        tail = _packed_readouts(windows)
    else:
        x, masks, start = window.tokens, window.mask, 0  # the mask row of the first query
        cut = None if window.readouts is None else x.shape[1] - window.readouts.size  # the readouts trail
        tail = slice(cut, None)

    for i in range(bb.layers):
        p = f"bb/layer{i}"
        h = ad.layer_norm(x, params[f"{p}/ln1/g"], params[f"{p}/ln1/b"])
        k = ad.linear(h, params[f"{p}/attn/wk"], params[f"{p}/attn/kb"])
        v = ad.linear(h, params[f"{p}/attn/wv"], params[f"{p}/attn/vb"])
        first = start
        if cut is not None and i == bb.layers - 1:
            x, h, first = ad.take(x, tail, axis=1), ad.take(h, tail, axis=1), cut
        q = ad.linear(h, params[f"{p}/attn/wq"], params[f"{p}/attn/qb"])
        att = ad.masked_attention(q, k, v, masks, bb.heads, first)
        x = x + ad.linear(att, params[f"{p}/attn/wo"], params[f"{p}/attn/ob"])

        h2 = ad.layer_norm(x, params[f"{p}/ln2/g"], params[f"{p}/ln2/b"])
        m = ad.gelu(ad.linear(h2, params[f"{p}/mlp/w1"], params[f"{p}/mlp/b1"]))
        x = x + ad.linear(m, params[f"{p}/mlp/w2"], params[f"{p}/mlp/b2"])

    out = ad.layer_norm(x, params["bb/final_ln/g"], params["bb/final_ln/b"])
    if cut is None or packed:
        return out
    return out.reshape(x.shape[0], *window.readouts.shape, bb.d_model)


def _packed_readouts(windows: list[AssembledWindow]) -> np.ndarray:
    """The packed rows that the last layer's queries read: each window's trailing readout rows, element by element.

    They are each window's readouts in its [B, steps, chunk] order.
    """
    tail, rows = [], 0
    for w in windows:
        nb, t = w.tokens.shape[:2]
        tail.append((rows + np.arange(nb)[:, None] * t + np.arange(t - w.readouts.size, t)).ravel())
        rows += nb * t
    return np.concatenate(tail)
