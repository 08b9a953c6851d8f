"""Structured ops: attention, normalization, convolution, gathers.

Each op is a single tape node with a hand-written backward, which keeps
the tape short and lets the hot paths (attention, conv2d) choose their
own intermediates and memory layout.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DegenerateMaskError, DimensionError
from .tensor import Tensor


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def factory():
        def bwd(g):
            return tuple(np.split(g, offsets, axis=axis))

        return bwd

    return Tensor._make(out, tuple(tensors), factory, "concat")


def take(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Gather along an axis; duplicate indices accumulate in backward.

    Backward writes the gradient by plain assignment when the indices are
    unique, and falls back to the much slower `np.add.at` otherwise.
    """
    idx = np.asarray(indices)
    out = np.take(x.data, idx, axis=axis)
    shape, dtype = x.shape, x.data.dtype

    def factory():
        unique = np.unique(idx % shape[axis]).size == idx.size

        def bwd(g):
            buf = np.zeros(shape, dtype=dtype)
            sel = (slice(None),) * axis + (idx,)
            if unique:
                buf[sel] = g
            else:
                np.add.at(buf, sel, g)
            return (buf,)

        return bwd

    return Tensor._make(out, (x,), factory, "take")


def scatter_tokens(src: Tensor, b_idx: np.ndarray, t_idx: np.ndarray, batch: int, tokens: int) -> Tensor:
    """Place rows src[n] at out[b_idx[n], t_idx[n]]; (b, t) pairs must be unique."""
    if src.ndim != 2:
        raise DimensionError(f"scatter_tokens expects [rows, d], got {src.shape}")
    if len(b_idx) != src.shape[0] or len(t_idx) != src.shape[0]:
        raise DimensionError("scatter_tokens index length mismatch")
    out = np.zeros((batch, tokens, src.shape[1]), dtype=src.data.dtype)
    out[b_idx, t_idx] = src.data

    def factory():
        def bwd(g):
            return (g[b_idx, t_idx],)

        return bwd

    return Tensor._make(out, (src,), factory, "scatter_tokens")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; gradient scatters back with accumulation."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.shape[0]})")
    out = table.data[ids]
    shape, dtype = table.shape, table.data.dtype

    def factory():
        def bwd(g):
            buf = np.zeros(shape, dtype=dtype)
            np.add.at(buf, ids, g)
            return (buf,)

        return bwd

    return Tensor._make(out, (table,), factory, "embedding")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise DimensionError(f"layer_norm eps must be positive, got {eps}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def factory():
        def bwd(g):
            lead = tuple(range(g.ndim - 1))
            dgain = (g * xhat).sum(axis=lead)
            dbias = g.sum(axis=lead)
            dxhat = g * gain.data
            dx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
            return dx, dgain, dbias

        return bwd

    return Tensor._make(out, (x, gain, bias), factory, "layer_norm")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b over the last axis."""
    if x.shape[-1] != w.shape[0] or w.ndim != 2 or b.shape != (w.shape[1],):
        raise DimensionError(f"linear: incompatible shapes x={x.shape} w={w.shape} b={b.shape}")
    k, n = w.shape
    out = np.matmul(x.data, w.data)
    out += b.data

    def factory():
        def bwd(g):
            gx = gw = gb = None
            if x.requires_grad:
                gx = np.matmul(g, w.data.T)
            g2 = g.reshape(-1, n)
            if w.requires_grad:
                gw = x.data.reshape(-1, k).T @ g2
            if b.requires_grad:
                gb = g2.sum(axis=0)
            return gx, gw, gb

        return bwd

    return Tensor._make(out, (x, w, b), factory, "linear")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU; in-place buffer reuse on the hot path.

    Computed as x / (1 + exp(-2u)) with u = c * (x + a * x^3), which equals
    0.5 * x * (1 + tanh(u)) but keeps full relative precision in the far
    negative tail, where 1 + tanh(u) cancels. There exp(-2u) may overflow
    to inf, and the output is then an exact -0.0.
    """
    xd = x.data
    one = xd.dtype.type(1.0)
    with np.errstate(over="ignore"):
        t = xd * xd
        t *= xd.dtype.type(-2.0 * _GELU_C * _GELU_A)
        t += xd.dtype.type(-2.0 * _GELU_C)
        t *= xd  # t = -2u
        np.exp(t, out=t)
        t += one  # t = 1 + exp(-2u), so sigmoid(2u) = 1 / t
        out = xd / t

    def factory():
        def bwd(g):
            # d/dx x*s = s * (1 + x * (1 - s) * 2u'), with s = sigmoid(2u);
            # s * (1 - s) is formed first so that it stays 0 where s is 0
            with np.errstate(over="ignore"):
                s = one / t
                du = one - s
                du *= s
                du *= xd
                up = xd * xd
                up *= xd.dtype.type(6.0 * _GELU_C * _GELU_A)
                up += xd.dtype.type(2.0 * _GELU_C)  # up = 2u'
                du *= up
                du += s
                du *= g
            return (du,)

        return bwd

    return Tensor._make(out, (x,), factory, "gelu")


def _norm_qkv(t: Tensor) -> tuple[np.ndarray, tuple[int, ...]]:
    if t.ndim == 2:
        return t.data[None, None], t.shape
    if t.ndim == 3:
        return t.data[:, None], t.shape
    if t.ndim == 4:
        return t.data, t.shape
    raise DimensionError(f"attention operand must have 2-4 dims, got {t.shape}")


class AttentionMask:
    """A validated boolean key mask plus its cached additive sentinel.

    The mask is [Tq, Tk] or [B, Tq, Tk], True where key j is permitted for
    query i; queries and keys may differ in number. Every row must permit at
    least one key (`DegenerateMaskError` otherwise), which is what lets the
    softmax zero forbidden weights with the sentinel alone. Wrapping once
    and passing the wrapper to many attention calls (e.g. every transformer
    layer) amortizes that check and the sentinel's construction.
    """

    def __init__(self, permitted: np.ndarray):
        permitted = np.asarray(permitted)
        if permitted.dtype != np.bool_:
            raise DimensionError("attention mask must be boolean")
        if permitted.ndim == 2:
            permitted = permitted[None]
        if permitted.ndim != 3:
            raise DimensionError(f"attention mask must be [Tq, Tk] or [B, Tq, Tk], got {permitted.shape}")
        if not permitted.any(axis=-1).all():
            bad = np.argwhere(~permitted.any(axis=-1))[0]
            raise DegenerateMaskError(f"mask row {tuple(bad)} permits no keys")
        self.permitted = np.ascontiguousarray(permitted)
        self._buffers: dict = {}

    def buffers(self, dtype) -> np.ndarray:
        """The additive sentinel, [B, 1, Tq, Tk]: 0 where permitted, -inf elsewhere."""
        key = np.dtype(dtype).name
        if key not in self._buffers:
            self._buffers[key] = np.where(self.permitted, dtype.type(0), dtype.type(-np.inf))[:, None]
        return self._buffers[key]


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask) -> Tensor:
    """Scaled dot-product attention restricted to a boolean key mask.

    q: [Tq, d], [B, Tq, d] or [B, h, Tq, d]; k and v: the same with Tk
    rows; mask: [Tq, Tk] or [B, Tq, Tk] boolean (or a prebuilt
    AttentionMask), True where key j is permitted for query i.

    Forbidden keys get weight exactly 0.0, so perturbing their key or value
    rows cannot change any permitted output bit: the -inf sentinel makes
    their shifted scores -inf, and exp(-inf) is exactly +0.0. Every row
    permits some key, so its max is finite and its row sum at least 1; no
    0/1 rewrite is needed. q is scaled by 1/sqrt(d) before the product,
    which is exact when d is a power of four (d = 16 gives 1/4). The
    weights stay unnormalised, z = exp(s - rowmax) = w / r: one product
    with [v | 1] gives z @ v and the row sums 1/r, and r scales the
    [.., Tq, d] output rather than the [.., Tq, Tk] weights.

    Backward uses sum_j w_ij * dL/dw_ij = g_i . out_i (Dao et al., 2022,
    FlashAttention), a [.., Tq, d] reduction in place of a [.., Tq, Tk] one.
    With gr = r * g, the score gradient is z * (gr @ v^T - gr . out),
    exactly 0 where z is 0.
    """
    if k.shape != v.shape or q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"attention q/k/v shapes do not match: {q.shape}, {k.shape}, {v.shape}")
    q4, q_shape = _norm_qkv(q)
    k4, k_shape = _norm_qkv(k)
    v4, _ = _norm_qkv(v)
    nb, nh, tq, dh = q4.shape
    tk = k4.shape[2]

    amask = mask if isinstance(mask, AttentionMask) else AttentionMask(mask)
    if amask.permitted.shape != (nb, tq, tk):
        if amask.permitted.shape == (1, tq, tk):
            amask = AttentionMask(np.broadcast_to(amask.permitted[0], (nb, tq, tk)))
        else:
            raise DimensionError(
                f"attention mask shape {amask.permitted.shape} incompatible with q {q.shape} and k {k.shape}"
            )
    additive = amask.buffers(q4.dtype)

    scale = q4.dtype.type(1.0 / math.sqrt(dh))
    qs = q4 * scale
    z = np.matmul(qs, np.ascontiguousarray(np.swapaxes(k4, -1, -2)))
    z += additive
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)  # unnormalised weights: w = z * r
    ones = np.ones(v4.shape[:-1] + (1,), dtype=v4.dtype)
    zv = np.matmul(z, np.concatenate([v4, ones], axis=-1))  # z @ v and the row sums of z
    r = 1.0 / zv[..., dh:]
    out4 = zv[..., :dh] * r

    def factory():
        def bwd(g):
            gr = np.reshape(g, q4.shape) * r
            gv = np.matmul(np.swapaxes(z, -1, -2), gr)
            gs = np.matmul(gr, np.swapaxes(v4, -1, -2))  # r * dL/dw
            gs -= np.einsum("...ij,...ij->...i", gr, out4)[..., None]
            gs *= z  # dL/dscores
            gq = np.matmul(gs, k4)
            gq *= scale
            gk = np.matmul(np.swapaxes(gs, -1, -2), qs)
            return gq.reshape(q_shape), gk.reshape(k_shape), gv.reshape(k_shape)

        return bwd

    return Tensor._make(out4.reshape(q_shape), (q, k, v), factory, "masked_attention")


def _same_pad(extent: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    return out, total // 2, total - total // 2


def conv2d(x: Tensor, kernels: Tensor, stride: int) -> Tensor:
    """Same-padded strided cross-correlation.

    x: [C, H, W] or [B, C, H, W]; kernels: [C2, C, kh, kw].
    Output spatial extent is ceil(extent / stride).

    The API is NCHW, but im2col runs channels-last: the padded input is
    [B, H, W, C], and the columns are one copy of its strided window view as
    [B, h2, w2, kh, kw, C], so every run copied is whole channels; the
    kernel matrix is `kernels` in (kh, kw, C, C2) order. col2im in backward
    adds the column gradients back through the same window view.
    """
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv2d input must be [C,H,W] or [B,C,H,W], got {x.shape}")
    if kernels.ndim != 4:
        raise DimensionError(f"conv2d kernels must be [C2,C,kh,kw], got {kernels.shape}")
    nb, c, h, w = xd.shape
    c2, ck, kh, kw = kernels.shape
    if kh < 1 or kw < 1:
        raise DimensionError(f"conv2d kernel has zero-sized window: {kernels.shape}")
    if ck != c:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    if stride < 1:
        raise DimensionError(f"conv2d stride must be >= 1, got {stride}")
    h2, top, bot = _same_pad(h, kh, stride)
    w2, left, right = _same_pad(w, kw, stride)
    if kh > h + top + bot or kw > w + left + right:
        raise DimensionError(f"conv2d kernel {kh}x{kw} exceeds padded input {h}x{w}")

    xp = np.zeros((nb, h + top + bot, w + left + right, c), dtype=xd.dtype)
    xp[:, top : top + h, left : left + w] = xd.transpose(0, 2, 3, 1)
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]  # [B, h2, w2, C, kh, kw]
    mat = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(nb * h2 * w2, kh * kw * c)
    wmat = kernels.data.transpose(2, 3, 1, 0).reshape(kh * kw * c, c2)
    out = (mat @ wmat).reshape(nb, h2, w2, c2).transpose(0, 3, 1, 2)
    if squeeze:
        out = out[0]

    def factory():
        def bwd(g):
            g4 = g[None] if squeeze else g
            g2 = np.ascontiguousarray(g4.transpose(0, 2, 3, 1)).reshape(nb * h2 * w2, c2)
            gk = gx = None
            if kernels.requires_grad:
                gk = (g2.T @ mat).reshape(c2, kh, kw, c).transpose(0, 3, 1, 2)
            if x.requires_grad:
                gcols = (g2 @ wmat.T).reshape(nb, h2, w2, kh, kw, c)
                gxp = np.zeros_like(xp)
                gwin = sliding_window_view(gxp, (kh, kw), axis=(1, 2), writeable=True)[:, ::stride, ::stride]
                for i in range(kh):
                    for j in range(kw):  # windows overlap, but no two share (i, j) and a position
                        gwin[..., i, j] += gcols[:, :, :, i, j]
                gx = np.ascontiguousarray(gxp[:, top : top + h, left : left + w].transpose(0, 3, 1, 2))
                if squeeze:
                    gx = gx[0]
            return gx, gk

        return bwd

    return Tensor._make(out, (x, kernels), factory, "conv2d")
