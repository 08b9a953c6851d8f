"""Structured ops: attention, normalization, convolution, gathers.

Each op is a single tape node with a hand-written backward, which keeps
the tape short and lets the hot paths (attention) run fused kernels.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import DegenerateMaskError, DimensionError
from . import _kernels
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
    x2 = x.data.reshape(-1, d)
    if _kernels.HAVE_NUMBA:
        out = np.empty_like(x.data)
        xhat = np.empty_like(x2)
        inv = np.empty(x2.shape[0], dtype=x.data.dtype)
        _kernels.layer_norm_fwd(x2, gain.data, bias.data, x.data.dtype.type(eps),
                                out.reshape(-1, d), xhat, inv)
        xhat = xhat.reshape(x.shape)
        inv = inv.reshape(x.shape[:-1] + (1,))
    else:
        mu = x.data.mean(axis=-1, keepdims=True)
        xc = x.data - mu
        var = np.mean(xc * xc, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
        xhat = xc * inv
        out = xhat * gain.data + bias.data

    def factory():
        def bwd(g):
            if _kernels.HAVE_NUMBA:
                g2 = np.ascontiguousarray(g).reshape(-1, d)
                dx = np.empty_like(g2)
                dgain = np.empty(d, dtype=g.dtype)
                dbias = np.empty(d, dtype=g.dtype)
                _kernels.layer_norm_bwd(
                    g2, xhat.reshape(-1, d), inv.reshape(-1), gain.data, dx, dgain, dbias
                )
                return dx.reshape(x.shape), dgain, dbias
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
    """tanh-approximation GELU; in-place buffer reuse on the hot path."""
    xd = x.data
    one = xd.dtype.type(1.0)
    half = xd.dtype.type(0.5)
    t = xd * xd
    t *= xd.dtype.type(_GELU_A)
    t *= xd
    t += xd
    t *= xd.dtype.type(_GELU_C)
    np.tanh(t, out=t)  # t = tanh(c * (x + a * x^3))
    out = t + one
    out *= xd
    out *= half

    def factory():
        def bwd(g):
            du = xd * xd
            du *= xd.dtype.type(3.0 * _GELU_A)
            du += one
            du *= xd.dtype.type(_GELU_C)
            du *= one - t * t
            du *= xd
            du += one + t
            du *= half
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
    """A validated boolean key mask plus reusable float buffers.

    Wrapping once and passing the wrapper to many attention calls (e.g.
    every transformer layer) amortizes the degenerate-row check and the
    sentinel/keep buffer construction.
    """

    def __init__(self, permitted: np.ndarray):
        permitted = np.asarray(permitted)
        if permitted.dtype != np.bool_:
            raise DimensionError("attention mask must be boolean")
        if permitted.ndim == 2:
            permitted = permitted[None]
        if permitted.ndim != 3 or permitted.shape[-1] != permitted.shape[-2]:
            raise DimensionError(f"attention mask must be [S, S] or [B, S, S], got {permitted.shape}")
        if not permitted.any(axis=-1).all():
            bad = np.argwhere(~permitted.any(axis=-1))[0]
            raise DegenerateMaskError(f"mask row {tuple(bad)} permits no keys")
        self.permitted = np.ascontiguousarray(permitted)
        self._buffers: dict = {}

    def buffers(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        """(additive, keep): 0/-inf sentinel and 1/0 rewrite factors, [B, 1, S, S]."""
        key = np.dtype(dtype).name
        if key not in self._buffers:
            additive = np.where(self.permitted, dtype.type(0), dtype.type(-np.inf))[:, None]
            keep = self.permitted.astype(dtype)[:, None]
            self._buffers[key] = (additive, keep)
        return self._buffers[key]


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask) -> Tensor:
    """Scaled dot-product attention restricted to a boolean key mask.

    q, k, v: [S, d], [B, S, d] or [B, h, S, d]; mask: [S, S] or [B, S, S]
    boolean (or a prebuilt AttentionMask), True where key j is permitted
    for query i. Forbidden scores are replaced with the -inf sentinel
    before the softmax and the resulting weights rewritten by a hard 0/1
    factor, so forbidden keys get weight exactly 0.0: perturbing their
    value rows cannot change any permitted output bit.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(f"attention q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    q4, orig_shape = _norm_qkv(q)
    k4, _ = _norm_qkv(k)
    v4, _ = _norm_qkv(v)
    nb, nh, nt, dh = q4.shape

    amask = mask if isinstance(mask, AttentionMask) else AttentionMask(mask)
    if amask.permitted.shape != (nb, nt, nt):
        if amask.permitted.shape == (1, nt, nt):
            amask = AttentionMask(np.broadcast_to(amask.permitted[0], (nb, nt, nt)))
        else:
            raise DimensionError(
                f"attention mask shape {amask.permitted.shape} incompatible with q {q.shape}"
            )
    additive, keep = amask.buffers(q4.dtype)

    scale = q4.dtype.type(1.0 / math.sqrt(dh))
    kt = np.ascontiguousarray(np.swapaxes(k4, -1, -2))
    scores = np.matmul(q4, kt)
    scores *= scale
    weights = _kernels.masked_softmax(scores, additive, keep)  # consumes scores
    out4 = np.matmul(weights, v4)

    def factory():
        def bwd(g):
            g4 = np.reshape(g, q4.shape)
            gv = np.matmul(np.swapaxes(weights, -1, -2), g4)
            gw = np.matmul(g4, np.swapaxes(v4, -1, -2))
            if _kernels.HAVE_NUMBA:
                gs = np.empty_like(gw)
                _kernels.masked_softmax_grad(weights, gw, amask.permitted, gs)
            else:
                gs = _kernels.masked_softmax_grad_numpy(weights, gw, keep)
            gq = np.matmul(gs, k4)
            gq *= scale
            gk = np.matmul(np.swapaxes(gs, -1, -2), q4)
            gk *= scale
            return gq.reshape(orig_shape), gk.reshape(orig_shape), gv.reshape(orig_shape)

        return bwd

    return Tensor._make(out4.reshape(orig_shape), (q, k, v), factory, "masked_attention")


def _same_pad(extent: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    return out, total // 2, total - total // 2


def conv2d(x: Tensor, kernels: Tensor, stride: int) -> Tensor:
    """Same-padded strided cross-correlation.

    x: [C, H, W] or [B, C, H, W]; kernels: [C2, C, kh, kw].
    Output spatial extent is ceil(extent / stride).
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

    xp = np.pad(xd, ((0, 0), (0, 0), (top, bot), (left, right)))
    cols = np.empty((nb, h2, w2, c, kh, kw), dtype=xd.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[..., i, j] = xp[
                :, :, i : i + (h2 - 1) * stride + 1 : stride, j : j + (w2 - 1) * stride + 1 : stride
            ].transpose(0, 2, 3, 1)
    mat = cols.reshape(nb * h2 * w2, c * kh * kw)
    wmat = kernels.data.reshape(c2, -1).T
    out = (mat @ wmat).reshape(nb, h2, w2, c2).transpose(0, 3, 1, 2)
    if squeeze:
        out = out[0]

    def factory():
        def bwd(g):
            g4 = g[None] if squeeze else g
            g2 = np.ascontiguousarray(g4.transpose(0, 2, 3, 1)).reshape(nb * h2 * w2, c2)
            gk = gx = None
            if kernels.requires_grad:
                gk = (mat.T @ g2).T.reshape(kernels.shape)
            if x.requires_grad:
                gcols = (g2 @ wmat.T).reshape(nb, h2, w2, c, kh, kw)
                gxp = np.zeros_like(xp)
                for i in range(kh):
                    for j in range(kw):
                        gxp[
                            :,
                            :,
                            i : i + (h2 - 1) * stride + 1 : stride,
                            j : j + (w2 - 1) * stride + 1 : stride,
                        ] += gcols[..., i, j].transpose(0, 3, 1, 2)
                gx = gxp[:, :, top : top + h, left : left + w]
                if squeeze:
                    gx = gx[0]
                gx = np.ascontiguousarray(gx)
            return gx, gk

        return bwd

    return Tensor._make(out, (x, kernels), factory, "conv2d")
