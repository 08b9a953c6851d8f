"""Structured ops: attention, normalization, convolution, FiLM, gathers.

Each op is a single tape node with a hand-written backward, which keeps
the tape short and lets the hot paths choose their own intermediates and
memory layout. Each takes and returns the layout its matmuls read:
`masked_attention` takes [B, T, d] and splits heads as strided views,
`conv2d` and `film` run channels-last [B, H, W, C], and `linear` and
`conv2d` add their bias in place on the product. So an op's output is
C-contiguous as computed, and no reshape or transpose node sits between
two ops on the hot paths.
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

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return Tensor._make(out, tuple(tensors), bwd, "concat")


def take(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Gather along an axis; duplicate indices accumulate in backward.

    Backward writes the gradient by plain assignment when the indices are
    unique, and falls back to the much slower `np.add.at` otherwise; the
    uniqueness test runs in backward, so only when a gradient is needed.
    """
    idx = np.asarray(indices)
    out = np.take(x.data, idx, axis=axis)
    shape, dtype = x.shape, x.data.dtype

    def bwd(g):
        buf = np.zeros(shape, dtype=dtype)
        sel = (slice(None),) * axis + (idx,)
        if np.unique(idx % shape[axis]).size == idx.size:
            buf[sel] = g
        else:
            np.add.at(buf, sel, g)
        return (buf,)

    return Tensor._make(out, (x,), bwd, "take")


def scatter_tokens(src: Tensor, b_idx: np.ndarray, t_idx: np.ndarray, batch: int, tokens: int) -> Tensor:
    """Place rows src[n] at out[b_idx[n], t_idx[n]]; (b, t) pairs must be unique."""
    if src.ndim != 2:
        raise DimensionError(f"scatter_tokens expects [rows, d], got {src.shape}")
    if len(b_idx) != src.shape[0] or len(t_idx) != src.shape[0]:
        raise DimensionError("scatter_tokens index length mismatch")
    out = np.zeros((batch, tokens, src.shape[1]), dtype=src.data.dtype)
    out[b_idx, t_idx] = src.data

    def bwd(g):
        return (g[b_idx, t_idx],)

    return Tensor._make(out, (src,), bwd, "scatter_tokens")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; gradient scatters back with accumulation."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.shape[0]})")
    out = table.data[ids]
    shape, dtype = table.shape, table.data.dtype

    def bwd(g):
        buf = np.zeros(shape, dtype=dtype)
        np.add.at(buf, ids, g)
        return (buf,)

    return Tensor._make(out, (table,), bwd, "embedding")


LAYER_NORM_EPS = 1e-5  # added to the variance before the square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(LAYER_NORM_EPS))
    xhat = xc * inv
    out = xhat * gain.data + bias.data

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

    return Tensor._make(out, (x, gain, bias), bwd, "layer_norm")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b over the last axis."""
    if x.shape[-1] != w.shape[0] or w.ndim != 2 or b.shape != (w.shape[1],):
        raise DimensionError(f"linear: incompatible shapes x={x.shape} w={w.shape} b={b.shape}")
    k, n = w.shape
    out = np.matmul(x.data, w.data)
    out += b.data

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

    return Tensor._make(out, (x, w, b), bwd, "linear")


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

    return Tensor._make(out, (x,), bwd, "gelu")


# The fixed cost of one more attention tile, in score entries. A least-squares
# fit of forward + backward time over 20 one-tile shapes (B 2 and 8, 4 heads,
# dh 16, 16-48 query rows, 48-240 keys; float32, one OpenBLAS thread, 2-core
# x86-64) gave 146 us per tile plus 9.6 ns per score entry: 15,000 entries.
TILE_ENTRIES = 15_000


class AttentionMask:
    """A validated boolean key mask plus its cached additive sentinel and query tiles.

    The mask is [B, Tq, Tk], True where key j is permitted for query i of
    batch element b; queries and keys may differ in number. Every row must
    permit at least one key (`DegenerateMaskError` otherwise), which is what
    lets the softmax zero forbidden weights with the sentinel alone.
    Wrapping once and passing the wrapper to many attention calls (e.g.
    every transformer layer) amortizes that check and the construction of
    the sentinel and the tiles.

    A tile is a run of query rows that reads only a prefix of the keys. Per
    row, take the last key that any batch element permits, then its running
    maximum over rows: the key prefix a row needs. A tile grows row by row
    while the scores its growth adds for rows that do not need them (rows
    so far x added keys x B x heads) stay within `TILE_ENTRIES`, the cost of
    one more tile; otherwise a new tile starts. Every key a tile skips lies
    past the last key that any of its rows permits in any batch element, so
    it is forbidden by construction. A window whose rows all need about the
    same keys stays one tile, and so does a mask whose B x heads x Tq x Tk
    is within `TILE_ENTRIES`, without the derivation: one tile of all keys.
    """

    def __init__(self, permitted: np.ndarray):
        permitted = np.asarray(permitted)
        if permitted.dtype != np.bool_:
            raise DimensionError("attention mask must be boolean")
        if permitted.ndim != 3:
            raise DimensionError(f"attention mask must be [B, Tq, Tk], got {permitted.shape}")
        if not permitted.any(axis=-1).all():
            bad = np.argwhere(~permitted.any(axis=-1))[0]
            raise DegenerateMaskError(f"mask row {tuple(bad)} permits no keys")
        self.permitted = np.ascontiguousarray(permitted)
        self._buffers: dict = {}
        self._tiles: dict = {}

    def buffers(self, dtype) -> np.ndarray:
        """The additive sentinel, [B, 1, Tq, Tk]: 0 where permitted, -inf elsewhere."""
        key = np.dtype(dtype).name
        if key not in self._buffers:
            self._buffers[key] = np.where(self.permitted, dtype.type(0), dtype.type(-np.inf))[:, None]
        return self._buffers[key]

    def tiles(self, heads: int) -> list[tuple[int, int, int]]:
        """(first row, end row, keys) of each query tile, in row order, for `heads` heads."""
        if heads not in self._tiles:
            nb, tq, tk = self.permitted.shape
            tiles = [(0, tq, tk)]
            if nb * heads * tq * tk > TILE_ENTRIES:  # else no cut could save a tile's cost
                seen = self.permitted.any(axis=0)
                need = np.maximum.accumulate(tk - np.argmax(seen[:, ::-1], axis=1))
                tiles, first, keys = [], 0, int(need[0])
                for row in (np.flatnonzero(need[1:] != need[:-1]) + 1).tolist():  # need grows only here
                    grow = int(need[row])
                    if (row - first) * (grow - keys) * nb * heads > TILE_ENTRIES:
                        tiles.append((first, row, keys))
                        first = row
                    keys = grow
                tiles.append((first, tq, keys))
            self._tiles[heads] = tiles
        return self._tiles[heads]


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """[B, T, d] -> the strided view [B, heads, T, d / heads]; no copy."""
    nb, t, d = a.shape
    return a.reshape(nb, t, heads, d // heads).transpose(0, 2, 1, 3)


def masked_attention(q: Tensor, k: Tensor, v: Tensor, mask: AttentionMask, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention restricted to a boolean key mask.

    q: [B, Tq, d]; k and v: [B, Tk, d]; `heads` divides d, and head h
    reads features [h * d / heads, (h + 1) * d / heads). mask: an
    AttentionMask of shape [B, Tq, Tk], True where key j is permitted for
    query i. Heads are strided views of the [B, T, d] operands, and the
    output and the gradients are written through such views into
    C-contiguous [B, T, d] buffers, so no layout copy is made on either
    side.

    The queries run one tile at a time against the tile's key prefix (see
    `AttentionMask`); a skipped key is forbidden for every row of the tile,
    so it would have had weight exactly 0.0.

    Forbidden keys get weight exactly 0.0, so perturbing their key or value
    rows cannot change any permitted output bit: the -inf sentinel makes
    their shifted scores -inf, and exp(-inf) is exactly +0.0. Every row
    permits some key, so its max is finite and its row sum at least 1; no
    0/1 rewrite is needed. q is scaled by 1/sqrt(d / heads) before the
    product, which is exact when d / heads is a power of four (16 gives
    1/4). The weights stay unnormalised, z = exp(s - rowmax) = w / r: one
    product with [v | 1] gives z @ v and the row sums 1/r, and r scales the
    [.., Tq, dh] output rather than the [.., Tq, Tk] weights.

    Backward uses sum_j w_ij * dL/dw_ij = g_i . out_i (Dao et al., 2022,
    FlashAttention), a [.., Tq, dh] reduction in place of a [.., Tq, Tk] one.
    With gr = r * g, the score gradient is z * (gr @ v^T - gr . out),
    exactly 0 where z is 0. The key and value gradients sum the tiles'
    contributions to their prefixes.
    """
    if q.ndim != 3 or k.shape != v.shape or k.ndim != 3 or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise DimensionError(f"attention q/k/v must be [B, T, d] alike, got {q.shape}, {k.shape}, {v.shape}")
    nb, tq, d = q.shape
    tk = k.shape[1]
    if heads < 1 or d % heads:
        raise DimensionError(f"attention width {d} does not split into {heads} heads")
    dh = d // heads

    if mask.permitted.shape != (nb, tq, tk):
        raise DimensionError(
            f"attention mask shape {mask.permitted.shape} incompatible with q {q.shape} and k {k.shape}"
        )
    dtype = q.data.dtype
    additive = mask.buffers(dtype)
    tiles = mask.tiles(heads)

    q4, k4, v4 = (_split_heads(t.data, heads) for t in (q, k, v))
    scale = dtype.type(1.0 / math.sqrt(dh))
    kt = np.ascontiguousarray(np.swapaxes(k4, -1, -2))
    vx = np.empty((nb, heads, tk, dh + 1), dtype=dtype)  # [v | 1]
    vx[..., :dh] = v4
    vx[..., dh] = 1
    out = np.empty((nb, tq, d), dtype=dtype)
    out4 = _split_heads(out, heads)
    saved = []
    for r0, r1, nk in tiles:
        qs = q4[:, :, r0:r1] * scale
        z = np.matmul(qs, kt[..., :nk])
        z += additive[:, :, r0:r1, :nk]
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)  # unnormalised weights: w = z * r
        zv = np.matmul(z, vx[:, :, :nk])  # z @ v and the row sums of z
        r = 1.0 / zv[..., dh:]
        np.multiply(zv[..., :dh], r, out=out4[:, :, r0:r1])
        saved.append((qs, z, r))

    def bwd(g):
        g4 = _split_heads(g, heads)
        gq, gk, gv = (np.empty((nb, t, d), dtype=dtype) for t in (tq, tk, tk))
        gq4, gk4, gv4 = (_split_heads(a, heads) for a in (gq, gk, gv))
        widest = tiles[-1][2]
        gk[:, widest:] = 0  # keys no tile reads
        gv[:, widest:] = 0
        for (r0, r1, nk), (qs, z, r) in reversed(list(zip(tiles, saved))):
            gr = g4[:, :, r0:r1] * r
            gs = np.matmul(gr, np.swapaxes(v4[:, :, :nk], -1, -2))  # r * dL/dw
            gs -= np.einsum("...ij,...ij->...i", gr, out4[:, :, r0:r1])[..., None]
            gs *= z  # dL/dscores
            np.multiply(np.matmul(gs, k4[:, :, :nk]), scale, out=gq4[:, :, r0:r1])
            if nk == widest:  # the widest tile is visited first and covers the others' prefixes
                np.matmul(np.swapaxes(z, -1, -2), gr, out=gv4[:, :, :nk])
                np.matmul(np.swapaxes(gs, -1, -2), qs, out=gk4[:, :, :nk])
            else:
                gv4[:, :, :nk] += np.matmul(np.swapaxes(z, -1, -2), gr)
                gk4[:, :, :nk] += np.matmul(np.swapaxes(gs, -1, -2), qs)
        return gq, gk, gv

    return Tensor._make(out, (q, k, v), bwd, "masked_attention")


def _same_pad(extent: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    return out, total // 2, total - total // 2


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int) -> Tensor:
    """Same-padded strided cross-correlation plus a per-channel bias, channels-last.

    x: [B, H, W, C]; kernels: [C2, C, kh, kw]; bias: [C2]. Returns
    [B, ceil(H / stride), ceil(W / stride), C2].

    im2col pads x into a [B, H, W, C] buffer, and the columns are one copy
    of its strided window view as [B, h2, w2, kh, kw, C], so every run
    copied is whole channels; the kernel matrix is `kernels` in (kh, kw, C,
    C2) order, and the bias is added in place on the product, which already
    is the output. col2im in backward adds the column gradients back
    through the same window view.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv2d input must be [B,H,W,C], got {x.shape}")
    if kernels.ndim != 4:
        raise DimensionError(f"conv2d kernels must be [C2,C,kh,kw], got {kernels.shape}")
    nb, h, w, c = xd.shape
    c2, ck, kh, kw = kernels.shape
    if kh < 1 or kw < 1:
        raise DimensionError(f"conv2d kernel has zero-sized window: {kernels.shape}")
    if ck != c:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    if bias.shape != (c2,):
        raise DimensionError(f"conv2d bias {bias.shape} does not match {c2} output channels")
    if stride < 1:
        raise DimensionError(f"conv2d stride must be >= 1, got {stride}")
    h2, top, bot = _same_pad(h, kh, stride)
    w2, left, right = _same_pad(w, kw, stride)
    if kh > h + top + bot or kw > w + left + right:
        raise DimensionError(f"conv2d kernel {kh}x{kw} exceeds padded input {h}x{w}")

    xp = np.zeros((nb, h + top + bot, w + left + right, c), dtype=xd.dtype)
    xp[:, top : top + h, left : left + w] = xd
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]  # [B, h2, w2, C, kh, kw]
    mat = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(nb * h2 * w2, kh * kw * c)
    wmat = kernels.data.transpose(2, 3, 1, 0).reshape(kh * kw * c, c2)
    out = mat @ wmat
    out += bias.data

    def bwd(g):
        g2 = g.reshape(nb * h2 * w2, c2)
        gx = gk = gb = None
        if kernels.requires_grad:
            gk = (g2.T @ mat).reshape(c2, kh, kw, c).transpose(0, 3, 1, 2)
        if bias.requires_grad:
            gb = g2.sum(axis=0)
        if x.requires_grad:
            gcols = (g2 @ wmat.T).reshape(nb, h2, w2, kh, kw, c)
            gxp = np.zeros_like(xp)
            gwin = sliding_window_view(gxp, (kh, kw), axis=(1, 2), writeable=True)[:, ::stride, ::stride]
            for i in range(kh):
                for j in range(kw):  # windows overlap, but no two share (i, j) and a position
                    gwin[..., i, j] += gcols[:, :, :, i, j]
            gx = gxp[:, top : top + h, left : left + w]
        return gx, gk, gb

    return Tensor._make(out.reshape(nb, h2, w2, c2), (x, kernels, bias), bwd, "conv2d")


def film(x: Tensor, lang: Tensor, gamma_w: Tensor, gamma_b: Tensor, beta_w: Tensor, beta_b: Tensor) -> Tensor:
    """FiLM conditioning, channels-last: (1 + gamma) * x + beta per sample and channel.

    x: [n, ..., C]; lang: [n, L]; gamma = lang @ gamma_w + gamma_b and
    beta = lang @ beta_w + beta_b, each [n, C] ([L, C] weights, [C]
    biases). One tape node holds both projections and the modulation.
    """
    n, c = x.shape[0], x.shape[-1]
    if lang.ndim != 2 or lang.shape[0] != n:
        raise DimensionError(f"film language {lang.shape} does not match {n} samples")
    for w_, b_ in ((gamma_w, gamma_b), (beta_w, beta_b)):
        if w_.shape != (lang.shape[1], c) or b_.shape != (c,):
            raise DimensionError(
                f"film projections {w_.shape}/{b_.shape} do not map {lang.shape[1]} language dims to {c} channels"
            )
    bshape = (n,) + (1,) * (x.ndim - 2) + (c,)
    gamma1 = lang.data @ gamma_w.data
    gamma1 += gamma_b.data
    gamma1 += 1.0
    beta = lang.data @ beta_w.data
    beta += beta_b.data
    out = x.data * gamma1.reshape(bshape)
    out += beta.reshape(bshape)

    def bwd(g):
        lead = tuple(range(1, g.ndim - 1))
        dgamma = (g * x.data).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        gx = g * gamma1.reshape(bshape) if x.requires_grad else None
        glang = dgamma @ gamma_w.data.T + dbeta @ beta_w.data.T if lang.requires_grad else None
        return gx, glang, lang.data.T @ dgamma, dgamma.sum(axis=0), lang.data.T @ dbeta, dbeta.sum(axis=0)

    return Tensor._make(out, (x, lang, gamma_w, gamma_b, beta_w, beta_b), bwd, "film")
