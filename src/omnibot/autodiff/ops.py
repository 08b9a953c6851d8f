"""Structured ops: attention, normalization, convolution, FiLM, gathers.

Each op is a single tape node with a hand-written backward, which keeps
the tape short and lets the hot paths choose their own intermediates and
memory layout. Each takes and returns the layout its matmuls read:
`masked_attention` takes [B, T, d] and splits heads as strided views,
`conv2d` and `film` run channels-last [B, H, W, C], and `linear` and
`conv2d` add their bias in place on the product. So an op's output is
C-contiguous as computed, and no reshape or transpose node sits between
two ops on the hot paths.

`gelu` runs its elementwise passes over a large array one L2-sized block
of consecutive elements at a time, so that an activation larger than the
L2 (the backbone MLP's hidden, the first conv stage's output) is not
streamed from L3 once per pass; each element still goes through the same
float operations in the same order, so every output and gradient bit is
that of one pass over the whole array.

`conv2d`, `film` and `linear` run V views in one node: the first axis of
x holds each view's samples in turn, each view with a count of its own
(`counts`; for `film`, the language rows its samples read), so the views
of one pass need not share their frames, and they take one parameter set
per view. Each view's products keep the shapes of a call of its own, so
running views together changes no output bit, whatever the counts, and
one view is the plain op. Views of equal counts (bimanual's cameras, every
`act` call) run each product as one stacked call, as before counts were
given; views of unequal counts run one call per view (`_by_view`).

`masked_attention` runs one or more segments in one node: one mask is the
plain call on [B, T, d] operands, and a sequence of masks runs each on its
rows of [1, N, d] operands packed one segment after another, as views, so
that the compact windows of a training batch's buckets share one node per
layer.

It computes only scores that some row may need. Whoever builds a mask
states its structure, each row's key prefix and the trailing own keys
(the assembler reads a compact window's off the slot layout), and
`AttentionMask` plans from those integers, once per (heads, dtype):
tiles of query rows, each reading a prefix of the shared keys with its
own sentinel, and the own keys as one extra softmax term per owning row.
A plan is integers and sentinels, so attention slices where it would
gather. Prefixes need not grow from tile to tile. One cost rule decides
both the cuts and the own-key split: a tile costs `TILE_ENTRIES` score
entries on top of the scores it computes. Attention over a mask's rows
from `first` on uses its plan cut there. A plan with own keys shifts
each row's scores by its diagonal key's score (a readout row's own key),
not by the row max: softmax is the same under any shift of a row. A row
whose shifted sum overflows or grows past a limit falls back to its row
max, alone.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import ContractError, DegenerateMaskError, DimensionError
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


def take(x: Tensor, indices: np.ndarray | slice, axis: int) -> Tensor:
    """Gather along an axis; duplicate indices accumulate in backward.

    `indices` may be a slice, as a readout split or a window's last rows
    are: forward then reads that slice of x, a view where it is
    C-contiguous (else `Tensor` copies it), and backward writes the
    gradient into that slice of a zero buffer. For an index array,
    backward writes the gradient by plain assignment when the indices are
    unique, and falls back to the much slower `np.add.at` otherwise; the
    uniqueness test runs in backward, so only when a gradient is needed.
    """
    idx = indices if isinstance(indices, slice) else np.asarray(indices)
    sel = (slice(None),) * axis + (idx,)
    out = x.data[sel] if isinstance(idx, slice) else np.take(x.data, idx, axis=axis)
    shape, dtype = x.shape, x.data.dtype

    def bwd(g):
        buf = np.zeros(shape, dtype=dtype)
        if isinstance(idx, slice) or np.unique(idx % shape[axis]).size == idx.size:
            buf[sel] = g
        else:
            np.add.at(buf, sel, g)
        return (buf,)

    return Tensor._make(out, (x,), bwd, "take")


def scatter_tokens(
    src: Tensor, b_idx: np.ndarray, t_idx: np.ndarray, batch: int, tokens: int, rows: np.ndarray | None = None
) -> Tensor:
    """Place rows src[rows[n]] (src[n] when `rows` is None) at out[b_idx[n], t_idx[n]].

    The (b, t) pairs must be unique, and so must `rows`; rows of src that
    `rows` leaves out get zero gradients.
    """
    n = src.shape[0] if rows is None else len(rows)
    if src.ndim != 2:
        raise DimensionError(f"scatter_tokens expects [rows, d], got {src.shape}")
    if len(b_idx) != n or len(t_idx) != n:
        raise DimensionError("scatter_tokens index length mismatch")
    out = np.zeros((batch, tokens, src.shape[1]), dtype=src.data.dtype)
    out[b_idx, t_idx] = src.data if rows is None else src.data[rows]

    def bwd(g):
        if rows is None:
            return (g[b_idx, t_idx],)
        buf = np.zeros(src.shape, dtype=g.dtype)
        buf[rows] = g[b_idx, t_idx]
        return (buf,)

    return Tensor._make(out, (src,), bwd, "scatter_tokens")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; gradient scatters back with accumulation."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise DimensionError(f"embedding ids must be integers, got dtype {ids.dtype}")
    bad = (ids < 0) | (ids >= table.shape[0])
    if bad.any():
        raise DimensionError(f"embedding id {ids[bad].flat[0]} is outside the table's rows [0, {table.shape[0]})")
    out = table.data[ids]
    shape, dtype = table.shape, table.data.dtype

    def bwd(g):
        buf = np.zeros(shape, dtype=dtype)
        np.add.at(buf, ids, g)
        return (buf,)

    return Tensor._make(out, (table,), bwd, "embedding")


def _column_sums(a: np.ndarray) -> np.ndarray:
    """[..., n] -> [n]: the sum over every axis but the last, as one product with a ones vector."""
    a = a.reshape(-1, a.shape[-1])
    return np.ones(a.shape[0], dtype=a.dtype) @ a


def _one_shape(tensors: Sequence[Tensor], what: str) -> tuple[int, ...]:
    """The shape of one or more tensors, one per view, which must share it."""
    if not tensors or any(t.shape != tensors[0].shape for t in tensors):
        raise DimensionError(f"{what} need one or more tensors of one shape, got {[t.shape for t in tensors]}")
    return tensors[0].shape


def _stacked(tensors: Sequence[Tensor], what: str) -> np.ndarray:
    """[V, ...]: the arrays of one tensor per view, stacked; one view's is read in place."""
    if len(tensors) == 1:
        return tensors[0].data[None]
    _one_shape(tensors, what)
    return np.array([t.data for t in tensors])


LAYER_NORM_EPS = 1e-5  # added to the variance before the square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Each row statistic is one matmul: the mean and the variance with a
    [d, 1] vector of 1/d, and the backward's two row means, of g * gain and
    of g * gain * xhat, with the [d, 1] vector gain / d. The matmuls keep
    the leading axes, so BLAS sums a row the same way wherever its batch
    element sits.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}"
        )
    dtype = x.data.dtype
    mean = np.full((d, 1), 1.0 / d, dtype=dtype)
    xhat = x.data - x.data @ mean  # centred here, scaled below
    out = np.multiply(xhat, xhat)
    inv = out @ mean
    inv += dtype.type(LAYER_NORM_EPS)
    np.sqrt(inv, out=inv)
    np.divide(1, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def bwd(g):
        t = g * xhat
        dgain = _column_sums(t)
        dbias = _column_sums(g)
        gmean = (gain.data / dtype.type(d))[:, None]
        along = t @ gmean  # row mean of dxhat * xhat, where dxhat = g * gain
        np.multiply(xhat, along, out=t)
        gx = g * gain.data
        gx -= g @ gmean  # row mean of dxhat
        gx -= t
        gx *= inv
        return gx, dgain, dbias

    return Tensor._make(out, (x, gain, bias), bwd, "layer_norm")


def _view_starts(counts: Sequence[int] | None, views: int, total: int, what: str) -> list[int] | None:
    """The first sample of each view, then their end, for `views` views of `counts` samples; None for equal counts.

    `counts` None is an equal share each, which the caller has checked. A
    DimensionError names the counts unless there is one positive count
    per view and they sum to `total`.
    """
    if counts is None:
        return None
    starts = list(itertools.accumulate(counts, initial=0))
    if len(starts) != views + 1 or starts[-1] != total or min(counts, default=0) < 1:
        raise DimensionError(
            f"{what}: views of {[int(n) for n in counts]} samples do not fit {views} views of {total} samples in all"
        )
    return None if all(n == counts[0] for n in counts) else starts


def _view_rows(starts: list[int] | None, views: int, total: int) -> list[slice]:
    """Each view's rows of `total`: from `starts`, or an equal share each where `starts` is None."""
    if starts is None:
        m = total // views
        return [slice(v * m, (v + 1) * m) for v in range(views)]
    return [slice(s, e) for s, e in zip(starts, starts[1:])]


def _by_view(a: np.ndarray, b: np.ndarray, starts: list[int] | None, bias: np.ndarray | None = None) -> np.ndarray:
    """[rows, n]: rows starts[v]:starts[v + 1] of the [rows, k] `a` times b[v], one [k, n] matrix per view.

    Each view's product is one call's, of the shape a call of its own
    makes, and gets its row of `bias` ([V, n]) added in place. With
    `starts` None the views have equal rows, as bimanual's cameras on the
    same frames do, and run as one stacked call over `a` as [V, rows, k]
    (or a [1, rows, k] `a` that every view reads): the same per-view
    products with one call's overhead, which `act` would otherwise pay
    once per view.
    """
    n = b.shape[-1]
    if starts is None:
        out = np.matmul(a if a.ndim == 3 else a.reshape(b.shape[0], -1, a.shape[-1]), b)
        if bias is not None:
            out += bias[:, None]
        return out.reshape(-1, n)
    out = np.empty((a.shape[0], n), dtype=a.dtype)
    for v, (s, e) in enumerate(zip(starts, starts[1:])):
        np.matmul(a[s:e], b[v], out=out[s:e])
        if bias is not None:
            out[s:e] += bias[v]
    return out


def linear(
    x: Tensor, w: Tensor | Sequence[Tensor], b: Tensor | Sequence[Tensor], counts: Sequence[int] | None = None
) -> Tensor:
    """Fused x @ w + b over the last axis, for one weight or for V views at once.

    w: a [k, n] tensor and b: an [n] tensor, or sequences of V of each, one
    per view; then the first axis of x holds each view's samples in turn,
    `counts[v]` of view v (an equal share each when `counts` is None), as
    in `conv2d`, and view v's rows are multiplied by w[v]. Each view's
    product is one [rows, k] x [k, n] product, of the shape a call of its
    own makes, so its output rows and gradients are that call's bits. One
    tensor each is the plain op.
    """
    ws, bs = ((w,), (b,)) if isinstance(w, Tensor) else (w, b)
    nv = len(ws)
    if nv == 1:  # the plain op
        wd, bd = ws[0].data, bs[0].data
        fits = len(bs) == 1 and wd.ndim == 2 and bd.shape == wd.shape[1:]
    else:  # one weight per view, stacked: [V, k, n] and [V, n]
        wd, bd = _stacked(ws, "linear weights"), _stacked(bs, "linear biases")
        fits = len(bs) == nv and wd.ndim == 3 and bd.shape == (nv, wd.shape[2])
        fits = fits and (counts is not None or x.shape[0] % nv == 0)
    if not fits or x.shape[-1] != wd.shape[-2]:
        raise DimensionError(
            f"linear: incompatible shapes x={x.shape} w={[t.shape for t in ws]} b={[t.shape for t in bs]}"
        )
    k, n = wd.shape[-2:]
    at = _view_starts(counts, nv, x.shape[0], "linear")  # None: views of equal counts
    if nv == 1:
        out = np.matmul(x.data, wd)
        out += bd
    else:  # view v's rows by its weight
        per = math.prod(x.shape[1:-1])  # rows of one sample
        at = None if at is None else [a * per for a in at]  # each view's rows of x as [rows, k]
        xm = x.data.reshape(-1, k)
        out = _by_view(xm, wd, at, bd).reshape(x.shape[:-1] + (n,))

    def bwd(g):
        g2 = g.reshape(-1, n)
        if nv == 1:
            gx = (g2 @ wd.T).reshape(x.shape) if x.requires_grad else None
            gw = x.data.reshape(-1, k).T @ g2 if ws[0].requires_grad else None
            gb = np.ones(g2.shape[0], dtype=g.dtype) @ g2 if bs[0].requires_grad else None  # as in `_column_sums`
            return gx, gw, gb
        gx = _by_view(g2, wd.transpose(0, 2, 1), at).reshape(x.shape) if x.requires_grad else None
        rows = _view_rows(at, nv, xm.shape[0])
        gw = [xm[r].T @ g2[r] if t.requires_grad else None for r, t in zip(rows, ws)]
        gb = [np.ones(r.stop - r.start, dtype=g.dtype) @ g2[r] if t.requires_grad else None for r, t in zip(rows, bs)]
        return gx, *gw, *gb

    return Tensor._make(out, (x, *ws, *bs), bwd, "linear")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# GELU's largest arrays (the backbone MLP's [8, 240, 256] hidden, 1.9 MiB at
# B=8 in float32; the first conv stage's ~1 MiB output) outgrow a 2 MiB
# per-core L2, so each of its passes would stream them from L3. In blocks of
# 256 KiB per array, the 3 block arrays a forward block keeps in flight and
# the 6 of a backward block (1.5 MiB) stay in the L2 from pass to pass.
GELU_BLOCK_BYTES = 256 * 1024
# Arrays of more than 3 blocks run in blocks. Forward plus backward in
# blocks, against one pass each, with the L2 flushed between calls (float32,
# 2-core x86-64): 3-9% slower at 1-2.5 blocks, even at 3, 6-58% faster from
# 3.3 blocks on.
GELU_BLOCKED_FROM = 3 * GELU_BLOCK_BYTES


def _gelu_blocks(shape: tuple[int, ...], itemsize: int) -> tuple[tuple[int, ...], int]:
    """The [rows, *unit] layout GELU blocks an array of `shape` in, and the rows per block.

    `unit` is the fewest trailing axes whose elements fit in a block, so a
    block of rows is a run of consecutive elements of a C-contiguous array,
    and a row slice of a strided gradient of the same shape stays a view.
    """
    limit = GELU_BLOCK_BYTES // itemsize
    unit = next(shape[k:] for k in range(1, len(shape) + 1) if math.prod(shape[k:]) <= limit)
    return (-1, *unit), limit // math.prod(unit)


def _gelu_forward(x: np.ndarray, t: np.ndarray | None = None, out: np.ndarray | None = None):
    """(t, x / t) with t = 1 + exp(-2u), written into `t` and `out` when given."""
    dtype = x.dtype.type
    t = np.multiply(x, x, out=t)
    t *= dtype(-2.0 * _GELU_C * _GELU_A)
    t += dtype(-2.0 * _GELU_C)
    t *= x  # t = -2u
    np.exp(t, out=t)
    t += dtype(1.0)  # t = 1 + exp(-2u), so sigmoid(2u) = 1 / t
    return t, np.divide(x, t, out=out)


def _gelu_backward(
    x: np.ndarray, t: np.ndarray, g: np.ndarray,
    du: np.ndarray | None = None, s: np.ndarray | None = None, up: np.ndarray | None = None,
) -> np.ndarray:
    """du = g * d/dx GELU(x), from the forward's t, written into `du` when given; s and up are scratch.

    d/dx x*s = s * (1 + x * (1 - s) * 2u'), with s = sigmoid(2u) = 1 / t;
    s * (1 - s) is formed first so that it stays 0 where s is 0.
    """
    one = x.dtype.type(1.0)
    s = np.divide(one, t, out=s)
    du = np.subtract(one, s, out=du)
    du *= s
    du *= x
    up = np.multiply(x, x, out=up)
    up *= x.dtype.type(6.0 * _GELU_C * _GELU_A)
    up += x.dtype.type(2.0 * _GELU_C)  # up = 2u'
    du *= up
    du += s
    du *= g
    return du


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU, its passes run over L2-sized blocks of a large array.

    Computed as x / (1 + exp(-2u)) with u = c * (x + a * x^3), which equals
    0.5 * x * (1 + tanh(u)) but keeps full relative precision in the far
    negative tail, where 1 + tanh(u) cancels. There exp(-2u) may overflow
    to inf, and the output is then an exact -0.0.

    An array of more than `GELU_BLOCKED_FROM` runs the 7 forward and 10
    backward passes one block of consecutive elements at a time, at most
    `GELU_BLOCK_BYTES` per array (64 Ki float32 or 32 Ki float64 elements),
    so they assume an L2 of at least 6 such blocks (1.5 MiB). Each element
    goes through the same operations in the same order as in one pass over
    the whole array, so every output and gradient bit is the same. A
    smaller array runs each pass once over the whole array.
    """
    xd = x.data
    blocks = _gelu_blocks(xd.shape, xd.itemsize) if xd.nbytes > GELU_BLOCKED_FROM else None
    with np.errstate(over="ignore"):
        if blocks is None:
            t, out = _gelu_forward(xd)
        else:
            layout, rows = blocks
            t, out = np.empty_like(xd), np.empty_like(xd)
            xr, tr, outr = (a.reshape(layout) for a in (xd, t, out))
            for a in range(0, len(xr), rows):
                _gelu_forward(xr[a : a + rows], tr[a : a + rows], outr[a : a + rows])

    def bwd(g):
        with np.errstate(over="ignore"):
            if blocks is None:
                return (_gelu_backward(xd, t, g),)
            du = np.empty_like(xd)
            xr, tr, gr, dur = (a.reshape(layout) for a in (xd, t, g, du))
            s, up = np.empty((2, rows, *xr.shape[1:]), dtype=xd.dtype)  # block-sized scratch
            for a in range(0, len(xr), rows):
                n = min(rows, len(xr) - a)
                _gelu_backward(xr[a : a + n], tr[a : a + n], gr[a : a + n], dur[a : a + n], s[:n], up[:n])
        return (du,)

    return Tensor._make(out, (x,), bwd, "gelu")


# The fixed cost of one more attention tile, in score entries. A least-squares
# fit of forward + backward time over 20 one-tile shapes (B 2 and 8, 4 heads,
# dh 16, 16-48 query rows, 48-240 keys; float32, one OpenBLAS thread, 2-core
# x86-64) gave 146 us per tile plus 9.6 ns per score entry: 15,000 entries.
TILE_ENTRIES = 15_000


class Tile(NamedTuple):
    rows: slice  # the query rows of the tile
    keys: int  # they read keys [0, keys)
    sentinel: np.ndarray | None  # [B, 1, rows, keys]; None where the rows permit their whole prefix


class Plan(NamedTuple):
    tiles: list[Tile]  # in row order
    shared: int  # the tiles read prefixes of keys [0, shared)
    # the last `own` rows own the last `own` keys, row by row; 0 without the split. With own keys every row
    # permits its diagonal key, so the plan is anchored: each row shifts by that key's score
    own: int


# An anchored row's sum is at least 1, its anchor's exp(0). One that is not
# finite or passes this limit takes its row max instead: backward scales the
# output gradient by r = 1 / sum, and r >= 2^-64 stays 62 binary orders above
# float32's smallest normal (2^-126), so r * g keeps its precision.
ANCHOR_LIMIT = 2.0**64


def _tail(plan: Plan, first: int) -> Plan:
    """`plan` restricted to its rows from `first` on, renumbered from 0.

    A tile keeps its key prefix and the rest of its sentinel: a row's
    permitted keys do not depend on the other rows. An own key whose row is
    cut is permitted by no row left, so it drops out with that row.
    """
    tiles = []
    for t in plan.tiles:
        if t.rows.stop > first:
            start = max(t.rows.start, first)
            sentinel = None if t.sentinel is None else t.sentinel[:, :, start - t.rows.start :]
            tiles.append(Tile(slice(start - first, t.rows.stop - first), t.keys, sentinel))
    return Plan(tiles, plan.shared, min(plan.own, tiles[-1].rows.stop))


def _cut(need: np.ndarray, scale: int) -> list[tuple[int, int, int]]:
    """(first row, end row, keys) of each tile over rows that need key prefixes `need`.

    Runs of rows with equal need join the tile before them while the scores
    that joining computes for rows that do not need them (times `scale`, B x
    heads) stay within `TILE_ENTRIES`: a wider run widens the rows so far, a
    narrower one is widened itself. Otherwise a new tile starts.
    """
    starts = (np.flatnonzero(need[1:] != need[:-1]) + 1).tolist()
    tiles, first, keys = [], 0, int(need[0])
    for row, end, grow in zip(starts, starts[1:] + [need.size], need[starts].tolist()):
        waste = (row - first) * (grow - keys) if grow > keys else (end - row) * (keys - grow)
        if waste * scale > TILE_ENTRIES:
            tiles.append((first, row, keys))
            first, keys = row, grow
        else:
            keys = max(keys, grow)
    tiles.append((first, need.size, keys))
    return tiles


def _cost(cuts: list[tuple[int, int, int]], scale: int) -> int:
    return sum((end - first) * keys for first, end, keys in cuts) * scale + len(cuts) * TILE_ENTRIES


class AttentionMask:
    """A validated boolean key mask, its structure and its attention plans, cached per (heads, dtype, first row).

    The mask is [B, Tq, Tk], True where key j is permitted for query i of
    batch element b; queries and keys may differ in number. Every row must
    permit at least one key (`DegenerateMaskError` otherwise), which is what
    lets the softmax zero forbidden weights with the sentinel alone.
    Wrapping once and passing the wrapper to many attention calls (e.g.
    every transformer layer) amortizes that check and the plan: its tiles,
    each with its sentinel, and its own keys.

    Whoever builds the mask states its structure as integers: `own`
    trailing keys, each permitted only by its diagonal row (one of the last
    `own` rows, in order), and `prefixes`, how many of the other, shared
    keys [0, Tk - own) each row may read. Every key a row permits must lie
    in its prefix or be its own key; the mask is not scanned for them.
    `assembler.window_structure` reads a compact window's structure off the
    slot layout. A mask given no structure (the full window, the tests'
    oracles) is one tile of every key. Own keys anchor every row on its
    diagonal key (below), so a mask with own keys must be square and
    permit each row's diagonal key in every batch element, as window masks
    do; else it is a ContractError naming the row.

    A tile is a run of query rows that reads a prefix of the shared keys,
    as far as the longest prefix of its rows. `_cut` grows tiles over runs
    of rows with equal prefixes and cuts where growing would compute more
    than `TILE_ENTRIES` scores that the rows do not need; prefixes need not
    grow from one tile to the next, so rows after wider ones go back to
    short prefixes. Every key a tile skips is forbidden for all its rows,
    and a tile whose rows permit every key of their prefix in every batch
    element has no sentinel. A key inside a prefix that a row does not
    permit gets weight exactly 0 from the sentinel.

    A plan costs its score entries plus `TILE_ENTRIES` per tile. The own
    keys are split off only when that lowers the cost, counting their term
    as one more tile plus one score per owning row: the readout rows then
    read short observation prefixes. Unsplit, an owning row reads every key
    up to its own. A mask where one tile of every key computes at most
    `TILE_ENTRIES` scores outside the rows' prefixes and own keys (so any
    mask of at most that many B x heads x Tq x Tk entries) is that tile.

    The plan of the rows from `first` on is the plan of every row cut
    there (`_tail`): the tiles from that row on, each keeping its key prefix
    and the rest of its sentinel, and the own keys of the rows left. It may
    read a few more keys than a plan of those rows alone would, but it
    gives the same weights, and it is not planned again.

    A plan with own keys is anchored: attention shifts each row's scores by
    its diagonal key's score, which lies in the row's tile prefix or is its
    own key, instead of by the row max (see `masked_attention`). A plan
    without own keys (`act`'s windows, a mask without structure) keeps the
    row max. A cut plan's rows are some of the mask's, numbered from
    `first`, and row i's diagonal key is key first + i.
    """

    def __init__(self, permitted: np.ndarray, prefixes: np.ndarray | None = None, own: int = 0):
        permitted = np.asarray(permitted)
        if permitted.dtype != np.bool_:
            raise DimensionError("attention mask must be boolean")
        if permitted.ndim != 3:
            raise DimensionError(f"attention mask must be [B, Tq, Tk], got {permitted.shape}")
        if not permitted.any(axis=-1).all():
            bad = np.argwhere(~permitted.any(axis=-1))[0]
            raise DegenerateMaskError(f"mask row {tuple(bad)} permits no keys")
        _, tq, tk = permitted.shape
        if prefixes is not None:
            prefixes = np.asarray(prefixes, dtype=np.intp)
            if prefixes.shape != (tq,) or own < 0 or not ((0 <= prefixes) & (prefixes <= tk - own)).all():
                raise DimensionError(f"{tq} mask rows need {tq} key prefixes within the {tk - own} shared keys")
        if own:
            if prefixes is None or tq != tk:
                raise DimensionError(f"own keys need a square mask and its rows' key prefixes, got {permitted.shape}")
            diagonal = permitted.diagonal(axis1=1, axis2=2)
            if not diagonal.all():
                bad = np.argwhere(~diagonal)[0].tolist()
                raise ContractError(f"mask row {tuple(bad)} denies its diagonal key, which own keys anchor")
        self.permitted = np.ascontiguousarray(permitted)
        self.prefixes, self.own = prefixes, own
        self._plans: dict[tuple, Plan] = {}  # by (heads, dtype, first row)

    def plan(self, heads: int, dtype, first: int = 0) -> Plan:
        """The tiles and own keys of attention with `heads` heads over the rows from `first` on.

        Rows are numbered from `first`. A tile's sentinel is additive in
        `dtype` over its rows and key prefix: 0 where permitted and -inf
        elsewhere.
        """
        dtype = np.dtype(dtype)
        key = heads, dtype, first
        if key in self._plans:
            return self._plans[key]
        nb, tq, tk = self.permitted.shape
        if first:
            if not 0 < first < tq:
                raise DimensionError(f"attention from row {first} of a mask of {tq} rows")
            self._plans[key] = _tail(self.plan(heads, dtype), first)
            return self._plans[key]
        scale = nb * heads
        cuts, own = [(0, tq, tk)], 0
        # no cut could save a tile's cost where a tile of every key computes few scores that no prefix or own
        # key names; every mask whose B x heads x Tq x Tk is within `TILE_ENTRIES` is one of those
        if self.prefixes is not None and (tq * tk - int(self.prefixes.sum()) - self.own) * scale > TILE_ENTRIES:
            need = self.prefixes.copy()
            need[tq - self.own :] = np.arange(tk - self.own, tk) + 1  # unsplit, an owning row reads up to its own key
            cuts = _cut(need, scale)
            if self.own:
                split = _cut(self.prefixes, scale)
                # the own-key term costs one more tile, of one score per row
                if _cost(split, scale) + self.own * scale + TILE_ENTRIES < _cost(cuts, scale):
                    cuts, own = split, self.own
        never = np.array(-np.inf, dtype=dtype).view(f"i{dtype.itemsize}")  # -inf's bits, as an integer

        def sentinel(permitted):  # 0 * never is +0.0's bits; a pass quicker than np.where
            return None if permitted.all() else np.multiply(~permitted, never).view(dtype)[:, None]

        tiles = [Tile(slice(a, b), n, sentinel(self.permitted[:, a:b, :n])) for a, b, n in cuts]
        self._plans[key] = Plan(tiles, tk - own, own)
        return self._plans[key]


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """[B, T, d] -> the strided view [B, heads, T, d / heads]; no copy."""
    nb, t, d = a.shape
    return a.reshape(nb, t, heads, d // heads).transpose(0, 2, 1, 3)


def _segment(a: np.ndarray, rows: slice | None, shape: tuple[int, ...]) -> np.ndarray:
    """Rows `rows` of a packed [1, N, d] array as a [B, T, d] view; the whole array where `rows` is None."""
    return a if rows is None else a[0, rows].reshape(shape)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, plan: Plan, first: int, heads: int, out: np.ndarray):
    """`masked_attention` of one segment, [B, Tq, d] queries and [B, Tk, d] keys and values, written into `out`.

    Returns its backward, `bwd(g, gq, gk, gv)`, which writes the segment's
    gradients into the [B, T, d] arrays `gq`, every entry, and `gk` and
    `gv`, which start at zero.
    """
    nb, tq, d = q.shape
    tk = k.shape[1]
    dh = d // heads
    dtype = q.dtype
    own, o = plan.own, tq - plan.own  # rows [o, tq) own keys [tk - own, tk), in order

    q4, k4, v4 = (_split_heads(a, heads) for a in (q, k, v))
    scale = dtype.type(1.0 / math.sqrt(dh))
    qs = q4 * scale
    kt = np.ascontiguousarray(np.swapaxes(k4[:, :, : plan.shared], -1, -2))
    vx = np.empty((nb, heads, kt.shape[-1], dh + 1), dtype=dtype)  # [v | 1] of the shared keys
    vx[..., :dh] = v4[:, :, : plan.shared]
    vx[..., dh] = 1
    zo = None  # the own-key terms of rows recomputed with their row max; None while each is exp(0) = 1
    if own:
        ko = k4[:, :, tk - own :]
        so = np.einsum("...d,...d->...", qs[:, :, o:], ko)
        vo = np.empty(so.shape + (dh + 1,), dtype=dtype)  # [v | 1] of the own keys
        vo[..., :dh] = v4[:, :, tk - own :]
        vo[..., dh] = 1
    zv = np.empty((nb, heads, tq, dh + 1), dtype=dtype)  # z @ [v | 1]: unnormalised outputs and row sums
    saved = []
    # an anchored row's exps may overflow; such a row is recomputed below
    with np.errstate(over="ignore", invalid="ignore") if own else contextlib.nullcontext():
        for t in plan.tiles:
            z = np.matmul(qs[:, :, t.rows], kt[..., : t.keys])
            if t.sentinel is not None:
                z += t.sentinel
            c = min(max(t.rows.start, o), t.rows.stop)  # its rows from `c` on own keys: `mine` of its rows
            mine, theirs = slice(c - t.rows.start, None), slice(c - o, t.rows.stop - o)  # `theirs` of the own rows
            if own:  # a row's diagonal key: in the tile's prefix before `c`, its own key from `c` on
                shift = np.empty(z.shape[:-1], dtype=dtype)
                shift[..., : mine.start] = z.diagonal(first + t.rows.start, -2, -1)[..., : mine.start]
                shift[..., mine] = so[..., theirs]
            else:
                shift = z.max(axis=-1, initial=-np.inf)
            z -= shift[..., None]
            np.exp(z, out=z)  # unnormalised weights: w = z * r
            zvt = zv[:, :, t.rows]
            np.matmul(z, vx[:, :, : t.keys], out=zvt)  # z @ v and the row sums of z
            if c < t.rows.stop:
                zvt[:, :, mine] += vo[:, :, theirs]
            saved.append(z)
        if own and not (zv[..., dh] <= ANCHOR_LIMIT).all():  # some sum is inf, nan or past the limit
            starts = [t.rows.start for t in plan.tiles]  # each such row takes its row max, on its own
            for b, h, i in np.argwhere(~(zv[..., dh] <= ANCHOR_LIMIT)).tolist():
                n = bisect.bisect_right(starts, i) - 1
                t, row = plan.tiles[n], saved[n][b, h, i - starts[n]]
                s = qs[b, h, i] @ kt[b, h, :, : t.keys]
                if t.sentinel is not None:
                    s += t.sentinel[b, 0, i - starts[n]]
                m = s.max(initial=-np.inf)
                if i >= o:
                    m = max(m, so[b, h, i - o])
                np.exp(s - m, out=row)
                zv[b, h, i] = row @ vx[b, h, : t.keys]
                if i >= o:
                    if zo is None:
                        zo = np.ones_like(so)
                    zo[b, h, i - o] = np.exp(so[b, h, i - o] - m)
                    zv[b, h, i] += zo[b, h, i - o] * vo[b, h, i - o]
    r = np.divide(1, zv[..., dh:])
    # in out's [B, T, heads, dh] order, not by head: runs of dh elements, a quarter faster, the same values
    np.multiply(np.swapaxes(zv[..., :dh], 1, 2), np.swapaxes(r, 1, 2), out=out.reshape(nb, tq, heads, dh))

    def bwd(g, gq, gk, gv):
        grx = np.empty((nb, heads, tq, dh + 1), dtype=dtype)  # [gr | -gr . out] with gr = r * g
        gr = grx[..., :dh]
        np.multiply(g.reshape(nb, tq, heads, dh), np.swapaxes(r, 1, 2), out=np.swapaxes(gr, 1, 2))  # in g's order
        head_sums = np.repeat(np.eye(heads, dtype=dtype), dh, axis=0)  # [d, heads]: g . out per head
        gout = np.matmul((g * out).reshape(-1, d), head_sums).reshape(nb, tq, heads).transpose(0, 2, 1)
        np.multiply(gout[..., None], -r, out=grx[..., dh:])
        gq4, gk4, gv4 = (_split_heads(a, heads) for a in (gq, gk, gv))
        gks, gvs = np.zeros((2, nb, heads, kt.shape[-1], dh), dtype=dtype)  # of the shared keys
        ks = np.swapaxes(kt, -1, -2)
        for t, z in zip(plan.tiles, saved):
            gs = np.matmul(grx[:, :, t.rows], np.swapaxes(vx[:, :, : t.keys], -1, -2))  # r * dL/dw - gr . out
            gs *= z  # dL/dscores
            np.multiply(np.matmul(gs, ks[:, :, : t.keys]), scale, out=gq4[:, :, t.rows])
            gvs[:, :, : t.keys] += np.matmul(np.swapaxes(z, -1, -2), gr[:, :, t.rows])
            gks[:, :, : t.keys] += np.matmul(np.swapaxes(gs, -1, -2), qs[:, :, t.rows])
        gk4[:, :, : plan.shared] = gks
        gv4[:, :, : plan.shared] = gvs
        if own:
            gso = np.einsum("...d,...d->...", grx[:, :, o:], vo)
            if zo is not None:
                gso *= zo
            gq4[:, :, o:] += (gso * scale)[..., None] * ko
            gk4[:, :, tk - own :] = gso[..., None] * qs[:, :, o:]
            gv4[:, :, tk - own :] = gr[:, :, o:] if zo is None else zo[..., None] * gr[:, :, o:]

    return bwd


def masked_attention(
    q: Tensor, k: Tensor, v: Tensor, mask: AttentionMask | Sequence[AttentionMask], heads: int,
    first: int | Sequence[int] = 0,
) -> Tensor:
    """Multi-head scaled dot-product attention restricted to a boolean key mask, over one or more segments.

    One mask is the plain call. q: [B, Tq, d]; k and v: [B, Tk, d];
    `heads` divides d, and head h reads features [h * d / heads, (h + 1) *
    d / heads). mask: an AttentionMask of shape [B, first + Tq, Tk], True
    where key j is permitted for query i; the queries are its rows from
    `first` on, and they read its plan cut there. Heads are strided views
    of the [B, T, d] operands, and the output and the gradients are written
    through such views into C-contiguous [B, T, d] buffers, so no layout
    copy is made on either side.

    A sequence of masks, with a sequence of as many `first`s, is one
    segment per mask in one node: q is [1, Nq, d] and k and v [1, Nk, d],
    each the rows of the segments one after another. Segment s, of a mask
    [B_s, T_s, Tk_s] from row first_s, takes the next B_s x (T_s - first_s)
    query rows as [B_s, T_s - first_s, d] and the next B_s x Tk_s key and
    value rows as [B_s, Tk_s, d], and attends as the plain call on them
    with its own mask and plan. Those are views of the packed operands, and
    the segment writes its output and its three gradients through such
    views of the packed buffers, so no segment is copied.

    The queries run one tile at a time against the tile's prefix of the
    shared keys, and each of the last `plan.own` rows adds the score of its
    own key, one of the last `plan.own` keys in order, as one more softmax
    term: its exp joins the row sum, and its value row joins z @ v (see
    `AttentionMask`). A tile's own rows are those of its row slice from the
    first own row on. A skipped key is forbidden for every row of the tile,
    so it would have had weight exactly 0.0.

    Softmax does not change when a row's scores all shift by one amount
    (Milakov & Gimelshein, 2018), and every row is shifted by a permitted
    score of its own, so its shifted scores include an exact 0 and its sum
    of exps is at least 1; no 0/1 rewrite is needed. A plan is anchored
    exactly when it has own keys, for then every row permits its diagonal
    key (`AttentionMask` checks it): it shifts each row by its diagonal
    key's score, which for an owning row is its own key's. That term is
    exp(0) = 1 exactly, so the own term adds [v_own | 1] as it is, and no
    row max is taken. A row whose anchored sum is not finite (an exp
    overflowed) or passes `ANCHOR_LIMIT` is recomputed with its row max,
    the own score included, on its own, so which path a row takes and what
    it computes depend on its permitted scores alone. A plan without own
    keys shifts each row by its max.

    Forbidden keys get weight exactly 0.0, so perturbing their key or value
    rows cannot change any permitted output bit: the -inf sentinel makes
    their shifted scores -inf, and exp(-inf) is exactly +0.0. q is scaled
    by 1/sqrt(d / heads) before the product, which is exact when d / heads
    is a power of four (16 gives 1/4). The weights stay unnormalised, z =
    exp(s - shift) = w / r: one product with [v | 1] per tile gives z @ v
    and the row sums 1/r into one [B, heads, Tq, dh + 1] buffer, and after
    the tiles r scales the [.., Tq, dh] output rather than the [.., Tq, Tk]
    weights.

    Backward uses sum_j w_ij * dL/dw_ij = g_i . out_i (Dao et al., 2022,
    FlashAttention), a [.., Tq, dh] reduction in place of a [.., Tq, Tk]
    one, formed for every head at once as (g * out) times a 0/1 [d, heads]
    matrix. With gr = r * g, the score gradient is z * (gr @ v^T - gr .
    out), exactly 0 where z is 0: one product of [gr | -gr . out] with
    [v | 1], and the same per row for the own-key term, whose z is 1 except
    in a recomputed row. The key and value gradients start at zero and
    each tile adds into its prefix; an own key's come from its one row. A
    key that no row permits has weight exactly 0, so its gradients are
    exact zeros.
    """
    if q.ndim != 3 or k.shape != v.shape or k.ndim != 3 or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2]:
        raise DimensionError(f"attention q/k/v must be [B, T, d] alike, got {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[2]
    if heads < 1 or d % heads:
        raise DimensionError(f"attention width {d} does not split into {heads} heads")
    dtype = q.data.dtype
    # per segment: its plan and first row, and its query and key rows of packed operands (None: the plain call's)
    if isinstance(mask, AttentionMask):
        if mask.permitted.shape != (q.shape[0], first + q.shape[1], k.shape[1]):
            raise DimensionError(
                f"attention mask shape {mask.permitted.shape} incompatible with q {q.shape} from row {first} "
                f"and k {k.shape}"
            )
        parts = [(mask.plan(heads, dtype, first), first, (None, q.shape), (None, k.shape))]
    else:
        if q.shape[0] != 1 or not mask or len(mask) != len(first):
            raise DimensionError(f"segments need [1, N, d] operands and a first row per mask, got q {q.shape}")
        parts, qa, ka = [], 0, 0
        for m, f in zip(mask, first):
            plan = m.plan(heads, dtype, f)
            nb, tq, tk = m.permitted.shape
            qn, kn = nb * (tq - f), nb * tk
            parts.append((plan, f, (slice(qa, qa + qn), (nb, tq - f, d)), (slice(ka, ka + kn), (nb, tk, d))))
            qa, ka = qa + qn, ka + kn
        if (qa, ka) != (q.shape[1], k.shape[1]):
            raise DimensionError(f"segments of {qa} query and {ka} key rows, got q {q.shape} and k {k.shape}")

    out = np.empty(q.shape, dtype=dtype)
    backs = [
        _attend(_segment(q.data, *qr), _segment(k.data, *kr), _segment(v.data, *kr), plan, f, heads, _segment(out, *qr))
        for plan, f, qr, kr in parts
    ]

    def bwd(g):
        gq = np.empty(q.shape, dtype=dtype)  # every row is in a tile
        gk, gv = np.zeros((2, *k.shape), dtype=dtype)  # a key that no tile reads keeps its zeros
        for back, (_, _, qr, kr) in zip(backs, parts):
            back(_segment(g, *qr), _segment(gq, *qr), _segment(gk, *kr), _segment(gv, *kr))
        return gq, gk, gv

    return Tensor._make(out, (q, k, v), bwd, "masked_attention")


def _same_pad(extent: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out = -(-extent // stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    return out, total // 2, total - total // 2


def conv2d(
    x: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor], stride: int, counts: Sequence[int] | None = None
) -> Tensor:
    """Same-padded strided cross-correlation plus a per-channel bias, channels-last, for V views at once.

    x: [N, H, W, C], the images of each view in turn, `counts[v]` of view v
    (an equal share each when `counts` is None); kernels: V [C2, C, kh, kw]
    tensors and biases: V [C2] tensors, one per view. Returns [N, ceil(H /
    stride), ceil(W / stride), C2]; an image of view v is correlated with
    kernels[v]. One view (V = 1) is a plain conv2d.

    im2col pads x into an [N, H, W, C] buffer, and the columns are one copy
    of its strided window view as [N, h2, w2, kh, kw, C], so every run
    copied is whole channels; the kernel matrices are `kernels` in (kh, kw,
    C, C2) order, and each view's [n_v * h2 * w2, C2] output is one product
    of its rows of the columns, of the shapes a call of its own would make,
    so the views' outputs do not depend on being run together. The bias is
    added in place on the product, which already is the output. col2im in
    backward adds the column gradients back through the same window view.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"conv2d input must be [B,H,W,C], got {x.shape}")
    if len(biases) != len(kernels):
        raise DimensionError(f"conv2d got {len(kernels)} kernels but {len(biases)} biases")
    shape = _one_shape(kernels, "conv2d kernels")
    if len(shape) != 4:
        raise DimensionError(f"conv2d kernels must be [C2,C,kh,kw], got {shape}")
    nb, h, w, c = xd.shape
    nv, (c2, ck, kh, kw) = len(kernels), shape
    if counts is None and nb % nv:
        raise DimensionError(f"conv2d: {nb} images do not split into {nv} views")
    at = _view_starts(counts, nv, nb, "conv2d")  # None: views of equal counts
    if kh < 1 or kw < 1:
        raise DimensionError(f"conv2d kernel has zero-sized window: {shape}")
    if ck != c:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernels {shape}")
    bs = _stacked(biases, "conv2d biases")
    if bs.shape[1:] != (c2,):
        raise DimensionError(f"conv2d bias {biases[0].shape} does not match {c2} output channels")
    if stride < 1:
        raise DimensionError(f"conv2d stride must be >= 1, got {stride}")
    h2, top, bot = _same_pad(h, kh, stride)
    w2, left, right = _same_pad(w, kw, stride)
    if kh > h + top + bot or kw > w + left + right:
        raise DimensionError(f"conv2d kernel {kh}x{kw} exceeds padded input {h}x{w}")

    def windows(padded: np.ndarray) -> np.ndarray:
        """[B, h2, w2, kh, kw, C]: the strided windows of a padded [B, Hp, Wp, C] buffer, as a view."""
        sb, sh, sw, sc = padded.strides
        return np.ndarray((nb, h2, w2, kh, kw, c), padded.dtype, padded,
                          strides=(sb, sh * stride, sw * stride, sh, sw, sc))

    xp = np.zeros((nb, h + top + bot, w + left + right, c), dtype=xd.dtype)
    xp[:, top : top + h, left : left + w] = xd
    mat = np.ascontiguousarray(windows(xp)).reshape(nb * h2 * w2, kh * kw * c)
    wmat = np.array([k.data.transpose(2, 3, 1, 0) for k in kernels]).reshape(nv, kh * kw * c, c2)
    at = None if at is None else [a * h2 * w2 for a in at]  # each view's rows of mat and out
    out = _by_view(mat, wmat, at, bs)
    padded_shape = xp.shape  # backward needs no more of the padded buffer, so it is freed on return

    def bwd(g):
        g2 = g.reshape(nb * h2 * w2, c2)
        gx = None
        if x.requires_grad:
            gcols = _by_view(g2, wmat.transpose(0, 2, 1), at).reshape(nb, h2, w2, kh, kw, c)
            gxp = np.zeros(padded_shape, dtype=xd.dtype)
            gwin = windows(gxp)
            for i in range(kh):
                for j in range(kw):  # windows overlap, but no two share (i, j) and a position
                    gwin[..., i, j, :] += gcols[..., i, j, :]
            gx = gxp[:, top : top + h, left : left + w]
        rows = _view_rows(at, nv, mat.shape[0])
        gk = [(g2[r].T @ mat[r]).reshape(c2, kh, kw, c).transpose(0, 3, 1, 2) for r in rows]
        gb = [np.ones(r.stop - r.start, dtype=g.dtype) @ g2[r] for r in rows]  # column sums, as in `_column_sums`
        return gx, *gk, *gb

    return Tensor._make(out.reshape(nb, h2, w2, c2), (x, *kernels, *biases), bwd, "conv2d")


def film(
    x: Tensor,
    lang: Tensor,
    gamma_w: Sequence[Tensor],
    gamma_b: Sequence[Tensor],
    beta_w: Sequence[Tensor],
    beta_b: Sequence[Tensor],
    rows: Sequence[np.ndarray] | None = None,
) -> Tensor:
    """FiLM conditioning, channels-last: (1 + gamma) * x + beta per sample and channel, for V views at once.

    x: [N, ..., C], the samples of each view in turn; lang: [F, L]
    language rows. `rows[v]` names the row of lang that each of view v's
    samples reads, so view v has len(rows[v]) samples; with `rows` None,
    every view has F samples, which read lang's rows in order. Each
    projection argument holds one tensor per view: view v has gamma =
    lang[rows[v]] @ gamma_w[v] + gamma_b[v] and beta = lang[rows[v]] @
    beta_w[v] + beta_b[v], each [n_v, C] ([L, C] weights, [C] biases), the
    products of a call of its own. One tape node holds every view's
    projections and the modulation; one view (V = 1) is a plain FiLM. A
    language row's gradient sums its readers' over the views in turn.
    """
    nv, c = len(gamma_w), x.shape[-1]
    if lang.ndim != 2:
        raise DimensionError(f"film language must be [rows, dims], got {lang.shape}")
    if rows is None:
        if x.shape[0] != nv * lang.shape[0]:
            raise DimensionError(f"film language {lang.shape} does not match {x.shape[0]} samples of {nv} views")
        rows, at = [slice(None)] * nv, None
        lv = lang.data[None]  # every view reads every row: one stacked product each
    else:
        rows = [np.asarray(r, dtype=np.intp) for r in rows]
        if any(r.ndim != 1 or ((r < 0) | (r >= lang.shape[0])).any() for r in rows):
            raise DimensionError(f"film views read language rows outside the {lang.shape[0]} given")
        at = _view_starts([r.size for r in rows], nv, x.shape[0], "film")  # None: views of equal counts
        lv = lang.data[np.concatenate(rows)]  # each sample's language row
    gw, gb = _stacked(gamma_w, "film gamma_w"), _stacked(gamma_b, "film gamma_b")
    bw, bb = _stacked(beta_w, "film beta_w"), _stacked(beta_b, "film beta_b")
    for w_, b_ in ((gw, gb), (bw, bb)):
        if w_.shape != (nv, lang.shape[1], c) or b_.shape != (nv, c):
            raise DimensionError(
                f"film projections {w_.shape}/{b_.shape} do not map {lang.shape[1]} language dims "
                f"to {c} channels for each of {nv} views"
            )
    n = x.shape[0]
    bshape = (n,) + (1,) * (x.ndim - 2) + (c,)
    gamma1 = _by_view(lv, gw, at, gb)  # view v's product is lang[rows[v]] @ gamma_w[v]
    gamma1 += 1.0
    beta = _by_view(lv, bw, at, bb)
    out = x.data * gamma1.reshape(bshape)
    out += beta.reshape(bshape)

    def bwd(g):
        ones = np.ones(g.size // (n * c), dtype=g.dtype)  # per sample: a sum over the positions, as a product
        dgamma = ones @ (g * x.data).reshape(n, -1, c)
        dbeta = ones @ g.reshape(n, -1, c)
        gx = g * gamma1.reshape(bshape) if x.requires_grad else None
        glang = np.zeros(lang.shape, dtype=g.dtype) if lang.requires_grad else None
        grads = [], [], [], []  # of gamma_w, gamma_b, beta_w, beta_b
        for v, (s, r) in enumerate(zip(_view_rows(at, nv, n), rows)):
            if glang is not None:
                part = dgamma[s] @ gw[v].T
                part += dbeta[s] @ bw[v].T
                if isinstance(r, slice):  # every row, once
                    glang += part
                else:
                    np.add.at(glang, r, part)
            lt, sums = (lv[0] if lv.ndim == 3 else lv[s]).T, np.ones(s.stop - s.start, dtype=g.dtype)
            for grad, (m, d) in zip(grads, ((lt, dgamma), (sums, dgamma), (lt, dbeta), (sums, dbeta))):
                grad.append(m @ d[s])
        return gx, glang, *(p for grad in grads for p in grad)

    return Tensor._make(out, (x, lang, *gamma_w, *gamma_b, *beta_w, *beta_b), bwd, "film")
