"""Autodiff core: oracles for forward math, finite differences for gradients."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omnibot.autodiff as ad
from omnibot.autodiff import Tensor, ops
from omnibot.autodiff.ops import AttentionMask
from omnibot.errors import ContractError, DegenerateMaskError, DimensionError


def rand(shape, seed, dtype=np.float64):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(shape).astype(dtype)


def attend(q, k, v, mask, heads, structure=()):
    """`masked_attention` with a boolean mask, [Tq, Tk] shared by the batch or [B, Tq, Tk], and its structure if any."""
    mask = np.broadcast_to(mask, (q.shape[0],) + mask.shape[-2:])
    return ad.masked_attention(q, k, v, AttentionMask(mask, *structure), heads)


# ---------------------------------------------------------------- oracles


def matmul_oracle(a, b):
    m, p = a.shape
    p2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            for k in range(p):
                out[i, j] += a[i, k] * b[k, j]
    return out


def attention_oracle(q, k, v, mask):
    """Dense softmax with -inf fill, computed row by row."""
    s = (q @ k.T) / np.sqrt(q.shape[-1])
    s = np.where(mask, s, -np.inf)
    s = s - s.max(axis=-1, keepdims=True)
    w = np.exp(s)
    w = w / w.sum(axis=-1, keepdims=True)
    return w @ v


def conv_oracle(x, kernels, stride):
    """Naive loops with explicit same-padding."""
    c, h, w = x.shape
    c2, _, kh, kw = kernels.shape
    h2 = -(-h // stride)
    w2 = -(-w // stride)
    ph = max((h2 - 1) * stride + kh - h, 0)
    pw = max((w2 - 1) * stride + kw - w, 0)
    xp = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)))
    out = np.zeros((c2, h2, w2), dtype=x.dtype)
    for o in range(c2):
        for i in range(h2):
            for j in range(w2):
                for ci in range(c):
                    for a in range(kh):
                        for b in range(kw):
                            out[o, i, j] += xp[ci, i * stride + a, j * stride + b] * kernels[o, ci, a, b]
    return out


def gelu_oracle(x, g):
    """GELU's output and input gradient, each float pass of `ops.gelu` run once over the whole array."""
    c, a = np.sqrt(2 / np.pi), 0.044715
    one = x.dtype.type(1.0)
    with np.errstate(over="ignore"):
        t = x * x
        t *= x.dtype.type(-2.0 * c * a)
        t += x.dtype.type(-2.0 * c)
        t *= x
        np.exp(t, out=t)
        t += one
        out = x / t
        s = one / t
        du = one - s
        du *= s
        du *= x
        up = x * x
        up *= x.dtype.type(6.0 * c * a)
        up += x.dtype.type(2.0 * c)
        du *= up
        du += s
        du *= g
    return out, du


def numeric_grad(f, x, eps=1e-6):
    """Central differences over every coordinate of x (float64)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


# ---------------------------------------------------------------- linear


@pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)])
def test_linear_grads_vs_central_differences(x_shape):
    # a 3-D x exercises the backward's collapse of the batch dims into one gemm for w
    x = ad.param(rand(x_shape, 3))
    w = ad.param(rand((5, 3), 4))
    b = ad.param(rand((3,), 5))
    weights = rand(x_shape[:-1] + (3,), 6)
    grads = ad.backward((ad.linear(x, w, b) * ad.tensor(weights)).sum(), [x, w, b])

    def loss_at():
        out = matmul_oracle(x.data.reshape(-1, 5), w.data) + b.data
        return (out.reshape(weights.shape) * weights).sum()

    for p in (x, w, b):
        np.testing.assert_allclose(grads[p], numeric_grad(loss_at, p.data), rtol=1e-7, atol=1e-9)


def test_linear_shape_error_names_every_shape():
    with pytest.raises(DimensionError, match=r"\(4, 5\).*\(4, 3\).*\(3,\)"):
        ad.linear(ad.tensor(rand((4, 5), 0)), ad.tensor(rand((4, 3), 1)), ad.tensor(np.zeros(3)))


# ---------------------------------------------------------------- layer_norm


def test_layer_norm_constant_row_is_zero():
    x = ad.tensor(np.full((2, 4), 3.7))
    out = ad.layer_norm(x, ad.tensor(np.ones(4)), ad.tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_layer_norm_unit_variance_pair():
    x = ad.tensor(np.array([[1.0, -1.0]]))
    out = ad.layer_norm(x, ad.tensor(np.ones(2)), ad.tensor(np.full(2, 5.0)))
    np.testing.assert_allclose(out.data, [[6.0, 4.0]], atol=1e-5)


def test_layer_norm_grad_vs_central_differences():
    x = ad.param(rand((2, 4), 7))
    gain = ad.param(rand(4, 8) * 0.1 + 1.0)
    bias = ad.param(rand(4, 9) * 0.1)
    weights = rand((2, 4), 10)

    def forward():
        return (ad.layer_norm(x, gain, bias) * ad.tensor(weights)).sum()

    grads = ad.backward(forward(), [x, gain, bias])

    def f():
        mu = x.data.mean(-1, keepdims=True)
        var = x.data.var(-1, keepdims=True)
        xhat = (x.data - mu) / np.sqrt(var + 1e-5)
        return ((xhat * gain.data + bias.data) * weights).sum()

    for t in (x, gain, bias):
        num = numeric_grad(f, t.data)
        rel = np.abs(grads[t] - num) / (np.abs(num) + 1e-12)
        assert rel.max() < 1e-5


def test_layer_norm_shape_error():
    with pytest.raises(DimensionError):
        ad.layer_norm(ad.tensor(rand((2, 4), 0)), ad.tensor(np.ones(3)), ad.tensor(np.zeros(3)))


def test_layer_norm_grad_sums_to_zero():
    x = ad.param(rand((3, 6), 11))
    loss = ad.layer_norm(x, ad.tensor(np.ones(6)), ad.tensor(np.zeros(6))).sum()
    g = ad.backward(loss, [x])[x]
    np.testing.assert_allclose(g.sum(axis=-1), 0.0, atol=1e-10)


# ---------------------------------------------------------------- masked_attention


def heads_oracle(q, k, v, mask, heads):
    """`attention_oracle` per batch element and head of [B, T, d] operands."""
    mask = np.broadcast_to(mask, (q.shape[0],) + mask.shape[-2:])
    dh = q.shape[-1] // heads
    out = np.zeros(q.shape, dtype=np.float64)
    for b in range(q.shape[0]):
        for h in range(heads):
            f = slice(h * dh, (h + 1) * dh)
            out[b, :, f] = attention_oracle(q[b, :, f], k[b, :, f], v[b, :, f], mask[b])
    return out


def step_mask(rng, nb, steps, per, pad_frac, readouts=0):
    """A block-causal mask over `steps` steps of `per` observation tokens, then
    `readouts` readout tokens per step, as in a compact window: a query sees the
    observation keys at its own and earlier steps, and itself; an observation
    key that is padding (drawn per element) is seen only by itself."""
    obs = steps * per
    step = np.concatenate([np.repeat(np.arange(steps), per), np.repeat(np.arange(steps), readouts)])
    t = step.size
    pad = np.zeros((nb, t), dtype=bool)
    pad[:, :obs] = rng.random((nb, obs)) < pad_frac
    mask = (step[None, :] <= step[:, None]) & (np.arange(t) < obs) & ~pad[:, None, :]
    mask[:, np.arange(t), np.arange(t)] = True
    return mask


def step_structure(steps, per, readouts, rows=None):
    """The structure of a `step_mask`, drawn from its per-column steps, as `assembler.window_structure` states a window's.

    Each row's key prefix is the observation keys at its step or earlier,
    and the readouts are own keys. For some of its `rows` only, a mask that
    is not square, there are no own keys, and a readout row's prefix runs
    through its own key.
    """
    obs_step = np.repeat(np.arange(steps), per)
    step = np.concatenate([obs_step, np.repeat(np.arange(steps), readouts)])
    prefixes = np.searchsorted(obs_step, step, side="right")
    if rows is None:
        return prefixes, steps * readouts
    return np.maximum(prefixes, np.arange(step.size) + 1)[rows], 0


def tiled(shape_seed=60, nb=4, heads=4, dh=16, steps=3, per=40, readouts=8):
    """q, k, v, a step mask and its structure at a shape that `TILE_ENTRIES`
    splits into tiles and whose readout keys are split off as their rows' own keys."""
    rng = np.random.Generator(np.random.PCG64(shape_seed))
    mask = step_mask(rng, nb, steps, per, 0.2, readouts)
    structure = step_structure(steps, per, readouts)
    plan = AttentionMask(mask, *structure).plan(heads, np.float64)
    assert len(plan.tiles) > 1 and plan.own == steps * readouts
    q, k, v = (rng.standard_normal((nb, mask.shape[1], heads * dh)) for _ in range(3))
    return q, k, v, mask, structure, heads


@contextlib.contextmanager
def tile_entries(value):
    """Run with `ops.TILE_ENTRIES` at `value`: 0 tiles at every step, a huge value never."""
    keep = ops.TILE_ENTRIES
    ops.TILE_ENTRIES = value
    try:
        yield
    finally:
        ops.TILE_ENTRIES = keep


def test_attention_one_hot_mask_selects_value_row():
    q = rand((1, 3, 4), 20)
    k = rand((1, 3, 4), 21)
    v = rand((1, 3, 4), 22)
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 2] = mask[1, 0] = mask[2, 1] = True
    out = attend(ad.tensor(q), ad.tensor(k), ad.tensor(v), mask, 1).data
    np.testing.assert_array_equal(out[0], v[0, [2, 0, 1]])


def test_attention_equal_scores_average_values():
    # two permitted keys with identical key vectors -> equal scores
    q = rand((1, 2, 4), 23)
    k = np.tile(rand((1, 1, 4), 24), (1, 2, 1))
    v = rand((1, 2, 4), 25)
    mask = np.ones((2, 2), dtype=bool)
    out = attend(ad.tensor(q), ad.tensor(k), ad.tensor(v), mask, 1).data
    np.testing.assert_allclose(out[0], np.tile(v[0].mean(0), (2, 1)), rtol=1e-6)


def anchor_gaps(q, k, mask, heads):
    """[B, heads, Tq]: how far each row's largest permitted score lies above its diagonal key's."""
    nb, tq, d = q.shape
    dh = d // heads
    s = np.einsum("bihd,bjhd->bhij", q.reshape(nb, tq, heads, dh), k.reshape(nb, -1, heads, dh)) / np.sqrt(dh)
    s = np.where(mask[:, None], s, -np.inf)
    return s.max(axis=-1) - np.diagonal(s, axis1=-2, axis2=-1)


def test_attention_vs_dense_oracle():
    rng = np.random.Generator(np.random.PCG64(26))
    q, k, v = (rng.standard_normal((1, 6, 4)).astype(np.float32) for _ in range(3))
    mask = rng.random((6, 6)) < 0.6
    mask[np.arange(6), np.arange(6)] = True
    for heads in (1, 2):
        out = attend(ad.tensor(q), ad.tensor(k), ad.tensor(v), mask, heads).data
        ref = heads_oracle(q.astype(np.float64), k.astype(np.float64), v.astype(np.float64), mask, heads)
        assert np.abs(out - ref).max() < 1e-6

    # own keys split off, in float64: every third query row's scores are
    # hundreds of units apart, so those rows overflow their diagonal key's
    # shift and take their row max while the others keep the shift. Outputs
    # match the oracle, gradients the one-tile plan of the row max.
    heads = 2
    mask = step_mask(rng, 2, 3, 6, 0.0, readouts=2)
    structure = step_structure(3, 6, 2)
    q, k, v = (rng.standard_normal((2, 24, 8)) for _ in range(3))
    hot = q.copy()
    hot[:, ::3] *= 1e3
    wsum = ad.tensor(rng.standard_normal(q.shape))
    runs = []
    for entries in (0, 10**18):  # own keys split off, and one tile of the row max
        with tile_entries(entries):
            amask = AttentionMask(mask, *structure)
            qp, kp, vp = (ad.param(a) for a in (hot, k, v))
            out = ad.masked_attention(qp, kp, vp, amask, heads)
            runs.append((out.data, ad.backward((out * wsum).sum(), [qp, kp, vp]).values()))
        assert amask.plan(heads, np.float64).own == (6 if entries == 0 else 0)
    falls = anchor_gaps(hot, k, mask, heads) > np.log(ops.ANCHOR_LIMIT)
    assert falls.any() and not falls.all()
    (out, grads), (one_out, one_grads) = runs
    np.testing.assert_allclose(out, heads_oracle(hot, k, v, mask, heads), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(out, one_out, rtol=1e-12, atol=1e-15)
    for g, want in zip(grads, one_grads):
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12)

    # own keys anchor every row on its diagonal key, so a mask that denies one is refused, naming the row
    denied = mask.copy()
    denied[1, 7, 7] = False  # row 7 still sees the observations of steps 0 and 1
    with pytest.raises(ContractError, match=r"mask row \(1, 7\) denies its diagonal key"):
        AttentionMask(denied, *structure)


def test_attention_forbidden_keys_have_exactly_zero_influence():
    rng = np.random.Generator(np.random.PCG64(27))
    q, k = (ad.tensor(rng.standard_normal((1, 5, 4))) for _ in range(2))
    v1 = rng.standard_normal((1, 5, 4))
    mask = rng.random((5, 5)) < 0.5
    mask[:, 0] = True  # every row keeps at least key 0
    mask[3, :] = False
    mask[3, 1] = True
    out1 = attend(q, k, ad.tensor(v1), mask, 2).data
    forbidden_rows = [j for j in range(5) if not mask[:, j].all() and mask[:, j].any()]
    # perturb one value row forbidden for SOME queries; those outputs must not move
    j = forbidden_rows[0]
    v3 = v1.copy()
    v3[0, j] += 123.456
    out3 = attend(q, k, ad.tensor(v3), mask, 2).data
    unaffected = ~mask[:, j]
    np.testing.assert_array_equal(out1[0, unaffected], out3[0, unaffected])

    # the same at a tiled shape with own keys: moving every key and value row
    # a query may not see moves none of its output bits
    q, k, v, mask, structure, heads = tiled()
    out = attend(ad.tensor(q), ad.tensor(k), ad.tensor(v), mask, heads, structure).data
    for b, i in ((0, 0), (1, 45), (3, 119), (2, 120), (3, 143)):
        unseen = ~mask[b, i]
        k2, v2 = k.copy(), v.copy()
        k2[b, unseen] += 77.0
        v2[b, unseen] -= 123.456
        out2 = attend(ad.tensor(q), ad.tensor(k2), ad.tensor(v2), mask, heads, structure).data
        np.testing.assert_array_equal(out2[b, i], out[b, i])


def test_attention_all_false_row_raises():
    q = ad.tensor(rand((1, 3, 4), 28))
    mask = np.ones((3, 3), dtype=bool)
    mask[1, :] = False
    with pytest.raises(DegenerateMaskError):
        attend(q, q, q, mask, 1)


def test_attention_grads_vs_central_differences():
    for tq, tk in ((5, 5), (3, 6)):  # square, and fewer queries than keys
        q = ad.param(rand((2, tq, 4), 30))
        k = ad.param(rand((2, tk, 4), 31))
        v = ad.param(rand((2, tk, 4), 32))
        rng = np.random.Generator(np.random.PCG64(33))
        mask = rng.random((2, tq, tk)) < 0.7
        mask[:, np.arange(tq), np.arange(tq)] = True
        wsum = rand((2, tq, 4), 34)

        def forward():
            return (attend(q, k, v, mask, 2) * ad.tensor(wsum)).sum()

        grads = ad.backward(forward(), [q, k, v])

        def f():
            return (heads_oracle(q.data, k.data, v.data, mask, 2) * wsum).sum()

        for t in (q, k, v):
            num = numeric_grad(f, t.data)
            rel = np.abs(grads[t] - num) / (np.abs(num) + 1e-12)
            assert rel.max() < 1e-5, f"({tq}, {tk}): max rel err {rel.max()}"


@pytest.mark.parametrize(
    "q_shape, k_shape, mask_shape",
    [
        ((2, 3, 4), (2, 5, 4), (2, 5, 5)),  # mask rows follow k, not q
        ((2, 3, 4), (2, 5, 4), (2, 3, 3)),  # mask columns follow q, not k
        ((2, 3, 4), (2, 5, 2), (2, 3, 5)),  # q and k widths differ
        ((2, 3, 4), (1, 5, 4), (2, 3, 5)),  # q and k batches differ
        ((2, 3, 4), (2, 5, 4), (1, 3, 5)),  # one mask for a batch of two: no broadcast
        ((2, 3, 4), (2, 5, 4), (2, 2, 5)),  # from row 1, as many mask rows as q's, but 1 + 3 are needed
    ],
)
def test_attention_shape_mismatch_raises(q_shape, k_shape, mask_shape):
    q, k = ad.tensor(np.ones(q_shape)), ad.tensor(np.ones(k_shape))
    nb, rows, tk = mask_shape
    for first in (0, 1):  # from row 1, the same mask below one more row
        with pytest.raises(DimensionError):
            ad.masked_attention(q, k, k, AttentionMask(np.ones((nb, first + rows, tk), dtype=bool)), 2, first)


def test_attention_mask_must_be_batched():
    for shape in ((3, 3), (1, 1, 3, 3)):
        with pytest.raises(DimensionError, match=r"must be \[B, Tq, Tk\]"):
            AttentionMask(np.ones(shape, dtype=bool))


@pytest.mark.parametrize(
    "shape, prefixes, own, match",
    [
        ((1, 4, 4), np.full(3, 2), 0, "4 mask rows need 4 key prefixes"),  # one prefix short
        ((1, 4, 4), np.full(4, 5), 0, "within the 4 shared keys"),  # past the last key
        ((1, 4, 4), np.full(4, 3), 2, "within the 2 shared keys"),  # into the own keys
        ((1, 4, 4), None, 1, "own keys need a square mask and its rows' key prefixes"),
        ((1, 3, 4), np.full(3, 2), 1, "own keys need a square mask"),
    ],
)
def test_attention_mask_structure_must_fit_the_mask(shape, prefixes, own, match):
    with pytest.raises(DimensionError, match=match):
        AttentionMask(np.ones(shape, dtype=bool), prefixes, own)


def test_attention_width_must_split_into_the_heads():
    q = ad.tensor(np.ones((1, 3, 6)))
    for heads in (0, 4):
        with pytest.raises(DimensionError, match="6 does not split"):
            attend(q, q, q, np.ones((3, 3), dtype=bool), heads)


def test_attention_grad_of_forbidden_value_row_is_zero():
    q = ad.param(rand((1, 4, 3), 35))
    k = ad.param(rand((1, 4, 3), 37))
    v = ad.param(rand((1, 4, 3), 36))
    mask = np.ones((4, 4), dtype=bool)
    mask[:, 2] = False
    mask[2, 2] = True  # key 2 visible only to query 2... keep row 2 alive
    loss = attend(q, k, v, mask, 1).sum()
    grads = ad.backward(loss, [k, v])
    # key and value row 2 receive weight only from query 2
    assert grads[k][0, 2].any() and grads[v][0, 2].any()
    mask2 = np.ones((4, 4), dtype=bool)
    mask2[:, 2] = False
    mask2[:, 0] = True
    loss2 = attend(q, k, v, mask2, 1).sum()
    grads2 = ad.backward(loss2, [k, v])
    np.testing.assert_array_equal(grads2[k][0, 2], np.zeros(3))
    np.testing.assert_array_equal(grads2[v][0, 2], np.zeros(3))

    # at a tiled shape with own keys, attending from row 60 on (the last step
    # and a half of observations, and every readout) leaves the pad keys of
    # the cut rows permitted by no row of their element: they sit inside a
    # tile's prefix with weight exactly 0, so they get exactly zero gradient
    q, k, v, mask, structure, heads = tiled()
    first = 60
    q, k, v = ad.param(q[:, first:]), ad.param(k), ad.param(v)
    wsum = ad.tensor(rand(q.shape, 38))
    for cut in (None, slice(40, 50)):  # then also keys that no row from `first` on permits in any element
        if cut is not None:
            mask[:, first:, cut] = False
        amask = AttentionMask(mask, *structure)
        plan = amask.plan(heads, np.float64, first)
        assert len(plan.tiles) > 1 and (plan.shared, plan.own) == (120, 24)
        grads = ad.backward((ad.masked_attention(q, k, v, amask, heads, first) * wsum).sum(), [k, v])
        unseen = ~mask[:, first:].any(axis=1)  # [B, Tk]
        # pads of cut rows, and the cut keys; every readout sees itself
        assert unseen[:, :60].any() and not unseen[:, 120:].any() and (cut is None or unseen[:, cut].all())
        assert (np.flatnonzero(unseen.any(axis=0)) < max(t.keys for t in plan.tiles)).all()  # inside a prefix
        np.testing.assert_array_equal(grads[k][unseen], 0.0)
        np.testing.assert_array_equal(grads[v][unseen], 0.0)
        assert grads[k][~unseen].any(axis=-1).all()


def test_attention_with_large_scores_ignores_unseen_keys_exactly():
    # q x50 puts the scores hundreds of units apart; forbidden
    # weights must still be exactly 0.0, so key/value rows no query sees
    # move no output bit and get exactly zero gradient
    rng = np.random.Generator(np.random.PCG64(41))
    q = ad.param((rng.standard_normal((2, 5, 48)) * 50).astype(np.float32))
    k = ad.param(rng.standard_normal((2, 7, 48)).astype(np.float32))
    v = ad.param(rng.standard_normal((2, 7, 48)).astype(np.float32))
    mask = rng.random((2, 5, 7)) < 0.5
    mask[:, :, 0] = True
    mask[:, :, 4] = False  # key 4 is seen by no query
    wsum = ad.tensor(rng.standard_normal((2, 5, 48)).astype(np.float32))
    out = attend(q, k, v, mask, 3)
    grads = ad.backward((out * wsum).sum(), [q, k, v])
    np.testing.assert_array_equal(grads[k][:, 4], 0.0)
    np.testing.assert_array_equal(grads[v][:, 4], 0.0)
    assert np.all(np.isfinite(grads[q]))
    k2, v2 = k.data.copy(), v.data.copy()
    k2[:, 4] = 1e4
    v2[:, 4] = -1e4
    out2 = attend(q, ad.tensor(k2), ad.tensor(v2), mask, 3)
    np.testing.assert_array_equal(out2.data, out.data)

    # the same at a tiled shape, where the later steps' keys are skipped for
    # the early tiles and the readouts are own keys: ±1e4 in every key and
    # value row a query may not see
    q, k, v, mask, structure, heads = tiled(shape_seed=61)
    q, k, v = (ad.param(a.astype(np.float32)) for a in (q * 50, k, v))
    out = attend(q, k, v, mask, heads, structure)
    grads = ad.backward((out * ad.tensor(rand(q.shape, 42, np.float32))).sum(), [q])
    assert np.all(np.isfinite(grads[q]))
    for b, i in ((0, 3), (2, 70), (1, 140)):
        unseen = ~mask[b, i]
        k2, v2 = k.data.copy(), v.data.copy()
        k2[b, unseen] = 1e4
        v2[b, unseen] = -1e4
        out2 = attend(q, ad.tensor(k2), ad.tensor(v2), mask, heads, structure)
        np.testing.assert_array_equal(out2.data[b, i], out.data[b, i])


def test_attention_batched_matches_per_sequence():
    rng = np.random.Generator(np.random.PCG64(37))
    q = rng.standard_normal((2, 6, 12))
    k = rng.standard_normal((2, 6, 12))
    v = rng.standard_normal((2, 6, 12))
    mask = rng.random((2, 6, 6)) < 0.5
    mask[:, np.arange(6), np.arange(6)] = True
    out = attend(ad.tensor(q), ad.tensor(k), ad.tensor(v), mask, 3).data
    for b in range(2):
        for h in range(3):
            f = slice(4 * h, 4 * h + 4)
            ref = attend(
                ad.tensor(q[b : b + 1, :, f]), ad.tensor(k[b : b + 1, :, f]), ad.tensor(v[b : b + 1, :, f]), mask[b], 1
            ).data
            np.testing.assert_allclose(out[b, :, f], ref[0], rtol=1e-12, atol=1e-14)


def test_masked_softmax_forbidden_weights_exactly_zero():
    # with each head's v the identity, each head's output row is that query's weight row
    rng = np.random.Generator(np.random.PCG64(39))
    q = (rng.standard_normal((2, 6, 12)) * 50).astype(np.float32)
    k = rng.standard_normal((2, 6, 12)).astype(np.float32)
    eye = np.broadcast_to(np.tile(np.eye(6, dtype=np.float32), (1, 2)), (2, 6, 12))
    mask = rng.random((2, 6, 6)) < 0.4
    mask[:, np.arange(6), np.arange(6)] = True
    amask = AttentionMask(mask)
    plan = amask.plan(2, q.dtype)
    (tile,) = plan.tiles  # one tile of every key, and no own keys
    additive = tile.sentinel
    assert additive.shape == (2, 1, 6, 6) and additive.dtype == np.float32 and plan.own == 0
    np.testing.assert_array_equal(additive[:, 0] == 0.0, mask)
    out = ad.masked_attention(ad.tensor(q), ad.tensor(k), ad.tensor(eye), amask, 2).data
    for b in range(2):
        for w in (out[b, :, :6], out[b, :, 6:]):
            assert (w[~mask[b]] == 0.0).all()
            assert (w[mask[b]] > 0.0).any()
            np.testing.assert_allclose(w.sum(-1), 1.0, rtol=1e-5)


step_layouts = st.tuples(
    st.integers(1, 4),  # batch
    st.sampled_from((1, 2, 4)),  # heads
    st.integers(1, 5),  # steps
    st.integers(1, 9),  # observation tokens per step
    st.integers(0, 3),  # readout tokens per step
    st.floats(0.0, 0.6),  # pad fraction
    st.integers(0, 2**32 - 1),  # seed
)


def query_rows(steps, per, readouts, queries):
    """Rows of a `step_mask` that a window's layer queries: all, the last step's, every third, or the readouts."""
    obs, t = steps * per, steps * (per + readouts)
    if queries == "last-step":
        return np.r_[obs - per : obs, t - readouts : t]
    if queries == "readouts" and readouts:
        return np.arange(obs, t)
    return np.arange(0, t, 3) if queries == "sparse" else np.arange(t)


def assert_sentinel(sentinel, permitted):
    """`sentinel` is None iff `permitted` [B, ...] denies nothing, else [B, 1, ...]: -inf where denied, +0.0 elsewhere."""
    if permitted.all():
        assert sentinel is None
        return
    assert sentinel.dtype == np.float32 and sentinel.shape == (permitted.shape[0], 1) + permitted.shape[1:]
    np.testing.assert_array_equal(sentinel[:, 0], np.where(permitted, 0.0, -np.inf))
    assert not np.signbit(sentinel[:, 0][permitted]).any()


@settings(max_examples=60, deadline=None)
@given(layout=step_layouts, queries=st.sampled_from(("all", "last-step", "sparse", "readouts")))
def test_property_every_permitted_key_is_in_a_tile_prefix_or_owned(layout, queries):
    nb, heads, steps, per, readouts, pad_frac, seed = layout
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = step_mask(rng, nb, steps, per, pad_frac, readouts)
    t = mask.shape[-1]
    rows = query_rows(steps, per, readouts, queries)
    structure = step_structure(steps, per, readouts, None if rows.size == t else rows)
    mask = mask[:, rows]
    seen = mask.any(axis=0)  # [rows, keys]: permitted in some element
    for entries in (0, 15_000, 10**18):
        with tile_entries(entries):
            plan = AttentionMask(mask, *structure).plan(heads, np.float32)
        tiles = plan.tiles
        assert [x.rows.start for x in tiles] == [0] + [x.rows.stop for x in tiles[:-1]]
        assert tiles[-1].rows.stop == rows.size
        assert plan.shared + plan.own == t  # every key is a shared or an own key
        read = np.zeros_like(seen)
        for x in tiles:
            assert 0 <= x.keys <= plan.shared
            read[x.rows, : x.keys] = True
            assert_sentinel(x.sentinel, mask[:, x.rows, : x.keys])
        if plan.own:  # only a square mask splits, and then the trailing keys, each its diagonal row's alone
            assert rows.size == t and plan.own == structure[1]
            owners = owned = np.arange(plan.shared, t)
            assert (seen[:, owned].sum(axis=0) == 1).all() and mask[:, owners, owned].all()
            read[owners, owned] = True
        assert not (seen & ~read).any()  # every permitted key: in its row's tile prefix, or its own key


@settings(max_examples=60, deadline=None)
@given(layout=step_layouts, queries=st.sampled_from(("all", "readouts")))
def test_property_tiled_attention_matches_one_tile_and_the_oracle(layout, queries):
    nb, heads, steps, per, readouts, pad_frac, seed = layout
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = step_mask(rng, nb, steps, per, pad_frac, readouts)
    rows = query_rows(steps, per, readouts, queries)
    structure = step_structure(steps, per, readouts, None if rows.size == mask.shape[1] else rows)
    mask = mask[:, rows]
    tq, t, d = mask.shape[1], mask.shape[2], heads * 4
    q = ad.param(rng.standard_normal((nb, tq, d)))
    k, v = (ad.param(rng.standard_normal((nb, t, d))) for _ in range(2))
    wsum = ad.tensor(rng.standard_normal((nb, tq, d)))
    runs = []
    for entries in (0, 10**18):  # cuts and own keys wherever they save a score, and one tile
        with tile_entries(entries):
            amask = AttentionMask(mask, *structure)
            out = ad.masked_attention(q, k, v, amask, heads)
            runs.append((amask.plan(heads, q.dtype), out.data, ad.backward((out * wsum).sum(), [q, k, v])))
    (_, tiled_out, tiled_grads), (one, one_out, one_grads) = runs
    assert len(one.tiles) == 1 and one.own == 0
    # not bitwise: a shorter key prefix changes BLAS's blocking of the sums
    np.testing.assert_allclose(tiled_out, one_out, rtol=1e-12, atol=1e-15)
    for p in (q, k, v):
        np.testing.assert_allclose(tiled_grads[p], one_grads[p], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(tiled_out, heads_oracle(q.data, k.data, v.data, mask, heads), rtol=1e-10, atol=1e-12)


def test_a_tail_is_cut_from_its_masks_plan_and_planned_once(monkeypatch):
    _, _, _, mask, structure, heads = tiled()
    amask = AttentionMask(mask, *structure)
    plan = amask.plan(heads, np.float64)
    first = mask.shape[1] - 24  # the readouts of every step
    planned = []
    monkeypatch.setattr(ops, "_cut", lambda *args: planned.append(args))
    cut = amask.plan(heads, np.float64, first)
    assert amask.plan(heads, np.float64, first) is cut and not planned
    assert amask.plan(heads, np.float64, 0) is plan and cut.tiles[-1].rows.stop == 24
    assert cut.shared == plan.shared and [t.keys for t in cut.tiles] == [t.keys for t in plan.tiles if t.rows.stop > first]
    assert cut.own == plan.own == 24 and plan.shared == first  # every readout row is left, owning its key
    inner = amask.plan(heads, np.float64, mask.shape[1] - 5)  # within the readouts: the cut rows' own keys drop out
    assert (inner.shared, inner.own, inner.tiles[-1].rows.stop) == (first, 5, 5) and not planned
    for bad in (-1, mask.shape[1]):
        with pytest.raises(DimensionError, match=f"attention from row {bad} of a mask of {mask.shape[1]} rows"):
            amask.plan(heads, np.float64, bad)


@settings(max_examples=60, deadline=None)
@given(layout=step_layouts, at=st.floats(0.0, 1.0))
def test_property_a_tail_reads_its_rows_keys_and_attends_as_a_fresh_mask(layout, at):
    """Attention from row `first` of a step mask, whose readout rows (the rows that own keys) sit last, in float64."""
    nb, heads, steps, per, readouts, pad_frac, seed = layout
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = step_mask(rng, nb, steps, per, pad_frac, readouts)
    tq, t, d = mask.shape[1], mask.shape[2], heads * 4
    first = min(int(at * tq), tq - 1)
    rows = mask[:, first:]
    structure = step_structure(steps, per, readouts)
    tail = step_structure(steps, per, readouts, np.arange(first, tq)) if first else structure
    seen = rows.any(axis=0)
    q = ad.param(rng.standard_normal((nb, tq - first, d)))
    k, v = (ad.param(rng.standard_normal((nb, t, d))) for _ in range(2))
    wsum = ad.tensor(rng.standard_normal(q.shape))
    for entries in (0, 15_000):
        with tile_entries(entries):
            amask = AttentionMask(mask, *structure)
            amask.plan(heads, np.float64)  # the first layer's, which `first` cuts
            plan = amask.plan(heads, np.float64, first)
            fresh = AttentionMask(rows, *tail)
            fresh.plan(heads, np.float64)
        read = np.zeros_like(seen)
        for x in plan.tiles:
            read[x.rows, : x.keys] = True
            want = rows[:, x.rows, : x.keys]
            if x.sentinel is None:
                assert want.all()
            else:
                np.testing.assert_array_equal(x.sentinel[:, 0], np.where(want, 0.0, -np.inf))
        if plan.own:  # the last rows left own the last keys
            owners, owned = np.arange(tq - first - plan.own, tq - first), np.arange(t - plan.own, t)
            assert plan.shared <= t - plan.own
            read[owners, owned] = True
            assert (seen[:, owned].sum(axis=0) == 1).all() and seen[owners, owned].all()
        assert not (seen & ~read).any()  # every permitted key: in its row's tile prefix, or its own key

        out = ad.masked_attention(q, k, v, amask, heads, first)
        grads = ad.backward((out * wsum).sum(), [q, k, v])
        want = ad.masked_attention(q, k, v, fresh, heads)
        want_grads = ad.backward((want * wsum).sum(), [q, k, v])
        np.testing.assert_allclose(out.data, want.data, rtol=1e-12, atol=1e-14)
        for p in (q, k, v):
            np.testing.assert_allclose(grads[p], want_grads[p], rtol=1e-12, atol=1e-12)
        unseen = ~rows.any(axis=1)  # [B, Tk]: keys no tail row permits
        np.testing.assert_array_equal(grads[k][unseen], 0.0)
        np.testing.assert_array_equal(grads[v][unseen], 0.0)
        b, i = int(rng.integers(nb)), int(rng.integers(tq - first))
        k2, v2 = k.data.copy(), v.data.copy()
        k2[b, ~rows[b, i]] = 1e4
        v2[b, ~rows[b, i]] = -1e4
        moved = ad.masked_attention(q, ad.tensor(k2), ad.tensor(v2), amask, heads, first)
        np.testing.assert_array_equal(moved.data[b, i], out.data[b, i])  # forbidden keys weigh exactly 0


def packed(arrays):
    """[B, T, d] arrays as the rows of one [1, sum B x T, d] array, each in turn."""
    return np.concatenate([a.reshape(1, -1, a.shape[-1]) for a in arrays], axis=1)


@pytest.mark.parametrize("entries", (0, 15_000))
def test_attention_segments_equal_one_plain_call_each_bit_for_bit(entries):
    """Segments of step masks with and without own keys, from row 0 and from later rows, in one node."""
    rng = np.random.Generator(np.random.PCG64(61))
    heads, d = 2, 8
    shapes = ((3, 3, 5, 2), (1, 4, 3, 1), (2, 2, 9, 3), (2, 3, 4, 0))  # batch, steps, per, readouts
    segments = []
    with tile_entries(entries):
        for (nb, steps, per, readouts), at in zip(shapes, (0, 1, 0.5, 0)):
            mask = step_mask(rng, nb, steps, per, 0.3, readouts)
            tq, t = mask.shape[1:]
            first = int(at * (tq - 1))
            amask = AttentionMask(mask, *step_structure(steps, per, readouts)) if readouts else AttentionMask(mask)
            amask.plan(heads, np.float64)
            parts = [ad.param(rng.standard_normal(shape)) for shape in ((nb, tq - first, d), (nb, t, d), (nb, t, d))]
            segments.append((amask, first, parts))
    q, k, v = (ad.param(packed([parts[i].data for _, _, parts in segments])) for i in range(3))
    wsum = rng.standard_normal(q.shape)
    out = ad.masked_attention(q, k, v, [m for m, _, _ in segments], heads, [f for _, f, _ in segments])
    grads = ad.backward((out * ad.tensor(wsum)).sum(), [q, k, v])
    want, want_grads, at = [], [[], [], []], 0
    for amask, first, parts in segments:
        plain = ad.masked_attention(*parts, amask, heads, first)
        rows = plain.shape[0] * plain.shape[1]
        weight = ad.tensor(wsum[0, at : at + rows].reshape(plain.shape))
        g = ad.backward((plain * weight).sum(), parts)
        want.append(plain.data)
        for i, p in enumerate(parts):
            want_grads[i].append(g[p])
        at += rows
    assert out.data.tobytes() == packed(want).tobytes()
    for p, w in zip((q, k, v), want_grads):
        assert grads[p].tobytes() == packed(w).tobytes()


def test_attention_segments_must_cover_the_packed_rows():
    mask = AttentionMask(np.ones((2, 3, 3), dtype=bool))
    rows, keys = ad.tensor(np.ones((1, 6, 4))), ad.tensor(np.ones((1, 7, 4)))
    with pytest.raises(DimensionError, match="segments of 6 query and 6 key rows"):
        ad.masked_attention(rows, keys, keys, [mask], 2, [0])
    with pytest.raises(DimensionError, match="a first row per mask"):
        ad.masked_attention(rows, rows, rows, [mask], 2, [0, 0])
    with pytest.raises(DimensionError, match="a first row per mask"):
        ad.masked_attention(ad.tensor(np.ones((2, 3, 4))), *[ad.tensor(np.ones((2, 3, 4)))] * 2, [mask], 2, [0])


# ---------------------------------------------------------------- conv2d


def nhwc(x):
    """[C, H, W] (or [B, C, H, W]) -> channels-last [1, H, W, C] ([B, H, W, C])."""
    return x.transpose(1, 2, 0)[None] if x.ndim == 3 else x.transpose(0, 2, 3, 1)


def test_conv_identity_kernel():
    x = rand((3, 8, 8), 40, np.float32)
    k = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for c in range(3):
        k[c, c, 0, 0] = 1.0
    out = ad.conv2d(ad.tensor(nhwc(x)), [ad.tensor(k)], [ad.tensor(np.zeros(3, np.float32))], stride=1).data
    np.testing.assert_array_equal(out, nhwc(x))


def test_conv_stride_two_spatial_arithmetic():
    x = ad.tensor(nhwc(rand((3, 24, 24), 41, np.float32)))
    k = ad.tensor(rand((5, 3, 3, 3), 42, np.float32))
    out = ad.conv2d(x, [k], [ad.tensor(np.zeros(5, np.float32))], stride=2)
    assert out.shape == (1, 12, 12, 5)


def test_conv_vs_naive_loop():
    x = rand((3, 8, 8), 43, np.float32)
    k = rand((4, 3, 3, 3), 44, np.float32) * 0.2
    b = rand((4,), 45, np.float32)
    for stride in (1, 2, 3):
        out = ad.conv2d(ad.tensor(nhwc(x)), [ad.tensor(k)], [ad.tensor(b)], stride=stride).data
        ref = nhwc(conv_oracle(x, k, stride) + b[:, None, None])
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() < 1e-6


def test_conv_zero_sized_kernel_error():
    with pytest.raises(DimensionError):
        ad.conv2d(ad.tensor(nhwc(rand((3, 8, 8), 45))), [ad.tensor(np.zeros((4, 3, 0, 3)))], [ad.tensor(np.zeros(4))], 1)


def test_conv_grads_vs_central_differences():
    x = ad.param(nhwc(rand((2, 5, 5), 46)).copy())
    k = ad.param(rand((3, 2, 3, 3), 47) * 0.3)
    b = ad.param(rand((3,), 51))
    w = rand((1, 3, 3, 3), 48)

    def forward():
        return (ad.conv2d(x, [k], [b], stride=2) * ad.tensor(w)).sum()

    grads = ad.backward(forward(), [x, k, b])

    def f():
        return (nhwc(conv_oracle(x.data[0].transpose(2, 0, 1), k.data, 2) + b.data[:, None, None]) * w).sum()

    for t in (x, k, b):
        num = numeric_grad(f, t.data)
        rel = np.abs(grads[t] - num) / (np.abs(num) + 1e-12)
        assert rel.max() < 1e-5


def test_conv_rectangular_kernel_vs_oracle_and_central_differences():
    # kh != kw and C != C2 pin the kernel matrix's (kh, kw, C, C2) order,
    # which square kernels with equal channel counts cannot tell apart
    x = ad.param(nhwc(rand((3, 2, 5, 7), 53)).copy())
    k = ad.param(rand((4, 2, 2, 3), 54) * 0.3)
    b = ad.param(rand((4,), 52))

    def oracle(stride):
        return nhwc(np.stack([conv_oracle(x.data[i].transpose(2, 0, 1), k.data, stride) for i in range(3)])
                    + b.data[:, None, None])

    for stride in (1, 2, 3):
        out = ad.conv2d(x, [k], [b], stride=stride)
        ref = oracle(stride)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)

        w = rand(ref.shape, 55 + stride)
        grads = ad.backward((ad.conv2d(x, [k], [b], stride=stride) * ad.tensor(w)).sum(), [x, k, b])

        def f():
            return (oracle(stride) * w).sum()

        for t in (x, k, b):
            num = numeric_grad(f, t.data)
            rel = np.abs(grads[t] - num) / (np.abs(num) + 1e-12)
            assert rel.max() < 1e-5, f"stride {stride}: max rel err {rel.max()}"


def test_conv_batched_matches_single():
    x = nhwc(rand((4, 3, 6, 6), 49, np.float32))
    k = rand((2, 3, 3, 3), 50, np.float32)
    b = ad.tensor(rand((2,), 51, np.float32))
    out = ad.conv2d(ad.tensor(x), [ad.tensor(k)], [b], stride=2).data
    for i in range(4):
        single = ad.conv2d(ad.tensor(x[i : i + 1]), [ad.tensor(k)], [b], stride=2).data
        np.testing.assert_array_equal(out[i], single[0])


# ---------------------------------------------------------------- film


def film_composite(x, lang, gamma_w, gamma_b, beta_w, beta_b):
    """FiLM as the tape ops it replaces: two linears, reshapes, a multiply and two adds."""
    shape = (x.shape[0],) + (1,) * (x.ndim - 2) + (x.shape[-1],)
    gamma = ad.linear(lang, gamma_w, gamma_b).reshape(shape)
    beta = ad.linear(lang, beta_w, beta_b).reshape(shape)
    return x * (gamma + 1.0) + beta


def one_view_film(x, lang, *projections):
    """`ad.film` for one view: each projection as a list of one tensor."""
    return ad.film(x, lang, *([p] for p in projections))


def test_film_matches_the_composite_and_central_differences():
    rng = np.random.Generator(np.random.PCG64(70))
    for dtype in (np.float32, np.float64):
        args = [ad.param(rng.standard_normal(s).astype(dtype)) for s in ((3, 4, 5, 6), (3, 7), (7, 6), (6,), (7, 6), (6,))]
        np.testing.assert_array_equal(one_view_film(*args).data, film_composite(*args).data)
    w = rng.standard_normal(args[0].shape)

    def loss(fn):
        return (fn(*args) * ad.tensor(w)).sum()

    grads = ad.backward(loss(one_view_film), args)
    composite = ad.backward(loss(film_composite), args)

    def f():
        return loss(film_composite).item()

    for t in args:
        np.testing.assert_allclose(grads[t], composite[t], rtol=1e-12, atol=1e-12)
        num = numeric_grad(f, t.data)
        assert np.abs(grads[t] - num).max() < 1e-5 * np.abs(num).max()  # x's gradient has entries near 0


# ---------------------------------------------------------------- views run together


def view_params(rng, views, shape, dtype):
    return [ad.param(rng.standard_normal(shape).astype(dtype)) for _ in range(views)]


@pytest.mark.parametrize("views", (1, 3))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("stride, kernel", ((1, (3, 3)), (2, (3, 3)), (1, (2, 3)), (2, (3, 2))))
def test_grouped_conv2d_equals_a_call_per_view_bit_for_bit(views, dtype, stride, kernel):
    rng = np.random.Generator(np.random.PCG64(90))
    n, c, c2 = 2, 3, 4
    x = ad.param(rng.standard_normal((views * n, 7, 6, c)).astype(dtype))
    kernels = view_params(rng, views, (c2, c, *kernel), dtype)
    biases = view_params(rng, views, (c2,), dtype)
    out = ad.conv2d(x, kernels, biases, stride)
    w = rng.standard_normal(out.shape).astype(dtype)
    grads = ad.backward((out * ad.tensor(w)).sum(), [x, *kernels, *biases])
    for v in range(views):
        at = slice(v * n, (v + 1) * n)
        xv = ad.param(x.data[at])
        one = ad.conv2d(xv, [kernels[v]], [biases[v]], stride)
        np.testing.assert_array_equal(out.data[at], one.data)
        alone = ad.backward((one * ad.tensor(w[at])).sum(), [xv, kernels[v], biases[v]])
        np.testing.assert_array_equal(grads[x][at], alone[xv])
        np.testing.assert_array_equal(grads[kernels[v]], alone[kernels[v]])
        np.testing.assert_array_equal(grads[biases[v]], alone[biases[v]])


@pytest.mark.parametrize("views", (1, 3))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_grouped_film_equals_a_call_per_view_bit_for_bit(views, dtype):
    rng = np.random.Generator(np.random.PCG64(91))
    n, lang_dim, c = 2, 5, 4
    x = ad.param(rng.standard_normal((views * n, 3, 2, c)).astype(dtype))
    lang = ad.param(rng.standard_normal((n, lang_dim)).astype(dtype))
    projections = [view_params(rng, views, shape, dtype) for shape in ((lang_dim, c), (c,)) * 2]
    out = ad.film(x, lang, *projections)
    w = rng.standard_normal(out.shape).astype(dtype)
    flat = [p for per_view in projections for p in per_view]
    grads = ad.backward((out * ad.tensor(w)).sum(), [x, lang, *flat])
    glang = None
    for v in range(views):
        at = slice(v * n, (v + 1) * n)
        xv, lv = ad.param(x.data[at]), ad.param(lang.data)
        mine = [per_view[v] for per_view in projections]
        one = one_view_film(xv, lv, *mine)
        np.testing.assert_array_equal(out.data[at], one.data)
        alone = ad.backward((one * ad.tensor(w[at])).sum(), [xv, lv, *mine])
        np.testing.assert_array_equal(grads[x][at], alone[xv])
        for p in mine:
            np.testing.assert_array_equal(grads[p], alone[p])
        glang = alone[lv] if glang is None else glang + alone[lv]  # every view reads the language rows
    np.testing.assert_array_equal(grads[lang], glang)


def test_grouped_conv2d_and_film_pass_finite_diff_check():
    rng = np.random.Generator(np.random.PCG64(92))
    views, n = 3, 2
    x = ad.param(rng.standard_normal((views * n, 5, 5, 2)))
    lang = ad.param(rng.standard_normal((n, 3)))
    params = {"x": x, "lang": lang}
    for v in range(views):
        params[f"k{v}"] = ad.param(rng.standard_normal((4, 2, 3, 3)) * 0.3)
        params[f"b{v}"] = ad.param(rng.standard_normal(4))
        for nm, shape in (("gw", (3, 4)), ("gb", (4,)), ("bw", (3, 4)), ("bb", (4,))):
            params[f"{nm}{v}"] = ad.param(rng.standard_normal(shape) * 0.5)
    w = ad.tensor(rng.standard_normal((views * n, 3, 3, 4)))

    def per_view(name):
        return [params[f"{name}{v}"] for v in range(views)]

    def loss():
        y = ad.conv2d(x, per_view("k"), per_view("b"), stride=2)
        return (ad.film(y, lang, *map(per_view, ("gw", "gb", "bw", "bb"))) * w).sum()

    report = ad.finite_diff_check(loss, params, probes=64)
    assert report.max_rel_err < 1e-6
    assert sum(p.status == "ok" for p in report.probes) > 48


@pytest.mark.parametrize("call, match", [
    (lambda x, k, b: ad.conv2d(x, [k, k], [b], 1), "2 kernels but 1 biases"),
    (lambda x, k, b: ad.conv2d(x, [k] * 4, [b] * 4, 1), "6 images do not split into 4 views"),
    (lambda x, k, b: ad.conv2d(x, [k, ad.tensor(np.zeros((3, 2, 2, 2)))], [b, b], 1), "kernels need one or more tensors of one shape"),
    (lambda x, k, b: ad.conv2d(x, [], [], 1), "one or more"),
    (lambda x, k, b: ad.film(x, ad.tensor(np.zeros((3, 5))), *[[ad.tensor(np.zeros((5, 3)))] * 4] * 2,
                             *[[ad.tensor(np.zeros(3))] * 4] * 2), "6 samples of 4 views"),
    (lambda x, k, b: ad.linear(x, [ad.tensor(np.zeros((2, 3)))] * 4, [b] * 4), r"x=\(6, 4, 4, 2\) w=\[\(2, 3\)"),
    (lambda x, k, b: ad.linear(x, [ad.tensor(np.zeros((2, 3)))] * 2, [b]), r"b=\[\(3,\)\]"),
    (lambda x, k, b: ad.linear(x, [ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 4)))], [b] * 2), "linear weights"),
])
def test_grouped_ops_reject_views_that_do_not_fit(call, match):
    x = ad.tensor(np.zeros((6, 4, 4, 2)))
    k, b = ad.tensor(np.zeros((3, 2, 3, 3))), ad.tensor(np.zeros(3))
    with pytest.raises(DimensionError, match=match):
        call(x, k, b)


@pytest.mark.parametrize("views", (1, 2, 3))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_grouped_linear_equals_take_linear_concat_bit_for_bit(views, dtype):
    """The encoder's projection: one `linear` node over V views against a take, a linear and a concat per view."""
    rng = np.random.Generator(np.random.PCG64(93))
    n, tokens, c, d = 8, 9, 64, 32
    x = ad.param(rng.standard_normal((views * n, tokens, c)).astype(dtype))
    ws, bs = view_params(rng, views, (c, d), dtype), view_params(rng, views, (d,), dtype)
    w = ad.tensor(rng.standard_normal((views * n, tokens, d)).astype(dtype))
    out = ad.linear(x, ws, bs)
    grads = ad.backward((out * w).sum(), [x, *ws, *bs])
    rows = [ad.take(x, np.arange(v * n, (v + 1) * n), axis=0) for v in range(views)]
    oracle = ad.concat([ad.linear(r, wv, bv) for r, wv, bv in zip(rows, ws, bs)], axis=0)
    want = ad.backward((oracle * w).sum(), [x, *ws, *bs])
    assert_same_bits(out.data, oracle.data)
    for p in (x, *ws, *bs):
        assert_same_bits(grads[p], want[p])


# views of unequal counts, as a mixed batch's views have: `workspace` with two robots' frames, a wrist camera with one's
RAGGED = ((3, 1, 2), (1,), (2, 5), (4, 4))


def view_slices(counts):
    at = np.cumsum([0, *counts])
    return [slice(a, e) for a, e in zip(at, at[1:])]


@pytest.mark.parametrize("counts", RAGGED)
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_ragged_conv2d_equals_a_call_per_view_bit_for_bit(counts, dtype):
    rng = np.random.Generator(np.random.PCG64(94))
    c, c2, views = 3, 4, len(counts)
    x = ad.param(rng.standard_normal((sum(counts), 7, 6, c)).astype(dtype))
    kernels = view_params(rng, views, (c2, c, 3, 3), dtype)
    biases = view_params(rng, views, (c2,), dtype)
    out = ad.conv2d(x, kernels, biases, 2, counts)
    w = rng.standard_normal(out.shape).astype(dtype)
    grads = ad.backward((out * ad.tensor(w)).sum(), [x, *kernels, *biases])
    for v, at in enumerate(view_slices(counts)):
        xv = ad.param(x.data[at])
        one = ad.conv2d(xv, [kernels[v]], [biases[v]], 2)
        assert_same_bits(out.data[at], one.data)
        alone = ad.backward((one * ad.tensor(w[at])).sum(), [xv, kernels[v], biases[v]])
        assert_same_bits(grads[x][at], alone[xv])
        assert_same_bits(grads[kernels[v]], alone[kernels[v]])
        assert_same_bits(grads[biases[v]], alone[biases[v]])


# the language rows each view's samples read, of 4 rows: views share rows, and the last reads row 1 twice
RAGGED_ROWS = ([0, 1, 3], [2], [1, 2], [1, 1])


@pytest.mark.parametrize("views", (1, 2, 4))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_ragged_film_equals_a_call_per_view_bit_for_bit(views, dtype):
    """Each view against a plain call on its own language rows; a row's gradient sums its readers', view by view."""
    rng = np.random.Generator(np.random.PCG64(95))
    lang_dim, c, rows = 5, 4, RAGGED_ROWS[:views]
    counts = [len(r) for r in rows]
    x = ad.param(rng.standard_normal((sum(counts), 3, 2, c)).astype(dtype))
    lang = ad.param(rng.standard_normal((4, lang_dim)).astype(dtype))
    projections = [view_params(rng, views, shape, dtype) for shape in ((lang_dim, c), (c,)) * 2]
    out = ad.film(x, lang, *projections, [np.array(r) for r in rows])
    w = rng.standard_normal(out.shape).astype(dtype)
    flat = [p for per_view in projections for p in per_view]
    grads = ad.backward((out * ad.tensor(w)).sum(), [x, lang, *flat])
    glang = np.zeros_like(lang.data)
    for v, at in enumerate(view_slices(counts)):
        xv, lv = ad.param(x.data[at]), ad.param(lang.data[rows[v]])
        mine = [per_view[v] for per_view in projections]
        one = one_view_film(xv, lv, *mine)
        assert_same_bits(out.data[at], one.data)
        alone = ad.backward((one * ad.tensor(w[at])).sum(), [xv, lv, *mine])
        assert_same_bits(grads[x][at], alone[xv])
        for p in mine:
            assert_same_bits(grads[p], alone[p])
        np.add.at(glang, rows[v], alone[lv])
    assert_same_bits(grads[lang], glang)


@pytest.mark.parametrize("counts", RAGGED)
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_ragged_linear_equals_a_call_per_view_bit_for_bit(counts, dtype):
    rng = np.random.Generator(np.random.PCG64(96))
    tokens, c, d, views = 9, 64, 32, len(counts)
    x = ad.param(rng.standard_normal((sum(counts), tokens, c)).astype(dtype))
    ws, bs = view_params(rng, views, (c, d), dtype), view_params(rng, views, (d,), dtype)
    out = ad.linear(x, ws, bs, counts)
    w = rng.standard_normal(out.shape).astype(dtype)
    grads = ad.backward((out * ad.tensor(w)).sum(), [x, *ws, *bs])
    for v, at in enumerate(view_slices(counts)):
        xv = ad.param(x.data[at])
        one = ad.linear(xv, ws[v], bs[v])
        assert_same_bits(out.data[at], one.data)
        alone = ad.backward((one * ad.tensor(w[at])).sum(), [xv, ws[v], bs[v]])
        assert_same_bits(grads[x][at], alone[xv])
        assert_same_bits(grads[ws[v]], alone[ws[v]])
        assert_same_bits(grads[bs[v]], alone[bs[v]])


def _film_of_rows(x, rows):
    lang = ad.tensor(np.zeros((3, 5)))
    projections = [[ad.tensor(np.zeros(shape))] * len(rows) for shape in ((5, 2), (2,)) * 2]
    return ad.film(x, lang, *projections, rows)


@pytest.mark.parametrize("call, match", [
    (lambda x, k, b: ad.conv2d(x, [k] * 3, [b] * 3, 1, [4, 0, 2]), r"views of \[4, 0, 2\] samples"),
    (lambda x, k, b: ad.conv2d(x, [k] * 2, [b] * 2, 1, [4, 1]), r"views of \[4, 1\] samples do not fit 2 views of 6"),
    (lambda x, k, b: ad.conv2d(x, [k] * 2, [b] * 2, 1, [6]), r"views of \[6\] samples do not fit 2 views"),
    (lambda x, k, b: ad.linear(x, [ad.tensor(np.zeros((2, 3)))] * 2, [b] * 2, [6, 0]), r"views of \[6, 0\] samples"),
    (lambda x, k, b: ad.linear(x, [ad.tensor(np.zeros((2, 3)))] * 2, [b] * 2, [2, 3]), r"views of \[2, 3\] samples"),
    (lambda x, k, b: ad.linear(x, ad.tensor(np.zeros((2, 3))), b, [5]), r"views of \[5\] samples"),
    (lambda x, k, b: _film_of_rows(x, [np.arange(6) % 3, np.array([], dtype=int)]), r"views of \[6, 0\] samples"),
    (lambda x, k, b: _film_of_rows(x, [np.arange(3), np.arange(2)]), r"views of \[3, 2\] samples"),
    (lambda x, k, b: _film_of_rows(x, [np.array([0, 1, 2, 3, 0, 1])]), "outside the 3 given"),
])
def test_ragged_views_must_fit_the_samples(call, match):
    """A view of no samples, or counts that do not sum to the samples, is a DimensionError naming the counts."""
    x = ad.tensor(np.zeros((6, 4, 4, 2)))
    k, b = ad.tensor(np.zeros((3, 2, 3, 3))), ad.tensor(np.zeros(3))
    with pytest.raises(DimensionError, match=match):
        call(x, k, b)


def test_ragged_conv2d_film_gelu_linear_chain_passes_finite_diff_check():
    """The encoder's stage shape over views of 3, 1 and 2 images that read 4 language rows."""
    rng = np.random.Generator(np.random.PCG64(97))
    counts, rows = (3, 1, 2), [np.array([0, 1, 3]), np.array([2]), np.array([1, 2])]
    x = ad.param(rng.standard_normal((sum(counts), 5, 5, 2)))
    params = {"x": x, "lang": ad.param(rng.standard_normal((4, 3)))}
    for v in range(len(counts)):
        params[f"k{v}"] = ad.param(rng.standard_normal((4, 2, 3, 3)) * 0.3)
        params[f"b{v}"] = ad.param(rng.standard_normal(4))
        for nm, shape in (("gw", (3, 4)), ("gb", (4,)), ("bw", (3, 4)), ("bb", (4,)), ("pw", (4, 5)), ("pb", (5,))):
            params[f"{nm}{v}"] = ad.param(rng.standard_normal(shape) * 0.5)
    w = ad.tensor(rng.standard_normal((sum(counts), 9, 5)))

    def per_view(name):
        return [params[f"{name}{v}"] for v in range(len(counts))]

    def loss():
        y = ad.conv2d(x, per_view("k"), per_view("b"), 2, counts)
        y = ad.gelu(ad.film(y, params["lang"], *map(per_view, ("gw", "gb", "bw", "bb")), rows))
        return (ad.linear(y.reshape(sum(counts), 9, 4), per_view("pw"), per_view("pb"), counts) * w).sum()

    report = ad.finite_diff_check(loss, params, probes=64)
    assert report.max_rel_err < 1e-6
    assert sum(p.status == "ok" for p in report.probes) > 48


# ---------------------------------------------------------------- backward


def test_backward_product_rule():
    x = ad.param(np.array(3.0))
    y = ad.param(np.array(2.0))
    grads = ad.backward(x * y, [x, y])
    assert grads[x] == 2.0
    assert grads[y] == 3.0


def test_backward_unused_param_gets_zeros():
    x = ad.param(rand((2, 2), 51))
    unused = ad.param(rand((3,), 52))
    grads = ad.backward(x.sum(), [x, unused])
    np.testing.assert_array_equal(grads[unused], np.zeros(3))


def test_backward_requires_scalar():
    x = ad.param(rand((2, 2), 53))
    with pytest.raises(ContractError):
        ad.backward(x * 2.0, [x])


def test_backward_layer_norm_sum_grad_orthogonal_to_constants():
    x = ad.param(rand((4, 8), 54))
    loss = ad.layer_norm(x, ad.tensor(np.ones(8)), ad.tensor(np.zeros(8))).sum()
    g = ad.backward(loss, [x])[x]
    np.testing.assert_allclose(g.sum(axis=-1), 0.0, atol=1e-9)


def test_backward_accumulates_a_node_read_at_different_depths():
    # u feeds linear and the add directly: its gradient must sum both
    # consumers before u's own backward runs
    x = ad.param(rand((2, 2), 55))
    y = ad.param(rand((2, 2), 56))
    w = ad.param(rand((2, 2), 57))
    u = x * y
    h = ad.linear(u, w, ad.tensor(np.zeros(2))) + u
    grads = ad.backward(h.abs().sum(), [x, y, w])
    s = np.sign(u.data @ w.data + u.data)
    gu = s @ w.data.T + s
    np.testing.assert_allclose(grads[x], gu * y.data, rtol=1e-12)
    np.testing.assert_allclose(grads[y], gu * x.data, rtol=1e-12)
    np.testing.assert_allclose(grads[w], u.data.T @ s, rtol=1e-12)


def f64(shape, seed):
    return ad.tensor(rand(shape, seed))


MIXED_DTYPE_CALLS = {  # each reads a float32 x among float64 operands
    "add": lambda x: x + f64((2, 4, 8), 1),
    "linear": lambda x: ad.linear(x, f64((8, 3), 1), f64((3,), 2)),
    "layer_norm": lambda x: ad.layer_norm(x, f64((8,), 1), f64((8,), 2)),
    "masked_attention": lambda x: attend(x, f64((2, 4, 8), 1), f64((2, 4, 8), 2), np.ones((4, 4), bool), 2),
    "conv2d": lambda x: ad.conv2d(x.reshape(2, 4, 4, 2), [f64((3, 2, 2, 2), 1)], [f64((3,), 2)], 1),
    "film": lambda x: ad.film(x, f64((2, 5), 1), [f64((5, 8), 2)], [f64((8,), 3)], [f64((5, 8), 4)], [f64((8,), 5)]),
}


@pytest.mark.parametrize("op", MIXED_DTYPE_CALLS)
def test_ops_reject_mixed_float_dtypes(op):
    # no silent up- or downcast of the output or the gradients
    x = ad.param(rand((2, 4, 8), 0, np.float32))
    with pytest.raises(DimensionError, match=f"^{op}: dtype mismatch"):
        MIXED_DTYPE_CALLS[op](x)


def test_determinism_same_inputs_same_bits():
    def run():
        a = ad.tensor(rand((1, 6, 6), 57, np.float32))
        b = ad.tensor(rand((1, 6, 6), 58, np.float32))
        mask = np.ones((6, 6), dtype=bool)
        return attend(a, b, b, mask, 2).data

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------- misc ops


def test_embedding_lookup_and_grad_accumulation():
    table = ad.param(rand((5, 3), 60))
    ids = np.array([1, 1, 4])
    out = ad.embedding(table, ids)
    np.testing.assert_array_equal(out.data, table.data[ids])
    g = ad.backward(out.sum(), [table])[table]
    np.testing.assert_array_equal(g[1], np.full(3, 2.0))
    np.testing.assert_array_equal(g[0], np.zeros(3))


@pytest.mark.parametrize("ids, named", [([0, 5, 1], "id 5"), ([[2], [-1]], "id -1"), ([0.0, 1.0], "dtype float64")])
def test_embedding_rejects_an_id_outside_the_table_naming_it(ids, named):
    table = ad.param(rand((5, 3), 61))
    with pytest.raises(DimensionError, match=named) as err:
        ad.embedding(table, np.array(ids))
    assert "[0, 5)" in str(err.value) or "integers" in str(err.value)


def test_take_and_scatter_round_trip_grads():
    x = ad.param(rand((2, 6, 3), 61))
    idx = np.array([5, 0, 0])
    taken = ad.take(x, idx, axis=1)
    assert taken.shape == (2, 3, 3)
    g = ad.backward(taken.sum(), [x])[x]
    assert g[0, 0, 0] == 2.0  # index 0 gathered twice
    assert g[0, 5, 0] == 1.0
    assert g[0, 1, 0] == 0.0

    # unique indices (the assignment path) and an index aliased by its negative form
    for idx, want in (([4, 1, 2], [0, 1, 1, 0, 1, 0]), ([5, -1, 2], [0, 0, 1, 0, 0, 2])):
        g = ad.backward(ad.take(x, np.array(idx), axis=1).sum(), [x])[x]
        np.testing.assert_array_equal(g[1, :, 2], want)

    src = ad.param(rand((3, 4), 62))
    out = ad.scatter_tokens(src, np.array([0, 1, 1]), np.array([2, 0, 3]), batch=2, tokens=5)
    assert out.shape == (2, 5, 4)
    np.testing.assert_array_equal(out.data[1, 0], src.data[1])
    np.testing.assert_array_equal(out.data[0, 0], np.zeros(4))
    gs = ad.backward((out * 2.0).sum(), [src])[src]
    np.testing.assert_array_equal(gs, np.full((3, 4), 2.0))

    # rows of src by index: row 2 goes to (0, 1), row 0 to (1, 4); row 1 is left out and gets zeros
    out = ad.scatter_tokens(src, np.array([0, 1]), np.array([1, 4]), batch=2, tokens=5, rows=np.array([2, 0]))
    np.testing.assert_array_equal(out.data[0, 1], src.data[2])
    np.testing.assert_array_equal(out.data[1, 4], src.data[0])
    assert np.count_nonzero(out.data.any(axis=-1)) == 2
    gs = ad.backward((out * 2.0).sum(), [src])[src]
    np.testing.assert_array_equal(gs, [[2.0] * 4, [0.0] * 4, [2.0] * 4])


@pytest.mark.parametrize("shape, axis, run, view", [
    ((1, 6, 3), 1, slice(1, 4), True), ((1, 6, 3), 1, slice(0, 6), True), ((2, 6, 3), 0, slice(1, 2), True),
    ((2, 6, 3), 1, slice(4, None), False), ((2, 6, 3), 2, slice(0, 2), False), ((2, 6, 3), 1, slice(5, 6), False),
])
def test_take_of_a_slice_reads_it_with_the_gathers_gradient(shape, axis, run, view):
    """A slice is read without a copy where it is C-contiguous, as a tensor's data must be; its gradient is the gather's."""
    x = ad.param(rand(shape, 63))
    idx = np.arange(shape[axis])[run]
    w = rand(np.take(x.data, idx, axis=axis).shape, 64)
    out = ad.take(x, run, axis=axis)
    assert np.shares_memory(out.data, x.data) == view
    assert_same_bits(out.data, np.take(x.data, idx, axis=axis))
    g = ad.backward((out * ad.tensor(w)).sum(), [x])[x]
    assert_same_bits(g, ad.backward((ad.take(x, idx, axis=axis) * ad.tensor(w)).sum(), [x])[x])


def test_gelu_matches_tanh_formula_and_grad():
    x = ad.param(rand((50,), 63))
    out = ad.gelu(x)
    c = np.sqrt(2 / np.pi)
    ref = 0.5 * x.data * (1 + np.tanh(c * (x.data + 0.044715 * x.data**3)))
    np.testing.assert_allclose(out.data, ref, rtol=1e-12)
    g = ad.backward(out.sum(), [x])[x]

    def f():
        return (0.5 * x.data * (1 + np.tanh(c * (x.data + 0.044715 * x.data**3)))).sum()

    num = numeric_grad(f, x.data)
    np.testing.assert_allclose(g, num, rtol=1e-6, atol=1e-9)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


ENCODER_ROW = 12 * 12 * 16  # elements of one image of an encoder-shaped [n, 12, 12, 16] layout


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("layout", ("flat", "encoder"))
@pytest.mark.parametrize(
    "blocks",
    ("one element", "a block less one", "a block", "a block and one", "three blocks and seven", "past the threshold"),
)
def test_blocked_gelu_equals_one_pass_bit_for_bit(dtype, layout, blocks, monkeypatch):
    """Blocking changes no output or gradient bit, at and around block edges, in the far negative tail too.

    Every size but the last runs in blocks, however small; the last is the
    smallest that runs in blocks as shipped. The encoder layout takes whole
    images: as many as fit in the size when it is one block, else as many
    as cover it. Its gradient is a strided view, as the input gradient of
    the next conv stage is.
    """
    b = ops.GELU_BLOCK_BYTES // np.dtype(dtype).itemsize
    past = ops.GELU_BLOCKED_FROM // np.dtype(dtype).itemsize + 1
    size = {"one element": 1, "a block less one": b - 1, "a block": b, "a block and one": b + 1,
            "three blocks and seven": 3 * b + 7, "past the threshold": past}[blocks]
    if size < past:
        monkeypatch.setattr(ops, "GELU_BLOCKED_FROM", 0)
    rng = np.random.Generator(np.random.PCG64(size))
    if layout == "flat":
        shape = (size,)
        g = rng.standard_normal(shape).astype(dtype)
    else:
        shape = (-(-size // ENCODER_ROW) if size > b else max(size // ENCODER_ROW, 1), 12, 12, 16)
        g = rng.standard_normal((shape[0], 13, 13, 16)).astype(dtype)[:, :12, :12]
    x = (rng.standard_normal(shape) * 4).astype(dtype)
    every_fifth = x.reshape(-1)[::5]
    every_fifth[:] = np.resize(np.array([-1e4, 0.0, -0.0, 1e4, 30.0, -60.0, -9.0], dtype=dtype), every_fifth.size)
    out = ad.gelu(ad.param(x))
    (gx,) = out.bwd(g)
    want_out, want_gx = gelu_oracle(x, g)
    assert_same_bits(out.data, want_out)
    assert_same_bits(gx, want_gx)
    tail = out.data.reshape(-1)[x.reshape(-1) == -1e4]
    assert_same_bits(tail, np.full_like(tail, -0.0))  # exp(-2u) overflowed to inf


def test_abs_subgradient_at_zero_is_zero():
    x = ad.param(np.array([0.0, -2.0, 3.0]))
    g = ad.backward(x.abs().sum(), [x])[x]
    np.testing.assert_array_equal(g, [0.0, -1.0, 1.0])


def test_no_grad_builds_no_tape():
    x = ad.param(rand((2, 2), 64))
    with ad.no_grad():
        y = x * 2.0
    assert not y.requires_grad and y.parents == ()


@pytest.mark.parametrize(
    "data",
    [
        rand((3, 4), 67, np.float32),
        rand((4, 3), 68).T,  # not C-contiguous
        rand((2, 6), 69)[:, ::2],
        np.arange(6).reshape(2, 3),  # not float: cast to float32
        rand((3,), 70, np.float16),
        np.array(2.0),  # 0-d
        np.float32(2.0),  # a numpy scalar, as a full reduction gives
    ],
)
def test_make_stores_the_data_tensor_would(data):
    """`Tensor._make`, the point where every op creates its node, stores its result as `Tensor(...)` does."""
    want = Tensor(data).data
    got = Tensor._make(data, (), None, "made").data
    assert type(got) is np.ndarray and got.flags.c_contiguous
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_make_tapes_only_in_grad_mode_with_a_parent_that_needs_a_gradient():
    x, c = ad.param(rand((3, 4), 71)), ad.tensor(rand((3, 4), 72))

    def bwd(g):
        return g, g

    for parents, grad, taped in (([x, c], True, True), ([c, x], True, True), ([c, c], True, False), ([x, c], False, False)):
        with contextlib.nullcontext() if grad else ad.no_grad():
            out = Tensor._make(x.data * c.data, parents, bwd, "mul")
        assert out.requires_grad is taped and out.op == "mul"
        assert out.parents == (tuple(parents) if taped else ()) and (out.bwd is bwd) is taped
    ids = [Tensor._make(x.data + 1.0, (x,), None, "add").id for _ in range(3)] + [ad.tensor(1.0).id]
    assert ids == sorted(set(ids)) and x.id < c.id < ids[0]
    with pytest.raises(DimensionError, match="^cast: dtype mismatch float64 vs float32$"):
        Tensor._make(x.data.astype(np.float32), (c, x), None, "cast")


# ---------------------------------------------------------------- finite_diff_check


def test_finite_diff_linear_function_is_exact():
    w = ad.param(rand((8,), 65))
    coef = ad.tensor(rand((8,), 66))

    report = ad.finite_diff_check(lambda: (w * coef).sum(), {"w": w}, probes=8)
    assert report.max_rel_err < 1e-9


def test_finite_diff_notes_l1_kinks():
    # w[0] sits exactly on the kink: subgradient 0 on both routes
    # w[1] sits 3e-6 from the kink: the crossing falls inside the probe interval
    w = ad.param(np.array([1.0, 2.0 + 3e-6, 3.0]))
    target = ad.tensor(np.array([1.0, 2.0, 0.0]))

    report = ad.finite_diff_check(lambda: (w - target).abs().sum(), {"w": w}, probes=3)
    statuses = {p.index: p.status for p in report.probes}
    assert statuses[0] == "consistent-zero"
    assert statuses[1] == "kink-skipped"
    assert statuses[2] == "ok"
    assert report.max_rel_err < 1e-9
    assert "kink-skipped" in report.summary()


def test_finite_diff_statuses_do_not_depend_on_loss_scale():
    # a loss in other units is the same check: the noise floor scales with |f|
    w = ad.param(rand((8,), 67))
    coef = ad.tensor(rand((8,), 68))

    statuses = {}
    for scale in (1e-9, 1.0, 1e6):
        report = ad.finite_diff_check(lambda: (w * coef).sum() * scale, {"w": w}, probes=8)
        statuses[scale] = [p.status for p in report.probes]
        assert report.max_rel_err < 1e-9
    assert statuses[1e-9] == statuses[1.0] == statuses[1e6] == ["ok"] * 8


def test_finite_diff_reports_a_tiny_gradient_that_is_half_missing():
    # the loss is 6e-8·x, but only the first half of it is on the tape
    x = ad.param(np.array([0.7]))

    def loss():
        return (x * 3e-8).sum() + ad.tensor(x.data * 3e-8).sum()

    report = ad.finite_diff_check(loss, {"x": x}, probes=1)
    (probe,) = report.probes
    assert probe.status == "ok"
    assert probe.analytic == pytest.approx(3e-8) and probe.numeric == pytest.approx(6e-8)
    assert report.max_rel_err == pytest.approx(0.5, rel=1e-3)


def test_finite_diff_lists_probes_below_the_noise_floor():
    # a slope of 1e-9 on a loss of about 1: rounding of f alone moves the
    # central difference by ~1e-11, a relative error far over 1e-5
    x = ad.param(np.array([0.3, -1.1]))

    report = ad.finite_diff_check(lambda: (x * 1e-9).sum() + 1.0, {"x": x}, probes=2)
    assert [p.status for p in report.probes] == ["below-noise"] * 2
    assert all(p.rel_err > 1e-5 for p in report.probes)
    assert report.skipped == report.probes
    assert report.max_rel_err == 0.0
    assert report.summary().count("below-noise") == 2


def test_finite_diff_extrapolates_truncation_error():
    # w³ at w = 1e-3: the central difference is 3w² + eps², a relative
    # error of 3.3e-5 at eps 1e-5; the step halving removes all of it
    w = ad.param(np.array([1e-3]))

    report = ad.finite_diff_check(lambda: (w * w * w).sum(), {"w": w}, probes=1)
    (probe,) = report.probes
    assert probe.status == "ok"
    assert probe.numeric == pytest.approx(3e-6, rel=1e-9)
    assert report.max_rel_err < 1e-9


def test_finite_diff_skips_a_kink_near_the_interval_edge():
    # |w - 2| with w 9.5e-6 from the kink: inside [w - eps, w + eps], so
    # the difference reads 0.95, but too near the edge for the second
    # difference to flag it; the halved interval misses the kink
    w = ad.param(np.array([2.0 + 9.5e-6]))
    target = ad.tensor(np.array([2.0]))

    report = ad.finite_diff_check(lambda: (w - target).abs().sum(), {"w": w}, probes=1)
    (probe,) = report.probes
    assert probe.status == "kink-skipped"
    assert report.max_rel_err == 0.0


def test_finite_diff_halving_keeps_a_wrong_gradient_failing():
    # the tape sees 1.01·x², the loss is x²: smooth, so extrapolation
    # cannot explain the 1% miss
    x = ad.param(np.array([0.8]))

    def loss():
        return (x * x).sum() * 1.01 + ad.tensor(x.data * x.data * -0.01).sum()

    report = ad.finite_diff_check(loss, {"x": x}, probes=1)
    assert report.probes[0].status == "ok"
    assert report.max_rel_err == pytest.approx(0.01, rel=1e-3)


def test_finite_diff_requires_float64():
    w = ad.param(np.zeros(3, dtype=np.float32))
    with pytest.raises(ContractError):
        ad.finite_diff_check(lambda: w.sum(), {"w": w})


@settings(max_examples=20, deadline=None)
@example(rows=1, cols=2, seed=82)
@example(rows=1, cols=2, seed=9387)
@example(rows=1, cols=1, seed=13)
@example(rows=1, cols=1, seed=3269)
@example(rows=1, cols=1, seed=206879)
@example(rows=3, cols=2, seed=6995011)
@example(rows=4, cols=3, seed=3585)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_property_random_composite_grads_match(rows, cols, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = ad.param(rng.standard_normal((rows, cols)))
    w = ad.param(rng.standard_normal((cols, cols)))
    gain = ad.param(np.ones(cols))
    bias = ad.param(np.zeros(cols))

    def forward():
        h = ad.linear(x, w, ad.tensor(np.zeros(cols)))
        h = ad.layer_norm(h, gain, bias) if cols > 1 else h
        return ad.gelu(h).abs().sum()

    report = ad.finite_diff_check(
        forward, {"x": x, "w": w, "g": gain, "b": bias}, probes=12, seed=seed
    )
    assert any(p.status == "ok" for p in report.probes), report.summary()
    assert report.max_rel_err < 1e-5
