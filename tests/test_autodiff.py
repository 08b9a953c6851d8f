"""Autodiff core: oracles for forward math, finite differences for gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omnibot.autodiff as ad
from omnibot.errors import ContractError, DegenerateMaskError, DimensionError


def rand(shape, seed, dtype=np.float64):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(shape).astype(dtype)


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


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    b = rand((3, 2), 0)
    out = ad.matmul(ad.tensor(np.eye(3)), ad.tensor(b))
    np.testing.assert_array_equal(out.data, b)


def test_matmul_scalar_case():
    out = ad.matmul(ad.tensor([[2.0]]), ad.tensor([[3.0]]))
    assert out.data[0, 0] == 6.0


def test_matmul_vs_triple_loop():
    a = rand((4, 5), 1, np.float32)
    b = rand((5, 3), 2, np.float32)
    out = ad.matmul(ad.tensor(a), ad.tensor(b)).data
    assert np.abs(out - matmul_oracle(a, b)).max() < 1e-6


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(4, 5\).*\(4, 3\)"):
        ad.matmul(ad.tensor(rand((4, 5), 0)), ad.tensor(rand((4, 3), 1)))


def test_matmul_grads():
    a = ad.param(rand((4, 5), 3))
    b = ad.param(rand((5, 3), 4))
    loss = ad.matmul(a, b).sum()
    grads = ad.backward(loss, [a, b])

    def loss_at():
        return matmul_oracle(a.data, b.data).sum()

    np.testing.assert_allclose(grads[a], numeric_grad(loss_at, a.data), rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(grads[b], numeric_grad(loss_at, b.data), rtol=1e-7, atol=1e-9)


def test_matmul_batched_matches_loop():
    a = rand((2, 3, 4, 5), 5)
    b = rand((5, 6), 6)
    out = ad.matmul(ad.tensor(a), ad.tensor(b)).data
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(out[i, j], matmul_oracle(a[i, j], b), rtol=1e-12)


# ---------------------------------------------------------------- layer_norm


def test_layer_norm_constant_row_is_zero():
    x = ad.tensor(np.full((2, 4), 3.7))
    out = ad.layer_norm(x, ad.tensor(np.ones(4)), ad.tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_layer_norm_unit_variance_pair():
    x = ad.tensor(np.array([[1.0, -1.0]]))
    out = ad.layer_norm(x, ad.tensor(np.ones(2)), ad.tensor(np.full(2, 5.0)), eps=1e-12)
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


def test_attention_one_hot_mask_selects_value_row():
    q = rand((3, 4), 20)
    k = rand((3, 4), 21)
    v = rand((3, 4), 22)
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 2] = mask[1, 0] = mask[2, 1] = True
    out = ad.masked_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v), mask).data
    np.testing.assert_array_equal(out, v[[2, 0, 1]])


def test_attention_equal_scores_average_values():
    # two permitted keys with identical key vectors -> equal scores
    q = rand((2, 4), 23)
    k = np.tile(rand((1, 4), 24), (2, 1))
    v = rand((2, 4), 25)
    mask = np.ones((2, 2), dtype=bool)
    out = ad.masked_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v), mask).data
    np.testing.assert_allclose(out, np.tile(v.mean(0), (2, 1)), rtol=1e-6)


def test_attention_vs_dense_oracle():
    rng = np.random.Generator(np.random.PCG64(26))
    q, k, v = (rng.standard_normal((6, 4)).astype(np.float32) for _ in range(3))
    mask = rng.random((6, 6)) < 0.6
    mask[np.arange(6), np.arange(6)] = True
    out = ad.masked_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v), mask).data
    ref = attention_oracle(q.astype(np.float64), k.astype(np.float64), v.astype(np.float64), mask)
    assert np.abs(out - ref).max() < 1e-6


def test_attention_forbidden_keys_have_exactly_zero_influence():
    rng = np.random.Generator(np.random.PCG64(27))
    q, k = (ad.tensor(rng.standard_normal((5, 4))) for _ in range(2))
    v1 = rng.standard_normal((5, 4))
    mask = rng.random((5, 5)) < 0.5
    mask[:, 0] = True  # every row keeps at least key 0
    mask[3, :] = False
    mask[3, 1] = True
    out1 = ad.masked_attention(q, k, ad.tensor(v1), mask).data
    v2 = v1.copy()
    v2[~mask.any(axis=0)] += 100.0  # rows never used as keys
    forbidden_rows = [j for j in range(5) if not mask[:, j].all() and mask[:, j].any()]
    # perturb one value row forbidden for SOME queries; those outputs must not move
    j = forbidden_rows[0]
    v3 = v1.copy()
    v3[j] += 123.456
    out3 = ad.masked_attention(q, k, ad.tensor(v3), mask).data
    unaffected = ~mask[:, j]
    np.testing.assert_array_equal(out1[unaffected], out3[unaffected])


def test_attention_all_false_row_raises():
    q = ad.tensor(rand((3, 4), 28))
    mask = np.ones((3, 3), dtype=bool)
    mask[1, :] = False
    with pytest.raises(DegenerateMaskError):
        ad.masked_attention(q, q, q, mask)


def test_attention_grads_vs_central_differences():
    q = ad.param(rand((5, 3), 30))
    k = ad.param(rand((5, 3), 31))
    v = ad.param(rand((5, 3), 32))
    rng = np.random.Generator(np.random.PCG64(33))
    mask = rng.random((5, 5)) < 0.7
    mask[np.arange(5), np.arange(5)] = True
    wsum = rand((5, 3), 34)

    def forward():
        return (ad.masked_attention(q, k, v, mask) * ad.tensor(wsum)).sum()

    grads = ad.backward(forward(), [q, k, v])

    def f():
        return (attention_oracle(q.data, k.data, v.data, mask) * wsum).sum()

    for t in (q, k, v):
        num = numeric_grad(f, t.data)
        rel = np.abs(grads[t] - num) / (np.abs(num) + 1e-12)
        assert rel.max() < 1e-5, f"max rel err {rel.max()}"


def test_attention_grad_of_forbidden_value_row_is_zero():
    q = ad.param(rand((4, 3), 35))
    v = ad.param(rand((4, 3), 36))
    mask = np.ones((4, 4), dtype=bool)
    mask[:, 2] = False
    mask[2, 2] = True  # key 2 visible only to query 2... keep row 2 alive
    loss = ad.masked_attention(q, q, v, mask).sum()
    gv = ad.backward(loss, [v])[v]
    # value row 2 receives weight only from query 2
    assert gv[2].any()
    mask2 = np.ones((4, 4), dtype=bool)
    mask2[:, 2] = False
    mask2[:, 0] = True
    loss2 = ad.masked_attention(q, q, v, mask2).sum()
    gv2 = ad.backward(loss2, [v])[v]
    np.testing.assert_array_equal(gv2[2], np.zeros(3))


def test_attention_batched_matches_per_sequence():
    rng = np.random.Generator(np.random.PCG64(37))
    q = rng.standard_normal((2, 3, 6, 4))
    k = rng.standard_normal((2, 3, 6, 4))
    v = rng.standard_normal((2, 3, 6, 4))
    mask = rng.random((2, 6, 6)) < 0.5
    mask[:, np.arange(6), np.arange(6)] = True
    out = ad.masked_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v), mask).data
    for b in range(2):
        for h in range(3):
            ref = ad.masked_attention(
                ad.tensor(q[b, h]), ad.tensor(k[b, h]), ad.tensor(v[b, h]), mask[b]
            ).data
            np.testing.assert_allclose(out[b, h], ref, rtol=1e-12, atol=1e-14)


def test_numba_and_numpy_grad_kernels_agree():
    from omnibot.autodiff import _kernels
    from omnibot.autodiff.ops import AttentionMask

    if not _kernels.HAVE_NUMBA:
        pytest.skip("numba unavailable")
    rng = np.random.Generator(np.random.PCG64(38))
    s = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
    mask = rng.random((2, 7, 7)) < 0.5
    mask[:, np.arange(7), np.arange(7)] = True
    additive, keep = AttentionMask(mask).buffers(s.dtype)
    w = _kernels.masked_softmax(s.copy(), additive, keep)
    gw = rng.standard_normal(s.shape).astype(np.float32)
    out = np.empty_like(s)
    _kernels.masked_softmax_grad(w, gw, mask, out)
    ref = _kernels.masked_softmax_grad_numpy(w, gw, keep)
    np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-7)
    np.testing.assert_array_equal(out == 0.0, ref == 0.0)


def test_masked_softmax_forbidden_weights_exactly_zero():
    from omnibot.autodiff import _kernels
    from omnibot.autodiff.ops import AttentionMask

    rng = np.random.Generator(np.random.PCG64(39))
    s = (rng.standard_normal((2, 2, 6, 6)) * 50).astype(np.float32)
    mask = rng.random((2, 6, 6)) < 0.4
    mask[:, np.arange(6), np.arange(6)] = True
    additive, keep = AttentionMask(mask).buffers(s.dtype)
    w = _kernels.masked_softmax(s.copy(), additive, keep)
    for b in range(2):
        assert (w[b][:, ~mask[b]] == 0.0).all()
        np.testing.assert_allclose(w[b].sum(-1), 1.0, rtol=1e-5)


# ---------------------------------------------------------------- conv2d


def test_conv_identity_kernel():
    x = rand((3, 8, 8), 40, np.float32)
    k = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for c in range(3):
        k[c, c, 0, 0] = 1.0
    out = ad.conv2d(ad.tensor(x), ad.tensor(k), stride=1).data
    np.testing.assert_array_equal(out, x)


def test_conv_stride_two_spatial_arithmetic():
    x = ad.tensor(rand((3, 24, 24), 41, np.float32))
    k = ad.tensor(rand((5, 3, 3, 3), 42, np.float32))
    out = ad.conv2d(x, k, stride=2)
    assert out.shape == (5, 12, 12)


def test_conv_vs_naive_loop():
    x = rand((3, 8, 8), 43, np.float32)
    k = rand((4, 3, 3, 3), 44, np.float32) * 0.2
    for stride in (1, 2, 3):
        out = ad.conv2d(ad.tensor(x), ad.tensor(k), stride=stride).data
        ref = conv_oracle(x, k, stride)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() < 1e-6


def test_conv_zero_sized_kernel_error():
    with pytest.raises(DimensionError):
        ad.conv2d(ad.tensor(rand((3, 8, 8), 45)), ad.tensor(np.zeros((4, 3, 0, 3))), stride=1)


def test_conv_grads_vs_central_differences():
    x = ad.param(rand((2, 5, 5), 46))
    k = ad.param(rand((3, 2, 3, 3), 47) * 0.3)
    w = rand((3, 3, 3), 48)

    def forward():
        return (ad.conv2d(x, k, stride=2) * ad.tensor(w)).sum()

    grads = ad.backward(forward(), [x, k])

    def f():
        return (conv_oracle(x.data, k.data, 2) * w).sum()

    for t in (x, k):
        num = numeric_grad(f, t.data)
        rel = np.abs(grads[t] - num) / (np.abs(num) + 1e-12)
        assert rel.max() < 1e-5


def test_conv_batched_matches_single():
    x = rand((4, 3, 6, 6), 49, np.float32)
    k = rand((2, 3, 3, 3), 50, np.float32)
    out = ad.conv2d(ad.tensor(x), ad.tensor(k), stride=2).data
    for b in range(4):
        single = ad.conv2d(ad.tensor(x[b]), ad.tensor(k), stride=2).data
        np.testing.assert_array_equal(out[b], single)


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


def test_computation_record_is_topologically_ordered():
    x = ad.param(rand((2, 2), 55))
    y = ad.param(rand((2, 2), 56))
    loss = (ad.matmul(x, y) + x).abs().sum()
    record = ad.ComputationRecord.trace(loss)
    ids = [n.id for n in record.nodes]
    assert ids == sorted(ids)
    for node in record.nodes:
        for parent in node.parents:
            assert parent.id < node.id
    assert {x, y} <= record.parameters


def test_determinism_same_inputs_same_bits():
    def run():
        a = ad.tensor(rand((6, 6), 57, np.float32))
        b = ad.tensor(rand((6, 6), 58, np.float32))
        mask = np.ones((6, 6), dtype=bool)
        return ad.masked_attention(a, b, b, mask).data

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


def test_abs_subgradient_at_zero_is_zero():
    x = ad.param(np.array([0.0, -2.0, 3.0]))
    g = ad.backward(x.abs().sum(), [x])[x]
    np.testing.assert_array_equal(g, [0.0, -1.0, 1.0])


def test_no_grad_builds_no_tape():
    x = ad.param(rand((2, 2), 64))
    with ad.no_grad():
        y = x * 2.0
    assert not y.requires_grad and y.parents == ()


# ---------------------------------------------------------------- finite_diff_check


def test_finite_diff_linear_function_is_exact():
    w = ad.param(rand((8,), 65))
    coef = ad.tensor(rand((8,), 66))

    report = ad.finite_diff_check(lambda: (w * coef).sum(), {"w": w}, eps=1e-5, probes=8)
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


def test_finite_diff_requires_float64():
    w = ad.param(np.zeros(3, dtype=np.float32))
    with pytest.raises(ContractError):
        ad.finite_diff_check(lambda: w.sum(), {"w": w})


@settings(max_examples=20, deadline=None)
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
        h = ad.matmul(x, w)
        h = ad.layer_norm(h, gain, bias) if cols > 1 else h
        return ad.gelu(h).abs().sum()

    report = ad.finite_diff_check(
        forward, {"x": x, "w": w, "g": gain, "b": bias}, probes=12, seed=seed
    )
    assert report.max_rel_err < 1e-5
