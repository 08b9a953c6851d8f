import numpy as np
import pytest

import omnibot.autodiff as ad
from omnibot.assembler import build_layout
from omnibot.config import desk_config
from omnibot.encoders import EncoderBank, init_encoder_params
from omnibot.errors import DimensionError


@pytest.fixture(scope="module")
def bank():
    rng = np.random.Generator(np.random.PCG64(0))
    return EncoderBank(init_encoder_params(desk_config(), rng))


def imgs(n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.random((n, 3, 24, 24)).astype(np.float32)


def test_embed_language_null_id_is_zero(bank):
    emb = bank.embed_language(np.array([0]))
    np.testing.assert_array_equal(emb.data, np.zeros((1, 16), dtype=np.float32))


def test_embed_language_row_lookup_bit_exact(bank):
    emb = bank.embed_language(np.array([5]))
    np.testing.assert_array_equal(emb.data[0], bank.params["enc/lang/table"].data[5])


def test_embed_language_distinct_ids_differ(bank):
    emb = bank.embed_language(np.array([3, 7]))
    assert (emb.data[0] != emb.data[1]).any()


def test_embed_language_null_id_gets_no_gradient(bank):
    emb = bank.embed_language(np.array([0, 4]))
    g = ad.backward(emb.sum(), [bank.params["enc/lang/table"]])
    table_grad = g[bank.params["enc/lang/table"]]
    np.testing.assert_array_equal(table_grad[0], np.zeros(16))
    assert table_grad[4].any()


def test_film_zero_projections_are_identity():
    rng = np.random.Generator(np.random.PCG64(1))
    x = ad.tensor(rng.random((2, 3, 3, 4)).astype(np.float32))
    lang = ad.tensor(rng.random((2, 8)).astype(np.float32))
    zero_w = ad.tensor(np.zeros((8, 4), dtype=np.float32))
    zero_b = ad.tensor(np.zeros(4, dtype=np.float32))
    out = ad.film(x, lang, zero_w, zero_b, zero_w, zero_b)
    np.testing.assert_array_equal(out.data, x.data)


def test_film_gamma_minus_one_zeroes_features():
    x = ad.tensor(np.full((1, 2, 2, 2), 3.0, dtype=np.float32))
    lang = ad.tensor(np.ones((1, 1), dtype=np.float32))
    gw = ad.tensor(np.full((1, 2), -1.0, dtype=np.float32))
    zb = ad.tensor(np.zeros(2, dtype=np.float32))
    zw = ad.tensor(np.zeros((1, 2), dtype=np.float32))
    out = ad.film(x, lang, gw, zb, zw, zb)
    np.testing.assert_array_equal(out.data, np.zeros_like(x.data))


def test_film_arithmetic_example():
    x = ad.tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
    lang = ad.tensor(np.ones((1, 1), dtype=np.float32))
    gw = ad.tensor(np.full((1, 1), 0.5, dtype=np.float32))
    bw = ad.tensor(np.full((1, 1), 0.25, dtype=np.float32))
    zb = ad.tensor(np.zeros(1, dtype=np.float32))
    out = ad.film(x, lang, gw, zb, bw, zb)
    assert out.data.reshape(()) == np.float32(2.0 * 1.5 + 0.25)


def test_film_channel_mismatch(bank):
    x = ad.tensor(np.zeros((1, 2, 2, 5), dtype=np.float32))
    lang = ad.tensor(np.zeros((1, 16), dtype=np.float32))
    p = bank.params
    with pytest.raises(DimensionError):
        ad.film(x, lang, p["enc/img/workspace/film0/gamma_w"], p["enc/img/workspace/film0/gamma_b"],
             p["enc/img/workspace/film0/beta_w"], p["enc/img/workspace/film0/beta_b"])


def silent(bank, n):
    """n rows of the null instruction, which embeds to exact zeros."""
    return bank.embed_language(np.zeros(n, dtype=np.int64))


def test_encode_image_token_count(bank):
    out = bank.encode_image("workspace", imgs(2), None, silent(bank, 2))
    assert out.shape == (2, build_layout(desk_config()).group("workspace").tokens, 64) == (2, 9, 64)


def test_encode_image_goal_absent_equals_zero_goal(bank):
    x = imgs(3, seed=2)
    a = bank.encode_image("navigation", x, None, silent(bank, 3))
    b = bank.encode_image("navigation", x, np.zeros_like(x), silent(bank, 3))
    np.testing.assert_array_equal(a.data, b.data)


def test_encode_image_deterministic(bank):
    x = imgs(1, seed=3)
    a = bank.encode_image("workspace", x, None, silent(bank, 1))
    b = bank.encode_image("workspace", x, None, silent(bank, 1))
    np.testing.assert_array_equal(a.data, b.data)


def test_encode_image_film_identity_at_init(bank):
    # FiLM projections are zero-initialized: language cannot change the output
    x = imgs(2, seed=4)
    quiet = bank.encode_image("workspace", x, None, silent(bank, 2))
    spoken = bank.encode_image("workspace", x, None, bank.embed_language(np.array([5, 9])))
    np.testing.assert_array_equal(quiet.data, spoken.data)


def test_weight_sharing_one_parameter_set_per_view(bank):
    x = imgs(1, seed=5)
    lang = silent(bank, 1)
    before = bank.encode_image("workspace", x, None, lang).data.copy()
    nav_before = bank.encode_image("navigation", x, None, lang).data.copy()
    w = bank.params["enc/img/workspace/conv0/w"]
    w.data[...] += 0.05
    after = bank.encode_image("workspace", x, None, lang).data
    nav_after = bank.encode_image("navigation", x, None, lang).data
    w.data[...] -= 0.05
    assert (before != after).any()
    np.testing.assert_array_equal(nav_before, nav_after)


def test_encode_proprio_shapes(bank):
    out = bank.encode_proprio("quad-proprio", np.zeros((2, 59), dtype=np.float32))
    assert out.shape == (2, 1, 64)
    out = bank.encode_proprio("bimanual-proprio", np.zeros((1, 14), dtype=np.float32))
    assert out.shape == (1, 1, 64)


def test_encode_proprio_dim_check(bank):
    with pytest.raises(DimensionError):
        bank.encode_proprio("quad-proprio", np.zeros((2, 58), dtype=np.float32))
    with pytest.raises(DimensionError):
        bank.encode_proprio("bimanual-proprio", np.zeros((2, 7), dtype=np.float32))


def test_encode_proprio_zero_vector_zero_bias(bank):
    w = bank.params["enc/proprio/bimanual-proprio/b"]
    assert not w.data.any()  # bias init is zero
    out = bank.encode_proprio("bimanual-proprio", np.zeros((1, 14), dtype=np.float32))
    np.testing.assert_array_equal(out.data, np.zeros((1, 1, 64), dtype=np.float32))
