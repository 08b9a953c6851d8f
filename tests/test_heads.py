import numpy as np
import pytest

import omnibot.autodiff as ad
from omnibot import heads
from omnibot.config import desk_config, paper_scale_config
from omnibot.embodiments import EMBODIMENTS
from omnibot.errors import ContractError, DimensionError


@pytest.fixture(scope="module")
def cfg():
    return desk_config()


@pytest.fixture(scope="module")
def params(cfg):
    rng = np.random.Generator(np.random.PCG64(0))
    return heads.init_head_params(cfg, rng)


def test_specs_have_paper_dims_and_ownership(cfg):
    assert cfg.head("single-arm").action_dim == 7 and cfg.head("single-arm").chunk_size == 4
    assert cfg.head("navigation").action_dim == 2 and cfg.head("navigation").chunk_size == 4
    assert cfg.head("bimanual").action_dim == 14
    assert cfg.head("quadruped").action_dim == 12 and cfg.head("quadruped").chunk_size == 1
    owners = {h.name: {e for e, s in EMBODIMENTS.items() if s.head == h.name} for h in cfg.heads}
    assert "arm1" in owners["single-arm"]
    assert owners["navigation"] == {"nav", "nav-shifted"}


def test_decode_zero_readouts_zero_bias(cfg, params):
    spec = cfg.head("single-arm")
    chunk = heads.decode(ad.zeros((4, 64)), params, spec)
    np.testing.assert_array_equal(chunk.values, np.zeros((4, 7), dtype=np.float32))
    assert chunk.head == "single-arm"


def test_decode_shapes(cfg, params):
    rng = np.random.Generator(np.random.PCG64(1))
    spec = cfg.head("single-arm")
    out = heads.decode(ad.tensor(rng.standard_normal((4, 64)).astype(np.float32)), params, spec)
    assert out.values.shape == (4, 7)
    with pytest.raises(DimensionError):
        heads.decode(ad.zeros((3, 64)), params, spec)


def test_decode_paper_bimanual_chunk_100():
    cfg = paper_scale_config()
    rng = np.random.Generator(np.random.PCG64(2))
    params = heads.init_head_params(cfg, rng)
    spec = cfg.head("bimanual")
    readouts = ad.tensor(rng.standard_normal((100, 512)).astype(np.float32))
    assert heads.decode(readouts, params, spec).values.shape == (100, 14)


def test_decode_is_affine(cfg, params):
    rng = np.random.Generator(np.random.PCG64(3))
    spec = cfg.head("navigation")
    a = rng.standard_normal((4, 64)).astype(np.float32)
    b = rng.standard_normal((4, 64)).astype(np.float32)
    da = heads.decode(ad.tensor(a), params, spec).values
    db = heads.decode(ad.tensor(b), params, spec).values
    dz = heads.decode(ad.zeros((4, 64)), params, spec).values
    dab = heads.decode(ad.tensor(a + b), params, spec).values
    np.testing.assert_allclose(dab, da + db - dz, rtol=1e-4, atol=1e-6)


def _batch(preds_np):
    preds = {h: ad.param(v) for h, v in preds_np.items()}
    return preds


def test_training_loss_zero_when_exact():
    pred = {"navigation": ad.tensor(np.ones((1, 2, 4, 2), dtype=np.float32))}
    tgt = {"navigation": np.ones((1, 2, 4, 2), dtype=np.float32)}
    mask = {"navigation": np.ones((1, 2, 4), dtype=np.float32)}
    assert heads.training_loss(pred, tgt, mask).item() == 0.0


def test_training_loss_arithmetic():
    pred = {"navigation": ad.tensor(np.array([[[[1.0, 1.0]]]], dtype=np.float32))}
    tgt = {"navigation": np.array([[[[0.0, 2.0]]]], dtype=np.float32)}
    mask = {"navigation": np.ones((1, 1, 1), dtype=np.float32)}
    assert heads.training_loss(pred, tgt, mask).item() == pytest.approx(1.0)


def test_validation_mse_arithmetic():
    pred = {"quadruped": ad.tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))}
    tgt = {"quadruped": np.zeros((1, 1, 1, 1), dtype=np.float32)}
    mask = {"quadruped": np.ones((1, 1, 1), dtype=np.float32)}
    assert heads.validation_mse(pred, tgt, mask).item() == pytest.approx(4.0)
    assert heads.training_loss(pred, tgt, mask).item() == pytest.approx(2.0)


def test_mse_zero_iff_l1_zero():
    rng = np.random.Generator(np.random.PCG64(4))
    v = rng.standard_normal((2, 3, 4, 2)).astype(np.float32)
    pred = {"navigation": ad.tensor(v)}
    tgt = {"navigation": v.copy()}
    mask = {"navigation": np.ones((2, 3, 4), dtype=np.float32)}
    assert heads.validation_mse(pred, tgt, mask).item() == 0.0
    assert heads.training_loss(pred, tgt, mask).item() == 0.0


def test_ownership_masking_other_heads_contribute_nothing():
    rng = np.random.Generator(np.random.PCG64(5))
    nav_pred = rng.standard_normal((2, 1, 4, 2)).astype(np.float32)
    arm_pred = rng.standard_normal((2, 1, 4, 7)).astype(np.float32)
    tgt = {
        "navigation": rng.standard_normal((2, 1, 4, 2)).astype(np.float32),
        "single-arm": rng.standard_normal((2, 1, 4, 7)).astype(np.float32),
    }
    masks = {
        "navigation": np.stack([np.ones((1, 4)), np.zeros((1, 4))]).astype(np.float32),
        "single-arm": np.stack([np.zeros((1, 4)), np.ones((1, 4))]).astype(np.float32),
    }
    preds1 = {"navigation": ad.tensor(nav_pred), "single-arm": ad.tensor(arm_pred)}
    loss1 = heads.training_loss(preds1, tgt, masks).item()
    # zeroing the non-owned entries changes nothing
    nav2 = nav_pred.copy()
    nav2[1] = 0.0
    arm2 = arm_pred.copy()
    arm2[0] = 0.0
    preds2 = {"navigation": ad.tensor(nav2), "single-arm": ad.tensor(arm2)}
    loss2 = heads.training_loss(preds2, tgt, masks).item()
    assert loss1 == loss2


def test_head_isolation_gradients_exactly_zero_for_nonowners():
    rng = np.random.Generator(np.random.PCG64(6))
    nav = ad.param(rng.standard_normal((2, 1, 4, 2)).astype(np.float32))
    arm = ad.param(rng.standard_normal((2, 1, 4, 7)).astype(np.float32))
    tgt = {
        "navigation": rng.standard_normal((2, 1, 4, 2)).astype(np.float32),
        "single-arm": rng.standard_normal((2, 1, 4, 7)).astype(np.float32),
    }
    masks = {
        "navigation": np.stack([np.ones((1, 4)), np.zeros((1, 4))]).astype(np.float32),
        "single-arm": np.stack([np.zeros((1, 4)), np.ones((1, 4))]).astype(np.float32),
    }
    loss = heads.training_loss({"navigation": nav, "single-arm": arm}, tgt, masks)
    grads = ad.backward(loss, [nav, arm])
    np.testing.assert_array_equal(grads[nav][1], np.zeros((1, 4, 2)))
    np.testing.assert_array_equal(grads[arm][0], np.zeros((1, 4, 7)))
    assert np.abs(grads[nav][0]).max() > 0


def test_masking_any_supervised_step_changes_loss():
    rng = np.random.Generator(np.random.PCG64(7))
    pred = {"navigation": ad.tensor(rng.standard_normal((1, 3, 4, 2)).astype(np.float32))}
    tgt = {"navigation": rng.standard_normal((1, 3, 4, 2)).astype(np.float32)}
    full = np.ones((1, 3, 4), dtype=np.float32)
    loss_full = heads.training_loss(pred, tgt, {"navigation": full}).item()
    for step in range(3):
        m = full.copy()
        m[0, step] = 0.0
        loss_masked = heads.training_loss(pred, tgt, {"navigation": m}).item()
        assert loss_masked != loss_full


def test_element_with_no_owned_head_raises():
    pred = {"navigation": ad.tensor(np.zeros((1, 1, 4, 2), dtype=np.float32))}
    tgt = {"navigation": np.zeros((1, 1, 4, 2), dtype=np.float32)}
    mask = {"navigation": np.zeros((1, 1, 4), dtype=np.float32)}
    with pytest.raises(ContractError):
        heads.training_loss(pred, tgt, mask)
