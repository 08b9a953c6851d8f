"""Backbone shapes, determinism, and the end-to-end mask properties."""

import numpy as np
import pytest

import omnibot.autodiff as ad
from omnibot import backbone
from omnibot.assembler import ObservationFrame
from omnibot.config import BackboneSection, desk_config
from omnibot.errors import DimensionError
from omnibot.policy import Policy


@pytest.fixture(scope="module")
def cfg():
    return desk_config()


@pytest.fixture(scope="module")
def policy(cfg):
    return Policy.init(cfg, seed=1)


def frames_for(embodiment, n, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(n):
        if embodiment == "quad":
            obs = {"quad-proprio": rng.standard_normal(59).astype(np.float32)}
        elif embodiment == "nav":
            obs = {"navigation": rng.random((3, 24, 24)).astype(np.float32)}
        elif embodiment == "arm1":
            obs = {"workspace": rng.random((3, 24, 24)).astype(np.float32)}
        else:
            obs = {
                "workspace": rng.random((3, 24, 24)).astype(np.float32),
                "wrist-left": rng.random((3, 24, 24)).astype(np.float32),
                "wrist-right": rng.random((3, 24, 24)).astype(np.float32),
                "bimanual-proprio": rng.standard_normal(14).astype(np.float32),
            }
        out.append(ObservationFrame(embodiment=embodiment, observations=obs, instruction=0))
    return out


def test_output_shape_equals_input_shape(policy, cfg):
    win = policy.assemble([frames_for("nav", 3), frames_for("quad", 5, seed=2)])
    emb = backbone.forward(win, policy.params, policy.cfg)
    assert emb.shape == win.tokens.shape


def test_d_model_mismatch_raises(policy):
    cfg_bad = desk_config()
    cfg_bad.backbone = BackboneSection(layers=2, heads=4, d_model=128, d_mlp=256)
    win = policy.assemble([frames_for("nav", 1)])
    with pytest.raises(DimensionError):
        backbone.forward(win, policy.params, cfg_bad)


def test_determinism_bit_identical(policy):
    win1 = policy.assemble([frames_for("bimanual", 4, seed=3)])
    win2 = policy.assemble([frames_for("bimanual", 4, seed=3)])
    np.testing.assert_array_equal(
        backbone.forward(win1, policy.params, policy.cfg).data,
        backbone.forward(win2, policy.params, policy.cfg).data,
    )


def test_batch_permutation_consistency(policy):
    a = frames_for("nav", 5, seed=6)
    b = frames_for("quad", 5, seed=7)
    emb_ab = backbone.forward(policy.assemble([a, b]), policy.params, policy.cfg).data
    emb_ba = backbone.forward(policy.assemble([b, a]), policy.params, policy.cfg).data
    np.testing.assert_array_equal(emb_ab[0], emb_ba[1])
    np.testing.assert_array_equal(emb_ab[1], emb_ba[0])


def test_gradient_reaches_every_backbone_parameter(policy, cfg):
    from omnibot.datapipe import collate, TrainingExample

    rng = np.random.Generator(np.random.PCG64(8))
    examples = []
    for emb_name, head, chunk, dim in [
        ("arm1", "single-arm", 4, 7),
        ("nav", "navigation", 4, 2),
        ("bimanual", "bimanual", 20, 14),
        ("quad", "quadruped", 1, 12),
    ]:
        frames = frames_for(emb_name, 5, seed=hash(emb_name) % 100)
        for f in frames:
            f.instruction = 5
        examples.append(
            TrainingExample(
                embodiment=emb_name,
                head=head,
                frames=frames,
                targets=rng.standard_normal((5, chunk, dim)).astype(np.float32),
                target_mask=np.ones((5, chunk), dtype=np.float32),
            )
        )
    batch = collate(examples, cfg)
    loss = policy.loss(batch)
    grads = ad.backward(loss, list(policy.params.values()))
    name_of = {id(v): k for k, v in policy.params.items()}
    zero_named = [
        name_of[id(p)]
        for p, g in grads.items()
        if not np.abs(g).max() > 0
    ]
    # FiLM projections are zero-initialized: gamma/beta weight grads can be
    # legitimately zero only for views never fed language; everything else
    # must receive signal on a generic mixed batch.
    allowed_zero = {n for n in zero_named if "/film" in n or "lang/table" in n}
    assert set(zero_named) <= allowed_zero, f"dead parameters: {sorted(set(zero_named) - allowed_zero)}"


# ---------------------------------------------------- mask fidelity


def _forward_tokens(policy, win, tokens_data):
    """Run the backbone on a window with substituted token content."""
    import dataclasses

    win2 = dataclasses.replace(win, tokens=ad.tensor(tokens_data))
    return backbone.forward(win2, policy.params, policy.cfg).data


def test_causality_perturbation(policy):
    win = policy.assemble([frames_for("bimanual", 5, seed=9)])
    base = backbone.forward(win, policy.params, policy.cfg).data
    s = policy.layout.step_tokens
    rng = np.random.Generator(np.random.PCG64(10))
    for t_star in (2, 4):
        tokens = win.tokens.data.copy()
        sl = slice(t_star * s, (t_star + 1) * s)
        tokens[0, sl] += np.where(
            win.pad[0, sl, None], 0.0, rng.standard_normal((s, 64)).astype(np.float32)
        )
        out = _forward_tokens(policy, win, tokens)
        np.testing.assert_array_equal(out[0, : t_star * s], base[0, : t_star * s])
        assert (out[0, sl] != base[0, sl]).any()


def test_readout_passivity_perturbation(policy):
    win = policy.assemble([frames_for("arm1", 5, seed=11)])
    base = backbone.forward(win, policy.params, policy.cfg).data
    a = policy.layout.readout_indices("single-arm")[3, 0]
    tokens = win.tokens.data.copy()
    tokens[0, a] += 7.0
    out = _forward_tokens(policy, win, tokens)
    changed = np.zeros(policy.layout.context_tokens, dtype=bool)
    changed[a] = True
    np.testing.assert_array_equal(out[0, ~changed], base[0, ~changed])
    assert (out[0, a] != base[0, a]).any()


def test_pad_invariance_perturbation(policy):
    win = policy.assemble([frames_for("nav", 3, seed=12)])
    base = backbone.forward(win, policy.params, policy.cfg).data
    rng = np.random.Generator(np.random.PCG64(13))
    tokens = win.tokens.data.copy()
    pad = win.pad[0]
    tokens[0, pad] = rng.standard_normal((pad.sum(), 64)).astype(np.float32) * 10.0
    out = _forward_tokens(policy, win, tokens)
    np.testing.assert_array_equal(out[0, ~pad], base[0, ~pad])


def test_paper_scale_backbone_constructs_and_runs():
    from omnibot.config import paper_scale_config

    cfg = paper_scale_config()
    assert (cfg.backbone.layers, cfg.backbone.heads) == (12, 8)
    assert (cfg.backbone.d_model, cfg.backbone.d_mlp) == (512, 2048)
    policy = Policy.init(cfg, seed=0)
    win = policy.assemble([frames_for("quad", 1)])
    emb = backbone.forward(win, policy.params, policy.cfg)
    assert emb.shape == (1, policy.layout.context_tokens, 512)
