import numpy as np
import pytest

from omnibot import assembler
from omnibot.assembler import ObservationFrame, build_attention_mask, build_layout
from omnibot.config import desk_config
from omnibot.errors import ConfigError, ContractError


@pytest.fixture(scope="module")
def cfg():
    return desk_config()


@pytest.fixture(scope="module")
def layout(cfg):
    return build_layout(cfg)


def test_desk_layout_arithmetic(layout):
    # 4 image groups x 9 + 2 proprio + readouts (4 + 4 + 20 + 1)
    assert layout.step_tokens == 36 + 2 + 29 == 67
    assert layout.history == 5
    assert layout.context_tokens == 335


def test_layout_offsets_partition_context(layout):
    covered = np.zeros(layout.context_tokens, dtype=int)
    for step in range(layout.history):
        for g in layout.groups:
            start = step * layout.step_tokens + g.offset
            covered[start : start + g.tokens] += 1
    assert (covered == 1).all()


def test_readout_group_chunk_mismatch_is_config_error(cfg):
    bad = desk_config()
    bad.layout.groups[-4].tokens = 3  # single-arm readout, head chunk is 4
    with pytest.raises(ConfigError):
        build_layout(bad)


def test_readout_ranges(layout):
    a, b = layout.readout_range("single-arm", 0)
    assert b - a == 4
    a2, b2 = layout.readout_range("single-arm", 1)
    assert a2 == a + layout.step_tokens
    with pytest.raises(KeyError):
        layout.readout_range("no-such-head", 0)


def test_canonical_round_trip(layout):
    text = layout.canonical()
    back = assembler.SlotLayout.from_canonical(text)
    assert back.canonical() == text
    assert back.step_tokens == layout.step_tokens


# ------------------------------------------------------------------ masks


def test_mask_obs_rule_same_or_prior_step(layout):
    pad = np.zeros(layout.context_tokens, dtype=bool)
    mask = build_attention_mask(layout, pad)
    s = layout.step_tokens
    obs1 = 1 * s + layout.group("workspace").offset  # obs token at step 1
    obs0 = 0 * s + layout.group("navigation").offset
    obs2 = 2 * s + layout.group("navigation").offset
    assert mask[obs1, obs0] and mask[obs1, obs1]
    assert not mask[obs1, obs2]


def test_mask_readout_rule_obs_plus_self(layout):
    pad = np.zeros(layout.context_tokens, dtype=bool)
    mask = build_attention_mask(layout, pad)
    r0 = layout.readout_range("single-arm", 0)[0]
    nav_r0 = layout.readout_range("navigation", 0)[0]
    obs0 = layout.group("workspace").offset
    assert mask[r0, obs0]
    assert mask[r0, r0]  # self only
    assert not mask[r0, r0 + 1]  # not even its own group's other slots
    assert not mask[r0, nav_r0]
    assert not mask[obs0, r0]  # observations never read readouts


def test_mask_pad_rule(layout):
    pad = np.zeros(layout.context_tokens, dtype=bool)
    g = layout.group("wrist-left")
    pad[g.offset : g.offset + g.tokens] = True
    mask = build_attention_mask(layout, pad)
    other = layout.group("workspace").offset
    assert not mask[other, g.offset]
    assert mask[g.offset, g.offset]  # pads still see themselves
    assert mask.any(axis=-1).all()  # no degenerate rows ever


def test_mask_batched_matches_single(layout):
    rng = np.random.Generator(np.random.PCG64(0))
    pads = rng.random((3, layout.context_tokens)) < 0.3
    batched = build_attention_mask(layout, pads)
    for i in range(3):
        np.testing.assert_array_equal(batched[i], build_attention_mask(layout, pads[i]))


# ------------------------------------------------------------------ assembly


def nav_frame(seed=0, instruction=0, goal=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    return ObservationFrame(
        embodiment="nav",
        observations={"navigation": rng.random((3, 24, 24)).astype(np.float32)},
        instruction=instruction,
        goal=goal,
        goal_view="navigation" if goal is not None else None,
    )


def quad_frame(seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return ObservationFrame(
        embodiment="quad",
        observations={"quad-proprio": rng.standard_normal(59).astype(np.float32)},
        instruction=8,
    )


@pytest.fixture(scope="module")
def policy(cfg):
    from omnibot.policy import Policy

    return Policy.init(cfg, seed=0)


def test_single_nav_frame_padding(policy, layout):
    win = policy.assemble([[nav_frame()]])
    # steps 0..3 fully padded, step 4 populated
    s = layout.step_tokens
    assert win.valid_steps[0].tolist() == [False] * 4 + [True]
    assert win.pad[0, : 4 * s].all()
    nav = layout.group("navigation")
    base = 4 * s
    assert not win.pad[0, base + nav.offset : base + nav.offset + nav.tokens].any()
    ws = layout.group("workspace")
    assert win.pad[0, base + ws.offset : base + ws.offset + ws.tokens].all()
    for head in ("single-arm", "navigation", "bimanual", "quadruped"):
        a, b = layout.readout_range(head, 4)
        assert not win.pad[0, a:b].any()
    # padded slots carry exactly zero content
    np.testing.assert_array_equal(
        win.tokens.data[0, win.pad[0]], np.zeros((win.pad[0].sum(), 64), dtype=np.float32)
    )


def test_full_quad_window(policy, layout):
    frames = [quad_frame(seed=i) for i in range(5)]
    win = policy.assemble([frames])
    assert win.tokens.shape == (1, 5 * layout.step_tokens, 64)
    assert win.valid_steps.all()
    qp = layout.group("quad-proprio")
    for step in range(5):
        base = step * layout.step_tokens
        assert not win.pad[0, base + qp.offset]
        ws = layout.group("workspace")
        assert win.pad[0, base + ws.offset : base + ws.offset + ws.tokens].all()


def test_mixed_embodiment_window_rejected(policy):
    with pytest.raises(ContractError):
        policy.assemble([[nav_frame(), quad_frame()]])


def test_goal_absent_equals_zero_goal_image(policy):
    zero_goal = nav_frame(seed=1, goal=np.zeros((3, 24, 24), dtype=np.float32))
    no_goal = nav_frame(seed=1, goal=None)
    a = policy.assemble([[zero_goal]]).tokens.data
    b = policy.assemble([[no_goal]]).tokens.data
    np.testing.assert_array_equal(a, b)
