import dataclasses

import numpy as np
import pytest

from omnibot import assembler, embodiments
from omnibot.assembler import ObservationFrame, build_attention_mask, build_layout
from omnibot.config import HeadSection, desk_config
from omnibot.datapipe import TrainingBatch
from omnibot.embodiments import embodiment
from omnibot.errors import ContractError, DimensionError


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


def test_readout_groups_follow_the_heads(monkeypatch):
    plane = dataclasses.replace(embodiment("nav"), name="plane", head="aviation")  # a robot on a new head
    monkeypatch.setitem(embodiments.EMBODIMENTS, "plane", plane)
    cfg = desk_config()
    cfg.head("single-arm").chunk_size = 3
    cfg.heads.append(HeadSection("aviation", chunk_size=2))
    layout = build_layout(cfg)
    assert layout.group("readout-single-arm").tokens == 3
    last = layout.groups[-1]
    assert (last.name, last.kind, last.tokens, last.head) == ("readout-aviation", "readout", 2, "aviation")
    assert layout.step_tokens == 67 - 1 + 2


def test_head_action_dim_with_disagreeing_robots_is_contract_error(monkeypatch):
    cfg = desk_config()
    assert cfg.head("navigation").action_dim == 2
    crawler = dataclasses.replace(embodiment("nav"), name="crawler", action_dim=3)  # a 3-D robot on the nav head
    monkeypatch.setitem(embodiments.EMBODIMENTS, "crawler", crawler)
    with pytest.raises(ContractError, match=r"'navigation' has action widths \[2, 3\]"):
        cfg.head("navigation").action_dim
    with pytest.raises(ContractError, match=r"'aviation' has action widths \[\]"):
        HeadSection("aviation", chunk_size=2).action_dim


def test_readout_ranges(layout):
    rows = layout.readout_indices("single-arm")
    assert rows.shape == (layout.history, 4)
    assert (np.diff(rows[0]) == 1).all()
    np.testing.assert_array_equal(rows[1], rows[0] + layout.step_tokens)
    with pytest.raises(KeyError):
        layout.readout_indices("no-such-head")


def test_canonical_round_trip(layout):
    text = layout.canonical()
    back = assembler.SlotLayout.from_canonical(text)
    assert back.canonical() == text
    assert back.step_tokens == layout.step_tokens


# ------------------------------------------------------------------ masks


def every_slot(layout):
    return np.arange(layout.context_tokens)


def test_mask_obs_rule_same_or_prior_step(layout):
    pad = np.zeros(layout.context_tokens, dtype=bool)
    mask = build_attention_mask(layout, pad, every_slot(layout))
    s = layout.step_tokens
    obs1 = 1 * s + layout.group("workspace").offset  # obs token at step 1
    obs0 = 0 * s + layout.group("navigation").offset
    obs2 = 2 * s + layout.group("navigation").offset
    assert mask[obs1, obs0] and mask[obs1, obs1]
    assert not mask[obs1, obs2]


def test_mask_readout_rule_obs_plus_self(layout):
    pad = np.zeros(layout.context_tokens, dtype=bool)
    mask = build_attention_mask(layout, pad, every_slot(layout))
    r0 = layout.readout_indices("single-arm")[0, 0]
    nav_r0 = layout.readout_indices("navigation")[0, 0]
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
    mask = build_attention_mask(layout, pad, every_slot(layout))
    other = layout.group("workspace").offset
    assert not mask[other, g.offset]
    assert mask[g.offset, g.offset]  # pads still see themselves
    assert mask.any(axis=-1).all()  # no degenerate rows ever


def test_mask_batched_matches_single(layout):
    rng = np.random.Generator(np.random.PCG64(0))
    pads = rng.random((3, layout.context_tokens)) < 0.3
    batched = build_attention_mask(layout, pads, every_slot(layout))
    for i in range(3):
        np.testing.assert_array_equal(batched[i], build_attention_mask(layout, pads[i], every_slot(layout)))


# ------------------------------------------------------------------ assembly


def nav_frame(seed=0, instruction=0, goal=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    return ObservationFrame(
        embodiment="nav",
        observations={"navigation": rng.random((3, 24, 24)).astype(np.float32)},
        instruction=instruction,
        goal=goal,
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
        assert not win.pad[0, layout.readout_indices(head)[4]].any()
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


def bimanual_frame(seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    obs = {g: rng.random(shape).astype(np.float32) for g, shape in embodiment("bimanual").observations}
    return ObservationFrame(embodiment="bimanual", observations=obs, instruction=5)


def without(frame, group):
    return dataclasses.replace(frame, observations={g: v for g, v in frame.observations.items() if g != group})


def carrying(frame, group, value):
    return dataclasses.replace(frame, observations={**frame.observations, group: value})


CAMERA_IMAGE = np.zeros((3, 24, 24), dtype=np.float32)
OFF_REGISTRY_FRAMES = [
    # (window, head, frame index, robot, group)
    ([bimanual_frame(0), without(bimanual_frame(1), "wrist-left")], "bimanual", 1, "bimanual", "wrist-left"),
    ([carrying(nav_frame(), "wrist-left", CAMERA_IMAGE)], "navigation", 0, "nav", "wrist-left"),
    ([nav_frame(0), nav_frame(1), carrying(nav_frame(2), "sonar", np.zeros(8, np.float32))],
     "navigation", 2, "nav", "sonar"),
]


@pytest.mark.parametrize("window, head, index, robot, group", OFF_REGISTRY_FRAMES,
                         ids=["bimanual-without-wrist-left", "nav-with-wrist-left", "nav-with-sonar"])
def test_act_rejects_a_frame_whose_groups_differ_from_the_registry(policy, window, head, index, robot, group):
    with pytest.raises(ContractError, match=rf"frame {index} of '{robot}'.*'{group}'"):
        policy.act(window, head)


@pytest.mark.parametrize("window, head, index, robot, group", OFF_REGISTRY_FRAMES,
                         ids=["bimanual-without-wrist-left", "nav-with-wrist-left", "nav-with-sonar"])
def test_predict_rejects_a_frame_whose_groups_differ_from_the_registry(policy, window, head, index, robot, group):
    batch = TrainingBatch([[quad_frame()], window], {}, {}, [], [])
    with pytest.raises(ContractError, match=rf"frame {index} of '{robot}'.*'{group}'"):
        policy.predict(batch)


# ------------------------------------------------------------------ the frame contract


def test_window_embodiment_rejects_an_image_of_another_resolution():
    frame = carrying(nav_frame(), "navigation", np.zeros((3, 16, 16), np.float32))
    with pytest.raises(DimensionError, match=r"frame 0: navigation observation has shape \(3, 16, 16\), want \(3, 24, 24\)"):
        assembler.window_embodiment([frame], 5)


def test_window_embodiment_rejects_an_instruction_outside_the_vocabulary():
    with pytest.raises(ContractError, match="frame 1: instruction id 32 is outside the language vocabulary of 32 ids"):
        assembler.window_embodiment([nav_frame(), nav_frame(instruction=32)], 5)


def test_window_embodiment_admits_only_registry_groups_each_of_which_has_a_tokenizer(policy):
    tokenizer = {"obs-image": "enc/img/{}/proj/w", "obs-proprio": "enc/proprio/{}/w"}
    for name, kind, _ in embodiments.observation_groups():
        assert tokenizer[kind].format(name) in policy.params
    frame = dataclasses.replace(nav_frame(), observations={"sonar": CAMERA_IMAGE})
    with pytest.raises(ContractError, match=r"frame 0 of 'nav' lacks observation groups \['navigation'\] "
                                            r"and carries unexpected groups \['sonar'\]"):
        assembler.window_embodiment([frame], 5)


@pytest.mark.parametrize("name", (["nav"], None, "aviation"), ids=["unhashable", "none", "unknown"])
def test_window_embodiment_rejects_an_embodiment_the_registry_lacks(name):
    with pytest.raises(ContractError, match="unknown embodiment"):
        assembler.window_embodiment([nav_frame(), dataclasses.replace(nav_frame(), embodiment=name)], 5)


def test_window_embodiment_rejects_a_ragged_list_and_accepts_a_nested_list_of_floats():
    image = nav_frame().observations["navigation"]
    assert assembler.window_embodiment([carrying(nav_frame(), "navigation", image.tolist())], 5).name == "nav"
    ragged = [image.tolist(), image.tolist()[:-1]]
    with pytest.raises(ContractError, match="frame 0: navigation observation is not an array"):
        assembler.window_embodiment([carrying(nav_frame(), "navigation", ragged)], 5)


def nan_image():
    image = nav_frame().observations["navigation"].copy()
    image[2, 3, 4] = np.nan
    return image


@pytest.mark.parametrize("frame, match", [
    (carrying(nav_frame(), "navigation", (nav_frame().observations["navigation"] * 255).astype(np.uint8)),
     "frame 1: navigation observation has dtype uint8, want a float array"),
    (nav_frame(instruction=1.5), "frame 1: instruction 1.5 is not an integer id"),
    (carrying(nav_frame(), "navigation", nan_image()), "frame 1: navigation observation holds non-finite values as float32"),
], ids=["uint8-image", "float-instruction", "nan-image"])
def test_predict_and_assemble_reject_the_frames_act_rejects(policy, frame, match):
    window = [nav_frame(seed=3), frame]
    for call in (lambda: policy.act(window, "navigation"),
                 lambda: policy.predict(TrainingBatch([[quad_frame()], window], {}, {}, [], [])),
                 lambda: policy.assemble([window])):
        with pytest.raises(ContractError, match=match):
            call()


def test_goal_absent_equals_zero_goal_image(policy):
    zero_goal = nav_frame(seed=1, goal=np.zeros((3, 24, 24), dtype=np.float32))
    no_goal = nav_frame(seed=1, goal=None)
    a = policy.assemble([[zero_goal]]).tokens.data
    b = policy.assemble([[no_goal]]).tokens.data
    np.testing.assert_array_equal(a, b)
