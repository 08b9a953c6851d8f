from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from omnibot import datapipe as dp
from omnibot import envs
from omnibot.assembler import build_layout
from omnibot.config import desk_config
from omnibot.embodiments import embodiment
from omnibot.errors import ConfigError, ContractError, CorruptionError, FormatError
from omnibot.rng import generator


def toy_traj(embodiment="nav", steps=10, instruction=0, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    if embodiment == "nav":
        obs = {"navigation": rng.random((steps, 3, 24, 24)).astype(np.float32)}
        actions = rng.standard_normal((steps, 2)).astype(np.float32)
    elif embodiment == "arm1":
        obs = {"workspace": rng.random((steps, 3, 24, 24)).astype(np.float32)}
        actions = rng.standard_normal((steps, 7)).astype(np.float32)
    elif embodiment == "quad":
        obs = {"quad-proprio": rng.standard_normal((steps, 59)).astype(np.float32)}
        actions = rng.standard_normal((steps, 12)).astype(np.float32)
    else:
        raise ValueError(embodiment)
    return dp.TrajectoryRecord(embodiment, obs, actions, instruction)


def nav_schema():
    return dp.ShardSchema(
        dataset="navset",
        embodiment="nav",
        head="navigation",
        action_dim=2,
        instruction_vocab=32,
        streams=[("navigation", (3, 24, 24))],
    )


# ----------------------------------------------------------------- shards


def test_shard_round_trip_bit_exact(tmp_path):
    trajs = [toy_traj(seed=i, steps=5 + i, instruction=i) for i in range(3)]
    path = str(tmp_path / "nav.xeds")
    dp.write_shard(nav_schema(), trajs, path)
    schema, back = dp.read_shard(path)
    assert schema.dataset == "navset"
    assert len(back) == 3
    for a, b in zip(trajs, back):
        assert a.instruction == b.instruction
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.observations["navigation"], b.observations["navigation"])


def test_shard_empty_list_valid(tmp_path):
    path = str(tmp_path / "empty.xeds")
    dp.write_shard(nav_schema(), [], path)
    schema, back = dp.read_shard(path)
    assert back == []


def test_shard_write_rejects_wrong_action_dim(tmp_path):
    bad = toy_traj(seed=0)
    bad.actions = bad.actions[:, :1]
    with pytest.raises(FormatError):
        dp.write_shard(nav_schema(), [bad], str(tmp_path / "x.xeds"))


def test_shard_write_rejects_foreign_embodiment(tmp_path):
    with pytest.raises(FormatError):
        dp.write_shard(nav_schema(), [toy_traj("quad")], str(tmp_path / "x.xeds"))


def test_shard_magic_mismatch(tmp_path):
    path = tmp_path / "bad.xeds"
    path.write_bytes(b"NOTIT" + b"\x00" * 20)
    with pytest.raises(FormatError):
        dp.read_shard(str(path))


def test_shard_truncation_reports_offset(tmp_path):
    path = str(tmp_path / "nav.xeds")
    dp.write_shard(nav_schema(), [toy_traj(seed=1)], path)
    blob = open(path, "rb").read()
    cut = len(blob) - 100
    open(path, "wb").write(blob[:cut])
    with pytest.raises(CorruptionError) as err:
        dp.read_shard(path)
    assert err.value.offset <= cut


def test_shard_little_endian_on_disk(tmp_path):
    path = str(tmp_path / "nav.xeds")
    traj = toy_traj(seed=2, steps=1)
    dp.write_shard(nav_schema(), [traj], path)
    blob = open(path, "rb").read()
    header_len = int.from_bytes(blob[5:9], "little")
    payload = blob[9 + header_len + 8 :]
    first = np.frombuffer(payload[:4], dtype="<f4")[0]
    assert first == traj.observations["navigation"][0].reshape(-1)[0]


# ----------------------------------------------------------------- windows


def test_window_counts():
    assert len(dp.window_trajectory(toy_traj(steps=1), 5)) == 1
    assert dp.window_trajectory(toy_traj(steps=1), 5)[0] == 0
    assert len(dp.window_trajectory(toy_traj(steps=10), 5)) == 10
    starts = dp.window_trajectory(toy_traj(steps=10), 5)
    assert starts[7] == 3  # window ending at t=7 covers steps 3..7


def test_relabel_final_step_deterministic():
    traj = toy_traj(steps=4)
    rng = generator(0)
    goal = dp.relabel_goal(3, traj, rng)
    np.testing.assert_array_equal(goal, traj.observations["navigation"][3])


def test_relabel_uniformity_chi_square():
    steps = 4
    traj = toy_traj(steps=steps)
    # make each step's image identifiable by its first pixel
    for i in range(steps):
        traj.observations["navigation"][i, 0, 0, 0] = i
    rng = generator(1234, "relabel")
    counts = np.zeros(steps)
    n = 40000
    for _ in range(n):
        goal = dp.relabel_goal(0, traj, rng)
        counts[int(goal[0, 0, 0])] += 1
    assert abs(counts.sum() - n) < 1e-9
    p = stats.chisquare(counts).pvalue
    assert p > 0.01
    assert np.all(np.abs(counts / n - 0.25) < 0.25 * 0.01 + 0.01)


def test_relabel_goal_view_matches_embodiment():
    assert embodiment("nav").goal_view == "navigation"
    assert embodiment("arm1").goal_view == "workspace"
    assert embodiment("quad").goal_view is None
    with pytest.raises(ContractError):
        dp.relabel_goal(0, toy_traj("quad"), generator(0))


# ----------------------------------------------------------------- modality


def _example(instruction, with_goal=True):
    cfg = desk_config()
    layout = build_layout(cfg)
    sampler_cfg = cfg
    traj = toy_traj("nav", steps=8, instruction=instruction)
    sampler = dp.BatchSampler(
        {"navset": [traj] * 21}, dp.MixtureSpec([("navset", 1.0)]), sampler_cfg, layout, seed=0
    )
    rng = generator(7)
    ex = sampler.build_example(traj, 5, rng)
    if not with_goal:
        from dataclasses import replace

        ex = dp.TrainingExample(
            ex.embodiment,
            ex.head,
            [replace(f, goal=None, goal_view=None) for f in ex.frames],
            ex.targets,
            ex.target_mask,
        )
    return ex


def test_mask_modality_goal_only_always_keeps_goal():
    ex = _example(instruction=0)
    rng = generator(1)
    for _ in range(20):
        out = dp.mask_modality(ex, rng)
        assert out.frames[-1].goal is not None
        assert out.frames[-1].instruction == 0


def test_mask_modality_instruction_only_keeps_instruction():
    ex = _example(instruction=5, with_goal=False)
    out = dp.mask_modality(ex, generator(2))
    assert out.frames[-1].instruction == 5


def test_mask_modality_frequency():
    ex = _example(instruction=5)
    rng = generator(3)
    kept_goal = 0
    n = 10000
    for _ in range(n):
        out = dp.mask_modality(ex, rng)
        has_goal = out.frames[-1].goal is not None
        has_lang = out.frames[-1].instruction != 0
        assert has_goal != has_lang  # exactly one survives
        kept_goal += has_goal
    assert abs(kept_goal / n - 0.5) < 0.02


# ----------------------------------------------------------------- mixture


def test_mixture_single_entry_always_drawn():
    spec = dp.MixtureSpec([("a", 1.0)])
    rng = generator(0)
    assert all(dp.sample_mixture(spec, rng) == "a" for _ in range(100))


def test_mixture_zero_weights_rejected():
    with pytest.raises(ConfigError):
        dp.MixtureSpec([("a", 0.0), ("b", 0.0)])
    with pytest.raises(ConfigError):
        dp.MixtureSpec([])


def test_mixture_desk_frequencies():
    spec = dp.MixtureSpec([("arm1", 0.4), ("nav", 0.3), ("bimanual", 0.2), ("quad", 0.1)])
    rng = generator(99, "mixture")
    n = 100000
    counts = {k: 0 for k in spec.names}
    for _ in range(n):
        counts[dp.sample_mixture(spec, rng)] += 1
    for name, w in spec.entries:
        assert abs(counts[name] / n - w) < 0.005, (name, counts[name] / n)


def test_mixture_weights_need_not_sum_to_one():
    spec = dp.MixtureSpec([("a", 2.0), ("b", 6.0)])
    np.testing.assert_allclose(spec.probabilities, [0.25, 0.75])


# ----------------------------------------------------------------- augment


def test_augment_zero_magnitudes_identity():
    rng = generator(5)
    img = np.random.Generator(np.random.PCG64(0)).random((3, 24, 24)).astype(np.float32)
    out = dp.augment(img, rng, max_shift=0, jitter=0.0)
    np.testing.assert_array_equal(out, img)


def test_augment_stays_in_range():
    rng = generator(6)
    img = np.random.Generator(np.random.PCG64(1)).random((3, 24, 24)).astype(np.float32)
    for _ in range(50):
        out = dp.augment(img, rng)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_deterministic_given_seed():
    img = np.random.Generator(np.random.PCG64(2)).random((3, 24, 24)).astype(np.float32)
    a = dp.augment(img, generator(7))
    b = dp.augment(img, generator(7))
    np.testing.assert_array_equal(a, b)


def test_augment_goal_draw_independent():
    cfg = desk_config()
    layout = build_layout(cfg)
    traj = toy_traj("nav", steps=8, instruction=0, seed=3)
    sampler = dp.BatchSampler(
        {"navset": [traj] * 21}, dp.MixtureSpec([("navset", 1.0)]), cfg, layout, seed=0
    )
    ex = sampler.build_example(traj, 5, generator(8))
    out = dp.augment_example(ex, generator(9), cfg)
    f = out.frames[-1]
    # augmented views differ from the raw trajectory content in general
    assert f.goal is not None
    assert f.goal.shape == (3, 24, 24)


def copy_rng(g):
    out = np.random.Generator(np.random.PCG64())
    out.bit_generator.state = g.bit_generator.state
    return out


def augment_per_frame(example, rng, cfg):
    """Reference: augment every frame's views and goal one at a time.

    Each frame re-seeds a view's transform from a copy of that view's
    generator, so all steps get the same draw; the goal likewise.
    """
    views = [g.name for g in cfg.layout.groups if g.kind == "obs-image"]
    plans = {}
    for view in views:
        if any(view in f.observations for f in example.frames):
            plans[view] = generator(int(rng.integers(0, 2**63)))
    frames, goal_rng = [], None
    for f in example.frames:
        obs = dict(f.observations)
        for view, view_rng in plans.items():
            if view in obs:
                obs[view] = dp.augment(obs[view], copy_rng(view_rng), cfg.train.max_shift_px, cfg.train.jitter)
        goal = f.goal
        if goal is not None:
            if goal_rng is None:
                goal_rng = generator(int(rng.integers(0, 2**63)))
            goal = dp.augment(goal, copy_rng(goal_rng), cfg.train.max_shift_px, cfg.train.jitter)
        frames.append(replace(f, observations=obs, goal=goal))
    return replace(example, frames=frames)


@pytest.mark.parametrize("name", ("arm1", "nav", "bimanual", "quad"))
def test_augment_example_matches_per_frame_reference(name, tmp_path):
    cfg = desk_config()
    path = str(tmp_path / f"{name}.xeds")
    envs.generate_dataset(name, 3, 31, path, cfg)
    trajs = dp.read_shard(path)[1]
    traj = max(trajs, key=lambda t: t.steps)
    sampler = dp.BatchSampler({name: trajs * 10}, dp.MixtureSpec([(name, 1.0)]), cfg, build_layout(cfg), seed=0)
    for i, end in enumerate((0, 1, 3, traj.steps - 1)):  # short windows and a full one
        rng = generator(40 + i)
        example = dp.mask_modality(sampler.build_example(traj, end, rng), rng)
        rng_ref = copy_rng(rng)
        want = augment_per_frame(example, rng_ref, cfg)
        got = dp.augment_example(example, rng, cfg)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert len(got.frames) == len(want.frames) == min(end + 1, cfg.layout.history)
        for g, w in zip(got.frames, want.frames):
            assert g.observations.keys() == w.observations.keys()
            for view in w.observations:
                np.testing.assert_array_equal(g.observations[view], w.observations[view])
                assert g.observations[view].dtype == w.observations[view].dtype
            assert (g.goal is None) == (w.goal is None)
            if w.goal is not None:
                np.testing.assert_array_equal(g.goal, w.goal)


# ----------------------------------------------------------------- batches


@pytest.fixture(scope="module")
def small_world():
    cfg = desk_config()
    layout = build_layout(cfg)
    datasets = {
        "navset": [toy_traj("nav", steps=8, seed=i) for i in range(40)],
        "quadset": [toy_traj("quad", steps=8, seed=100 + i, instruction=8) for i in range(40)],
    }
    mixture = dp.MixtureSpec([("navset", 0.5), ("quadset", 0.5)])
    return cfg, layout, datasets, mixture


def test_batch_deterministic_by_index(small_world):
    cfg, layout, datasets, mixture = small_world
    s1 = dp.BatchSampler(datasets, mixture, cfg, layout, seed=11)
    s2 = dp.BatchSampler(datasets, mixture, cfg, layout, seed=11)
    b1 = s1.batch(17, size=4)
    b2 = s2.batch(17, size=4)
    assert b1.embodiments == b2.embodiments
    for h in b1.targets:
        np.testing.assert_array_equal(b1.targets[h], b2.targets[h])
    for w1, w2 in zip(b1.windows, b2.windows):
        for f1, f2 in zip(w1, w2):
            for g in f1.observations:
                np.testing.assert_array_equal(f1.observations[g], f2.observations[g])


def test_batch_seed_changes_content(small_world):
    cfg, layout, datasets, mixture = small_world
    s1 = dp.BatchSampler(datasets, mixture, cfg, layout, seed=11)
    b1 = s1.batch(17, size=6)
    b2 = s1.batch(18, size=6)
    assert b1.embodiments != b2.embodiments or any(
        not np.array_equal(b1.targets[h], b2.targets[h]) for h in b1.targets
    )


def test_targets_past_episode_end_masked(small_world):
    cfg, layout, datasets, mixture = small_world
    traj = datasets["navset"][0]  # 8 steps, nav chunk is 4
    sampler = dp.BatchSampler(datasets, mixture, cfg, layout, seed=0)
    ex = sampler.build_example(traj, end=7, rng=generator(1))
    # newest slot: chunk rows 1..3 run past the end
    assert ex.target_mask[4, 0] == 1.0
    assert (ex.target_mask[4, 1:] == 0.0).all()
    np.testing.assert_array_equal(ex.targets[4, 1:], np.zeros((3, 2), dtype=np.float32))
    # leading slots before the trajectory start are fully masked
    ex0 = sampler.build_example(traj, end=0, rng=generator(2))
    assert (ex0.target_mask[:4] == 0.0).all()
    assert ex0.target_mask[4, :4].sum() == 4.0


def test_train_val_split_disjoint_and_sized(small_world):
    cfg, layout, datasets, mixture = small_world
    train = dp.BatchSampler(datasets, mixture, cfg, layout, seed=0, split="train")
    val = dp.BatchSampler(datasets, mixture, cfg, layout, seed=0, split="val")
    assert len(train.datasets["navset"]) == 38
    assert len(val.datasets["navset"]) == 2
    tids = {id(t) for t in train.datasets["navset"]}
    vids = {id(t) for t in val.datasets["navset"]}
    assert not (tids & vids)


def test_quad_examples_skip_goal_conditioning(small_world):
    cfg, layout, datasets, mixture = small_world
    sampler = dp.BatchSampler(datasets, mixture, cfg, layout, seed=3)
    traj = datasets["quadset"][0]
    ex = sampler.build_example(traj, 5, generator(4))
    assert all(f.goal is None for f in ex.frames)
    assert ex.frames[-1].instruction == 8
    out = dp.mask_modality(ex, generator(5))
    assert out.frames[-1].instruction == 8  # never masked away


def test_shard_of_unknown_embodiment_fails_the_batch_with_contract_error(tmp_path):
    path = str(tmp_path / "hexapod.xeds")
    dp.write_shard(replace(nav_schema(), embodiment="hexapod"), [replace(toy_traj(), embodiment="hexapod")] * 3, path)
    _, trajs = dp.read_shard(path)
    cfg = desk_config()
    sampler = dp.BatchSampler({"hexset": trajs}, dp.MixtureSpec([("hexset", 1.0)]), cfg, build_layout(cfg), seed=0)
    with pytest.raises(ContractError, match="hexapod"):
        sampler.batch(0, size=2)
