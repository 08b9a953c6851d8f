import numpy as np
import pytest

from omnibot import envs
from omnibot.config import desk_config
from omnibot.datapipe import read_shard
from omnibot.embodiments import EMBODIMENTS, embodiment
from omnibot.errors import ContractError, ExecutionError


def test_registry_and_action_dims():
    assert set(envs.ENVS) == set(EMBODIMENTS) == {"arm1", "nav", "bimanual", "quad", "nav-shifted"}
    for name, spec in EMBODIMENTS.items():
        env = envs.make_env(name)
        assert env.spec is spec
        state, frame, _ = env.reset(0)
        assert {g: obs.shape for g, obs in frame.observations.items()} == dict(spec.observations)
        assert env.expert_chunk(state, 2).shape == (2, spec.action_dim)
    with pytest.raises(ContractError, match="hexapod"):
        envs.make_env("hexapod")


def test_reset_determinism():
    for name in envs.ENVS:
        env = envs.make_env(name)
        s1, f1, i1 = env.reset(123)
        s2, f2, i2 = env.reset(123)
        assert i1 == i2
        for g in f1.observations:
            np.testing.assert_array_equal(f1.observations[g], f2.observations[g])


def test_arm1_reset_separation():
    env = envs.make_env("arm1")
    for seed in range(50):
        s, _, _ = env.reset(seed)
        assert np.linalg.norm(s.obj - s.goal) >= 0.15


def test_arm1_attach_rule():
    env = envs.make_env("arm1")
    s, _, _ = env.reset(0)
    s.ee = s.obj + np.array([0.04, 0.0, 0.0])
    a = np.zeros(7)
    a[6] = 1.0
    s2 = env.step(s, a)
    assert s2.attached
    s.ee = s.obj + np.array([0.08, 0.0, 0.0])
    s3 = env.step(s, a)
    assert not s3.attached


def test_arm1_step_clamp_and_rotation_inert():
    env = envs.make_env("arm1")
    s, _, _ = env.reset(1)
    before = s.ee.copy()
    a = np.array([0.5, -0.5, 0.0, 9.9, 9.9, 9.9, 0.0])
    s2 = env.step(s, a)
    np.testing.assert_allclose(s2.ee - before, [0.1, -0.1, 0.0], atol=1e-12)


def test_nav_free_step():
    env = envs.make_env("nav")
    s, _, _ = env.reset(0)
    s.pos = np.array([0.0, 0.0])
    s.map_id = 0
    s2 = env.step(s, np.array([0.1, 0.0]))
    np.testing.assert_allclose(s2.pos, [0.1, 0.0], atol=1e-12)


def test_nav_success_boundary_closed():
    env = envs.make_env("nav")
    s, _, _ = env.reset(0)
    s.pos = s.goal + np.array([0.1, 0.0])
    assert env.success(s)
    s.pos = s.goal + np.array([0.10001, 0.0])
    assert not env.success(s)


def test_nav_wall_blocks():
    env = envs.make_env("nav")
    s, _, _ = env.reset(0)
    s.map_id = 1
    s.pos = np.array([0.40, 0.3])
    s2 = env.step(s, np.array([0.15, 0.0]))
    assert s2.pos[0] < 0.45  # x-move into the wall is rejected


def test_nav_expert_straight_path_collinear():
    env = envs.make_env("nav")
    s, _, _ = env.reset(0)
    s.map_id = 0
    s.pos = np.array([0.2, 0.2])
    s.goal = np.array([0.8, 0.8])
    chunk = env.expert_chunk(s, 3)
    direction = (s.goal - s.pos) / np.linalg.norm(s.goal - s.pos)
    for row in chunk:
        cos = row @ direction / np.linalg.norm(row)
        assert cos > 0.999


def test_quad_reset_proprio_is_59_dims_with_documented_composition():
    env = envs.make_env("quad")
    s, frame, instr = env.reset(7)
    obs = frame.observations["quad-proprio"]
    assert obs.shape == (59,)
    np.testing.assert_array_equal(obs[:12], s.joints.astype(np.float32))
    np.testing.assert_array_equal(obs[12:24], np.zeros(12, dtype=np.float32))  # velocities at reset
    np.testing.assert_array_equal(obs[24:36], s.prev_action.astype(np.float32))
    np.testing.assert_array_equal(obs[36:39], np.array([0, 0, -1], dtype=np.float32))
    theta = 0.0
    np.testing.assert_allclose(obs[39:43], [np.sin(theta), np.cos(theta), 0, 1], atol=1e-7)
    np.testing.assert_array_equal(obs[43:], np.zeros(16, dtype=np.float32))


def test_quad_fixed_point_when_commanded_current():
    env = envs.make_env("quad")
    s, _, _ = env.reset(3)
    s2 = env.step(s, s.joints.copy())
    np.testing.assert_array_equal(s2.joints, s.joints)
    assert s2.t == s.t + 1


def test_quad_expert_at_phase_zero_is_stance():
    ref = envs.quad_reference(8, 0.0)
    np.testing.assert_allclose(ref, envs.QUAD_STANCE + envs.QUAD_AMP * np.sin(envs.QUAD_PHASE), atol=1e-12)


def test_bimanual_rate_limit():
    env = envs.make_env("bimanual")
    s, _, _ = env.reset(0)
    target = s.joints + 1.0
    s2 = env.step(s, target)
    np.testing.assert_allclose(s2.joints - s.joints, np.full(14, 0.15), atol=1e-12)


def test_nonfinite_action_rejected():
    env = envs.make_env("nav")
    s, _, _ = env.reset(0)
    with pytest.raises(ExecutionError):
        env.step(s, np.array([np.nan, 0.0]))


def test_wrong_action_dim_rejected():
    env = envs.make_env("quad")
    s, _, _ = env.reset(0)
    with pytest.raises(ExecutionError):
        env.step(s, np.zeros(14))


@pytest.mark.parametrize("name", ["arm1", "nav", "bimanual"])
def test_expert_success_rate(name):
    cfg = desk_config()
    env = envs.make_env(name)
    chunk = cfg.head(env.spec.head).chunk_size
    n = 200
    wins = 0
    for seed in range(n):
        *_, success, _ = envs.run_expert_episode(env, seed, chunk)
        wins += bool(success)
    assert wins / n >= 0.99, f"{name} expert only reached {wins}/{n}"


def test_quad_expert_reward_near_one():
    cfg = desk_config()
    env = envs.make_env("quad")
    rewards = []
    for seed in range(20):
        *_, state = envs.run_expert_episode(env, seed, 1)
        rewards.append(env.episode_reward(state))
    assert np.mean(rewards) > 0.95


def test_replay_reproduces_states_bit_exactly():
    env = envs.make_env("arm1")
    frames, actions, instr, _, _ = envs.run_expert_episode(env, 42, 4)
    state, f0, _ = env.reset(42)
    for i, a in enumerate(actions):
        np.testing.assert_array_equal(
            env.frame(state, instr).observations["workspace"], frames[i].observations["workspace"]
        )
        state = env.step(state, a.astype(np.float64))


def joint_bars_per_joint(values, lo, hi):
    """The per-joint reference of `envs._joint_bars`: one scalar clip and round per joint."""
    side = envs.IMG
    img = np.zeros((3, side, side), dtype=np.float32)
    width = side // len(values)
    for j, v in enumerate(values):
        frac = (np.clip(v, lo, hi) - lo) / (hi - lo)
        row = int(round((1.0 - frac) * (side - 3)))
        col = j * width
        img[0, row : row + 3, col : col + max(1, width - 1)] = 1.0
        img[1, side - 2 :, col : col + max(1, width - 1)] = 0.3 + 0.05 * j
    return img


def rounding_ties(lo, hi):
    """Joint values whose bar row is exactly m + 0.5 before rounding, with their m."""
    span = envs.IMG - 3
    ties = []
    for m in range(span):
        v = lo + (hi - lo) * (1.0 - (m + 0.5) / span)
        for c in (v, np.nextafter(v, hi), np.nextafter(v, lo)):
            if (1.0 - (c - lo) / (hi - lo)) * span == m + 0.5:
                ties.append((m, c))
    return ties


def test_joint_bars_match_the_per_joint_loop():
    lo, hi = -2.0, 2.0
    ties = rounding_ties(lo, hi)
    assert {m % 2 for m, _ in ties} == {0, 1}  # ties that round down and up
    rng = np.random.Generator(np.random.PCG64(0))
    cases = [
        np.array([lo, hi, lo - 1.0, hi + 1.0, 0.0, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0)]),  # clip bounds
        np.array([c for _, c in ties][:14]),
        np.array([c for _, c in ties][14:28]),
        *(rng.uniform(-3.0, 3.0, n) for n in (1, 3, 7, 14, 14, 24)),
    ]
    for values in cases:
        np.testing.assert_array_equal(envs._joint_bars(values, lo, hi), joint_bars_per_joint(values, lo, hi))


def test_bimanual_reference_params_are_shared_and_read_only():
    first = envs._reference_params(5)
    assert envs._reference_params(5) is first
    for arr in first:
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_generate_dataset_round_trip(tmp_path):
    cfg = desk_config()
    path = tmp_path / "quad.xeds"
    envs.generate_dataset("quad", 3, seed=9, out_path=str(path), cfg=cfg)
    spec, trajs = read_shard(str(path))
    assert spec is embodiment("quad") and len(trajs) == 3
    assert trajs[0].observations["quad-proprio"].shape[1] == 59
    assert trajs[0].actions.shape[1] == 12


def test_generate_dataset_empty_is_valid(tmp_path):
    cfg = desk_config()
    path = tmp_path / "empty.xeds"
    envs.generate_dataset("nav", 0, seed=0, out_path=str(path), cfg=cfg)
    spec, trajs = read_shard(str(path))
    assert trajs == [] and spec is embodiment("nav")


def test_generate_dataset_deterministic_bytes(tmp_path):
    cfg = desk_config()
    p1, p2 = tmp_path / "a.xeds", tmp_path / "b.xeds"
    envs.generate_dataset("arm1", 3, seed=5, out_path=str(p1), cfg=cfg)
    envs.generate_dataset("arm1", 3, seed=5, out_path=str(p2), cfg=cfg)
    assert p1.read_bytes() == p2.read_bytes()


def test_nav_shifted_interface_identity():
    env = envs.make_env("nav-shifted")
    s, frame, _ = env.reset(0)
    assert set(frame.observations) == {"navigation"}
    assert env.step_clamp == 0.12
    np.testing.assert_array_equal(env.drift, [0.0, 0.02])
    s2 = env.step(s, np.zeros(2))
    # drift moves the robot even under a zero action (unless blocked)
    assert not np.array_equal(s2.pos, s.pos)


@pytest.mark.parametrize("name, history", [("bimanual", "errors"), ("quad", "rewards")])
def test_stepping_a_state_twice_leaves_its_history_unchanged(name, history):
    env = envs.make_env(name)
    s, _, _ = env.reset(0)
    before = list(getattr(s, history))
    action = np.zeros(env.spec.action_dim)
    a, b = env.step(s, action), env.step(s, action)
    assert getattr(s, history) == before
    assert getattr(a, history) == getattr(b, history)
    assert len(getattr(a, history)) == len(before) + 1
