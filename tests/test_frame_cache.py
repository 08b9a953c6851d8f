"""`Policy.act`'s frame-token cache against a fresh policy, in float64.

A fresh `Policy` over the same parameters has an empty cache, so its `act`
encodes every frame of the window in one batch. The cached policy encodes
only the frames it has not seen; both must agree to rounding.
"""

import dataclasses
import re

import numpy as np
import pytest

from omnibot import envs
from omnibot.assembler import ObservationFrame
from omnibot.config import desk_config
from omnibot.embodiments import embodiment
from omnibot.errors import ContractError
from omnibot.policy import Policy

TOL = 1e-12


@pytest.fixture(scope="module")
def cfg():
    return desk_config()


def film_policy(cfg, seed=4):
    """A float64 policy whose FiLM projections are non-zero, so the instruction changes image rows."""
    policy = Policy.init(cfg, seed=seed, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    for name, p in policy.params.items():
        if "/film" in name:
            p.data[...] = rng.standard_normal(p.shape) * 0.1
    return policy


def rel_err(a, b):
    return float(np.linalg.norm(a - b)) / float(np.linalg.norm(b))


def fresh_act(policy, frames, head):
    return Policy(policy.cfg, policy.params).act(frames, head).values


@pytest.mark.parametrize("name", ("arm1", "nav", "nav-shifted", "bimanual", "quad"))
def test_sliding_window_rollout_matches_a_fresh_policy(cfg, name):
    policy = film_policy(cfg)
    k = policy.layout.history
    bound = k * sum(g.kind != "readout" for g in policy.layout.groups)
    env = envs.make_env(name)
    head = embodiment(name).head
    rng = np.random.Generator(np.random.PCG64(8))
    state, _, instruction = env.reset(7)
    goal = env.goal_frame_image(state) if env.spec.goal_view else None
    frames = [env.frame(state, instruction, goal)]
    for _ in range(60):
        window = frames[-k:]
        got = policy.act(window, head).values
        assert rel_err(got, fresh_act(policy, window, head)) <= TOL
        sizes = [len(rows) for rows in policy.frame_tokens.groups.values()]
        assert sum(sizes) <= bound and max(sizes) <= k
        # a noisy expert keeps the frames changing; a still robot repeats them, which hits the cache
        action = env.expert_chunk(state, 1)[0] + rng.normal(0.0, 0.05, env.spec.action_dim)
        state = env.step(state, action.astype(np.float64))
        frames.append(env.frame(state, instruction, goal))


def test_instruction_and_goal_are_part_of_the_key(cfg):
    policy = film_policy(cfg)
    img = np.random.Generator(np.random.PCG64(1)).random((3, 24, 24)).astype(np.float32)
    goal = np.random.Generator(np.random.PCG64(2)).random((3, 24, 24)).astype(np.float32)
    variants = [
        ObservationFrame("arm1", {"workspace": img}, instruction=1),
        ObservationFrame("arm1", {"workspace": img}, instruction=2),
        ObservationFrame("arm1", {"workspace": img}, instruction=2, goal=goal),
    ]
    seen = []
    for frame in variants:  # the same image each time, so only the key can tell them apart
        got = policy.act([frame], "single-arm").values
        assert rel_err(got, fresh_act(policy, [frame], "single-arm")) <= TOL
        assert all(rel_err(got, other) > 1e-6 for other in seen)
        seen.append(got)


def test_params_changed_drops_rows_of_the_old_parameters(cfg):
    policy = film_policy(cfg)
    env = envs.make_env("nav")
    state, frame, instruction = env.reset(3)
    window = [frame]
    for _ in range(4):
        state = env.step(state, env.expert_chunk(state, 1)[0].astype(np.float64))
        window.append(env.frame(state, instruction))
    policy.act(window, "navigation")
    policy.params["enc/img/navigation/conv0/w"].data *= 1.5  # in place, as an optimizer writes
    want = fresh_act(policy, window, "navigation")
    assert rel_err(policy.act(window, "navigation").values, want) > 1e-6  # stale rows until told
    policy.params_changed()
    assert not policy.frame_tokens.groups
    assert rel_err(policy.act(window, "navigation").values, want) <= TOL


def test_act_rejects_a_head_the_embodiment_does_not_draw_from(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("nav")
    _, frame, _ = env.reset(0)
    with pytest.raises(ContractError, match="'nav'.*'navigation'.*'bimanual'"):
        policy.act([frame], "bimanual")


def test_act_with_an_instruction_outside_the_vocabulary_raises_contract_error(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    with pytest.raises(ContractError, match="instruction id 99 .* vocabulary of 32 ids"):
        policy.act([dataclasses.replace(frame, instruction=99)], "single-arm")
    # the failed call left the frame cache consistent
    got = policy.act([frame], "single-arm").values
    np.testing.assert_array_equal(got, fresh_act(policy, [frame], "single-arm"))


def _bad(frame, group=None, value=None, goal=None, instruction=None):
    obs = dict(frame.observations)
    if group is not None:
        obs[group] = value
    return dataclasses.replace(
        frame,
        observations=obs,
        goal=frame.goal if goal is None else goal,
        instruction=frame.instruction if instruction is None else instruction,
    )


def _nav_window(policy):
    env = envs.make_env("nav")
    state, frame, _ = env.reset(0)
    goal = env.goal_frame_image(state).astype(np.float32)
    return [dataclasses.replace(frame, goal=goal)] * 2


def test_act_rejects_a_non_finite_observation(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    img = frame.observations["workspace"].copy()
    img[1, 5, 7] = np.nan
    with pytest.raises(ContractError, match=r"frame 1: workspace observation holds non-finite values"):
        policy.act([frame, _bad(frame, "workspace", img)], "single-arm")


def test_act_rejects_a_non_float_observation(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    img = (frame.observations["workspace"] * 255).astype(np.uint8)
    with pytest.raises(ContractError, match=r"frame 0: workspace observation has dtype uint8, want a float"):
        policy.act([_bad(frame, "workspace", img)], "single-arm")


def test_act_rejects_a_non_finite_goal(cfg):
    policy = Policy.init(cfg, seed=0)
    window = _nav_window(policy)
    goal = window[1].goal.copy()
    goal[0, 0, 0] = np.inf
    with pytest.raises(ContractError, match=r"frame 1: goal of navigation holds non-finite values"):
        policy.act([window[0], _bad(window[1], goal=goal)], "navigation")


def test_act_rejects_a_non_float_goal(cfg):
    policy = Policy.init(cfg, seed=0)
    window = _nav_window(policy)
    goal = np.ones(window[0].goal.shape, dtype=np.int64)
    with pytest.raises(ContractError, match=r"frame 0: goal of navigation has dtype int64"):
        policy.act([_bad(window[0], goal=goal)], "navigation")


@pytest.mark.parametrize("instruction", (1.5, np.float32(2.0), True, "3"))
def test_act_rejects_an_instruction_that_is_not_an_integer_id(cfg, instruction):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    policy.act([frame], "single-arm")  # cached: the key still sees the instruction
    with pytest.raises(ContractError, match=re.escape(f"frame 1: instruction {instruction!r} is not an integer id")):
        policy.act([frame, _bad(frame, instruction=instruction)], "single-arm")


def test_a_rejected_frame_leaves_the_cache_consistent(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    img = frame.observations["workspace"].copy()
    img[0, 0, 0] = -np.inf
    with pytest.raises(ContractError):
        policy.act([frame, _bad(frame, "workspace", img)], "single-arm")
    got = policy.act([frame], "single-arm").values
    np.testing.assert_array_equal(got, fresh_act(policy, [frame], "single-arm"))
