"""The registry is the one place a robot's facts live.

A fifth robot, the paper's aviation head flown as a quadcopter, is added
here as a test fixture only: one registry entry, one env class and a
config with its head. Nothing else learns about it, yet data generation,
batching, training and control all run on it.
"""

from dataclasses import dataclass

import numpy as np
import pytest

import omnibot.autodiff as ad
from omnibot import embodiments, envs
from omnibot.config import GroupSpec, HeadSection, desk_config, paper_scale_config
from omnibot.datapipe import BatchSampler, MixtureSpec, read_shard
from omnibot.embodiments import CAMERA, EMBODIMENTS, EmbodimentSpec, group_shape
from omnibot.policy import Policy
from omnibot.rng import generator

QUADCOPTER = EmbodimentSpec("quadcopter", "aviation", 4, 20, (0,), "navigation", (("navigation", CAMERA),))


@dataclass
class CopterState:
    pos: np.ndarray
    goal: np.ndarray
    t: int


class QuadcopterEnv(envs.Env):
    """Flies toward a goal seen by the navigation camera; actions are (vx, vy, vz, yaw rate)."""

    name = "quadcopter"
    STEP_CLAMP = 0.1

    def reset(self, seed: int):
        rng = generator(seed, "quadcopter", "reset")
        state = CopterState(rng.uniform(0.1, 0.4, 2), rng.uniform(0.6, 0.9, 2), 0)
        return state, self.frame(state, 0), 0

    def frame(self, state: CopterState, instruction: int, goal_img=None):
        return self._frame({"navigation": envs.render_nav(state.pos, [])}, instruction, goal_img)

    def step(self, state: CopterState, action: np.ndarray) -> CopterState:
        self._check(action)
        pos = np.clip(state.pos + np.clip(action[:2], -self.STEP_CLAMP, self.STEP_CLAMP), 0.0, 1.0)
        return CopterState(pos, state.goal, state.t + 1)

    def success(self, state: CopterState) -> bool:
        return bool(np.linalg.norm(state.pos - state.goal) <= 0.1)

    def expert_chunk(self, state: CopterState, chunk: int) -> np.ndarray:
        actions = np.zeros((chunk, self.spec.action_dim), dtype=np.float32)
        sim = state
        for i in range(chunk):
            actions[i, :2] = np.clip(sim.goal - sim.pos, -self.STEP_CLAMP, self.STEP_CLAMP)
            sim = self.step(sim, actions[i].astype(np.float64))
        return actions


@pytest.fixture
def aviation_cfg(monkeypatch):
    monkeypatch.setitem(embodiments.EMBODIMENTS, "quadcopter", QUADCOPTER)
    monkeypatch.setitem(envs.ENVS, "quadcopter", QuadcopterEnv)
    cfg = desk_config()
    cfg.heads.append(HeadSection("aviation", action_dim=4, chunk_size=2, control_hz=10.0))
    cfg.layout.groups.append(GroupSpec("readout-aviation", "readout", 2, head="aviation"))
    return cfg


def test_fifth_embodiment_trains_and_acts_from_its_registry_entry(aviation_cfg, tmp_path):
    cfg = aviation_cfg
    path = str(tmp_path / "quadcopter.xeds")
    envs.generate_dataset("quadcopter", 4, seed=3, out_path=path, cfg=cfg)
    schema, trajs = read_shard(path)
    assert (schema.head, schema.action_dim, schema.streams) == ("aviation", 4, [("navigation", CAMERA)])

    policy = Policy.init(cfg, seed=0)
    sampler = BatchSampler({"copters": trajs}, MixtureSpec([("copters", 1.0)]), cfg, policy.layout, seed=1)
    batch = sampler.batch(0, size=3)
    assert batch.heads == ["aviation"] * 3
    loss = policy.loss(batch)
    assert np.isfinite(loss.item())
    w = policy.params["head/aviation/w"]
    assert np.abs(ad.backward(loss, [w])[w]).max() > 0

    env = envs.make_env("quadcopter")
    _, frame, _ = env.reset(5)
    assert policy.act([frame], "aviation").values.shape == (cfg.head("aviation").chunk_size, 4)


@pytest.mark.parametrize("make_cfg", [desk_config, paper_scale_config])
def test_config_agrees_with_the_registry(make_cfg):
    cfg = make_cfg()
    groups = {g.name: g for g in cfg.layout.groups}
    side = cfg.encoders.image_size
    for spec in EMBODIMENTS.values():
        assert cfg.head(spec.head).action_dim == spec.action_dim, spec.name
        for name, shape in spec.observations:
            assert name in groups and group_shape(name) == shape, name
            if groups[name].kind == "obs-image":
                assert shape == (3, side, side), name
            else:
                assert groups[name].kind == "obs-proprio" and len(shape) == 1, name
        assert spec.goal_view is None or groups[spec.goal_view].kind == "obs-image"
        assert spec.goal_view is None or spec.goal_view in spec.observation_groups
