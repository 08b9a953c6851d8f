"""Four toy embodiments with scripted experts.

Each environment class holds its robot's dynamics; its head, action
dimension, horizon, instructions and observation groups are read from
its `embodiments` registry entry. Each matches its action head exactly
in dimension and chunking:

  arm1      single-arm head, 7-D: dx dy dz (clamped +-0.1), 3 inert
            rotation dims, gripper. Vision task: object/goal positions
            appear only in the rendered workspace image.
  nav       navigation head, 2-D relative waypoint (norm clamped 0.2),
            walls block and slide. Goal-image conditioned.
  bimanual  bimanual head, 14 joint targets, rate-limited tracking of a
            smooth instruction-keyed reference.
  quad      quadruped head, 12 joint targets tracking a central-pattern
            generator; proprioception-only, language-conditioned.

nav-shifted reuses the nav interface with a smaller step clamp and a
constant lateral drift; it exists only for zero-shot evaluation and never
appears in training mixtures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .assembler import ObservationFrame
from .datapipe import TrajectoryRecord, write_shard
from .embodiments import CAMERA, EmbodimentSpec, embodiment
from .errors import ExecutionError
from .rng import derive_seed, generator

IMG = CAMERA[-1]  # rendered resolution


class Env:
    """What every environment shares: its registry entry, frames, termination and scoring.

    By default an episode ends at success and scores as success; an env
    whose episodes run to the horizon overrides `done`, and one scored by
    reward instead overrides `succeeded`.
    """

    name: str

    @property
    def spec(self) -> EmbodimentSpec:
        return embodiment(self.name)

    def done(self, state) -> bool:
        return self.success(state)

    def succeeded(self, state) -> bool:
        return self.success(state)

    def _frame(self, observations: dict, instruction: int, goal_img: np.ndarray | None) -> ObservationFrame:
        return ObservationFrame(self.name, observations, instruction, goal_img)

    def _check(self, action) -> np.ndarray:
        """`action` as the array `step` uses; ExecutionError unless it is `action_dim` finite numbers."""
        try:
            values = np.asarray(action)
        except ValueError as exc:  # a ragged nested list
            raise ExecutionError(f"bad {self.name} action {action!r}: {exc}") from None
        if values.dtype.kind not in "fiu" or values.shape != (self.spec.action_dim,) or not np.isfinite(values).all():
            raise ExecutionError(
                f"bad {self.name} action of shape {values.shape} and dtype {values.dtype}: "
                f"want {self.spec.action_dim} finite numbers, got {action!r}"
            )
        return values


# ------------------------------------------------------------------ rendering


def _draw_square(img: np.ndarray, channel: int, x: float, y: float, half: int, value: float) -> None:
    cx = int(round(x * (IMG - 1)))
    cy = int(round(y * (IMG - 1)))
    x0, x1 = max(0, cx - half), min(IMG, cx + half + 1)
    y0, y1 = max(0, cy - half), min(IMG, cy + half + 1)
    img[channel, y0:y1, x0:x1] = value


def render_arm1(ee: np.ndarray, grip: float, obj: np.ndarray, goal: np.ndarray) -> np.ndarray:
    img = np.zeros((3, IMG, IMG), dtype=np.float32)
    _draw_square(img, 2, goal[0], goal[1], 2, 0.7)
    _draw_square(img, 1, obj[0], obj[1], 1, 1.0)
    _draw_square(img, 0, ee[0], ee[1], 1, 1.0 if grip >= 0.5 else 0.5)
    return img


def render_nav(pos: np.ndarray, walls: list[tuple[float, float, float, float]]) -> np.ndarray:
    img = np.zeros((3, IMG, IMG), dtype=np.float32)
    for x0, y0, x1, y1 in walls:
        a0, a1 = int(x0 * (IMG - 1)), int(math.ceil(x1 * (IMG - 1)))
        b0, b1 = int(y0 * (IMG - 1)), int(math.ceil(y1 * (IMG - 1)))
        img[0, b0 : b1 + 1, a0 : a1 + 1] = 0.8
    _draw_square(img, 1, pos[0], pos[1], 1, 1.0)
    return img


def _joint_bars(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """One bar per joint: a 3-pixel mark at the joint's clipped height, over a key strip."""
    img = np.zeros((3, IMG, IMG), dtype=np.float32)
    n = len(values)
    width = IMG // n
    frac = (np.clip(values, lo, hi) - lo) / (hi - lo)
    rows = np.round((1.0 - frac) * (IMG - 3)).astype(np.intp)
    cols = np.arange(n)[:, None] * width + np.arange(max(1, width - 1))  # [n, bar width]
    img[0, rows[:, None, None] + np.arange(3)[:, None], cols[:, None, :]] = 1.0
    img[1, IMG - 2 :, cols] = (0.3 + 0.05 * np.arange(n))[:, None, None]  # joint index key
    return img


def render_bimanual_workspace(joints: np.ndarray) -> np.ndarray:
    return _joint_bars(joints, -2.0, 2.0)


# ------------------------------------------------------------------ arm1


@dataclass
class Arm1State:
    ee: np.ndarray  # xyz in [0, 1]
    grip: float
    obj: np.ndarray
    goal: np.ndarray
    attached: bool
    t: int


class Arm1Env(Env):
    name = "arm1"
    GRASP_EPS = 0.05
    STEP_CLAMP = 0.1

    def reset(self, seed: int):
        rng = generator(seed, "arm1", "reset")
        while True:
            obj = rng.uniform(0.15, 0.85, 3)
            goal = rng.uniform(0.15, 0.85, 3)
            obj[2] = goal[2] = 0.5
            if np.linalg.norm(obj - goal) >= 0.15:
                break
        ee = rng.uniform(0.15, 0.85, 3)
        ee[2] = 0.5
        state = Arm1State(ee, 0.0, obj, goal, False, 0)
        instruction = int(rng.choice(self.spec.instructions))
        return state, self.frame(state, instruction), instruction

    def goal_frame_image(self, state: Arm1State) -> np.ndarray:
        """Final-state rendering: object delivered, gripper open at the goal."""
        return render_arm1(state.goal, 0.0, state.goal, state.goal)

    def frame(self, state: Arm1State, instruction: int, goal_img: np.ndarray | None = None) -> ObservationFrame:
        return self._frame({"workspace": render_arm1(state.ee, state.grip, state.obj, state.goal)},
                           instruction, goal_img)

    def step(self, state: Arm1State, action: np.ndarray) -> Arm1State:
        action = self._check(action)
        delta = np.clip(action[:3], -self.STEP_CLAMP, self.STEP_CLAMP)
        ee = np.clip(state.ee + delta, 0.0, 1.0)
        grip = float(action[6])
        attached = state.attached
        obj = state.obj.copy()
        if grip >= 0.5:
            if not attached and np.linalg.norm(ee - state.obj) <= self.GRASP_EPS:
                attached = True
        else:
            attached = False
        if attached:
            obj = ee.copy()
        return Arm1State(ee, grip, obj, state.goal, attached, state.t + 1)

    def success(self, state: Arm1State) -> bool:
        return bool(np.linalg.norm(state.obj - state.goal) <= 0.05 and state.grip < 0.5)

    def expert_chunk(self, state: Arm1State, chunk: int) -> np.ndarray:
        actions = np.zeros((chunk, self.spec.action_dim), dtype=np.float32)
        sim = state
        for i in range(chunk):
            a = np.zeros(self.spec.action_dim, dtype=np.float32)
            if not sim.attached and not self.success(sim):
                to_obj = sim.obj - sim.ee
                if np.linalg.norm(to_obj) > self.GRASP_EPS * 0.6:
                    a[:3] = np.clip(to_obj, -self.STEP_CLAMP, self.STEP_CLAMP)
                    a[6] = 0.0
                else:
                    a[6] = 1.0  # close on the object
            elif sim.attached:
                to_goal = sim.goal - sim.ee
                if np.linalg.norm(to_goal) > 0.02:
                    a[:3] = np.clip(to_goal, -self.STEP_CLAMP, self.STEP_CLAMP)
                    a[6] = 1.0
                else:
                    a[6] = 0.0  # release at the goal
            actions[i] = a
            sim = self.step(sim, a)
        return actions


# ------------------------------------------------------------------ nav


NAV_MAPS = {
    0: [],
    1: [(0.45, 0.0, 0.55, 0.6)],  # vertical wall, gap at the top
    2: [(0.4, 0.45, 1.0, 0.55)],  # horizontal wall, gap at the left
}


def _in_walls(p: np.ndarray, walls) -> bool:
    return any(x0 <= p[0] <= x1 and y0 <= p[1] <= y1 for x0, y0, x1, y1 in walls)


def _blocked(a: np.ndarray, b: np.ndarray, walls) -> bool:
    for f in np.linspace(0.0, 1.0, 9):
        if _in_walls(a + f * (b - a), walls):
            return True
    return False


@dataclass
class NavState:
    pos: np.ndarray
    map_id: int
    goal: np.ndarray
    t: int


class NavEnv(Env):
    name = "nav"
    SUCCESS_RADIUS = 0.1

    step_clamp = 0.2
    drift = np.zeros(2)

    def reset(self, seed: int):
        rng = generator(seed, "nav", "reset")
        map_id = int(rng.integers(0, 3))
        walls = NAV_MAPS[map_id]
        while True:
            if map_id == 0:
                start = rng.uniform(0.05, 0.95, 2)
                goal = rng.uniform(0.05, 0.95, 2)
            elif map_id == 1:
                start = np.array([rng.uniform(0.05, 0.35), rng.uniform(0.05, 0.5)])
                goal = np.array([rng.uniform(0.65, 0.95), rng.uniform(0.7, 0.95)])
            else:
                start = np.array([rng.uniform(0.45, 0.95), rng.uniform(0.65, 0.95)])
                goal = np.array([rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.35)])
            if np.linalg.norm(start - goal) >= 0.5 and not _in_walls(start, walls) and not _in_walls(goal, walls):
                break
        state = NavState(start, map_id, goal, 0)
        return state, self.frame(state, 0), 0

    def goal_frame_image(self, state: NavState) -> np.ndarray:
        return render_nav(state.goal, NAV_MAPS[state.map_id])

    def frame(self, state: NavState, instruction: int, goal_img: np.ndarray | None = None) -> ObservationFrame:
        return self._frame({"navigation": render_nav(state.pos, NAV_MAPS[state.map_id])}, instruction, goal_img)

    def _move(self, pos: np.ndarray, delta: np.ndarray, walls) -> np.ndarray:
        target = np.clip(pos + delta, 0.0, 1.0)
        if not _blocked(pos, target, walls):
            return target
        slide_x = np.clip(pos + np.array([delta[0], 0.0]), 0.0, 1.0)
        if abs(delta[0]) > 1e-9 and not _blocked(pos, slide_x, walls):
            return slide_x
        slide_y = np.clip(pos + np.array([0.0, delta[1]]), 0.0, 1.0)
        if abs(delta[1]) > 1e-9 and not _blocked(pos, slide_y, walls):
            return slide_y
        return pos.copy()

    def step(self, state: NavState, action: np.ndarray) -> NavState:
        action = self._check(action)
        delta = np.asarray(action, dtype=np.float64)
        norm = np.linalg.norm(delta)
        if norm > self.step_clamp:
            delta = delta * (self.step_clamp / norm)
        walls = NAV_MAPS[state.map_id]
        pos = self._move(state.pos, delta, walls)
        if np.linalg.norm(self.drift) > 0:
            pos = self._move(pos, self.drift, walls)
        return NavState(pos, state.map_id, state.goal, state.t + 1)

    def success(self, state: NavState) -> bool:
        return bool(np.linalg.norm(state.pos - state.goal) <= self.SUCCESS_RADIUS)

    def expert_chunk(self, state: NavState, chunk: int) -> np.ndarray:
        actions = np.zeros((chunk, self.spec.action_dim), dtype=np.float32)
        sim = state
        for i in range(chunk):
            to_goal = sim.goal - sim.pos
            norm = np.linalg.norm(to_goal)
            if norm > self.step_clamp:
                to_goal = to_goal * (self.step_clamp / norm)
            actions[i] = to_goal
            sim = self.step(sim, actions[i].astype(np.float64))
        return actions


class NavShiftedEnv(NavEnv):
    """Zero-shot variant: smaller steps plus a constant lateral drift."""

    name = "nav-shifted"
    step_clamp = 0.12
    drift = np.array([0.0, 0.02])


# ------------------------------------------------------------------ bimanual


@functools.lru_cache(maxsize=None)  # keyed by the registry's few bimanual instruction ids
def _reference_params(instruction: int):
    """The reference of one instruction; the arrays are shared between calls, so read-only."""
    joints = embodiment("bimanual").action_dim
    rng = generator(instruction, "bimanual", "reference")
    offsets = rng.uniform(-0.5, 0.5, joints)
    amps = np.stack(
        [rng.uniform(0.15, 0.3, joints), rng.uniform(0.03, 0.08, joints), rng.uniform(0.01, 0.03, joints)]
    )
    periods = np.array([80.0, 40.0, 26.0])
    phases = rng.uniform(0, 2 * np.pi, (3, joints))
    for arr in (offsets, amps, periods, phases):
        arr.setflags(write=False)
    return offsets, amps, periods, phases


def bimanual_reference(instruction: int, t: float) -> np.ndarray:
    offsets, amps, periods, phases = _reference_params(instruction)
    ref = offsets.copy()
    for i in range(3):
        ref += amps[i] * np.sin(2 * np.pi * t / periods[i] + phases[i])
    return ref.astype(np.float64)


@dataclass
class BimanualState:
    joints: np.ndarray  # [action_dim]
    instruction: int
    t: int
    errors: list = field(default_factory=list)  # per-step mean |joints - ref|


class BimanualEnv(Env):
    name = "bimanual"
    RATE_LIMIT = 0.15
    SUCCESS_ERR = 0.05

    def reset(self, seed: int):
        rng = generator(seed, "bimanual", "reset")
        instruction = int(rng.choice(self.spec.instructions))
        joints = bimanual_reference(instruction, 0.0) + rng.normal(0, 0.02, self.spec.action_dim)
        state = BimanualState(joints, instruction, 0)
        state.errors.append(float(np.abs(joints - bimanual_reference(instruction, 0.0)).mean()))
        return state, self.frame(state, instruction), instruction

    def goal_frame_image(self, state: BimanualState) -> np.ndarray:
        ref_end = bimanual_reference(state.instruction, float(self.spec.horizon))
        return render_bimanual_workspace(ref_end)

    def frame(self, state: BimanualState, instruction: int, goal_img: np.ndarray | None = None) -> ObservationFrame:
        j = state.joints
        observations = {
            "workspace": render_bimanual_workspace(j),
            "wrist-left": render_bimanual_workspace(j[:7]),
            "wrist-right": render_bimanual_workspace(j[7:]),
            "bimanual-proprio": j.astype(np.float32),
        }
        return self._frame(observations, instruction, goal_img)

    def step(self, state: BimanualState, action: np.ndarray) -> BimanualState:
        action = self._check(action)
        delta = np.clip(action - state.joints, -self.RATE_LIMIT, self.RATE_LIMIT)
        joints = np.clip(state.joints + delta, -2.0, 2.0)
        t = state.t + 1
        err = float(np.abs(joints - bimanual_reference(state.instruction, float(t))).mean())
        return BimanualState(joints, state.instruction, t, [*state.errors, err])

    def done(self, state: BimanualState) -> bool:
        return state.t >= self.spec.horizon

    def success(self, state: BimanualState) -> bool:
        if state.t < 10:
            return False
        return bool(np.mean(state.errors[-10:]) < self.SUCCESS_ERR)

    def expert_chunk(self, state: BimanualState, chunk: int) -> np.ndarray:
        return np.stack(
            [bimanual_reference(state.instruction, float(state.t + 1 + i)) for i in range(chunk)]
        ).astype(np.float32)


# ------------------------------------------------------------------ quad


QUAD_STANCE = np.array([0.9, -0.9, 0.9, -0.9, 1.4, 1.4, 1.4, 1.4, -1.8, -1.8, -1.8, -1.8])
QUAD_AMP = np.array([0.1, 0.1, 0.1, 0.1, 0.25, 0.25, 0.25, 0.25, 0.3, 0.3, 0.3, 0.3])
QUAD_PHASE = np.array([0.0, np.pi, np.pi, 0.0] * 3)
QUAD_FREQ = {8: 1.0 / 40.0, 9: 1.0 / 25.0}  # cycles per control step
GRAVITY = np.array([0.0, 0.0, -1.0])


def quad_reference(instruction: int, t: float) -> np.ndarray:
    theta = 2 * np.pi * QUAD_FREQ[instruction] * t
    return QUAD_STANCE + QUAD_AMP * np.sin(theta + QUAD_PHASE)


@dataclass
class QuadState:
    joints: np.ndarray  # 12 positions
    velocities: np.ndarray  # 12, per-step deltas
    prev_action: np.ndarray  # 12
    instruction: int
    t: int
    rewards: list = field(default_factory=list)


class QuadEnv(Env):
    name = "quad"
    RATE_LIMIT = 0.15

    def reset(self, seed: int):
        rng = generator(seed, "quad", "reset")
        instruction = int(rng.choice(self.spec.instructions))
        joints = quad_reference(instruction, 0.0) + rng.normal(0, 0.01, 12)
        state = QuadState(joints, np.zeros(12), joints.copy(), instruction, 0)
        state.rewards.append(self.reward(state))
        return state, self.frame(state, instruction), instruction

    def proprio(self, state: QuadState) -> np.ndarray:
        theta = 2 * np.pi * QUAD_FREQ[state.instruction] * state.t
        clock = np.array([np.sin(theta), np.cos(theta), np.sin(2 * theta), np.cos(2 * theta)])
        obs = np.concatenate(
            [state.joints, state.velocities, state.prev_action, GRAVITY, clock, np.zeros(16)]
        )
        return obs.astype(np.float32)

    def frame(self, state: QuadState, instruction: int, goal_img=None) -> ObservationFrame:
        return self._frame({"quad-proprio": self.proprio(state)}, instruction, None)

    def step(self, state: QuadState, action: np.ndarray) -> QuadState:
        action = self._check(action)
        delta = np.clip(action - state.joints, -self.RATE_LIMIT, self.RATE_LIMIT)
        joints = state.joints + delta
        nxt = QuadState(joints, delta, np.asarray(action, dtype=np.float64), state.instruction,
                        state.t + 1, list(state.rewards))
        nxt.rewards.append(self.reward(nxt))
        return nxt

    def done(self, state: QuadState) -> bool:
        return state.t >= self.spec.horizon

    def succeeded(self, state: QuadState) -> bool:
        return True  # quad quality is measured by normalized reward instead

    def reward(self, state: QuadState) -> float:
        ref = quad_reference(state.instruction, float(state.t))
        return float(np.exp(-np.abs(state.joints - ref).sum() / 12.0))

    def episode_reward(self, state: QuadState) -> float:
        return float(np.mean(state.rewards))

    def expert_chunk(self, state: QuadState, chunk: int) -> np.ndarray:
        return np.stack(
            [quad_reference(state.instruction, float(state.t + 1 + i)) for i in range(chunk)]
        ).astype(np.float32)


# ------------------------------------------------------------------ registry


ENVS = {cls.name: cls for cls in (Arm1Env, NavEnv, BimanualEnv, QuadEnv, NavShiftedEnv)}


def make_env(name: str) -> Env:
    """A fresh environment; raises ContractError naming an embodiment the registry lacks."""
    embodiment(name)
    return ENVS[name]()


def run_expert_episode(env, seed: int, chunk: int):
    """Roll the scripted expert; returns (frames, actions, instruction, success, final_state)."""
    state, frame, instruction = env.reset(seed)
    frames, actions = [frame], []
    horizon = env.spec.horizon
    while len(actions) < horizon:
        plan = env.expert_chunk(state, chunk)
        for row in plan:
            state = env.step(state, row.astype(np.float64))
            actions.append(row)
            frames.append(env.frame(state, instruction))
            if len(actions) >= horizon or env.done(state):
                break
        if env.done(state):
            break
    # frames has one more entry (the terminal observation); drop it so
    # observations and actions align per step
    frames = frames[: len(actions)]
    return frames, np.stack(actions), instruction, env.succeeded(state), state


def generate_dataset(name: str, n_trajectories: int, seed: int, out_path: str, cfg) -> None:
    """Seeded expert rollouts serialized as one XEDS1 shard."""
    env = make_env(name)
    spec = env.spec
    chunk = cfg.head(spec.head).chunk_size
    trajectories = []
    for i in range(n_trajectories):
        episode_seed = derive_seed(seed, "episode", name, i)
        frames, actions, instruction, _, _ = run_expert_episode(env, episode_seed, chunk)
        streams = {
            g: np.stack([f.observations[g] for f in frames]).astype(np.float32)
            for g in spec.observation_groups
        }
        trajectories.append(TrajectoryRecord(name, streams, actions.astype(np.float32), instruction))
    write_shard(name, trajectories, out_path)
