"""Trajectory storage and the training-batch pipeline.

Shards use the XEDS1 container: a 5-byte magic, a little-endian u32 header
length, a UTF-8 JSON header describing the streams, then packed float32
trajectories. The batch pipeline (mixture draw, window draw, hindsight
goal relabeling, task-modality masking, augmentation) is a deterministic
function of (shards, config, master seed): batch i always derives its rng
from (seed, "batch", i), independent of any worker scheduling.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace

import numpy as np

from .assembler import ObservationFrame, SlotLayout
from .config import Config
from .embodiments import embodiment
from .errors import ConfigError, ContractError, CorruptionError, FormatError
from .rng import generator

MAGIC = b"XEDS1"


@dataclass
class TrajectoryRecord:
    embodiment: str
    observations: dict[str, np.ndarray]  # stream name -> [T, ...] float32
    actions: np.ndarray  # [T, action_dim] float32
    instruction: int = 0

    @property
    def steps(self) -> int:
        return self.actions.shape[0]


@dataclass
class ShardSchema:
    dataset: str
    embodiment: str
    head: str
    action_dim: int
    instruction_vocab: int
    streams: list[tuple[str, tuple[int, ...]]]  # per-step shapes, observation streams only

    def to_header(self) -> dict:
        return {
            "dataset": self.dataset,
            "embodiment": self.embodiment,
            "head": self.head,
            "action_dim": self.action_dim,
            "instruction_vocab": self.instruction_vocab,
            "streams": [{"name": n, "shape": list(s), "dtype": "f32"} for n, s in self.streams],
        }

    @staticmethod
    def from_header(doc: dict) -> "ShardSchema":
        return ShardSchema(
            dataset=doc["dataset"],
            embodiment=doc["embodiment"],
            head=doc["head"],
            action_dim=int(doc["action_dim"]),
            instruction_vocab=int(doc["instruction_vocab"]),
            streams=[(s["name"], tuple(s["shape"])) for s in doc["streams"]],
        )


def write_shard(schema: ShardSchema, trajectories: list[TrajectoryRecord], path: str) -> None:
    """Serialize trajectories; raises FormatError when one violates the schema."""
    for i, traj in enumerate(trajectories):
        if traj.embodiment != schema.embodiment:
            raise FormatError(
                f"trajectory {i} is for {traj.embodiment!r}, shard is {schema.embodiment!r}"
            )
        if traj.actions.ndim != 2 or traj.actions.shape[1] != schema.action_dim:
            raise FormatError(
                f"trajectory {i} actions {traj.actions.shape} != action_dim {schema.action_dim}"
            )
        for name, shape in schema.streams:
            arr = traj.observations.get(name)
            if arr is None or arr.shape != (traj.steps, *shape):
                got = None if arr is None else arr.shape
                raise FormatError(f"trajectory {i} stream {name!r}: shape {got}, want (T, {shape})")
    header = json.dumps(schema.to_header(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for traj in trajectories:
            fh.write(struct.pack("<II", traj.steps, traj.instruction))
            for name, _ in schema.streams:
                fh.write(np.ascontiguousarray(traj.observations[name], dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(traj.actions, dtype="<f4").tobytes())


def read_shard(path: str) -> tuple[ShardSchema, list[TrajectoryRecord]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != MAGIC:
        raise FormatError(f"bad magic {blob[:5]!r}, expected {MAGIC!r}")
    if len(blob) < 9:
        raise CorruptionError("truncated header length", offset=len(blob))
    (header_len,) = struct.unpack_from("<I", blob, 5)
    offset = 9 + header_len
    if len(blob) < offset:
        raise CorruptionError("truncated header", offset=len(blob))
    try:
        schema = ShardSchema.from_header(json.loads(blob[9:offset].decode("utf-8")))
    except (json.JSONDecodeError, KeyError) as exc:
        raise FormatError(f"bad shard header: {exc}") from exc

    trajectories = []
    n = len(blob)
    while offset < n:
        if offset + 8 > n:
            raise CorruptionError("truncated trajectory prelude", offset=offset)
        steps, instruction = struct.unpack_from("<II", blob, offset)
        offset += 8
        observations = {}
        for name, shape in schema.streams:
            count = steps * int(np.prod(shape, dtype=np.int64))
            nbytes = count * 4
            if offset + nbytes > n:
                raise CorruptionError(f"truncated stream {name!r}", offset=offset)
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
            observations[name] = arr.reshape(steps, *shape).astype(np.float32)
            offset += nbytes
        nbytes = steps * schema.action_dim * 4
        if offset + nbytes > n:
            raise CorruptionError("truncated action stream", offset=offset)
        actions = np.frombuffer(blob, dtype="<f4", count=steps * schema.action_dim, offset=offset)
        actions = actions.reshape(steps, schema.action_dim).astype(np.float32)
        offset += nbytes
        trajectories.append(
            TrajectoryRecord(schema.embodiment, observations, actions, int(instruction))
        )
    return schema, trajectories


# --------------------------------------------------------------- windowing


def window_trajectory(traj: TrajectoryRecord, history: int) -> list[int]:
    """Window start indices; entry t is the window ending at step t."""
    if traj.steps < 1:
        raise ContractError("cannot window an empty trajectory")
    return [max(0, t - history + 1) for t in range(traj.steps)]


def relabel_goal(end: int, traj: TrajectoryRecord, rng: np.random.Generator) -> np.ndarray:
    """Hindsight goal: the conditioning-view image at a uniform future step."""
    view = embodiment(traj.embodiment).goal_view
    if view is None:
        raise ContractError(f"{traj.embodiment!r} has no goal conditioning view")
    if end >= traj.steps:
        raise ContractError(f"window end {end} beyond trajectory of {traj.steps} steps")
    g = int(rng.integers(end, traj.steps))
    return traj.observations[view][g]


# --------------------------------------------------------------- examples


@dataclass
class TrainingExample:
    embodiment: str
    head: str
    frames: list[ObservationFrame]  # oldest -> newest; goal/instruction on every frame
    targets: np.ndarray  # [k, chunk, action_dim]
    target_mask: np.ndarray  # [k, chunk] float32; 0 where padded or past episode end


def mask_modality(example: TrainingExample, rng: np.random.Generator) -> TrainingExample:
    """Keep exactly one task modality when both are available.

    With a non-null instruction, a fair coin keeps either the goal image
    (instruction zeroed) or the instruction (goal dropped, its channels are
    zero-filled downstream). Goal-only examples always keep the goal;
    instruction-only examples keep the instruction.
    """
    has_goal = example.frames[-1].goal is not None
    instruction = example.frames[-1].instruction
    if instruction == 0 or not has_goal:
        return example
    keep_goal = bool(rng.integers(0, 2))
    if keep_goal:
        frames = [replace(f, instruction=0) for f in example.frames]
    else:
        frames = [replace(f, goal=None, goal_view=None) for f in example.frames]
    return replace(example, frames=frames)


def augment(img: np.ndarray, rng: np.random.Generator, max_shift: int = 2, jitter: float = 0.1) -> np.ndarray:
    """Pad-and-crop shift plus brightness/contrast jitter, clamped to [0, 1].

    img: [..., C, H, W]. One draw covers every image on the leading axes,
    so a stacked history gets the same transform at each step.
    """
    out = img
    if max_shift > 0:
        dy, dx = (int(v) for v in rng.integers(-max_shift, max_shift + 1, size=2))
        padded = np.pad(img, ((0, 0),) * (img.ndim - 2) + ((max_shift, max_shift),) * 2)
        h, w = img.shape[-2:]
        out = padded[..., max_shift + dy : max_shift + dy + h, max_shift + dx : max_shift + dx + w]
    scale = 1.0 + rng.uniform(-jitter, jitter)
    shift = rng.uniform(-jitter, jitter)
    return np.clip(out * np.float32(scale) + np.float32(shift), 0.0, 1.0).astype(np.float32)


def augment_example(example: TrainingExample, rng: np.random.Generator, cfg: Config) -> TrainingExample:
    """One augmentation draw per camera view (shared across the history);
    the goal image gets an independent draw."""
    max_shift, jitter = cfg.train.max_shift_px, cfg.train.jitter
    views = [g.name for g in cfg.layout.groups if g.kind == "obs-image"]
    frames = [replace(f, observations=dict(f.observations)) for f in example.frames]
    for view in views:
        having = [f for f in frames if view in f.observations]
        if having:
            view_rng = generator(int(rng.integers(0, 2**63)))
            stacked = augment(np.stack([f.observations[view] for f in having]), view_rng, max_shift, jitter)
            for f, img in zip(having, stacked):
                f.observations[view] = img
    # frames share one goal array; augment each distinct one once, with one draw
    goals = {id(f.goal): f.goal for f in frames if f.goal is not None}
    if goals:
        goal_rng = generator(int(rng.integers(0, 2**63)))
        done = dict(zip(goals, augment(np.stack(list(goals.values())), goal_rng, max_shift, jitter)))
        frames = [f if f.goal is None else replace(f, goal=done[id(f.goal)]) for f in frames]
    return replace(example, frames=frames)


# --------------------------------------------------------------- mixtures


@dataclass
class MixtureSpec:
    entries: list[tuple[str, float]]

    def __post_init__(self):
        if not self.entries:
            raise ConfigError("empty mixture")
        if any(w < 0 for _, w in self.entries):
            raise ConfigError("negative mixture weight")
        total = sum(w for _, w in self.entries)
        if total <= 0:
            raise ConfigError("mixture weights sum to zero")
        self._probs = np.array([w / total for _, w in self.entries])

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.entries]

    @property
    def probabilities(self) -> np.ndarray:
        return self._probs


def sample_mixture(spec: MixtureSpec, rng: np.random.Generator) -> str:
    """Categorical dataset draw proportional to normalized weights."""
    return spec.names[int(rng.choice(len(spec.names), p=spec.probabilities))]


# --------------------------------------------------------------- batches


@dataclass
class TrainingBatch:
    windows: list[list[ObservationFrame]]
    targets: dict[str, np.ndarray]  # head -> [B, k, chunk, action_dim]
    loss_masks: dict[str, np.ndarray]  # head -> [B, k, chunk] float32
    heads: list[str]
    embodiments: list[str]


class BatchSampler:
    """Draw training batches from loaded shards, deterministically by index."""

    def __init__(
        self,
        datasets: dict[str, list[TrajectoryRecord]],
        mixture: MixtureSpec,
        cfg: Config,
        layout: SlotLayout,
        seed: int,
        split: str = "train",
        augmentation: bool = True,
    ):
        if split not in ("train", "val"):
            raise ConfigError(f"unknown split {split!r}")
        stride = max(2, round(1.0 / cfg.train.val_fraction))
        self.datasets = {}
        for name, trajs in datasets.items():
            keep = [
                t
                for i, t in enumerate(trajs)
                if (i % stride == stride - 1) == (split == "val")
            ]
            if keep:
                self.datasets[name] = keep
        missing = [n for n in mixture.names if n not in self.datasets]
        if missing:
            raise ConfigError(f"mixture names {missing} have no {split} trajectories")
        self.mixture = mixture
        self.cfg = cfg
        self.layout = layout
        self.seed = seed
        self.split = split
        self.augmentation = augmentation

    def example(self, rng: np.random.Generator) -> TrainingExample:
        name = sample_mixture(self.mixture, rng)
        trajs = self.datasets[name]
        traj = trajs[int(rng.integers(0, len(trajs)))]
        end = int(rng.integers(0, traj.steps))
        example = self.build_example(traj, end, rng)
        example = mask_modality(example, rng)
        if self.augmentation:
            example = augment_example(example, rng, self.cfg)
        return example

    def build_example(self, traj: TrajectoryRecord, end: int, rng: np.random.Generator) -> TrainingExample:
        k = self.layout.history
        robot = embodiment(traj.embodiment)
        spec = self.cfg.head(robot.head)
        goal_view = robot.goal_view
        goal = relabel_goal(end, traj, rng) if goal_view is not None else None

        start = max(0, end - k + 1)
        frames = [
            ObservationFrame(
                embodiment=traj.embodiment,
                observations={name: traj.observations[name][u] for name in traj.observations},
                instruction=traj.instruction,
                goal=goal,
                goal_view=goal_view,
            )
            for u in range(start, end + 1)
        ]

        targets = np.zeros((k, spec.chunk_size, spec.action_dim), dtype=np.float32)
        mask = np.zeros((k, spec.chunk_size), dtype=np.float32)
        lead = k - len(frames)
        for slot in range(lead, k):
            u = start + (slot - lead)
            rows = min(spec.chunk_size, traj.steps - u)
            targets[slot, :rows] = traj.actions[u : u + rows]
            mask[slot, :rows] = 1.0
        return TrainingExample(traj.embodiment, robot.head, frames, targets, mask)

    def batch(self, index: int, size: int) -> TrainingBatch:
        rng = generator(self.seed, "datapipe", self.split, "batch", index)
        examples = [self.example(rng) for _ in range(size)]
        return collate(examples, self.cfg)


def collate(examples: list[TrainingExample], cfg: Config) -> TrainingBatch:
    b, k = len(examples), cfg.layout.history
    targets, masks = {}, {}
    for h in cfg.heads:
        targets[h.name] = np.zeros((b, k, h.chunk_size, h.action_dim), dtype=np.float32)
        masks[h.name] = np.zeros((b, k, h.chunk_size), dtype=np.float32)
    for i, ex in enumerate(examples):
        targets[ex.head][i] = ex.targets
        masks[ex.head][i] = ex.target_mask
    return TrainingBatch(
        windows=[ex.frames for ex in examples],
        targets=targets,
        loss_masks=masks,
        heads=[ex.head for ex in examples],
        embodiments=[ex.embodiment for ex in examples],
    )
