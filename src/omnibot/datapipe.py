"""Trajectory storage and the training-batch pipeline.

Shards use the XEDS1 container: a 5-byte magic, a little-endian u32 header
length, a UTF-8 JSON header, then packed float32 trajectories. The header
names only the embodiment, `{"embodiment": name}`; every other fact comes
from its `embodiments` registry entry, and each record follows that entry:
u32 steps (at least 1), u32 instruction (an id of the language
vocabulary), each observation group in the entry's order, then the
actions; every stream value is finite. A reader ignores any other header
key. `record_fault` checks a record in memory, for `write_shard` and
`BatchSampler`; `read_shard` checks the bytes, naming byte offsets.

A training batch is a deterministic function of (shards, config, master
seed): batch i always derives its rng from (seed, "batch", i), independent
of any worker scheduling. Each example draws its dataset, trajectory and
window end; `BatchSampler.build_example` then builds it once from that
window, drawing the hindsight goal step, the task-modality coin, one
augmentation seed per camera view and one for the goal, in that order.
The order is what keeps every batch bit-identical.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .assembler import ObservationFrame, SlotLayout
from .config import Config, MixtureSpec
from .embodiments import EMBODIMENTS, EmbodimentSpec, embodiment, observation_groups
from .encoders import LANGUAGE_VOCAB
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


def _non_finite(values: np.ndarray) -> int | None:
    """Flat index of the first non-finite value, or None when every value is finite."""
    finite = np.isfinite(values)
    return None if finite.all() else int(np.argmin(finite.ravel()))


def record_fault(spec: EmbodimentSpec, traj: TrajectoryRecord) -> str | None:
    """What keeps `traj` from being a record of `spec`'s robot (read after "trajectory i"), or
    None: the one check of a record's robot, [T >= 1, action_dim] actions, integer instruction
    id (not a bool) of the vocabulary, [T, *shape] streams of exactly the registry's groups,
    and values finite as float32. `write_shard` raises it as FormatError, `BatchSampler` as
    ContractError."""
    if traj.embodiment != spec.name:
        return f"is for {traj.embodiment!r}, not {spec.name!r}"
    if traj.actions.ndim != 2 or traj.actions.shape[1] != spec.action_dim:
        return f"actions {traj.actions.shape} != action_dim {spec.action_dim}"
    if traj.steps == 0:
        return "has zero steps"
    ins = traj.instruction
    if not isinstance(ins, (int, np.integer)) or isinstance(ins, bool) or not 0 <= ins < LANGUAGE_VOCAB:
        return f"instruction id {ins!r} is outside the language vocabulary [0, {LANGUAGE_VOCAB})"
    shapes = {group: np.shape(values) for group, values in traj.observations.items()}
    want = {group: (traj.steps, *shape) for group, shape in spec.observations}
    if shapes != want:
        return f"has stream shapes {shapes}, want {want}"
    for stream, values in (*traj.observations.items(), ("actions", traj.actions)):
        with np.errstate(over="ignore"):  # a float64 beyond float32's range casts to inf
            values = np.asarray(values, dtype=np.float32)
        bad = _non_finite(values)
        if bad is not None:
            return f"stream {stream!r} holds {values.flat[bad]} at flat index {bad} as float32"
    return None


def write_shard(name: str, trajectories: list[TrajectoryRecord], path: str) -> None:
    """Serialize trajectories of embodiment `name`; FormatError, before any byte is
    written, for the first one that `record_fault` rejects."""
    spec = embodiment(name)
    for i, traj in enumerate(trajectories):
        fault = record_fault(spec, traj)
        if fault is not None:
            raise FormatError(f"trajectory {i} {fault}")
    header = json.dumps({"embodiment": name}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for traj in trajectories:
            fh.write(struct.pack("<II", traj.steps, traj.instruction))
            for group, _ in spec.observations:
                fh.write(np.ascontiguousarray(traj.observations[group], dtype="<f4"))
            fh.write(np.ascontiguousarray(traj.actions, dtype="<f4"))


def _header_embodiment(raw: bytes) -> EmbodimentSpec:
    """The registry entry a shard header names; FormatError for any other header."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"shard header is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"shard header is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"shard header is a JSON {type(doc).__name__}, not an object")
    name = doc.get("embodiment")
    if not isinstance(name, str):
        raise FormatError(f"shard header embodiment is {name!r}, not a name")
    if name not in EMBODIMENTS:
        raise FormatError(f"shard header names unknown embodiment {name!r}: the registry has {sorted(EMBODIMENTS)}")
    return EMBODIMENTS[name]


def read_shard(path: str) -> tuple[EmbodimentSpec, list[TrajectoryRecord]]:
    """The registry entry a shard names, and its trajectories as read-only float32 views of the file's bytes."""
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
    spec = _header_embodiment(blob[9:offset])

    trajectories = []
    n = len(blob)
    while offset < n:
        i = len(trajectories)
        if offset + 8 > n:
            raise CorruptionError("truncated trajectory prelude", offset=offset)
        steps, instruction = struct.unpack_from("<II", blob, offset)
        if steps == 0:
            raise FormatError(f"trajectory {i} has zero steps (at byte offset {offset})")
        if instruction >= LANGUAGE_VOCAB:
            raise FormatError(f"trajectory {i} instruction {instruction} is outside the language vocabulary "
                              f"[0, {LANGUAGE_VOCAB}) (at byte offset {offset + 4})")
        offset += 8
        streams = {}
        for stream, shape in (*spec.observations, ("actions", (spec.action_dim,))):
            count = steps * int(np.prod(shape, dtype=np.int64))
            if offset + 4 * count > n:
                raise CorruptionError(f"truncated stream {stream!r}", offset=offset)
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
            bad = _non_finite(arr)
            if bad is not None:
                raise FormatError(f"trajectory {i} stream {stream!r} holds {arr[bad]} "
                                  f"(at byte offset {offset + 4 * bad})")
            streams[stream] = arr.reshape(steps, *shape)
            offset += 4 * count
        actions = streams.pop("actions")
        trajectories.append(TrajectoryRecord(spec.name, streams, actions, int(instruction)))
    return spec, trajectories


# --------------------------------------------------------------- goals


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


def _shifted_overlap(n: int, d: int) -> tuple[slice, slice]:
    """The index ranges i of an output and i + d of its input that both lie in [0, n)."""
    lo = max(0, -d)
    hi = max(lo, min(n, n - d))
    return slice(lo, hi), slice(lo + d, hi + d)


def augment(img: np.ndarray, rng: np.random.Generator, max_shift: int, jitter: float) -> np.ndarray:
    """Crop-shift plus brightness/contrast jitter, clamped to [0, 1].

    img: [..., C, H, W]. One draw covers every image on the leading axes,
    so a stacked history gets the same transform at each step. The shift
    (dy, dx) reads out[y, x] = img[y + dy, x + dx], zero outside the image:
    padding by `max_shift` and cropping gives the same image, but this
    writes the overlap into a zeroed buffer and jitters it in place.
    """
    dy = dx = 0
    if max_shift > 0:
        dy, dx = (int(v) for v in rng.integers(-max_shift, max_shift + 1, size=2))
    (ys, yd), (xs, xd) = (_shifted_overlap(n, d) for n, d in zip(img.shape[-2:], (dy, dx)))
    out = np.zeros(img.shape, dtype=np.result_type(img, np.float32))
    out[..., ys, xs] = img[..., yd, xd]
    scale = 1.0 + rng.uniform(-jitter, jitter)
    shift = rng.uniform(-jitter, jitter)
    out *= np.float32(scale)
    out += np.float32(shift)
    return np.clip(out, 0.0, 1.0, out=out).astype(np.float32, copy=False)


# --------------------------------------------------------------- mixtures


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
        for name, trajs in datasets.items():
            for i, traj in enumerate(trajs):
                try:  # a dataset holds one robot, its first record's
                    fault = record_fault(embodiment(trajs[0].embodiment), traj)
                except ContractError as exc:  # a robot the registry lacks
                    fault = str(exc)
                if fault is not None:
                    raise ContractError(f"dataset {name!r} trajectory {i}: {fault}")
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
        return self.build_example(traj, end, rng)

    def build_example(self, traj: TrajectoryRecord, end: int, rng: np.random.Generator) -> TrainingExample:
        """The example whose window ends at step `end` of `traj`, built once from that window.

        It draws from `rng` in this order, which is what keeps batches bit-identical:
        (1) the hindsight goal step, for a robot with a goal view; (2) with a goal and
        a non-zero instruction, a fair coin that keeps the goal (instruction zeroed) or
        the instruction (goal dropped, zero-filled downstream); (3) with augmentation,
        one seed per camera view the robot has, in `observation_groups()` order, so
        each view's stacked history gets one transform; (4) one seed for a kept goal.
        """
        k = self.layout.history
        robot = embodiment(traj.embodiment)
        spec = self.cfg.head(robot.head)
        goal = relabel_goal(end, traj, rng) if robot.goal_view is not None else None
        instruction = traj.instruction
        if goal is not None and instruction != 0:
            if rng.integers(0, 2):
                instruction = 0
            else:
                goal = None

        start = max(0, end - k + 1)
        streams = {name: stream[start : end + 1] for name, stream in traj.observations.items()}
        if self.augmentation:
            max_shift, jitter = self.cfg.train.max_shift_px, self.cfg.train.jitter
            for view, kind, _ in observation_groups():
                if kind == "obs-image" and view in streams:
                    streams[view] = augment(streams[view], generator(int(rng.integers(0, 2**63))), max_shift, jitter)
            if goal is not None:
                goal = augment(goal, generator(int(rng.integers(0, 2**63))), max_shift, jitter)
        frames = [
            ObservationFrame(traj.embodiment, {name: stream[i] for name, stream in streams.items()}, instruction, goal)
            for i in range(end + 1 - start)
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
        """Batch `index` of this sampler's stream; a pure function of (shards, config, seed, index)."""
        if not isinstance(index, (int, np.integer)) or isinstance(index, bool) or not 0 <= index < 2**64:
            raise ContractError(f"batch index must be an integer in [0, 2**64), got {index!r}")
        if not isinstance(size, (int, np.integer)) or isinstance(size, bool):
            raise ContractError(f"batch size must be an integer, got {size!r}")
        if size < 1:
            raise ContractError(f"batch size must be at least 1, got {size}")
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
