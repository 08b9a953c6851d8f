"""The full policy: encoders + slot assembly + backbone + action heads.

The backbone never runs on a whole assembled window. Each element owns one
action head, the one its embodiment draws from, and only that head's loss
sees the element. `predict` buckets the batch's windows by (head, robot,
frame count) and first encodes the whole batch in one pass over the
batch's views (`assembler.encode_batch`): each camera group is one view of
one grouped conv stack, with the frames of every robot that has it,
whatever bucket they fall in, and each proprio group one `linear`. It then
assembles one compact window per bucket from its rows of that pass: the
observation slots of its frames plus the head's readouts at the steps that
hold a frame (see `assembler`). The windows of a bucket share one robot and
one frame count, so every kept slot is live in each of them, and a bucket
has no padding. The slots left out are pads, which attend only to
themselves, and readouts, which no query but themselves sees, so no kept
slot's output changes (up to the order of floating-point sums). The other
heads' readouts of an element, and its readouts at steps with no frame,
would only have met a zero loss weight, so those predictions are exact
zeros. The backbone then makes one pass over every bucket's window, their
rows packed into one array, with each bucket's attention on its own
segment (see `backbone.forward`), and each head projects its buckets' rows
of the readouts and places them at their windows' steps. A batch of one
bucket runs its window alone, as a batch of [B, T] rows. `act` runs one
compact window, for the newest step's readouts of the requested head. A
compact window lists the observations first and the readouts last, so its
layout states each row's prefix of observation keys (its step's and
earlier) and each readout as its row's own key, and attention gives each
readout row only that prefix (see `autodiff.AttentionMask`). In a bucket
each row permits exactly that prefix and its own key. `act`'s readouts, of
the newest step only, already end every prefix, so there the split saves
less than it costs.

A second fact trims the last layer: the heads read only readout rows, and
there every other row serves only as a key and a value, because an
attention row depends on its own query alone and the rest of the block is
row-wise. A compact window names its head's readout columns
(`AssembledWindow.readouts`), and `backbone.forward` runs the last layer's
queries, attention rows, MLP and final norm on those rows alone; no
readout's output changes.

A third fact lets `act` encode each frame once. Encoder rows carry no
position, because `asm/pos` is added after placement, so a frame's rows
depend only on the frame (its observation, the goal image where that goal
conditions the group, and the instruction) and on the parameters. `act`
keeps the rows of the frames in the window it encoded last, keyed by those
inputs' exact values in the policy's dtype, and encodes only new frames in
one pass per run of groups that `assembler.encode_group` encodes together:
bimanual's three cameras run as one grouped conv stack, over the frames
that any of them misses, and a camera whose keys all hit stays out of it.
A cached row is a copy of the one computed when the frame was new; it can
differ from encoding the same frame in a batch of another size only by
BLAS summation order (float32 relative 1e-6, float64 1e-15). Whoever
writes parameters in place calls `params_changed`, which drops these rows.

A fourth fact lets `act` and `predict` build each window shape once.
Everything of a window but its encoder rows depends only on the robot, the
number of frames and the head, since `window_embodiment` pins the groups
of a robot's frames. That is its structure (`assembler.WindowStructure`:
the kept columns, padding, readout rows, where each encoder row goes, and
the `AttentionMask` with its plans) and its slot rows
(`assembler.slot_rows`: its columns' rows of one per-slot table of
position and readout embeddings). `Policy.window_structures` keeps one
structure per such shape: `act`'s by (robot, frames, head), at most robots
x history, and a bucket's by (robot, frames, head, window count), at most
robots x history x batch size. `act` also keeps the slot rows of its
shapes. A structure holds no parameters, so `params_changed` keeps it;
slot rows are computed from `asm/pos` and the head's readout table, so
`params_changed` drops them with the encoder rows. Training computes its
slot rows each batch, for their gradients. Neither a bucket nor an `act`
window has padding, so its slot rows are one [T, d_model] array that its
windows share, with no keep mask, and its tokens are exactly its encoder
rows plus them.
"""

from __future__ import annotations

import numpy as np

from . import assembler, backbone, heads
from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .datapipe import TrainingBatch
from .encoders import EncoderBank, init_encoder_params
from .errors import ContractError, EvaluationError
from .rng import generator


def frame_key(group: str, frame: assembler.ObservationFrame, dtype) -> tuple:
    """What a frame's encoder rows for `group` depend on, parameters aside, cast to the policy's `dtype`.

    The instruction and the bytes of the observation and of the goal where
    it conditions `group`; `window_embodiment` pins their shapes, so equal
    keys are equal inputs.
    """
    key = (int(frame.instruction), np.asarray(frame.observations[group], dtype=dtype).tobytes())
    goal = assembler.conditioning_goal(frame, group)
    return key if goal is None else (*key, np.asarray(goal, dtype=dtype).tobytes())


class FrameTokenCache:
    """What `act` keeps that the parameters determine: encoder rows and slot rows.

    The encoder rows, per observation group, are those of the frames in the
    window `act` encoded last. The slot rows (`assembler.slot_rows`) are
    kept per window shape, (robot, frame count, head).
    """

    def __init__(self):
        self.groups: dict[str, dict[tuple, np.ndarray]] = {}
        self.slots: dict[tuple[str, int, str], Tensor] = {}

    def encode(self, bank: EncoderBank, groups: tuple[assembler.SlotGroup, ...], frames, index) -> Tensor:
        """`assembler.encode_group`'s rows, encoding only what is not cached, in one pass.

        That pass takes the groups that miss a frame, on the frames that
        some of them miss; a row it gives for a key already cached is
        dropped for the cached one. Only those frames reach `encode_group`'s
        finiteness check; a rejected frame caches nothing.
        """
        keys = [[frame_key(g.name, frame, bank.dtype) for frame in frames] for g in groups]
        rows, missing = [], []  # per group: the cached rows of its keys; the groups that miss a key
        for v, (g, mine) in enumerate(zip(groups, keys)):
            last = self.groups.get(g.name, {})
            rows.append({key: last[key] for key in mine if key in last})
            if len(rows[v]) < len(set(mine)):
                missing.append(v)
        if missing:
            todo = {}  # the missing groups' keys of a frame -> (its index, the frame)
            for j, (i, frame) in enumerate(zip(index, frames)):
                key = tuple(keys[v][j] for v in missing)
                if key not in todo and any(k not in rows[v] for v, k in zip(missing, key)):
                    todo[key] = (i, frame)
            at, new = zip(*todo.values())
            out = assembler.encode_group(bank, tuple(groups[v] for v in missing), list(new), list(at)).data
            for slot, encoded in enumerate(out.reshape(len(missing), len(new), *out.shape[1:])):
                for key, row in zip(todo, encoded):
                    rows[missing[slot]].setdefault(key[slot], row)
        for g, have in zip(groups, rows):
            self.groups[g.name] = have
        return ad.tensor(np.stack([have[key] for mine, have in zip(keys, rows) for key in mine]))


class Policy:
    """One shared network controlling every embodiment."""

    def __init__(self, cfg: Config, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params
        self.layout = assembler.build_layout(cfg)
        if not params:
            raise ContractError("a policy needs parameters, got none")
        first = next(iter(params))
        self.dtype = params[first].data.dtype  # the network's one dtype
        for name, p in params.items():
            if p.data.dtype != self.dtype:
                raise ContractError(f"parameter {name!r} is {p.data.dtype}, but the first, {first!r}, is {self.dtype}")
        self.bank = EncoderBank(params, self.dtype)
        self.head_specs = {h.name: h for h in cfg.heads}
        self.frame_tokens = FrameTokenCache()
        # window structures: `act`'s by (robot, frame count, head), at most robots x history, and
        # `predict`'s buckets' by (robot, frame count, head, window count), at most that x batch size
        self.window_structures: dict[tuple, assembler.WindowStructure] = {}

    @staticmethod
    def init(cfg: Config, seed: int) -> "Policy":
        """A float32 policy; a float64 one is a cast of its parameters, `ad.param(p.data.astype(np.float64))`."""
        layout = assembler.build_layout(cfg)
        params: dict[str, Tensor] = {}
        params.update(init_encoder_params(cfg, generator(seed, "init", "enc")))
        params.update(assembler.init_assembler_params(layout, generator(seed, "init", "asm")))
        params.update(backbone.init_backbone_params(cfg, generator(seed, "init", "bb")))
        params.update(heads.init_head_params(cfg, generator(seed, "init", "head")))
        return Policy(cfg, params)

    def params_changed(self) -> None:
        """Drop `act`'s encoder rows and slot rows; call after writing any parameter's `.data` in place.

        The window structures hold no parameters, so they stay.
        """
        self.frame_tokens = FrameTokenCache()

    # -- forward -------------------------------------------------------------

    def assemble(self, windows) -> assembler.AssembledWindow:
        """The full window of every slot: the dense oracle the compact paths are checked against."""
        for window in windows:
            assembler.window_embodiment(window, self.layout.history)
        return assembler.assemble_batch(windows, self.layout, self.bank, self.params)

    def predict(self, batch: TrainingBatch) -> dict[str, Tensor]:
        """Per-head chunk predictions at every window step: [B, k, chunk, action_dim].

        An element owns the head of its window's embodiment; its rows of
        every other head, and of its own head at steps with no frame, are
        exact zeros. The windows are bucketed by (head, robot, frame
        count), heads in config order, and encoded in one pass. Each bucket
        is one padless compact window, its head's readouts at its valid
        steps, on a structure kept per (robot, frames, head, window count),
        and the buckets run one backbone pass. Ownership comes from the
        windows alone, so `batch.targets`, `batch.loss_masks` and
        `batch.heads` are not read. Frames are checked as in `act`, and
        finite inputs that give a non-finite prediction raise
        EvaluationError.
        """
        windows = batch.windows
        if not windows:
            raise ContractError("predict needs a batch of at least one window")
        b, k = len(windows), self.layout.history
        robots = [assembler.window_embodiment(w, k) for w in windows]
        unknown = sorted({r.head for r in robots} - set(self.head_specs))
        if unknown:
            raise ContractError(f"batch needs heads {unknown} that the config does not define")
        rank = {name: i for i, name in enumerate(self.head_specs)}
        buckets: dict[tuple[str, str, int], list[int]] = {}  # (head, robot, frames) -> its windows
        for i, (robot, window) in enumerate(zip(robots, windows)):
            buckets.setdefault((robot.head, robot.name, len(window)), []).append(i)
        buckets = dict(sorted(buckets.items(), key=lambda item: (rank[item[0][0]], item[0])))
        places = {}  # per head: the window and step of each of its prediction rows, bucket by bucket
        for (head, _, f), mine in buckets.items():
            places.setdefault(head, []).append((np.repeat(mine, f), np.tile(np.arange(k - f, k), len(mine))))
        places = {head: tuple(np.concatenate(a) for a in zip(*p)) for head, p in places.items()}
        ordered = [windows[i] for mine in buckets.values() for i in mine]
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite prediction below
            encoded = assembler.encode_batch(ordered, self.layout, self.bank)
            subs, first = [], 0
            for (head, robot, f), mine in buckets.items():
                end = first + len(mine)
                same = ordered[first:end]
                structure = self._kept((robot, f, head, len(mine)), same, head, slice(k - f, None))
                subs.append(assembler.assemble_batch(
                    same, self.layout, self.bank, self.params, encoded=encoded.of(first, end), structure=structure
                ))
                first = end
            if len(subs) == 1:  # one bucket: the plain [B, T, d] call
                (head,) = places
                readouts = {head: backbone.forward(subs[0], self.params, self.cfg)}
            else:  # one pass; each head takes its buckets' rows of the [1, R, d] readouts, in turn
                packed = backbone.forward(subs, self.params, self.cfg)
                readouts, at = {}, 0
                for head, (mine, _) in places.items():
                    n = mine.size * self.head_specs[head].chunk_size
                    readouts[head], at = ad.take(packed, slice(at, at + n), axis=1), at + n
            preds = {head: heads.project(r, self.params, head) for head, r in readouts.items()}
        out = {}
        for name, spec in self.head_specs.items():
            shape = (b, k, spec.chunk_size, spec.action_dim)
            if name not in preds:
                out[name] = ad.zeros(shape, self.dtype)
                continue
            if not np.isfinite(preds[name].data).all():
                raise EvaluationError(f"head {name!r} predicted non-finite actions from finite inputs")
            # one scattered row per owner and valid step: [B, k, chunk*action_dim], zeros elsewhere
            at, step = places[name]
            out[name] = ad.scatter_tokens(preds[name].reshape(at.size, -1), at, step, b, k).reshape(shape)
        return out

    def _kept(self, shape: tuple, windows, head: str, steps) -> assembler.WindowStructure:
        """The structure of `windows`' compact window for `head` at `steps`, built on the first call of its `shape`."""
        structure = self.window_structures.get(shape)
        if structure is None:
            structure = self.window_structures[shape] = assembler.window_structure(windows, self.layout, head, steps)
        return structure

    def loss(self, batch: TrainingBatch) -> Tensor:
        return heads.training_loss(self.predict(batch), batch.targets, batch.loss_masks)

    def validation_mse(self, batch: TrainingBatch) -> Tensor:
        with ad.no_grad():
            return heads.validation_mse(self.predict(batch), batch.targets, batch.loss_masks)

    # -- rollout -------------------------------------------------------------

    def act(self, frames, head: str) -> heads.ActionChunk:
        """Decode the newest step's readouts of `head`, which the window's embodiment must draw from.

        The window is checked once, by `assembler.window_embodiment`;
        `assembler.encode_group` checks the values of frames not cached.
        The window's structure and slot rows are built on the first call of
        its shape.
        Finite inputs can still be too large for the network's precision;
        then the chunk is not finite, and that is an EvaluationError.
        """
        if not isinstance(head, str):
            raise ContractError(f"head {head!r} is a {type(head).__name__}, not a head name")
        if head not in self.head_specs:
            raise ContractError(f"unknown head {head!r}")
        robot = assembler.window_embodiment(frames, self.layout.history)
        if robot.head != head:
            raise ContractError(f"{robot.name!r} draws actions from head {robot.head!r}, not {head!r}")
        shape = (robot.name, len(frames), head)
        structure = self._kept(shape, [frames], head, [-1])
        kept = self.frame_tokens
        with ad.no_grad(), np.errstate(all="ignore"):  # an overflow shows as a non-finite chunk below
            slots = kept.slots.get(shape)
            if slots is None:
                slots = kept.slots[shape] = assembler.slot_rows(self.layout, self.params, structure)
            encoded = assembler.encode_rows(structure, [frames], self.bank, kept.encode)
            window = assembler.window_tokens(structure, encoded, slots)
            readouts = backbone.forward(window, self.params, self.cfg)
            chunk = heads.decode(readouts.reshape(-1, readouts.shape[-1]), self.params, self.head_specs[head])
        if not np.isfinite(chunk.values).all():
            raise EvaluationError(f"{robot.name!r}: head {head!r} decoded non-finite actions from finite inputs")
        return chunk
