"""The full policy: encoders + slot assembly + backbone + action heads.

The backbone never runs on a whole assembled window. Each element owns one
action head, the one its embodiment draws from, and only that head's loss
sees the element. So `predict` assembles and runs one compact window per
owned head, on that head's owners: their live observation slots plus the
head's readouts (see `assembler`). The slots left out are pads, which
attend only to themselves, and readouts, which no query but themselves
sees, so no kept slot's output changes (up to the order of floating-point
sums). The other heads' readouts of an element would only have met a zero
loss weight. `act` does the same for one window and the newest step's
readouts of the requested head.

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
keeps the rows of the frames it saw last and encodes only new frames, all
new frames of a group in one batched call. A cached row is a copy of the
one computed when the frame was new; it can differ from encoding the same
frame in a batch of another size only by BLAS summation order (float32
relative 1e-6, float64 1e-15). Whoever writes parameters in place calls
`params_changed`, which drops the cache.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from . import assembler, backbone, heads
from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .datapipe import TrainingBatch
from .encoders import EncoderBank, init_encoder_params
from .errors import ContractError, EvaluationError
from .rng import generator


def frame_key(group: str, frame: assembler.ObservationFrame) -> bytes:
    """Digest of what a frame's encoder rows for `group` depend on, parameters aside."""
    arrays = [np.ascontiguousarray(frame.observations[group])]
    goal = assembler.conditioning_goal(frame, group)
    if goal is not None:
        arrays.append(np.ascontiguousarray(goal))
    # the prefix fixes every array's byte length, so no two inputs share a byte stream
    shapes = ";".join(f"{a.dtype.str}{a.shape}" for a in arrays)
    h = hashlib.sha256(f"{int(frame.instruction)};{shapes}".encode())
    for a in arrays:
        h.update(a)
    return h.digest()


class FrameTokenCache:
    """Encoder rows of the frames `act` saw last: at most `history` per observation group."""

    def __init__(self, history: int):
        self.history = history
        self.groups: dict[str, OrderedDict[bytes, np.ndarray]] = {}

    def encode(self, bank: EncoderBank, group: assembler.SlotGroup, frames, index) -> Tensor:
        """`assembler.encode_group`'s rows, encoding only the frames not cached.

        Only those reach `encode_group`'s finiteness check; a rejected frame caches nothing.
        """
        rows = self.groups.setdefault(group.name, OrderedDict())
        keys, misses = [], {}
        for i, frame in zip(index, frames):
            key = frame_key(group.name, frame)
            if key not in rows and key not in misses:
                misses[key] = (i, frame)
            keys.append(key)
        if misses:
            at, new = zip(*misses.values())
            fresh = assembler.encode_group(bank, group, list(new), list(at)).data
            rows.update(zip(misses, fresh))
        out = np.stack([rows[key] for key in keys])
        for key in keys:
            rows.move_to_end(key)
        while len(rows) > self.history:
            rows.popitem(last=False)
        return ad.tensor(out)


class Policy:
    """One shared network controlling every embodiment."""

    def __init__(self, cfg: Config, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params
        self.layout = assembler.build_layout(cfg)
        self.bank = EncoderBank(params)
        self.head_specs = {h.name: h for h in cfg.heads}
        self.frame_tokens = FrameTokenCache(self.layout.history)

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

    @property
    def dtype(self):
        return self.params["asm/pos"].data.dtype

    def params_changed(self) -> None:
        """Drop `act`'s cached encoder rows; call after writing any parameter's `.data` in place."""
        self.frame_tokens = FrameTokenCache(self.layout.history)

    # -- forward -------------------------------------------------------------

    def assemble(self, windows) -> assembler.AssembledWindow:
        """The full window of every slot: the dense oracle the compact paths are checked against."""
        for window in windows:
            assembler.window_embodiment(window, self.layout.history)
        return assembler.assemble_batch(windows, self.layout, self.bank, self.params)

    def predict(self, batch: TrainingBatch) -> dict[str, Tensor]:
        """Per-head chunk predictions at every window step: [B, k, chunk, action_dim].

        An element owns the head of its window's embodiment; its rows of
        every other head are exact zeros. Ownership comes from the windows
        alone, so `batch.targets`, `batch.loss_masks` and `batch.heads` are
        not read. Frames are checked as in `act`, and finite inputs that
        give a non-finite prediction raise EvaluationError.
        """
        windows = batch.windows
        owners = np.array([assembler.window_embodiment(w, self.layout.history).head for w in windows])
        unknown = sorted(set(owners.tolist()) - set(self.head_specs))
        if unknown:
            raise ContractError(f"batch needs heads {unknown} that the config does not define")
        b, k = len(windows), self.layout.history
        out = {}
        for name, spec in self.head_specs.items():
            shape = (b, k, spec.chunk_size, spec.action_dim)
            rows = np.flatnonzero(owners == name)
            if not rows.size:
                out[name] = ad.zeros(shape, self.dtype)
                continue
            with np.errstate(all="ignore"):  # an overflow shows as a non-finite prediction below
                sub = assembler.assemble_batch([windows[r] for r in rows], self.layout, self.bank, self.params, name)
                pred = heads.project(backbone.forward(sub, self.params, self.cfg), self.params, name)
            if not np.isfinite(pred.data).all():
                raise EvaluationError(f"head {name!r} predicted non-finite actions from finite inputs")
            # one scattered row per owner: [B, 1, k*chunk*action_dim], zeros elsewhere
            placed = ad.scatter_tokens(pred.reshape(rows.size, -1), rows, np.zeros_like(rows), b, 1)
            out[name] = placed.reshape(shape)
        return out

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
        Finite inputs can still be too large for the network's precision;
        then the chunk is not finite, and that is an EvaluationError.
        """
        if head not in self.head_specs:
            raise ContractError(f"unknown head {head!r}")
        robot = assembler.window_embodiment(frames, self.layout.history)
        if robot.head != head:
            raise ContractError(f"{robot.name!r} draws actions from head {robot.head!r}, not {head!r}")
        with ad.no_grad(), np.errstate(all="ignore"):  # an overflow shows as a non-finite chunk below
            window = assembler.assemble_batch(
                [frames], self.layout, self.bank, self.params, head, [-1], self.frame_tokens.encode
            )
            readouts = backbone.forward(window, self.params, self.cfg)
            chunk = heads.decode(readouts.reshape(-1, readouts.shape[-1]), self.params, self.head_specs[head])
        if not np.isfinite(chunk.values).all():
            raise EvaluationError(f"{robot.name!r}: head {head!r} decoded non-finite actions from finite inputs")
        return chunk
