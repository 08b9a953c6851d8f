"""The full policy: encoders + slot assembly + backbone + action heads.

The backbone never runs on a whole assembled window. Each element owns one
action head, the one its embodiment draws from, and only that head's loss
sees the element. So `predict` runs the backbone once per owned head, on
that head's owners and on the slots `assembler.compact` keeps for them:
their live observation slots plus the head's readouts. The dropped slots
are pads, which attend only to themselves, and readouts, which no query
but themselves sees, so no kept slot's output changes (up to the order of
floating-point sums). The other heads' readouts of an element would only
have met a zero loss weight. `act` does the same for one window and the
newest step's readouts of the requested head.

A third fact trims the last layer: the heads read only readout rows, and
there every other row serves only as a key and a value, because an
attention row depends on its own query alone and the rest of the block is
row-wise. So both pass their head to `backbone.forward`, which runs the
last layer's queries, attention rows, MLP and final norm on the readout
rows alone; no readout's output changes.
"""

from __future__ import annotations

import numpy as np

from . import assembler, backbone, heads
from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .datapipe import TrainingBatch
from .encoders import EncoderBank, init_encoder_params
from .errors import ContractError
from .rng import generator


class Policy:
    """One shared network controlling every embodiment."""

    def __init__(self, cfg: Config, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params
        self.layout = assembler.build_layout(cfg)
        self.bank = EncoderBank(params, cfg)
        self.head_specs = {h.name: h for h in cfg.heads}

    @staticmethod
    def init(cfg: Config, seed: int, dtype=np.float32) -> "Policy":
        layout = assembler.build_layout(cfg)
        params: dict[str, Tensor] = {}
        params.update(init_encoder_params(cfg, generator(seed, "init", "enc"), dtype))
        params.update(assembler.init_assembler_params(layout, generator(seed, "init", "asm"), dtype))
        params.update(backbone.init_backbone_params(cfg, generator(seed, "init", "bb"), dtype))
        params.update(heads.init_head_params(cfg, generator(seed, "init", "head"), dtype))
        return Policy(cfg, params)

    @property
    def dtype(self):
        return self.params["asm/pos"].data.dtype

    # -- forward -------------------------------------------------------------

    def assemble(self, windows) -> assembler.AssembledWindow:
        return assembler.assemble_batch(windows, self.layout, self.bank, self.params)

    def predict(self, batch: TrainingBatch) -> dict[str, Tensor]:
        """Per-head chunk predictions at every window step: [B, k, chunk, action_dim].

        An element owns the head of its window's embodiment; its rows of
        every other head are exact zeros. Ownership comes from the windows
        alone, so `batch.targets`, `batch.loss_masks` and `batch.heads` are
        not read.
        """
        window = self.assemble(batch.windows)
        owners = np.array([heads.owned_head(frames[0].embodiment) for frames in batch.windows])
        unknown = sorted(set(owners.tolist()) - set(self.head_specs))
        if unknown:
            raise ContractError(f"batch needs heads {unknown} that the config does not define")
        b, k = window.valid_steps.shape
        out = {}
        for name, spec in self.head_specs.items():
            shape = (b, k, spec.chunk_size, spec.action_dim)
            rows = np.flatnonzero(owners == name)
            if not rows.size:
                out[name] = ad.zeros(shape, dtype=self.dtype)
                continue
            sub = assembler.compact(window, rows, name)
            pred = heads.project(backbone.forward(sub, self.params, self.cfg, head=name), self.params, name)
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
        """Decode the newest valid step's readouts for one window of frames."""
        if head not in self.head_specs:
            raise ContractError(f"unknown head {head!r}")
        with ad.no_grad():
            window = self.assemble([frames])
            newest = np.flatnonzero(window.valid_steps[0])[-1:]
            sub = assembler.compact(window, np.zeros(1, dtype=np.intp), head, newest)
            readouts = backbone.forward(sub, self.params, self.cfg, head=head)
            return heads.decode(readouts.reshape(-1, readouts.shape[-1]), self.params, self.head_specs[head])
