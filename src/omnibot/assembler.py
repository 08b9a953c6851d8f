"""Fixed-slot token sequences.

Every timestep lays out the same ordered token groups (camera views,
proprioception, per-head readouts), so each group occupies a fixed
absolute position in the context window. Observations missing for an
embodiment are zero-filled and pad-flagged; attention masking makes the
pads and the readout slots provably inert for everyone else.

That inertness is what lets `compact` drop slots before the backbone runs
without changing any kept slot's output:
- a pad slot is a key only for itself (mask rule a), so dropping it removes
  no term from any other query's attention;
- a readout slot is a key only for itself (rules b and c), so dropping
  another head's readouts, or this head's readouts at other steps, removes
  no term either.
Every kept slot keeps its original position embedding and its row of the
original mask, so the backbone computes the same numbers on fewer rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .encoders import EncoderBank
from .errors import ConfigError, ContractError, DimensionError


@dataclass(frozen=True)
class SlotGroup:
    name: str
    kind: str  # obs-image | obs-proprio | readout
    tokens: int
    head: str | None
    offset: int  # within one timestep


@dataclass
class SlotLayout:
    groups: list[SlotGroup]
    history: int  # timesteps per window
    step_tokens: int  # S: tokens per timestep
    d_model: int

    # derived lookups, filled in __post_init__
    token_step: np.ndarray = field(init=False)
    token_is_obs: np.ndarray = field(init=False)
    _base_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        k, s = self.history, self.step_tokens
        t = k * s
        self.token_step = np.repeat(np.arange(k), s)
        is_obs_step = np.zeros(s, dtype=bool)
        for g in self.groups:
            if g.kind != "readout":
                is_obs_step[g.offset : g.offset + g.tokens] = True
        self.token_is_obs = np.tile(is_obs_step, k)
        # rule (b)/(c): keys must be observation tokens at same-or-prior steps;
        # readout queries additionally see themselves.
        base = self.token_is_obs[None, :] & (self.token_step[None, :] <= self.token_step[:, None])
        readout_rows = ~self.token_is_obs
        base[readout_rows, np.arange(t)[readout_rows]] = True
        self._base_mask = base

    @property
    def context_tokens(self) -> int:
        return self.history * self.step_tokens

    def group(self, name: str) -> SlotGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(f"no slot group named {name!r}")

    def readout_heads(self) -> list[str]:
        return [g.head for g in self.groups if g.kind == "readout"]

    def readout_range(self, head: str, step: int) -> tuple[int, int]:
        for g in self.groups:
            if g.kind == "readout" and g.head == head:
                start = step * self.step_tokens + g.offset
                return start, start + g.tokens
        raise KeyError(f"no readout group for head {head!r}")

    def readout_indices(self, head: str) -> np.ndarray:
        """Token indices of the head's readout slots, one row per step."""
        rows = []
        for s in range(self.history):
            a, b = self.readout_range(head, s)
            rows.append(np.arange(a, b))
        return np.stack(rows)

    def canonical(self) -> str:
        doc = {
            "history": self.history,
            "d_model": self.d_model,
            "groups": [
                {"name": g.name, "kind": g.kind, "tokens": g.tokens, "head": g.head}
                for g in self.groups
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_canonical(text: str) -> "SlotLayout":
        doc = json.loads(text)
        groups, offset = [], 0
        for g in doc["groups"]:
            groups.append(SlotGroup(g["name"], g["kind"], g["tokens"], g["head"], offset))
            offset += g["tokens"]
        return SlotLayout(groups, doc["history"], offset, doc["d_model"])


def build_layout(cfg: Config) -> SlotLayout:
    """Deterministic layout from the config; validates readout/chunk agreement."""
    seen = set()
    groups, offset = [], 0
    for g in cfg.layout.groups:
        if g.name in seen:
            raise ConfigError(f"duplicate slot group {g.name!r}")
        seen.add(g.name)
        if g.tokens < 1:
            raise ConfigError(f"group {g.name!r} has no tokens")
        if g.kind == "readout":
            head = cfg.head(g.head)
            if g.tokens != head.chunk_size:
                raise ConfigError(
                    f"readout group {g.name!r} has {g.tokens} tokens but head "
                    f"{head.name!r} has chunk size {head.chunk_size}"
                )
        elif g.kind not in ("obs-image", "obs-proprio"):
            raise ConfigError(f"unknown group kind {g.kind!r}")
        groups.append(SlotGroup(g.name, g.kind, g.tokens, g.head, offset))
        offset += g.tokens
    for h in cfg.heads:
        if not any(g.head == h.name for g in groups if g.kind == "readout"):
            raise ConfigError(f"head {h.name!r} has no readout group")
    return SlotLayout(groups, cfg.layout.history, offset, cfg.backbone.d_model)


@dataclass
class ObservationFrame:
    """One timestep of raw observations for a single embodiment."""

    embodiment: str
    observations: dict[str, np.ndarray]  # slot group name -> raw array
    instruction: int = 0
    goal: np.ndarray | None = None
    goal_view: str | None = None


@dataclass
class AssembledWindow:
    tokens: Tensor  # [B, k*S, d_model]
    pad: np.ndarray  # [B, k*S] bool, True where slot is padding
    attn_mask: np.ndarray  # [B, k*S, k*S] bool, True where attention permitted
    valid_steps: np.ndarray  # [B, k] bool
    layout: SlotLayout
    slots: np.ndarray  # [T] original slot index of each token column, ascending


def build_attention_mask(layout: SlotLayout, pad: np.ndarray) -> np.ndarray:
    """Block-wise causal mask.

    mask[i, j] is True iff all of:
      (a) j is not pad-flagged, or j == i;
      (b) observation queries see only observation keys at same-or-prior steps;
      (c) readout queries see observation keys at same-or-prior steps, plus self.
    """
    pad = np.asarray(pad, dtype=bool)
    t = layout.context_tokens
    if pad.shape[-1] != t:
        raise DimensionError(f"pad mask has {pad.shape[-1]} tokens, layout has {t}")
    eye = np.eye(t, dtype=bool)
    if pad.ndim == 1:
        return layout._base_mask & (~pad[None, :] | eye)
    return layout._base_mask[None] & (~pad[:, None, :] | eye[None])


def _readout_step_content(layout: SlotLayout, params: dict[str, Tensor], dtype) -> Tensor:
    pieces = []
    for g in layout.groups:
        if g.kind == "readout":
            pieces.append(params[f"asm/readout/{g.head}"])
        else:
            pieces.append(ad.tensor(np.zeros((g.tokens, layout.d_model), dtype=dtype)))
    return ad.concat(pieces, axis=0)


def init_assembler_params(layout: SlotLayout, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    params = {
        "asm/pos": ad.param(
            rng.standard_normal((layout.context_tokens, layout.d_model)).astype(dtype) * dtype(0.02)
        )
    }
    for g in layout.groups:
        if g.kind == "readout":
            params[f"asm/readout/{g.head}"] = ad.param(
                rng.standard_normal((g.tokens, layout.d_model)).astype(dtype) * dtype(0.02)
            )
    return params


def assemble_batch(
    windows: list[list[ObservationFrame]],
    layout: SlotLayout,
    bank: EncoderBank,
    params: dict[str, Tensor],
) -> AssembledWindow:
    """Encode and place a batch of frame histories into fixed slots."""
    k, s, t, d = layout.history, layout.step_tokens, layout.context_tokens, layout.d_model
    b = len(windows)
    dtype = bank.dtype

    valid = np.zeros((b, k), dtype=bool)
    pad = np.ones((b, t), dtype=bool)
    # per view kind: lists of (batch idx, step idx, frame)
    present: dict[str, list[tuple[int, int, ObservationFrame]]] = {
        g.name: [] for g in layout.groups if g.kind != "readout"
    }
    for bi, frames in enumerate(windows):
        if not frames or len(frames) > k:
            raise ContractError(f"window needs 1..{k} frames, got {len(frames)}")
        if len({f.embodiment for f in frames}) != 1:
            raise ContractError("mixed embodiments within one window")
        lead = k - len(frames)
        for si, frame in enumerate(frames):
            step = lead + si
            valid[bi, step] = True
            base = step * s
            for g in layout.groups:
                if g.kind == "readout":
                    pad[bi, base + g.offset : base + g.offset + g.tokens] = False
                elif g.name in frame.observations:
                    pad[bi, base + g.offset : base + g.offset + g.tokens] = False
                    present[g.name].append((bi, step, frame))

    sources: list[Tensor] = []
    b_idx_parts: list[np.ndarray] = []
    t_idx_parts: list[np.ndarray] = []
    for g in layout.groups:
        entries = present.get(g.name)
        if not entries:
            continue
        n = len(entries)
        if g.kind == "obs-image":
            imgs = np.stack([f.observations[g.name] for _, _, f in entries])
            goals = np.stack(
                [
                    f.goal if (f.goal is not None and f.goal_view == g.name) else np.zeros_like(f.observations[g.name])
                    for _, _, f in entries
                ]
            )
            lang = bank.embed_language(np.array([f.instruction for _, _, f in entries]))
            encoded = bank.encode_image(g.name, imgs, goals=goals, lang=lang)
        else:
            vals = np.stack([f.observations[g.name] for _, _, f in entries])
            encoded = bank.encode_proprio(g.name, vals)
        rows = encoded.reshape(n * g.tokens, d)
        sources.append(rows)
        bs = np.repeat([e[0] for e in entries], g.tokens)
        ts = np.concatenate(
            [e[1] * s + g.offset + np.arange(g.tokens) for e in entries]
        )
        b_idx_parts.append(bs)
        t_idx_parts.append(ts)

    if sources:
        all_rows = ad.concat(sources, axis=0) if len(sources) > 1 else sources[0]
        content = ad.scatter_tokens(
            all_rows, np.concatenate(b_idx_parts), np.concatenate(t_idx_parts), b, t
        )
    else:
        content = ad.tensor(np.zeros((b, t, d), dtype=dtype))

    step_readout = _readout_step_content(layout, params, dtype)
    readout_tiled = ad.concat([step_readout] * k, axis=0)  # [t, d]
    notpad = ad.tensor((~pad).astype(dtype)[:, :, None])
    tokens = (content + readout_tiled + params["asm/pos"]) * notpad

    attn = build_attention_mask(layout, pad)
    return AssembledWindow(
        tokens=tokens, pad=pad, attn_mask=attn, valid_steps=valid, layout=layout, slots=np.arange(t)
    )


def compact(window: AssembledWindow, rows: np.ndarray, head: str, steps=slice(None)) -> AssembledWindow:
    """The slots of `rows` that `head`'s readouts at `steps` can see, as a window.

    `window` is a full window from `assemble_batch`. Kept slots: every
    observation slot that is live for at least one of `rows`, plus the
    head's readout slots at `steps`. All other slots are pads or readouts,
    which no kept slot attends to (see the module docstring). A kept slot
    that is pad for some of `rows` still attends only to itself there, so
    sharing one slot set across `rows` is exact too. Tokens (with their
    position embeddings already added) and the mask are gathered, never
    rebuilt. The mask is gathered one axis at a time, several times faster
    than one three-axis `np.ix_` index.
    """
    layout = window.layout
    keep = (~window.pad[rows] & layout.token_is_obs).any(axis=0)
    keep[layout.readout_indices(head)[steps].ravel()] = True
    cols = np.flatnonzero(keep)
    b, t, d = window.tokens.shape
    flat = (rows[:, None] * t + cols).ravel()  # unique, so the gather's backward is one assignment
    tokens = ad.take(window.tokens.reshape(b * t, d), flat, axis=0).reshape(len(rows), len(cols), d)
    return AssembledWindow(
        tokens=tokens,
        pad=window.pad[rows][:, cols],
        attn_mask=window.attn_mask[rows][:, cols][:, :, cols],
        valid_steps=window.valid_steps[rows],
        layout=layout,
        slots=cols,
    )
