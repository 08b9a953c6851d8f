"""Fixed-slot token sequences.

Every timestep lays out the same ordered token groups (camera views,
proprioception, per-head readouts), so each group occupies a fixed
absolute position in the context window. Observations missing for an
embodiment are zero-filled and pad-flagged; attention masking makes the
pads and the readout slots provably inert for everyone else.

That inertness is what lets `assemble_batch` build a head's compact window
directly, with only the slots that head's readouts can see:
- a pad slot is a key only for itself (mask rule a), so leaving it out
  removes no term from any other query's attention;
- a readout slot is a key only for itself (rules b and c), so leaving out
  another head's readouts, or this head's readouts at other steps, removes
  no term either.
Encoder rows go straight into their kept columns, every kept slot gets its
original position embedding, and the mask is the layout's base mask
restricted to the kept columns and the pads: the backbone computes the same
numbers as on the full window, on fewer rows. The full window (no head) is
the dense oracle the tests compare against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .embodiments import EmbodimentSpec, embodiment, observation_groups
from .encoders import LANGUAGE_VOCAB, EncoderBank, image_tokens
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
    token_readout_row: np.ndarray = field(init=False)  # row of the slot's readout embedding; 0 (zeros) for observations
    _base_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        k, s = self.history, self.step_tokens
        t = k * s
        self.token_step = np.repeat(np.arange(k), s)
        is_obs_step = np.zeros(s, dtype=bool)
        readout_row = np.zeros(s, dtype=np.intp)
        row = 1
        for g in self.groups:
            if g.kind != "readout":
                is_obs_step[g.offset : g.offset + g.tokens] = True
            else:
                readout_row[g.offset : g.offset + g.tokens] = np.arange(row, row + g.tokens)
                row += g.tokens
        self.token_is_obs = np.tile(is_obs_step, k)
        self.token_readout_row = np.tile(readout_row, k)
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

    def readout_group(self, head: str) -> SlotGroup:
        for g in self.groups:
            if g.kind == "readout" and g.head == head:
                return g
        raise KeyError(f"no readout group for head {head!r}")

    def readout_indices(self, head: str) -> np.ndarray:
        """Token indices of the head's readout slots, one row per step."""
        g = self.readout_group(head)
        return np.arange(self.history)[:, None] * self.step_tokens + g.offset + np.arange(g.tokens)

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
        groups = [(g["name"], g["kind"], g["tokens"], g["head"]) for g in doc["groups"]]
        return _stacked(groups, doc["history"], doc["d_model"])


def _stacked(groups: list[tuple[str, str, int, str | None]], history: int, d_model: int) -> SlotLayout:
    """The layout of (name, kind, tokens, head) groups laid out one after another in each step."""
    slots, offset = [], 0
    for name, kind, tokens, head in groups:
        slots.append(SlotGroup(name, kind, tokens, head, offset))
        offset += tokens
    return SlotLayout(slots, history, offset, d_model)


def build_layout(cfg: Config) -> SlotLayout:
    """The slot layout, derived from the registry, the tokenizers and the heads.

    The observation groups are the registry's, in slot order (see
    `embodiments.observation_groups`): a vector group is one token, an image
    group `encoders.image_tokens` of its registry shape. Then each head gets
    one readout group, `readout-{name}`, of `chunk_size` tokens. The config
    states no group; a head name given twice is a ConfigError.
    """
    groups = [
        (name, kind, image_tokens(shape) if kind == "obs-image" else 1, None)
        for name, kind, shape in observation_groups()
    ]
    seen = set()
    for head in cfg.heads:
        if head.name in seen:
            raise ConfigError(f"duplicate head name {head.name!r}")
        seen.add(head.name)
        groups.append((f"readout-{head.name}", "readout", head.chunk_size, head.name))
    return _stacked(groups, cfg.layout.history, cfg.backbone.d_model)


@dataclass
class ObservationFrame:
    """One timestep of raw observations for a single embodiment."""

    embodiment: str
    observations: dict[str, np.ndarray]  # slot group name -> raw array
    instruction: int = 0
    goal: np.ndarray | None = None  # conditions the embodiment's registry goal view


@dataclass
class AssembledWindow:
    tokens: Tensor  # [B, T, d_model]; T = k*S for a full window
    pad: np.ndarray  # [B, T] bool, True where slot is padding
    attn_mask: np.ndarray  # [B, T, T] bool, True where attention permitted
    valid_steps: np.ndarray  # [B, k] bool
    slots: np.ndarray  # [T] original slot index of each token column, ascending
    readouts: np.ndarray | None  # [steps, chunk] token columns of the head's readouts; None for a full window


def window_embodiment(frames: list[ObservationFrame], history: int) -> EmbodimentSpec:
    """The registry entry of a window's robot, after the window's one structural check.

    `Policy.act`, `predict` and `assemble` run it once per window. It wants
    1..`history` frames of one registry robot, each with a dict of exactly
    its groups, an integer instruction id (not a bool) of the language
    vocabulary, and float arrays (or array-likes) of the registry shape for
    each group and for the goal where that conditions one. A wrong shape is
    a DimensionError, any other fault a ContractError naming the frame's
    index and the group; `encode_group` checks that the values are finite.
    """
    if not frames or len(frames) > history:
        raise ContractError(f"window needs 1..{history} frames, got {len(frames)}")
    robots = [embodiment(f.embodiment) for f in frames]
    if any(r is not robots[0] for r in robots):
        raise ContractError(f"mixed embodiments within one window: {sorted({r.name for r in robots})}")
    robot = robots[0]
    want = set(robot.observation_groups)
    for i, f in enumerate(frames):
        if not isinstance(f.observations, dict):
            raise ContractError(f"frame {i} observations are a {type(f.observations).__name__}, want a dict of arrays")
        if f.observations.keys() != want:
            raise ContractError(
                f"frame {i} of {robot.name!r} lacks observation groups {sorted(want - f.observations.keys())} "
                f"and carries unexpected groups {sorted(f.observations.keys() - want)}"
            )
        ins = f.instruction
        if not isinstance(ins, (int, np.integer)) or isinstance(ins, bool):
            raise ContractError(f"frame {i}: instruction {ins!r} is not an integer id")
        if not 0 <= ins < LANGUAGE_VOCAB:
            raise ContractError(
                f"frame {i}: instruction id {ins} is outside the language vocabulary of {LANGUAGE_VOCAB} ids"
            )
        for group, shape in robot.observations:
            named = [(f"{group} observation", f.observations[group])]
            goal = conditioning_goal(f, group)
            if goal is not None:
                named.append((f"goal of {group}", goal))
            for what, values in named:
                try:
                    values = np.asarray(values)
                except ValueError as exc:  # a ragged nested list
                    raise ContractError(f"frame {i}: {what} is not an array: {exc}") from None
                if values.shape != shape:
                    raise DimensionError(f"frame {i}: {what} has shape {values.shape}, want {shape}")
                if values.dtype.kind != "f":
                    raise ContractError(f"frame {i}: {what} has dtype {values.dtype}, want a float array")
    return robot


def conditioning_goal(frame: ObservationFrame, view: str) -> np.ndarray | None:
    """The frame's goal image if it conditions `view`, its robot's registry goal view; else None."""
    if frame.goal is None or embodiment(frame.embodiment).goal_view != view:
        return None
    return frame.goal


def _finite(bank: EncoderBank, arrays: list, what: str, index: list[int]) -> np.ndarray:
    """`arrays` stacked in the policy's dtype; ContractError naming frame `index[i]` of the first not finite in it."""
    with np.errstate(over="ignore"):
        values = np.stack(arrays, dtype=bank.dtype)
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        raise ContractError(f"frame {index[int(np.argmin(finite))]}: {what} holds non-finite values as {values.dtype}")
    return values


def encode_group(bank: EncoderBank, group: SlotGroup, frames: list[ObservationFrame], index: list[int]) -> Tensor:
    """Encoder rows [n, tokens, d_model] of one observation group for n frames, in one batched call.

    The frames have passed `window_embodiment`; `index[i]` is the position of
    `frames[i]` in its window. This is the one reader of frame values into
    the model, so it checks them finite in the policy's dtype (a float64 1e39
    is inf as float32). An image group's goal channels carry a frame's goal
    where that goal conditions the group, and zeros elsewhere.
    """
    obs = _finite(bank, [f.observations[group.name] for f in frames], f"{group.name} observation", index)
    if group.kind == "obs-proprio":
        return bank.encode_proprio(group.name, obs)
    goals = [conditioning_goal(f, group.name) for f in frames]
    if all(g is None for g in goals):
        goals = None
    else:
        goals = _finite(bank, [np.zeros_like(o) if g is None else g for o, g in zip(obs, goals)],
                        f"goal of {group.name}", index)
    lang = bank.embed_language(np.array([f.instruction for f in frames]))
    return bank.encode_image(group.name, obs, goals, lang)


def build_attention_mask(layout: SlotLayout, pad: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Block-wise causal mask over the slots `cols`, ascending slot indices.

    `pad` holds one flag per slot of `cols`. mask[i, j] is True iff all of:
      (a) j is not pad-flagged, or j == i;
      (b) observation queries see only observation keys at same-or-prior steps;
      (c) readout queries see observation keys at same-or-prior steps, plus self.
    Rules (b) and (c) are the layout's base mask, restricted to `cols`; it
    permits every slot itself, so rule (a) only sets the diagonal back.
    """
    pad = np.asarray(pad, dtype=bool)
    base = layout._base_mask[cols][:, cols]
    n = base.shape[0]
    if pad.shape[-1] != n:
        raise DimensionError(f"pad mask has {pad.shape[-1]} tokens, the mask covers {n}")
    mask = base & ~pad[..., None, :]
    diag = np.arange(n)
    mask[..., diag, diag] = True
    return mask


def init_assembler_params(layout: SlotLayout, rng: np.random.Generator) -> dict[str, Tensor]:
    params = {
        "asm/pos": ad.param(
            rng.standard_normal((layout.context_tokens, layout.d_model)).astype(np.float32) * np.float32(0.02)
        )
    }
    for g in layout.groups:
        if g.kind == "readout":
            params[f"asm/readout/{g.head}"] = ad.param(
                rng.standard_normal((g.tokens, layout.d_model)).astype(np.float32) * np.float32(0.02)
            )
    return params


def _slot_embeddings(layout: SlotLayout, params: dict[str, Tensor], cols: np.ndarray) -> Tensor:
    """[len(cols), d_model]: each slot's position embedding plus, at a readout slot, its readout embedding."""
    pos = params["asm/pos"]
    readouts = [params[f"asm/readout/{g.head}"] for g in layout.groups if g.kind == "readout"]
    table = ad.concat([ad.tensor(np.zeros((1, layout.d_model), dtype=pos.dtype)), *readouts], axis=0)
    return ad.take(table, layout.token_readout_row[cols], axis=0) + ad.take(pos, cols, axis=0)


def assemble_batch(
    windows: list[list[ObservationFrame]],
    layout: SlotLayout,
    bank: EncoderBank,
    params: dict[str, Tensor],
    head: str | None = None,
    steps=slice(None),
    encode=encode_group,
) -> AssembledWindow:
    """Encode a batch of frame histories and place them into their slots.

    With `head` None, the full window: every slot of every step. With a
    head, the compact window for that head's readouts at `steps`, which
    index the k window steps (every window ends at step k-1, so [-1] is the
    newest): the observation slots live in at least one window, plus the
    head's readout slots at `steps`, whose columns it names in `readouts`.
    Encoder rows are scattered straight into their kept columns.
    `encode(bank, group, frames, index)` gives each observation group's
    encoder rows, `encode_group` by default. The windows must have passed
    `window_embodiment`; this does not check them again.
    """
    k, s, t, d = layout.history, layout.step_tokens, layout.context_tokens, layout.d_model
    b = len(windows)
    valid = np.zeros((b, k), dtype=bool)
    entries: dict[str, list[tuple[int, int, int, ObservationFrame]]] = {  # window, step, frame index, frame
        g.name: [] for g in layout.groups if g.kind != "readout"
    }
    for bi, frames in enumerate(windows):
        lead = k - len(frames)
        valid[bi, lead:] = True
        for i, frame in enumerate(frames):
            for name in frame.observations:
                entries[name].append((bi, lead + i, i, frame))

    live = valid[:, layout.token_step] & ~layout.token_is_obs  # readouts are live at valid steps
    placed = []  # (group, frames, their indices, window and slot of each encoder row)
    for g in layout.groups:
        got = entries.get(g.name)
        if got:
            bis, at, index, frames = zip(*got)
            bs = np.repeat(bis, g.tokens)
            slots = (np.array(at)[:, None] * s + g.offset + np.arange(g.tokens)).ravel()
            live[bs, slots] = True
            placed.append((g, list(frames), list(index), bs, slots))

    if head is None:
        cols = np.arange(t)
    else:
        readout_slots = layout.readout_indices(head)[steps]
        keep = (live & layout.token_is_obs).any(axis=0)
        keep[readout_slots.ravel()] = True
        cols = np.flatnonzero(keep)
    column = np.zeros(t, dtype=np.intp)  # kept column of each slot
    column[cols] = np.arange(cols.size)

    if placed:
        rows = [encode(bank, g, frames, index).reshape(-1, d) for g, frames, index, _, _ in placed]
        content = ad.scatter_tokens(
            ad.concat(rows, axis=0) if len(rows) > 1 else rows[0],
            np.concatenate([bs for *_, bs, _ in placed]),
            column[np.concatenate([slots for *_, slots in placed])],
            b,
            cols.size,
        )
    else:
        content = ad.tensor(np.zeros((b, cols.size, d), dtype=bank.dtype))
    pad = ~live[:, cols]
    tokens = (content + _slot_embeddings(layout, params, cols)) * ad.tensor((~pad).astype(bank.dtype)[:, :, None])
    return AssembledWindow(
        tokens=tokens,
        pad=pad,
        attn_mask=build_attention_mask(layout, pad, cols),
        valid_steps=valid,
        slots=cols,
        readouts=None if head is None else column[readout_slots],
    )
