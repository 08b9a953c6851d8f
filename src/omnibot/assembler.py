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
the dense oracle the tests compare against; it keeps slot order.

A compact window keeps the observation slots live in at least one of its
windows, so windows of different robots or frame counts pad each other:
a short window's rows then sit beside padding in every row-wise op, and
its readouts at steps with no frame run too. `Policy.predict` therefore
builds one compact window per bucket, windows of one robot and one frame
count f, with the head's readouts at their last f steps alone: every kept
slot is live in every window, so a bucket has no padding, and each row
permits exactly its stated key prefix and its own key.

A compact window lists its kept observation columns first, in ascending
slot order, and the head's readout columns last, in the order of the steps
asked for. Every readout is then its own row's key alone, and the readouts
are the window's last keys, after every observation key. So the layout
states what `autodiff.AttentionMask` plans from: each row's prefix of
observation keys, those of its step and earlier, and the readouts as
trailing own keys. The full window, whose readouts interleave with the
observations, states none and is one tile of every key. The readout rows
are also the queries of the last layer, which attends with the first
layer's plan cut at the first readout row (`AttentionMask.plan(heads,
dtype, first)`).

Assembly is three steps. `window_structure` places the slots: the kept
columns, the padding, the valid steps, the readout rows, where each
frame's encoder rows go, and the `AttentionMask`, built and validated
once. It reads each window's robot and frame count alone. `slot_rows`
gathers its columns, in whatever order they are listed, from one per-slot
table of position and readout embeddings, and zeroes padding where the
structure has any. `window_tokens` fills a structure with token values:
the encoder rows, scattered into their columns, plus the slot rows.
`assemble_batch` runs all three, or the last two on a structure kept by
the caller. `Policy.predict` encodes its whole batch first, in one pass
over the batch's views (`encode_batch`): one grouped conv stack over every
image group that the batch's frames carry, each group one view with the
frames of every robot that has it, whatever bucket they fall in, plus one
`linear` per proprio group. Each bucket's `assemble_batch` then takes its
rows of that pass (`EncodedBatch.of`) and its kept structure, and
`backbone.forward` runs the buckets' windows in one pass. `Policy.act`
encodes a window's new frames a run of groups at a time (`encode_group`;
image groups next in slot order on the same frames, as bimanual's three
cameras are, form one run) and keeps the structure and the slot rows of
each window shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .embodiments import EMBODIMENTS, EmbodimentSpec, embodiment, observation_groups
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
    group_slots: dict[str, np.ndarray] = field(init=False)  # per group: [k, tokens], its slots at each step
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
        steps = np.arange(k)[:, None] * s
        self.group_slots = {g.name: steps + g.offset + np.arange(g.tokens) for g in self.groups}
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
        return self.group_slots[self.readout_group(head).name]

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
    states no group; a head name given twice, or one that no registry robot
    draws from, is a ConfigError.
    """
    groups = [
        (name, kind, image_tokens(shape) if kind == "obs-image" else 1, None)
        for name, kind, shape in observation_groups()
    ]
    registry = sorted({spec.head for spec in EMBODIMENTS.values()})
    seen = set()
    for head in cfg.heads:
        if head.name in seen:
            raise ConfigError(f"duplicate head name {head.name!r}")
        if head.name not in registry:
            raise ConfigError(f"no registry robot draws from head {head.name!r}: the registry's heads are {registry}")
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


@dataclass(frozen=True)
class WindowStructure:
    """An assembled window but for its token values.

    It depends on each window's robot and frame count (and on the head and
    steps) alone: `window_embodiment` pins the groups of a robot's frames,
    and values, goals and instructions change encoder rows, not slots. It
    holds no parameters.
    """

    pad: np.ndarray  # [B, T] bool, True where slot is padding
    mask: ad.AttentionMask  # [B, T, T], True where attention is permitted
    valid_steps: np.ndarray  # [B, k] bool
    # [T] slot of each token column, which `slot_rows` reads: every slot in order for a full window;
    # for a compact one, the kept observations ascending, then the head's readouts in the order of its steps
    slots: np.ndarray
    readouts: np.ndarray | None  # [steps, chunk] token columns of the head's readouts, the last; None for a full window
    # the observation groups that frames carry, in slot order, in runs, with the (window, frame index)
    # of their frames: image groups next in slot order on the same frames form one run, any other
    # group a run alone. `encode_rows` encodes a run in one pass; `encode_batch` takes the batch's
    # image groups in one pass, whatever frames each sits on. Every robot carries a group
    placed: tuple[tuple[tuple[SlotGroup, ...], tuple[tuple[int, int], ...]], ...]
    destinations: tuple[np.ndarray, np.ndarray]  # window and column of each of their encoder rows, in that order

    @property
    def attn_mask(self) -> np.ndarray:
        """[B, T, T] bool: the mask's `permitted`."""
        return self.mask.permitted


@dataclass(frozen=True, kw_only=True)
class AssembledWindow(WindowStructure):
    tokens: Tensor  # [B, T, d_model]; T = k*S for a full window


def window_embodiment(frames: list[ObservationFrame], history: int) -> EmbodimentSpec:
    """The registry entry of a window's robot, after the window's one structural check.

    `Policy.act`, `predict` and `assemble` run it once per window. It wants
    a list of 1..`history` `ObservationFrame`s of one registry robot, each
    with a dict of exactly its groups, an integer instruction id (not a
    bool) of the language vocabulary, and float arrays (or array-likes) of
    the registry shape for each group and for the goal where that
    conditions one. A wrong shape is a DimensionError, any other fault a
    ContractError naming the frame's index (and the group); `encode_group`
    checks that the values are finite.
    """
    if not isinstance(frames, list):
        raise ContractError(f"a window is a list of ObservationFrame, got a {type(frames).__name__}")
    if not frames or len(frames) > history:
        raise ContractError(f"window needs 1..{history} frames, got {len(frames)}")
    for i, f in enumerate(frames):
        if not isinstance(f, ObservationFrame):
            raise ContractError(f"frame {i} is a {type(f).__name__}, want an ObservationFrame")
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


def _image_inputs(
    bank: EncoderBank, groups: tuple[SlotGroup, ...], frames: list[list[ObservationFrame]], index: list[list[int]]
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """The checked images and goals of `frames[v]` for group `groups[v]`, at places `index[v]` in their windows."""
    images, goals = [], []
    for group, mine, at in zip(groups, frames, index):
        images.append(_finite(bank, [f.observations[group.name] for f in mine], f"{group.name} observation", at))
        goal = [conditioning_goal(f, group.name) for f in mine]
        goals.append(None if all(g is None for g in goal) else _finite(
            bank, [np.zeros_like(o) if g is None else g for o, g in zip(images[-1], goal)], f"goal of {group.name}", at
        ))
    return images, goals


def encode_group(
    bank: EncoderBank, groups: tuple[SlotGroup, ...], frames: list[ObservationFrame], index: list[int]
) -> Tensor:
    """Encoder rows [V * n, tokens, d_model] of V observation groups for n frames, each group's in turn, in one pass.

    The groups are one proprio group, or image groups that are encoded
    together (`WindowStructure.placed`). The frames have passed
    `window_embodiment`; `index[i]` is the position of `frames[i]` in its
    window. This and `encode_batch` are the readers of frame values into
    the model, so they check each group's values finite in the policy's
    dtype (a float64 1e39 is inf as float32), group by group. An image
    group's goal channels carry a frame's goal where that goal conditions
    the group, and zeros elsewhere; each frame's instruction is embedded
    once for all groups.
    """
    if groups[0].kind == "obs-proprio":
        (group,) = groups
        obs = _finite(bank, [f.observations[group.name] for f in frames], f"{group.name} observation", index)
        return bank.encode_proprio(group.name, obs)
    images, goals = _image_inputs(bank, groups, [frames] * len(groups), [index] * len(groups))
    lang = bank.embed_language(np.array([f.instruction for f in frames]))
    return bank.encode_image([g.name for g in groups], images, goals, lang)


def build_attention_mask(layout: SlotLayout, pad: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Block-wise causal mask over the slots `cols`, in the order they are listed.

    `cols` are slot indices: every slot for a full window, or a compact
    window's kept observations and then its readouts. `pad` holds one flag
    per slot of `cols`. mask[i, j] is True iff all of:
      (a) j is not pad-flagged, or j == i;
      (b) observation queries see only observation keys at same-or-prior steps;
      (c) readout queries see observation keys at same-or-prior steps, plus self.
    Rules (b) and (c) are the layout's base mask, restricted to `cols`; it
    permits every slot itself, so rule (a) only sets the diagonal back.
    """
    pad = np.asarray(pad, dtype=bool)
    base = layout._base_mask[cols].take(cols, axis=1)  # C-contiguous, as `[cols][:, cols]` is not
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


def slot_rows(layout: SlotLayout, params: dict[str, Tensor], structure: WindowStructure) -> Tensor:
    """Each column's slot row: [n, d_model], which every window shares, or [B, n, d_model] with padding.

    A slot's row is its position embedding plus, at a readout slot, its
    head's readout embedding at the slot's chunk index: it depends on the
    slot alone. So every window gathers its columns, in any order, from one
    table [k * S, d_model]: `asm/pos` plus one step's rows, each group's
    zero rows or its head's readout table, broadcast over the k steps.
    Only a structure with padding, the full-window oracle's or a compact
    window's over windows of several shapes, multiplies them by its keep
    mask to zero the padding; a bucket's and an `act` window's have none.
    """
    pos, d = params["asm/pos"], layout.d_model
    step = ad.concat([
        params[f"asm/readout/{g.head}"] if g.kind == "readout" else ad.tensor(np.zeros((g.tokens, d), dtype=pos.dtype))
        for g in layout.groups
    ], axis=0)
    table = pos.reshape(layout.history, layout.step_tokens, d) + step
    rows = ad.take(table.reshape(-1, d), structure.slots, axis=0)
    if structure.pad.any():
        rows = rows * ad.tensor((~structure.pad).astype(pos.dtype)[:, :, None])
    return rows


class _Frames(NamedTuple):
    lead: np.ndarray  # [B]: the step of each window's first frame (its frames end at step k - 1)
    valid: np.ndarray  # [B, k]: the steps that hold a frame
    # each observation group some frame carries, in slot order, with the window and the position in it of each
    # frame that carries it, window by window; groups of the same robots share one pair of arrays
    groups: list[tuple[SlotGroup, np.ndarray, np.ndarray]]


def _frames(windows: list[list[ObservationFrame]], layout: SlotLayout) -> _Frames:
    """The batch's frames that carry each observation group, from each window's robot and frame count alone.

    `window_embodiment` pins the groups of a robot's frames, so a frame
    carries its robot's groups.
    """
    lead = layout.history - np.array([len(frames) for frames in windows], dtype=np.intp)
    valid = np.arange(layout.history) >= lead[:, None]
    window, step = np.nonzero(valid)  # every frame, window by window, step by step
    index = step - lead[window]
    names = [frames[0].embodiment for frames in windows]
    robots = dict.fromkeys(names)
    carriers = {}  # group -> the robots whose frames carry it
    for name in robots:
        for group in embodiment(name).observation_groups:
            carriers[group] = carriers.get(group, ()) + (name,)
    runs, groups = {}, []  # runs: the frames of the robots that carry a group
    for g in layout.groups:
        mine = carriers.get(g.name)
        if mine is None:
            continue
        if mine not in runs:
            if len(mine) == len(robots):  # every frame
                runs[mine] = window, index
            else:
                sel = np.array([name in mine for name in names])[window]
                runs[mine] = window[sel], index[sel]
        groups.append((g, *runs[mine]))
    return _Frames(lead, valid, groups)


def window_structure(
    windows: list[list[ObservationFrame]], layout: SlotLayout, head: str | None = None, steps=slice(None)
) -> WindowStructure:
    """Where a batch of windows' encoder rows go, which slots are padding, and the attention mask.

    With `head` None, the full window: every slot of every step. With a
    head, the compact window for that head's readouts at `steps`, which
    index the k window steps (every window ends at step k-1, so [-1] is the
    newest): the observation slots live in at least one window (padding in
    the others), then the head's readout slots at `steps`, in that order,
    whose columns it names in `readouts`. Windows of one robot and f frames
    at steps `slice(k - f, None)`, a bucket, have no padding.
    The windows must have passed `window_embodiment`; this does not check
    them again, and reads only their robots' groups and frame counts. A
    compact window's mask states each row's key prefix, the observation
    columns at its step or earlier, and the readouts as own keys.
    """
    t = layout.context_tokens
    frames = _frames(windows, layout)
    live = frames.valid[:, layout.token_step] & ~layout.token_is_obs  # readouts are live at valid steps
    placed, windows_of, slots_of = [], [], []  # per group: its frames, and the window and slot of each encoder row
    runs = {}  # per pair of frame arrays: the frames' steps, and their (window, index) pairs
    for g, at, index in frames.groups:
        if id(at) not in runs:
            runs[id(at)] = index + frames.lead[at], tuple(zip(at.tolist(), index.tolist()))
        step, mine = runs[id(at)]
        windows_of.append(np.repeat(at, g.tokens) if g.tokens > 1 else at)
        slots_of.append(layout.group_slots[g.name][step].ravel())
        if placed and placed[-1][1] == mine and g.kind == placed[-1][0][-1].kind == "obs-image":
            placed[-1] = ((*placed[-1][0], g), mine)
        else:
            placed.append(((g,), mine))
    windows_of, slots_of = (np.concatenate(a) if len(a) > 1 else a[0] for a in (windows_of, slots_of))
    live[windows_of, slots_of] = True

    if head is None:
        cols, structure = np.arange(t), ()
    else:
        readout_slots = layout.readout_indices(head)[steps]
        obs = np.flatnonzero((live & layout.token_is_obs).any(axis=0))
        cols = np.concatenate([obs, readout_slots.ravel()])
        structure = np.searchsorted(layout.token_step[obs], layout.token_step[cols], side="right"), readout_slots.size
    column = np.zeros(t, dtype=np.intp)  # kept column of each slot
    column[cols] = np.arange(cols.size)
    pad = ~live.take(cols, axis=1)  # C-contiguous, as `live[:, cols]` is not, and so is the mask
    return WindowStructure(
        pad=pad,
        mask=ad.AttentionMask(build_attention_mask(layout, pad, cols), *structure),
        valid_steps=frames.valid,
        slots=cols,
        readouts=None if head is None else column[readout_slots],
        placed=tuple(placed),
        destinations=(windows_of, column[slots_of]),
    )


class EncoderRows(NamedTuple):
    """Encoder rows for a structure: row `at[n]` of `rows` (row n if `at` is None) goes to destination n."""

    rows: Tensor  # [R, d_model]
    at: np.ndarray | None = None


@dataclass(frozen=True)
class EncodedBatch:
    """The encoder rows of a batch of windows, from one pass over all of them (`encode_batch`)."""

    rows: Tensor  # [R, d_model]: group by group in slot order, each group's frames in window order, token by token
    # per observation group that the batch carries, in slot order: the row where each window's rows of the group
    # start, then their end, [B + 1]
    starts: tuple[np.ndarray, ...]

    def of(self, first: int, end: int) -> EncoderRows:
        """The rows of windows [first, end), in the order `window_structure` places those windows' rows."""
        if first == 0 and end == self.starts[0].size - 1:  # every window: every row, in order
            return EncoderRows(self.rows)
        return EncoderRows(self.rows, np.concatenate([np.arange(at[first], at[end]) for at in self.starts]))


def encode_batch(windows: list[list[ObservationFrame]], layout: SlotLayout, bank: EncoderBank) -> EncodedBatch:
    """The encoder rows of a batch of checked windows, in one pass over the whole batch.

    Every image group that some frame carries is one view of one grouped
    conv stack (`EncoderBank.encode_image`), with the frames that carry it,
    whatever robot or head they belong to: `workspace` holds arm1's and
    bimanual's frames, `navigation` nav's. Each proprio group is one
    `linear` over its frames. Each frame that carries an image has one
    language row, from one `embed_language` call, which every view of it
    reads. Values are checked as in `encode_group`, group by group in slot
    order. The image groups come first in slot order, as
    `embodiments.observation_groups` lists them, so the image rows and then
    the proprio rows are the rows in slot order.
    """
    frames = _frames(windows, layout)
    starts, parts, row = [], [], 0
    for g, at, _ in frames.groups:
        starts.append(row + g.tokens * np.concatenate(([0], np.cumsum(np.bincount(at, minlength=len(windows))))))
        row = int(starts[-1][-1])

    def frames_of(at, index):
        return [windows[w][i] for w, i in zip(at.tolist(), index.tolist())]

    images = [(g, at, index) for g, at, index in frames.groups if g.kind == "obs-image"]
    if images:
        counts = layout.history - frames.lead
        first = np.cumsum(counts) - counts  # the number of each window's first frame, the frames numbered in turn
        numbers = [first[at] + index for _, at, index in images]  # each view's frames, by number
        speaking = np.unique(np.concatenate(numbers))  # the frames that carry an image: one language row each
        window = np.searchsorted(first, speaking, side="right") - 1
        lang = bank.embed_language(np.array([f.instruction for f in frames_of(window, speaking - first[window])]))
        views = [np.searchsorted(speaking, mine) for mine in numbers]  # each view's language rows
        obs, goals = _image_inputs(
            bank, tuple(g for g, _, _ in images), [frames_of(at, index) for _, at, index in images],
            [index.tolist() for _, _, index in images],
        )
        every = all(v.size == speaking.size for v in views)  # each view reads every language row, in order
        out = bank.encode_image([g.name for g, _, _ in images], obs, goals, lang, None if every else views)
        parts.append(out.reshape(-1, layout.d_model))
    for g, at, index in frames.groups:
        if g.kind == "obs-proprio":
            mine = frames_of(at, index)
            obs = _finite(bank, [f.observations[g.name] for f in mine], f"{g.name} observation", index.tolist())
            parts.append(bank.encode_proprio(g.name, obs).reshape(-1, layout.d_model))
    return EncodedBatch(ad.concat(parts, axis=0) if len(parts) > 1 else parts[0], tuple(starts))


def encode_rows(
    structure: WindowStructure, windows: list[list[ObservationFrame]], bank: EncoderBank, encode=encode_group
) -> EncoderRows:
    """The encoder rows of `structure`'s destinations, a pass per run of groups that `structure.placed` lists.

    `encode(bank, groups, frames, index)` gives a run's rows, `encode_group`
    by default.
    """
    rows = [
        encode(bank, groups, [windows[bi][i] for bi, i in at], [i for _, i in at]) for groups, at in structure.placed
    ]
    rows = [r.reshape(-1, r.shape[-1]) for r in rows]
    return EncoderRows(ad.concat(rows, axis=0) if len(rows) > 1 else rows[0])


def window_tokens(structure: WindowStructure, encoded: EncoderRows, slots: Tensor) -> AssembledWindow:
    """The window `structure` lays out, with `encoded`'s encoder rows and the slot rows `slots`.

    The encoder rows are scattered straight into their kept columns, and
    every column gets its row of `slots`, the structure's `slot_rows`,
    broadcast over the windows where it is one [n, d_model] array. No
    encoder row goes to padding, and `slot_rows` zeroes it there.
    """
    content = ad.scatter_tokens(encoded.rows, *structure.destinations, *structure.pad.shape, encoded.at)
    return AssembledWindow(tokens=content + slots, **vars(structure))


def assemble_batch(
    windows: list[list[ObservationFrame]],
    layout: SlotLayout,
    bank: EncoderBank,
    params: dict[str, Tensor],
    encoded: EncoderRows | None = None,
    structure: WindowStructure | None = None,
) -> AssembledWindow:
    """Place a batch of checked frame histories into their slots, with their encoder rows.

    `structure`, the full window's `window_structure` when None, filled by
    `window_tokens` with its `slot_rows` and `encoded`'s rows:
    `Policy.predict` gives each bucket its kept compact structure and its
    rows of the batch's one encoder pass (`EncodedBatch.of`). Without
    `encoded`, the windows are encoded here, a pass per run of groups
    (`encode_rows`), as the oracles do.
    """
    if structure is None:
        structure = window_structure(windows, layout)
    if encoded is None:
        encoded = encode_rows(structure, windows, bank)
    return window_tokens(structure, encoded, slot_rows(layout, params, structure))
