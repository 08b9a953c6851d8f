"""The embodiment registry: the single source of every per-robot fact.

One frozen `EmbodimentSpec` per robot holds its action head, action
dimension, episode horizon, instruction ids, goal-conditioning view and
observation groups with their per-step shapes. Every other module reads
these facts through `embodiment(name)`, `group_shape` or
`observation_groups` at call time, so adding a robot means one entry here
plus an environment class in `envs`. A shard header and an observation
frame name their robot and restate nothing else. This module imports only
`errors`, so every module can import it.

Registry order is slot order and init order. `observation_groups` lists
image groups first, then vector groups, each in the order of its first
appearance here; the slot layout, the tokenizers' parameter init and
the per-view augmentation draws all follow that list, so reordering the
entries below can change weights and batches.

The rng stream labels in `envs` (`generator(seed, "arm1", "reset")`,
`generator(seed, "nav", "reset")` for nav-shifted too, ...) live elsewhere
on purpose: they are seeds, not names, and renaming one changes every
generated trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError

CAMERA = (3, 24, 24)  # one rendered RGB frame, channels first


@dataclass(frozen=True)
class EmbodimentSpec:
    name: str
    head: str  # the action head this robot draws from
    action_dim: int
    horizon: int  # control steps per episode
    instructions: tuple[int, ...]  # instruction ids drawn at reset (0 = none)
    goal_view: str | None  # the camera a goal image conditions; None = no goal conditioning
    observations: tuple[tuple[str, tuple[int, ...]], ...]  # (slot group, per-step shape: [C, H, W] or [dim])

    @property
    def observation_groups(self) -> tuple[str, ...]:
        return tuple(g for g, _ in self.observations)


EMBODIMENTS = {
    s.name: s
    for s in (
        EmbodimentSpec("arm1", "single-arm", 7, 40, (1, 2, 3, 4), "workspace", (("workspace", CAMERA),)),
        EmbodimentSpec("nav", "navigation", 2, 30, (0,), "navigation", (("navigation", CAMERA),)),
        EmbodimentSpec("quad", "quadruped", 12, 50, (8, 9), None, (("quad-proprio", (59,)),)),
        EmbodimentSpec(
            "bimanual", "bimanual", 14, 60, (5, 6, 7), "workspace",
            (("workspace", CAMERA), ("wrist-left", CAMERA), ("wrist-right", CAMERA), ("bimanual-proprio", (14,))),
        ),
        # zero-shot only: the nav interface with smaller steps and a drift; never in a training mixture
        EmbodimentSpec("nav-shifted", "navigation", 2, 40, (0,), "navigation", (("navigation", CAMERA),)),
    )
}


def embodiment(name: str) -> EmbodimentSpec:
    """The registry entry for `name`; raises ContractError naming an unknown embodiment."""
    spec = EMBODIMENTS.get(name)
    if spec is None:
        raise ContractError(f"unknown embodiment {name!r}: the registry has {sorted(EMBODIMENTS)}")
    return spec


def group_shape(group: str) -> tuple[int, ...]:
    """Per-step shape of an observation group, on which every embodiment that has it agrees."""
    shapes = {s for spec in EMBODIMENTS.values() for g, s in spec.observations if g == group}
    if len(shapes) != 1:
        raise ContractError(f"observation group {group!r} has per-step shapes {sorted(shapes)} in the registry")
    return shapes.pop()


def observation_groups() -> list[tuple[str, str, tuple[int, ...]]]:
    """(group, kind, per-step shape) of every observation group, in slot order: image groups
    ("obs-image", shape [C, H, W]) first, then vector groups ("obs-proprio", shape [dim]),
    each by first appearance in the registry."""
    groups = []
    for g in dict.fromkeys(g for spec in EMBODIMENTS.values() for g in spec.observation_groups):
        shape = group_shape(g)
        groups.append((g, "obs-image" if len(shape) == 3 else "obs-proprio", shape))
    return sorted(groups, key=lambda group: group[1] != "obs-image")
