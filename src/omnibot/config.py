"""Global configuration: one JSON document with per-subsystem sections.

The document states choices, not facts fixed elsewhere. A robot's
observation groups, their shapes and its action width live in the
embodiment registry, and the tokenizers are constants in `encoders`; the
slot layout is derived from both and the heads (`assembler.build_layout`),
and a head's `action_dim` is read from the robots that draw from it.
`Config.from_dict` rejects a section or field it does not know.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .embodiments import EMBODIMENTS
from .errors import ConfigError, ContractError


@dataclass
class LayoutSection:
    history: int


@dataclass
class HeadSection:
    name: str
    chunk_size: int

    @property
    def action_dim(self) -> int:
        """The action width of every robot that draws from this head, from the registry."""
        dims = {spec.action_dim for spec in EMBODIMENTS.values() if spec.head == self.name}
        if len(dims) != 1:
            raise ContractError(f"head {self.name!r} has action widths {sorted(dims)} in the registry")
        return dims.pop()


@dataclass
class BackboneSection:
    layers: int = 2
    heads: int = 4
    d_model: int = 64
    d_mlp: int = 256


@dataclass
class TrainSection:
    learning_rate: float = 3e-4
    warmup_steps: int = 2000
    weight_decay: float = 0.1
    clip_threshold: float = 1.0
    batch_size: int = 8
    total_steps: int = 10000
    seed: int = 0
    val_every: int = 1000
    val_fraction: float = 0.05
    val_windows: int = 64
    max_shift_px: int = 2
    jitter: float = 0.1


@dataclass
class EvalSuite:
    embodiment: str
    trials: int


@dataclass
class EvalSection:
    suites: list[EvalSuite] = field(default_factory=list)


@dataclass
class MixtureSpec:
    """A dataset mixture: each (dataset, weight) entry is drawn with probability weight / sum.

    It holds the one rule for a valid mixture, which `Config.from_dict` applies too: at
    least one entry, every weight finite and >= 0, and a positive finite sum.
    """

    entries: list[tuple[str, float]]

    def __post_init__(self):
        if not self.entries:
            raise ConfigError("empty mixture")
        weights = [w for _, w in self.entries]
        for i, w in enumerate(weights):
            if not 0 <= w <= sys.float_info.max:  # NaN fails the comparison too
                raise ConfigError(f"mixture[{i}].weight is {w!r}, want a finite float >= 0 (mixture weights {weights})")
        total = sum(weights)
        if not 0 < total <= sys.float_info.max:
            raise ConfigError(f"mixture weights {weights} sum to {total}, want a positive finite sum")
        self.names = [n for n, _ in self.entries]
        self.probabilities = np.array([w / total for w in weights])


@dataclass
class Config:
    layout: LayoutSection
    heads: list[HeadSection]
    backbone: BackboneSection
    mixture: list[tuple[str, float]]
    train: TrainSection
    eval: EvalSection

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    @staticmethod
    def from_dict(doc: dict) -> "Config":
        try:
            unknown = sorted(doc.keys() - {f.name for f in fields(Config)})
            if unknown:
                raise ConfigError(f"unknown config sections {unknown}")
            layout = LayoutSection(**doc["layout"])
            heads = [HeadSection(**h) for h in doc["heads"]]
            backbone = BackboneSection(**doc.get("backbone", {}))
            mixture = doc["mixture"]
            train = TrainSection(**doc.get("train", {}))
            ev = EvalSection(**doc.get("eval", {}))
            ev.suites = [EvalSuite(**s) for s in ev.suites]
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad config document: {exc}") from exc
        sections = [("layout", layout), ("backbone", backbone), ("train", train)]
        sections += [(f"heads[{i}]", h) for i, h in enumerate(heads)]
        sections += [(f"eval.suites[{i}]", suite) for i, suite in enumerate(ev.suites)]
        for where, section in sections:
            _check_fields(where, section)
        if not 0 < train.val_fraction < 1:
            raise ConfigError(f"train.val_fraction is {train.val_fraction}, want a fraction in (0, 1)")
        try:
            mixture = [(str(n), float(w)) for n, w in mixture]
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad mixture entry, want [dataset, weight]: {exc}") from exc
        MixtureSpec(mixture)  # ConfigError unless the mixture is valid
        for i, suite in enumerate(ev.suites):
            if suite.embodiment not in EMBODIMENTS:
                raise ConfigError(f"eval suite {i} names unknown embodiment {suite.embodiment!r}")
        return Config(layout, heads, backbone, mixture, train, ev)

    @staticmethod
    def load(path: str) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return Config.from_dict(json.load(fh))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def head(self, name: str) -> HeadSection:
        for h in self.heads:
            if h.name == name:
                return h
        raise ConfigError(f"unknown head {name!r}")


_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}
# int fields that may be 0, or anything (seed); every other int field is a count, at least 1
_FLOORS = {"seed": None, "warmup_steps": 0, "max_shift_px": 0}


def _checked(name: str, value, kind: str) -> None:
    """ConfigError unless `value` fits field `name` of type `kind`."""
    floor = _FLOORS.get(name.rsplit(".", 1)[-1], 1) if kind == "int" else None
    if type(value) not in _TYPES.get(kind, ()) or (floor is not None and value < floor):
        raise ConfigError(f"{name} is {value!r}, want {kind}" + ("" if floor is None else f" >= {floor}"))
    if kind == "float" and not abs(value) <= sys.float_info.max:  # NaN fails the comparison too
        raise ConfigError(f"{name} is {value!r}, want a finite float")


def _check_fields(where: str, section) -> None:
    """Check a section's scalar fields; its list fields are sections of their own."""
    for f in fields(section):
        if not f.type.startswith("list["):
            _checked(f"{where}.{f.name}", getattr(section, f.name), f.type)


DESK_HEADS = [
    HeadSection("single-arm", chunk_size=4),
    HeadSection("navigation", chunk_size=4),
    HeadSection("bimanual", chunk_size=20),
    HeadSection("quadruped", chunk_size=1),
]

# paper-scale chunk sizes: bimanual predicts 100 steps ahead
PAPER_HEADS = [
    HeadSection("single-arm", chunk_size=4),
    HeadSection("navigation", chunk_size=4),
    HeadSection("bimanual", chunk_size=100),
    HeadSection("quadruped", chunk_size=1),
]

DESK_MIXTURE = [("arm1", 0.4), ("nav", 0.3), ("bimanual", 0.2), ("quad", 0.1)]


def desk_config() -> Config:
    return Config(
        layout=LayoutSection(history=5),
        heads=[HeadSection(**asdict(h)) for h in DESK_HEADS],
        backbone=BackboneSection(),
        mixture=list(DESK_MIXTURE),
        train=TrainSection(),
        eval=EvalSection(
            suites=[EvalSuite(e, 100) for e in ("arm1", "nav", "bimanual", "quad")]
        ),
    )


def paper_scale_config() -> Config:
    """Paper hyperparameters behind the desk interface (shape checks only)."""
    return Config(
        layout=LayoutSection(history=5),
        heads=[HeadSection(**asdict(h)) for h in PAPER_HEADS],
        backbone=BackboneSection(layers=12, heads=8, d_model=512, d_mlp=2048),
        mixture=list(DESK_MIXTURE),
        train=TrainSection(learning_rate=3e-4, warmup_steps=2000, batch_size=512, total_steps=300000),
        eval=EvalSection(),
    )
