"""Global configuration: one JSON document with per-subsystem sections."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from .embodiments import EMBODIMENTS
from .errors import ConfigError

VIEWS = ("workspace", "navigation", "wrist-left", "wrist-right")


@dataclass
class GroupSpec:
    name: str
    kind: str  # obs-image | obs-proprio | readout
    tokens: int
    head: str | None = None  # readout groups only


@dataclass
class LayoutSection:
    history: int
    groups: list[GroupSpec]


@dataclass
class HeadSection:
    name: str
    action_dim: int
    chunk_size: int
    control_hz: float


@dataclass
class EncoderSection:
    image_size: int = 24
    conv_channels: tuple[int, ...] = (16, 32, 64)
    conv_kernel: int = 3
    conv_stride: int = 2
    language_dim: int = 16
    language_vocab: int = 32


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
class Config:
    layout: LayoutSection
    heads: list[HeadSection]
    encoders: EncoderSection
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
            layout = LayoutSection(
                history=doc["layout"]["history"],
                groups=[GroupSpec(**g) for g in doc["layout"]["groups"]],
            )
            heads = [HeadSection(**h) for h in doc["heads"]]
            encoders = EncoderSection(**{**doc.get("encoders", {})})
            encoders.conv_channels = tuple(encoders.conv_channels)
            backbone = BackboneSection(**doc.get("backbone", {}))
            mixture = doc.get("mixture", [])
            train = TrainSection(**doc.get("train", {}))
            ev = EvalSection(suites=[EvalSuite(**s) for s in doc.get("eval", {}).get("suites", [])])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad config document: {exc}") from exc
        try:
            mixture = [(str(n), float(w)) for n, w in mixture]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad mixture entry, want [dataset, weight]: {exc}") from exc
        for i, suite in enumerate(ev.suites):
            if not isinstance(suite.embodiment, str) or suite.embodiment not in EMBODIMENTS:
                raise ConfigError(f"eval suite {i} names unknown embodiment {suite.embodiment!r}")
        return Config(layout, heads, encoders, backbone, mixture, train, ev)

    @staticmethod
    def load(path: str) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return Config.from_dict(json.load(fh))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def image_tokens(self) -> int:
        side = self.encoders.image_size
        for _ in self.encoders.conv_channels:
            side = -(-side // self.encoders.conv_stride)
        return side * side

    def head(self, name: str) -> HeadSection:
        for h in self.heads:
            if h.name == name:
                return h
        raise ConfigError(f"unknown head {name!r}")


DESK_HEADS = [
    HeadSection("single-arm", action_dim=7, chunk_size=4, control_hz=10.0),
    HeadSection("navigation", action_dim=2, chunk_size=4, control_hz=4.0),
    HeadSection("bimanual", action_dim=14, chunk_size=20, control_hz=20.0),
    HeadSection("quadruped", action_dim=12, chunk_size=1, control_hz=20.0),
]

# paper-scale chunk sizes: bimanual predicts 100 steps ahead
PAPER_HEADS = [
    HeadSection("single-arm", action_dim=7, chunk_size=4, control_hz=10.0),
    HeadSection("navigation", action_dim=2, chunk_size=4, control_hz=4.0),
    HeadSection("bimanual", action_dim=14, chunk_size=100, control_hz=20.0),
    HeadSection("quadruped", action_dim=12, chunk_size=1, control_hz=20.0),
]

DESK_MIXTURE = [("arm1", 0.4), ("nav", 0.3), ("bimanual", 0.2), ("quad", 0.1)]


def _layout_for(heads: list[HeadSection], history: int, image_tokens: int) -> LayoutSection:
    groups = [GroupSpec(v, "obs-image", image_tokens) for v in VIEWS]
    groups += [
        GroupSpec("quad-proprio", "obs-proprio", 1),
        GroupSpec("bimanual-proprio", "obs-proprio", 1),
    ]
    groups += [GroupSpec(f"readout-{h.name}", "readout", h.chunk_size, head=h.name) for h in heads]
    return LayoutSection(history=history, groups=groups)


def desk_config() -> Config:
    heads = [HeadSection(**asdict(h)) for h in DESK_HEADS]
    return Config(
        layout=_layout_for(heads, history=5, image_tokens=9),
        heads=heads,
        encoders=EncoderSection(),
        backbone=BackboneSection(),
        mixture=list(DESK_MIXTURE),
        train=TrainSection(),
        eval=EvalSection(
            suites=[EvalSuite(e, 100) for e in ("arm1", "nav", "bimanual", "quad")]
        ),
    )


def paper_scale_config() -> Config:
    """Paper hyperparameters behind the desk interface (shape checks only)."""
    heads = [HeadSection(**asdict(h)) for h in PAPER_HEADS]
    cfg = desk_config()
    return Config(
        layout=_layout_for(heads, history=5, image_tokens=cfg.image_tokens()),
        heads=heads,
        encoders=cfg.encoders,
        backbone=BackboneSection(layers=12, heads=8, d_model=512, d_mlp=2048),
        mixture=list(DESK_MIXTURE),
        train=TrainSection(learning_rate=3e-4, warmup_steps=2000, batch_size=512, total_steps=300000),
        eval=EvalSection(),
    )
