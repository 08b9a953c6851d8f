"""Observation tokenizers, a fixed part of the model: the config does not choose them.

Images go through a small strided conv stack with per-stage FiLM language
conditioning; an optional goal image rides along as one extra input channel
per image channel (zero-filled when absent, so conditioned and
unconditioned passes share one parameter set). Proprioception is a single
affine projection to one token. One tokenizer exists per observation group
of the registry, shared by every embodiment that has that group; the
group's per-step shape in the registry fixes an image tokenizer's input
size and a proprio tokenizer's input width. The constants below are the
tokenizers' one source, and `image_tokens` is the one count of an image
group's tokens.

The tokenizers check no input: `assembler.window_embodiment` and
`assembler.encode_group` check each frame once, before its values get here.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .embodiments import observation_groups

CONV_CHANNELS = (16, 32, 64)  # output channels of each conv stage
CONV_KERNEL = 3
CONV_STRIDE = 2
LANGUAGE_DIM = 16  # width of an instruction embedding
LANGUAGE_VOCAB = 32  # instruction ids 0..31; id 0 is the null instruction


def image_tokens(shape: tuple[int, ...]) -> int:
    """Tokens of one [C, H, W] image: one per cell of the conv stack's output grid."""
    h, w = shape[1:]
    for _ in CONV_CHANNELS:
        h, w = -(-h // CONV_STRIDE), -(-w // CONV_STRIDE)
    return h * w


def init_encoder_params(cfg: Config, rng: np.random.Generator) -> dict[str, Tensor]:
    d_model = cfg.backbone.d_model
    params: dict[str, Tensor] = {}

    def normal(shape, std):
        return ad.param(rng.standard_normal(shape).astype(np.float32) * np.float32(std))

    def zeros(shape):
        return ad.param(np.zeros(shape, dtype=np.float32))

    kk = CONV_KERNEL
    for name, kind, shape in observation_groups():  # slot order is init order
        if kind == "obs-image":
            c_in = 2 * shape[0]  # current image + goal channels
            for i, c_out in enumerate(CONV_CHANNELS):
                fan_in = c_in * kk * kk
                params[f"enc/img/{name}/conv{i}/w"] = normal((c_out, c_in, kk, kk), np.sqrt(2.0 / fan_in))
                params[f"enc/img/{name}/conv{i}/b"] = zeros(c_out)
                for nm in ("gamma", "beta"):  # FiLM starts as identity
                    params[f"enc/img/{name}/film{i}/{nm}_w"] = zeros((LANGUAGE_DIM, c_out))
                    params[f"enc/img/{name}/film{i}/{nm}_b"] = zeros(c_out)
                c_in = c_out
            params[f"enc/img/{name}/proj/w"] = normal((c_in, d_model), 1.0 / np.sqrt(c_in))
            params[f"enc/img/{name}/proj/b"] = zeros(d_model)
        else:
            (dim,) = shape
            params[f"enc/proprio/{name}/w"] = normal((dim, d_model), 1.0 / np.sqrt(dim))
            params[f"enc/proprio/{name}/b"] = zeros(d_model)

    table = rng.standard_normal((LANGUAGE_VOCAB, LANGUAGE_DIM)).astype(np.float32) * np.float32(0.02)
    table[0] = 0.0  # null instruction embeds to zero
    params["enc/lang/table"] = ad.param(table)
    return params


class EncoderBank:
    """The tokenizers over the `enc/...` parameters; they read this module's constants, no config."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.dtype = params["enc/lang/table"].data.dtype

    # -- language ----------------------------------------------------------

    def embed_language(self, ids: np.ndarray) -> Tensor:
        """Rows of the instruction table; id 0 yields the exact zero vector."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        emb = ad.embedding(self.params["enc/lang/table"], ids)
        keep = (ids != 0).astype(self.dtype)[:, None]
        return emb * ad.tensor(keep)

    # -- images ------------------------------------------------------------

    def encode_image(self, view: str, images: np.ndarray, goals: np.ndarray | None, lang: Tensor) -> Tensor:
        """[n, C, H, W] images -> [n, image_tokens((C, H, W)), d_model] tokens.

        `goals` is [n, C, H, W], or None when no image has a goal (zero goal
        channels); `lang` holds the [n, LANGUAGE_DIM] instruction rows that
        FiLM reads. The stack runs channels-last: images and goals are
        transposed once into one [n, H, W, 2C] input, each stage is `conv2d`
        (with its bias), `film` and `gelu`, and the last stage's [n, h, w, c]
        output is read as [n, h * w, c] tokens in row-major (h, w) order,
        without a copy.
        """
        n, c = images.shape[:2]
        x = np.zeros((n, *images.shape[2:], 2 * c), dtype=self.dtype)
        x[..., :c] = images.transpose(0, 2, 3, 1)
        if goals is not None:
            x[..., c:] = goals.transpose(0, 2, 3, 1)

        x = ad.tensor(x)
        p = self.params
        for i in range(len(CONV_CHANNELS)):
            conv, film = f"enc/img/{view}/conv{i}", f"enc/img/{view}/film{i}"
            x = ad.conv2d(x, p[f"{conv}/w"], p[f"{conv}/b"], stride=CONV_STRIDE)
            x = ad.film(x, lang, p[f"{film}/gamma_w"], p[f"{film}/gamma_b"], p[f"{film}/beta_w"], p[f"{film}/beta_b"])
            x = ad.gelu(x)
        tokens = x.reshape(n, -1, x.shape[-1])
        return ad.linear(tokens, p[f"enc/img/{view}/proj/w"], p[f"enc/img/{view}/proj/b"])

    # -- proprioception -----------------------------------------------------

    def encode_proprio(self, group: str, values: np.ndarray) -> Tensor:
        """[n, dim] readings of one proprio group -> [n, 1, d_model], one token per reading vector."""
        w = self.params[f"enc/proprio/{group}/w"]
        b = self.params[f"enc/proprio/{group}/b"]
        values = np.asarray(values, dtype=self.dtype)
        out = ad.linear(ad.tensor(values), w, b)
        return out.reshape(values.shape[0], 1, w.shape[1])
