"""Observation tokenizers.

Images go through a small strided conv stack with per-stage FiLM language
conditioning; an optional goal image rides along as three extra input
channels (zero-filled when absent, so conditioned and unconditioned passes
share one parameter set). Proprioception is a single affine projection to
one token. One tokenizer exists per observation group of the config's
slot layout, shared by every embodiment that has that group; a proprio
tokenizer's input width is the group's per-step shape in the registry.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import Config
from .embodiments import group_shape
from .errors import DimensionError


def init_encoder_params(cfg: Config, rng: np.random.Generator, dtype=np.float32) -> dict[str, Tensor]:
    enc = cfg.encoders
    d_model = cfg.backbone.d_model
    params: dict[str, Tensor] = {}

    def normal(shape, std):
        return ad.param(rng.standard_normal(shape).astype(dtype) * dtype(std))

    def zeros(shape):
        return ad.param(np.zeros(shape, dtype=dtype))

    kk = enc.conv_kernel
    for group in cfg.layout.groups:  # layout order is init order
        name = group.name
        if group.kind == "obs-image":
            c_in = 6  # current image + goal channels
            for i, c_out in enumerate(enc.conv_channels):
                fan_in = c_in * kk * kk
                params[f"enc/img/{name}/conv{i}/w"] = normal((c_out, c_in, kk, kk), np.sqrt(2.0 / fan_in))
                params[f"enc/img/{name}/conv{i}/b"] = zeros(c_out)
                for nm in ("gamma", "beta"):  # FiLM starts as identity
                    params[f"enc/img/{name}/film{i}/{nm}_w"] = zeros((enc.language_dim, c_out))
                    params[f"enc/img/{name}/film{i}/{nm}_b"] = zeros(c_out)
                c_in = c_out
            params[f"enc/img/{name}/proj/w"] = normal((c_in, d_model), 1.0 / np.sqrt(c_in))
            params[f"enc/img/{name}/proj/b"] = zeros(d_model)
        elif group.kind == "obs-proprio":
            (dim,) = group_shape(name)
            params[f"enc/proprio/{name}/w"] = normal((dim, d_model), 1.0 / np.sqrt(dim))
            params[f"enc/proprio/{name}/b"] = zeros(d_model)

    table = rng.standard_normal((enc.language_vocab, enc.language_dim)).astype(dtype) * dtype(0.02)
    table[0] = 0.0  # null instruction embeds to zero
    params["enc/lang/table"] = ad.param(table)
    return params


def film(features: Tensor, lang: Tensor, gamma_w: Tensor, gamma_b: Tensor,
         beta_w: Tensor, beta_b: Tensor) -> Tensor:
    """Per-channel (1 + gamma(lang)) * x + beta(lang), gamma/beta linear in lang."""
    n, c = features.shape[0], features.shape[1]
    if gamma_w.shape[1] != c:
        raise DimensionError(
            f"film projections are for {gamma_w.shape[1]} channels, features have {c}"
        )
    gamma = ad.linear(lang, gamma_w, gamma_b).reshape(n, c, 1, 1)
    beta = ad.linear(lang, beta_w, beta_b).reshape(n, c, 1, 1)
    return features * (gamma + 1.0) + beta


class EncoderBank:
    """All tokenizer parameters, keyed by observation group."""

    def __init__(self, params: dict[str, Tensor], cfg: Config):
        self.params = params
        self.cfg = cfg
        self.dtype = params["enc/lang/table"].data.dtype

    @staticmethod
    def init(cfg: Config, rng: np.random.Generator, dtype=np.float32) -> "EncoderBank":
        return EncoderBank(init_encoder_params(cfg, rng, dtype), cfg)

    # -- language ----------------------------------------------------------

    def embed_language(self, ids: np.ndarray) -> Tensor:
        """Rows of the instruction table; id 0 yields the exact zero vector."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        vocab = self.cfg.encoders.language_vocab
        if ids.min() < 0 or ids.max() >= vocab:
            raise IndexError(f"instruction id out of range [0, {vocab}): {ids}")
        emb = ad.embedding(self.params["enc/lang/table"], ids)
        keep = (ids != 0).astype(self.dtype)[:, None]
        return emb * ad.tensor(keep)

    # -- images ------------------------------------------------------------

    def image_tokens(self) -> int:
        return self.cfg.image_tokens()

    def encode_image(
        self,
        view: str,
        images: np.ndarray,
        goals: np.ndarray | None = None,
        lang: Tensor | None = None,
    ) -> Tensor:
        """[n, 3, H, W] images (+ optional goals, optional language) -> [n, T_img, d_model]."""
        if f"enc/img/{view}/proj/w" not in self.params:
            raise KeyError(f"no image tokenizer for group {view!r}")
        enc = self.cfg.encoders
        images = np.asarray(images, dtype=self.dtype)
        if images.ndim != 4 or images.shape[1] != 3 or images.shape[2:] != (enc.image_size,) * 2:
            raise DimensionError(
                f"{view} images must be [n, 3, {enc.image_size}, {enc.image_size}], got {images.shape}"
            )
        n = images.shape[0]
        if goals is None:
            goals = np.zeros_like(images)
        else:
            goals = np.asarray(goals, dtype=self.dtype)
            if goals.shape != images.shape:
                raise DimensionError(f"goal shape {goals.shape} != image shape {images.shape}")
        if lang is None:
            lang = ad.tensor(np.zeros((n, enc.language_dim), dtype=self.dtype))

        x = ad.tensor(np.concatenate([images, goals], axis=1))
        p = self.params
        for i in range(len(enc.conv_channels)):
            k = p[f"enc/img/{view}/conv{i}/w"]
            x = ad.conv2d(x, k, stride=enc.conv_stride)
            x = x + p[f"enc/img/{view}/conv{i}/b"].reshape(1, -1, 1, 1)
            x = film(
                x, lang,
                p[f"enc/img/{view}/film{i}/gamma_w"], p[f"enc/img/{view}/film{i}/gamma_b"],
                p[f"enc/img/{view}/film{i}/beta_w"], p[f"enc/img/{view}/film{i}/beta_b"],
            )
            x = ad.gelu(x)
        c = x.shape[1]
        tokens = x.reshape(n, c, -1).swapaxes(1, 2)  # [n, T_img, c]
        return ad.linear(tokens, p[f"enc/img/{view}/proj/w"], p[f"enc/img/{view}/proj/b"])

    # -- proprioception -----------------------------------------------------

    def encode_proprio(self, group: str, values: np.ndarray) -> Tensor:
        """[n, dim] readings of one proprio group -> [n, 1, d_model], one token per reading vector."""
        if f"enc/proprio/{group}/w" not in self.params:
            raise KeyError(f"no proprio tokenizer for group {group!r}")
        w = self.params[f"enc/proprio/{group}/w"]
        b = self.params[f"enc/proprio/{group}/b"]
        values = np.asarray(values, dtype=self.dtype)
        dim = w.shape[0]
        if values.ndim != 2 or values.shape[1] != dim:
            raise DimensionError(f"{group} proprioception must be [n, {dim}], got {values.shape}")
        out = ad.linear(ad.tensor(values), w, b)
        return out.reshape(values.shape[0], 1, w.shape[1])
