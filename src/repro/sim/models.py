"""Model configurations (Table 1) and FLOPs cost models.

The paper's orchestration gains come from the quadratic attention term:
a packed sequence of subsequences with lengths ``l_i`` under segmented
masks costs ``sum(l_i^2)`` attention work, while the linear (projection
+ MLP) work scales with total tokens. This module encodes Table 1's
five models and converts token/patch metadata to training FLOPs; the
iteration simulator divides by an effective per-GPU rate to get time.

Absolute FLOPs constants only shift all configurations equally — every
reported number in the reproduction is a ratio between strategies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelConfig:
    """One row of Table 1. ``topk`` is set for MoE backbones; MoE MLP
    work scales with the number of *active* experts per token."""

    name: str
    layers: int
    heads: int
    hidden: int
    topk: int | None = None

    @property
    def is_moe(self) -> bool:
        return self.topk is not None


# Table 1, verbatim.
ENCODERS: dict[str, ModelConfig] = {
    "vit-1b": ModelConfig("vit-1b", layers=39, heads=16, hidden=1408),
    "vit-2b": ModelConfig("vit-2b", layers=48, heads=16, hidden=1664),
}
BACKBONES: dict[str, ModelConfig] = {
    "llama-12b": ModelConfig("llama-12b", layers=45, heads=36, hidden=4608),
    "tmoe-25b": ModelConfig("tmoe-25b", layers=42, heads=16, hidden=2048, topk=2),
    "mixtral-8x7b": ModelConfig("mixtral-8x7b", layers=32, heads=32, hidden=4096, topk=2),
}

#: forward+backward multiplier (backward ~ 2x forward)
_TRAIN_MULT = 3.0
#: effective sustained per-GPU rate (L20-class, ~FP16) — cancels in ratios
GPU_FLOPS = 60e12


def linear_coeff(cfg: ModelConfig) -> float:
    """FLOPs per token of projection + MLP work (fwd+bwd)."""
    mlp_mult = cfg.topk if cfg.topk else 1
    per_token = cfg.layers * (4 * cfg.hidden**2 + 8 * cfg.hidden**2 * mlp_mult) * 2
    return _TRAIN_MULT * per_token


def attention_coeff(cfg: ModelConfig) -> float:
    """FLOPs per (token^2) of attention score work (QK^T + AV, fwd+bwd)."""
    return _TRAIN_MULT * cfg.layers * 4 * cfg.hidden


def sample_backbone_cost(
    cfg: ModelConfig, text_len: np.ndarray, image_patches: np.ndarray
) -> np.ndarray:
    """Per-sample backbone cost vector (the ``cost(costfn)`` input for
    LLM balancing): the fused sequence is text tokens + encoded image
    tokens, attended as one subsequence."""
    l = np.asarray(text_len, dtype=np.float64) + np.asarray(
        image_patches, dtype=np.float64
    )
    return linear_coeff(cfg) * l + attention_coeff(cfg) * l * l


def sample_encoder_cost(cfg: ModelConfig, image_patches: np.ndarray) -> np.ndarray:
    """Per-sample (per-image) encoder cost vector for encoder balancing."""
    p = np.asarray(image_patches, dtype=np.float64)
    return linear_coeff(cfg) * p + attention_coeff(cfg) * p * p
