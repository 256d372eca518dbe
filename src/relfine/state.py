"""Softmax-linked segmentation state: per-category logits and probabilities.

Parameterizing the per-category maps through a pixelwise softmax keeps them
on the probability simplex during optimization without any projection step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import FormatError, UnknownCategoryError
from .grid import LabelMap, ProbabilityMap

#: Probabilities below this are clamped before taking logs.
PROB_FLOOR = 1e-7


@dataclass(frozen=True, eq=False)
class SegmentationState:
    """Category roster plus (C, H, W) logits, their softmax probabilities and
    their log-softmax, both from one numerically stable pass."""

    categories: tuple[str, ...]
    logits: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray

    @classmethod
    def from_logits(cls, categories: tuple[str, ...], logits: np.ndarray) -> SegmentationState:
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 3 or logits.shape[0] != len(categories):
            raise FormatError(
                f"logits must have shape (C, H, W) with C={len(categories)}, got {logits.shape}"
            )
        if len(categories) < 1:
            raise FormatError("state needs at least one category")
        log_probs = logits - logits.max(axis=0, keepdims=True)
        probs = np.exp(log_probs)
        total = probs.sum(axis=0, keepdims=True)
        probs /= total
        log_probs -= np.log(total)
        return cls(tuple(categories), logits, probs, log_probs)

    def with_logits(self, logits: np.ndarray) -> SegmentationState:
        """New state with updated logits; probabilities are recomputed."""
        return SegmentationState.from_logits(self.categories, logits)

    @property
    def height(self) -> int:
        return self.logits.shape[1]

    @property
    def width(self) -> int:
        return self.logits.shape[2]

    def index(self, category: str) -> int:
        try:
            return self.categories.index(category)
        except ValueError:
            raise UnknownCategoryError(
                f"category {category!r} has no map; state covers {list(self.categories)}"
            ) from None

    def prob_map(self, category: str) -> ProbabilityMap:
        return ProbabilityMap(self.probs[self.index(category)])


def init_state(initial_maps: Mapping[str, ProbabilityMap]) -> SegmentationState:
    """Build a state from per-category maps that need not sum to one.

    Logits are log(clamp(p)), so already-normalized inputs survive the
    softmax round trip unchanged (up to the clamp floor).
    """
    if not initial_maps:
        raise FormatError("init_state needs at least one category map")
    categories = tuple(initial_maps)
    shapes = {pmap.shape for pmap in initial_maps.values()}
    if len(shapes) != 1:
        raise FormatError(f"category maps disagree on shape: {sorted(shapes)}")
    stacked = np.stack([initial_maps[c].values for c in categories], axis=0)
    logits = np.log(np.clip(stacked, PROB_FLOOR, 1.0))
    return SegmentationState.from_logits(categories, logits)


def argmax_labels(state: SegmentationState) -> LabelMap:
    """Per-pixel index of the most probable category; ties go to the lowest index."""
    return LabelMap(np.argmax(state.probs, axis=0).astype(np.int64), len(state.categories))
