"""The geometric oracle and the ground-truth triplets against the reference.

`geometric_oracle` answers from one (C, C, 4) table over mass-weighted means
and `derive_gt_triplets` reads the same table; `reference_kernels` asks each
question on its own from per-category pixel means. On generated scenes and
on random maps with absent categories and one-pixel sides, every answer,
every derived list, its order and its stages agree.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from relfine.grid import LabelMap
from relfine.relations import BACKGROUND, Relation, geometric_oracle
from relfine.scenes import derive_gt_triplets, generate_scene, random_grid_spec
from reference_kernels import ReferenceOracle, reference_gt_triplets

OUTSIDE = "ghost"


def generated_map(seed: int) -> tuple[LabelMap, tuple[str, ...]]:
    scene = generate_scene(random_grid_spec(seed, 1 + seed % 8))
    return scene.gt_labels, scene.categories


def random_map(seed: int) -> tuple[LabelMap, tuple[str, ...]]:
    """A small map, 1 to 6 pixels a side, over up to 9 categories of which
    some are absent: dense labels from a prefix of the roster, or sparse
    single pixels over the first category. Half the rosters name background."""
    rng = np.random.default_rng(seed)
    height, width = (int(n) for n in rng.integers(1, 7, size=2))
    count = int(rng.integers(1, 10))
    if seed % 2:
        labels = rng.integers(0, int(rng.integers(1, count + 1)), size=(height, width))
    else:
        labels = np.zeros((height, width), dtype=np.int64)
        picks = rng.integers(0, count, size=int(rng.integers(0, 5)))
        labels.flat[rng.choice(height * width, size=picks.size)] = picks
    names = tuple(f"c{i}" for i in range(count))
    roster = (BACKGROUND, *names[1:]) if seed % 4 < 2 else names
    return LabelMap(labels, count), roster


MAPS = [("generated", seed) for seed in range(40)] + [("random", seed) for seed in range(160)]


@pytest.mark.parametrize("kind, seed", MAPS)
def test_oracle_and_triplets_match_the_reference(kind, seed):
    labels, roster = (generated_map if kind == "generated" else random_map)(seed)
    oracle, reference = geometric_oracle(labels, roster), ReferenceOracle(labels, roster)
    names = (*roster, OUTSIDE)
    for s, o in product(names, names):
        for r in Relation:
            assert oracle.holds(s, r, o) == reference.holds(s, r, o), (s, r, o)
        for first, second in product(Relation, Relation):
            assert oracle.choose(s, first, second, o) == reference.choose(s, first, second, o), (s, first, second, o)
    derived = derive_gt_triplets(labels, roster)
    assert derived.triplets == tuple(reference_gt_triplets(labels, roster))
    assert derived.categories == roster


def test_the_maps_reach_absent_categories_and_one_pixel_sides():
    absent = one_pixel = with_triplets = 0
    for kind, seed in MAPS:
        labels, roster = (generated_map if kind == "generated" else random_map)(seed)
        absent += len(np.unique(labels.labels)) < len(roster)
        one_pixel += min(labels.shape) == 1
        with_triplets += len(reference_gt_triplets(labels, roster)) > 0
    assert absent >= 50 and one_pixel >= 20 and with_triplets >= 100, (absent, one_pixel, with_triplets)
