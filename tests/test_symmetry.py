"""Guard test: refinement commutes with mirroring and transposing the grid.

Flipping a scene left-right while swapping left and right in its triplets,
or transposing it while swapping above with left and below with right, poses
the same problem in other coordinates. The compiled kernel must then give
the flipped or transposed answer: no axis or side gets special treatment.
This checks the kernel without any reference implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from relfine.evaluate import satisfied_flags
from relfine.grid import ProbabilityMap
from relfine.refine import RefineConfig, refine
from relfine.relations import Relation, SpatialTriplet, TripletSet
from relfine.scenes import generate_scene, random_grid_spec
from relfine.state import argmax_labels

MIRROR = {Relation.LEFT: Relation.RIGHT, Relation.RIGHT: Relation.LEFT}
TRANSPOSE = {
    Relation.ABOVE: Relation.LEFT,
    Relation.LEFT: Relation.ABOVE,
    Relation.BELOW: Relation.RIGHT,
    Relation.RIGHT: Relation.BELOW,
}
TRANSFORMS = {
    "mirror": (lambda grid: grid[..., ::-1], MIRROR),
    "transpose": (lambda grid: np.swapaxes(grid, -1, -2), TRANSPOSE),
}


def _refined(init_probs, triplets, alpha):
    state, trace = refine(init_probs, triplets, RefineConfig(alpha=alpha))
    labels = argmax_labels(state)
    return state.probs, labels.labels, satisfied_flags(labels, triplets.categories, triplets), trace.total


@pytest.mark.parametrize("alpha", [0.1, 1.0])
@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_refine_commutes_with_mirror_and_transpose(transform, alpha):
    move, swap = TRANSFORMS[transform]
    for seed in range(12):
        scene = generate_scene(random_grid_spec(seed, n_categories=2 + seed % 4, height=48, width=40))
        probs, labels, flags, totals = _refined(scene.init_probs, scene.gt_triplets, alpha)

        moved_probs = {c: ProbabilityMap(move(m.values)) for c, m in scene.init_probs.items()}
        moved_triplets = TripletSet(
            tuple(SpatialTriplet(t.subject, swap.get(t.relation, t.relation), t.object) for t in scene.gt_triplets),
            scene.gt_triplets.categories,
        )
        got_probs, got_labels, got_flags, got_totals = _refined(moved_probs, moved_triplets, alpha)

        assert np.abs(got_probs - move(probs)).max() <= 1e-9
        assert np.array_equal(got_labels, move(labels))
        assert np.array_equal(got_flags, flags)
        assert np.abs(got_totals - totals).max() <= 1e-12 * np.abs(totals).max()
