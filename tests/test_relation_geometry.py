"""The geometric oracle and the loss's bands read one statement of what a
relation means: `Relation.axis` and `Relation.after`.

On a band-aligned scene two categories either share a span on an axis (equal
centroids, no triplet there) or have disjoint extents (every subject pixel
lies on the stated side). So the oracle's centroid answer and the discrete
check that all subject pixels lie outside the loss's outside band must agree
on every question. A relation whose side is flipped in only one of them
breaks that agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from relfine.logic import band_tables, encode_triplets, outside_sums
from relfine.relations import BACKGROUND, Relation, SpatialTriplet, TripletSet, geometric_oracle, opposite
from relfine.scenes import generate_scene, random_grid_spec


def test_relation_geometry_is_stated_once():
    assert {r.value: (r.axis, r.after) for r in Relation} == {
        "above": ("row", False),
        "below": ("row", True),
        "left": ("col", False),
        "right": ("col", True),
    }
    for r in Relation:
        assert (opposite(r).axis, opposite(r).after) == (r.axis, not r.after)


def all_pixels_inside(labels, roster, triplets) -> list[bool]:
    """Per triplet, whether no subject pixel lies in the loss's outside band,
    with the bands taken over the one-hot label maps with no epsilon."""
    subjects, keys = encode_triplets(roster, triplets)
    onehot = (labels.labels == np.arange(len(roster))[:, None, None]).astype(np.float64)
    rows, cols = band_tables(onehot, 0.0)
    return (outside_sums(onehot, rows, cols)[subjects, keys] == 0.0).tolist()


@pytest.mark.parametrize("size", [24, 40, 64])
def test_geometric_oracle_agrees_with_the_all_pixels_check(size):
    checks = yes = 0
    for seed in range(60):
        scene = generate_scene(random_grid_spec(seed, n_categories=2 + seed % 7, height=size, width=size))
        roster = scene.categories
        names = [name for name in roster if name != BACKGROUND]
        listed = [SpatialTriplet(s, r, o) for s in names for o in names if s != o for r in Relation]
        triplets = TripletSet(listed, roster)
        oracle = geometric_oracle(scene.gt_labels, roster)
        answers = [oracle.holds(*t.key) == "yes" for t in triplets]
        flags = all_pixels_inside(scene.gt_labels, roster, triplets)
        disagree = [str(t) for t, a, f in zip(triplets, answers, flags) if a != f]
        assert not disagree, (seed, disagree)
        checks += len(triplets)
        yes += sum(answers)
    # Both answers occur often, so a flipped side cannot hide behind one of them.
    assert 0.2 * checks < yes < 0.6 * checks, (yes, checks)
