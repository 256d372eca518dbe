from __future__ import annotations

import numpy as np
import pytest

from relfine.errors import FormatError
from relfine.grid import LabelMap
from relfine.relations import Relation, calibrate, detect_contradictions, geometric_oracle
from relfine.scenes import (
    Confusion,
    Placement,
    SceneSpec,
    derive_gt_triplets,
    generate_scene,
    load_scene_bundle,
    random_grid_spec,
    save_scene_bundle,
)
from relfine.state import argmax_labels, init_state


def simple_spec(**overrides):
    fields = dict(
        height=8,
        width=8,
        placements=(Placement("a", 1, 1, 4, 4), Placement("b", 5, 5, 7, 7)),
        noise_sigma=0.0,
        confusion=None,
        seed=0,
    )
    fields.update(overrides)
    return SceneSpec(**fields)


# --------------------------------------------------------------------------
# spec validation


def test_spec_rejects_out_of_bounds_placement():
    with pytest.raises(FormatError, match="out of bounds"):
        simple_spec(placements=(Placement("a", 0, 0, 9, 4),))


def test_spec_rejects_duplicate_category():
    with pytest.raises(FormatError, match="more than once"):
        simple_spec(placements=(Placement("a", 0, 0, 2, 2), Placement("a", 3, 3, 5, 5)))


def test_spec_rejects_background_placement():
    with pytest.raises(FormatError, match="background"):
        simple_spec(placements=(Placement("background", 0, 0, 2, 2),))


def test_spec_rejects_unplaced_confusion_category():
    with pytest.raises(FormatError, match="unplaced"):
        simple_spec(confusion=Confusion("a", "ghost", 0.5))


# --------------------------------------------------------------------------
# generation


def test_clean_scene_argmax_matches_ground_truth():
    scene = generate_scene(simple_spec())
    labels = argmax_labels(init_state(scene.init_probs))
    assert labels.labels.tolist() == scene.gt_labels.labels.tolist()


def test_confusion_equalizes_probabilities_before_noise():
    scene = generate_scene(simple_spec(confusion=Confusion("a", "b", 0.5)))
    inside_a = scene.gt_labels.labels == 1
    pa = scene.init_probs["a"].values[inside_a]
    pb = scene.init_probs["b"].values[inside_a]
    assert np.allclose(pa, pb)
    assert np.allclose(pa, 0.5)


def test_confusion_full_strength_swaps_masses():
    scene = generate_scene(simple_spec(confusion=Confusion("a", "b", 1.0)))
    inside_a = scene.gt_labels.labels == 1
    assert np.allclose(scene.init_probs["a"].values[inside_a], 0.0)
    assert np.allclose(scene.init_probs["b"].values[inside_a], 1.0)


def test_generation_is_deterministic():
    spec = simple_spec(noise_sigma=0.2, confusion=Confusion("a", "b", 0.5), seed=9)
    one = generate_scene(spec)
    two = generate_scene(spec)
    for name in one.categories:
        assert np.array_equal(one.init_probs[name].values, two.init_probs[name].values)
    assert one.gt_triplets.keys() == two.gt_triplets.keys()


def test_noisy_maps_are_normalized():
    scene = generate_scene(simple_spec(noise_sigma=0.3, seed=3))
    stack = np.stack([scene.init_probs[c].values for c in scene.categories])
    assert np.abs(stack.sum(axis=0) - 1.0).max() < 1e-12
    assert stack.min() >= 0.0 and stack.max() <= 1.0


def test_later_placements_overwrite_earlier():
    spec = simple_spec(placements=(Placement("a", 0, 0, 4, 4), Placement("b", 0, 0, 2, 2)))
    scene = generate_scene(spec)
    assert scene.gt_labels.labels[1, 1] == 2
    assert scene.gt_labels.labels[3, 3] == 1


# --------------------------------------------------------------------------
# derive_gt_triplets


def test_derive_side_by_side():
    labels = LabelMap(np.array([[1, 1, 2, 2]]), 3)
    triplets = derive_gt_triplets(labels, ("background", "A", "B"))
    keys = triplets.keys()
    assert ("A", Relation.LEFT, "B") in keys
    assert ("B", Relation.RIGHT, "A") in keys
    assert all(r not in (Relation.ABOVE, Relation.BELOW) for _, r, _ in keys)


def test_derive_single_category_is_empty():
    labels = LabelMap(np.array([[1, 1, 0, 0]]), 2)
    assert len(derive_gt_triplets(labels, ("background", "A"))) == 0


def test_derive_stacked_categories():
    labels = LabelMap(np.array([[1], [2]]), 3)
    keys = derive_gt_triplets(labels, ("background", "A", "B")).keys()
    assert keys == {("A", Relation.ABOVE, "B"), ("B", Relation.BELOW, "A")}


def test_derived_triplets_never_contradict():
    rng = np.random.default_rng(12)
    for _ in range(30):
        labels = LabelMap(rng.integers(0, 4, size=(6, 7)), 4)
        triplets = derive_gt_triplets(labels, ("background", "a", "b", "c"))
        assert detect_contradictions(triplets) == []


def test_calibration_closure_on_generated_scenes():
    for seed in range(25):
        spec = random_grid_spec(seed, n_categories=2 + seed % 3, noise_sigma=0.1)
        scene = generate_scene(spec)
        oracle = geometric_oracle(scene.gt_labels, scene.categories)
        result = calibrate(scene.gt_triplets, oracle)
        assert result.triplets.keys() == scene.gt_triplets.keys()


def test_clean_scene_refinement_is_harmless_at_any_alpha():
    from relfine.refine import RefineConfig, refine

    scene = generate_scene(random_grid_spec(2042, n_categories=3, noise_sigma=0.0, confusion_strength=None))
    for alpha in (0.1, 1.0, 5.0):
        state, _ = refine(scene.init_probs, scene.gt_triplets, RefineConfig(alpha=alpha))
        assert argmax_labels(state).labels.tolist() == scene.gt_labels.labels.tolist()


# --------------------------------------------------------------------------
# random_grid_spec


def test_random_grid_spec_is_valid_and_deterministic():
    a = random_grid_spec(5, n_categories=4)
    b = random_grid_spec(5, n_categories=4)
    assert a == b
    assert len(a.placements) == 4
    assert a.confusion is not None


def test_random_grid_spec_band_alignment():
    # Any two placements either share a span on an axis or are disjoint there.
    for seed in range(10):
        spec = random_grid_spec(seed, n_categories=4)
        for i, p in enumerate(spec.placements):
            for q in spec.placements[i + 1 :]:
                rows_same = (p.row0, p.row1) == (q.row0, q.row1)
                rows_disjoint = p.row1 <= q.row0 or q.row1 <= p.row0
                cols_same = (p.col0, p.col1) == (q.col0, q.col1)
                cols_disjoint = p.col1 <= q.col0 or q.col1 <= p.col0
                assert rows_same or rows_disjoint
                assert cols_same or cols_disjoint
                assert rows_disjoint or cols_disjoint  # no overlap


# --------------------------------------------------------------------------
# bundles


def test_bundle_round_trip(tmp_path):
    spec = simple_spec(noise_sigma=0.1, confusion=Confusion("a", "b", 0.5), seed=21)
    scene = generate_scene(spec)
    save_scene_bundle(tmp_path / "scene", scene)
    loaded = load_scene_bundle(tmp_path / "scene")
    assert loaded.spec == spec
    assert loaded.categories == scene.categories
    assert loaded.gt_labels.labels.tolist() == scene.gt_labels.labels.tolist()
    assert loaded.gt_triplets.keys() == scene.gt_triplets.keys()
    for name in scene.categories:
        # Stored as float32: equal after the same round trip.
        stored = scene.init_probs[name].values.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.init_probs[name].values, stored)


def test_bundle_rerun_is_byte_identical(tmp_path):
    spec = simple_spec(noise_sigma=0.1, seed=33)
    for directory in ("one", "two"):
        save_scene_bundle(tmp_path / directory, generate_scene(spec))
    for rel in ("spec.json", "gt_labels.pgm", "triplets.json", "probs/a.rsgf", "probs/background.rsgf"):
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()


def test_bundle_from_random_spec_round_trips(tmp_path):
    # Sampled specs carry plain ints end to end (regression: numpy scalars
    # used to break the JSON encoder here).
    scene = generate_scene(random_grid_spec(7, n_categories=3))
    save_scene_bundle(tmp_path / "scene", scene)
    loaded = load_scene_bundle(tmp_path / "scene")
    assert loaded.spec == scene.spec


def test_load_bundle_reports_missing_files(tmp_path):
    from relfine.errors import FormatError
    import pytest

    scene = generate_scene(simple_spec())
    save_scene_bundle(tmp_path / "scene", scene)
    (tmp_path / "scene" / "probs" / "a.rsgf").unlink()
    with pytest.raises(FormatError, match="probs/a.rsgf"):
        load_scene_bundle(tmp_path / "scene")
    (tmp_path / "scene" / "spec.json").unlink()
    with pytest.raises(FormatError, match="spec.json"):
        load_scene_bundle(tmp_path / "scene")
