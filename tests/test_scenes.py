from __future__ import annotations

import hashlib

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


def _stack(scene) -> np.ndarray:
    return np.stack([scene.init_probs[c].values for c in scene.categories])


def test_pixels_whose_maps_all_clip_to_zero_are_uniform():
    spec = random_grid_spec(5, n_categories=4, noise_sigma=3.0, confusion_strength=None)
    scene = generate_scene(spec)
    count = len(scene.categories)
    # The maps before clipping: one-hot ground truth plus the seeded noise.
    one_hot = scene.gt_labels.labels == np.arange(count)[:, None, None]
    raw = one_hot + np.random.default_rng(spec.seed).normal(0.0, spec.noise_sigma, one_hot.shape)
    fallback = (raw <= 0.0).all(axis=0)
    assert fallback.sum() > 0
    stack = _stack(scene)
    assert np.all(stack[:, fallback] == 1.0 / count)
    assert np.abs(stack.sum(axis=0) - 1.0).max() < 1e-12


# sha256 of the stacked init_probs, recorded before generate_scene built its
# maps in place: with and without confusion, at noise sigma 0, 0.15 and 3.0.
_INIT_PROBS_SHA256 = [
    ((1, 2, 0.0, 0.5), "d96b22de2398fdbe288a851f380bb88673ffd323572eea9433bf20bf3bc63544"),
    ((2, 5, 0.0, None), "9a4e03033b0ba62165fb2557506f021fa69905bfd38e83a6473a6cb3c6dbf31d"),
    ((3, 3, 0.15, 0.7), "bdc55531748c95a2f8e9b5d92bf60166548a2e6312ff1c98a948b891027da907"),
    ((4, 8, 0.15, None), "47f7b6aeee1fb3fde65f681b25e1623d800ee04c2fe59134ac5b3404ff67902c"),
    ((5, 4, 3.0, 0.5), "4110f767c862b699d169d7c5f63525ed0b1dd590afada6709445abd982f1ca0e"),
    ((6, 1, 3.0, None), "d303171a72b5c7bcddbdc6fa8c979b029658bd770dcad7013ef3521137712ae7"),
]


@pytest.mark.parametrize("args, digest", _INIT_PROBS_SHA256, ids=[f"seed{args[0]}" for args, _ in _INIT_PROBS_SHA256])
def test_init_probs_are_pinned_by_sha256(args, digest):
    seed, n_categories, sigma, strength = args
    spec = random_grid_spec(seed, n_categories=n_categories, noise_sigma=sigma, confusion_strength=strength)
    assert hashlib.sha256(_stack(generate_scene(spec)).tobytes()).hexdigest() == digest


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
