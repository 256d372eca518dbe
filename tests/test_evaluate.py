from __future__ import annotations

import numpy as np
import pytest

from relfine.errors import FormatError, SceneSetMismatchError, UnknownCategoryError
from relfine.evaluate import (
    SATISFACTION_THRESHOLD,
    EvalReport,
    compare_runs,
    constraint_satisfaction,
    evaluate_scene,
    iou_per_class,
    macc,
    miou,
    satisfied_flags,
    triplet_satisfied,
    write_bucket_csv,
)
from relfine.grid import LabelMap
from relfine.logic import outside_band
from relfine.relations import Relation, SpatialTriplet, TripletSet
from relfine.scenes import Placement, Scene, SceneSpec, generate_scene


def labels(rows, n):
    return LabelMap(np.array(rows), n)


def report(scene, miou_value, categories=2, constraints=4):
    return EvalReport(
        scene=scene,
        miou=miou_value,
        macc=miou_value,
        constraint_satisfaction=1.0,
        per_class_iou={},
        category_count=categories,
        constraint_count=constraints,
    )


# --------------------------------------------------------------------------
# miou / macc


def test_miou_perfect_prediction():
    gt = labels([[0, 1], [2, 1]], 3)
    assert miou(gt, gt, 3) == 1.0


def test_miou_hand_count():
    # gt [A,A,B,B], pred [A,B,B,B]: IoU_A = 1/2, IoU_B = 2/3, mean = 7/12.
    gt = labels([[0, 0, 1, 1]], 2)
    pred = labels([[0, 1, 1, 1]], 2)
    per_class = iou_per_class(pred, gt, 2)
    assert per_class[0] == pytest.approx(1 / 2)
    assert per_class[1] == pytest.approx(2 / 3)
    assert miou(pred, gt, 2) == pytest.approx(7 / 12)


def test_miou_skips_empty_union():
    gt = labels([[0, 0, 1, 1]], 3)
    pred = labels([[0, 1, 1, 1]], 3)
    assert 2 not in iou_per_class(pred, gt, 3)
    assert miou(pred, gt, 3) == pytest.approx(7 / 12)


def test_macc_perfect_prediction():
    gt = labels([[0, 1, 2]], 3)
    assert macc(gt, gt, 3) == 1.0


def test_macc_hand_count():
    # Recall_A = 1/2, recall_B = 1 -> 0.75.
    gt = labels([[0, 0, 1, 1]], 2)
    pred = labels([[0, 1, 1, 1]], 2)
    assert macc(pred, gt, 2) == pytest.approx(0.75)


def test_macc_gt_all_one_class():
    gt = labels([[0, 0, 0]], 2)
    pred = labels([[0, 1, 0]], 2)
    assert macc(pred, gt, 2) == pytest.approx(2 / 3)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(8)
    gt_arr = rng.integers(0, 3, size=(5, 6))
    pred_arr = rng.integers(0, 3, size=(5, 6))
    perm = np.array([2, 0, 1])
    plain_miou = miou(labels(pred_arr, 3), labels(gt_arr, 3), 3)
    plain_macc = macc(labels(pred_arr, 3), labels(gt_arr, 3), 3)
    permuted_miou = miou(labels(perm[pred_arr], 3), labels(perm[gt_arr], 3), 3)
    permuted_macc = macc(labels(perm[pred_arr], 3), labels(perm[gt_arr], 3), 3)
    assert plain_miou == pytest.approx(permuted_miou)
    assert plain_macc == pytest.approx(permuted_macc)


def test_metrics_stay_in_unit_interval():
    rng = np.random.default_rng(14)
    for _ in range(20):
        gt = labels(rng.integers(0, 4, size=(4, 4)), 4)
        pred = labels(rng.integers(0, 4, size=(4, 4)), 4)
        assert 0.0 <= miou(pred, gt, 4) <= 1.0
        assert 0.0 <= macc(pred, gt, 4) <= 1.0


# --------------------------------------------------------------------------
# constraint satisfaction


ROSTER = ("background", "A", "B")


def tset(*triplets):
    return TripletSet(tuple(triplets), ROSTER)


def test_satisfaction_empty_set_is_one():
    pred = labels([[0, 1]], 3)
    assert constraint_satisfaction(pred, ROSTER, TripletSet((), ROSTER)) == 1.0


def test_satisfaction_on_ground_truth_scene():
    spec = SceneSpec(
        height=8,
        width=8,
        placements=(Placement("a", 1, 1, 4, 4), Placement("b", 5, 5, 7, 7)),
    )
    scene = generate_scene(spec)
    value = constraint_satisfaction(scene.gt_labels, scene.categories, scene.gt_triplets)
    assert value == 1.0


def test_satisfaction_wrong_side_is_zero():
    pred = labels([[1, 1, 2, 2]], 3)  # A occupies left, B right
    wrong = tset(SpatialTriplet("A", Relation.RIGHT, "B"))
    assert constraint_satisfaction(pred, ROSTER, wrong) == 0.0


def test_satisfaction_vacuous_for_absent_subject():
    pred = labels([[0, 0, 2, 2]], 3)
    assert triplet_satisfied(pred, ROSTER, SpatialTriplet("A", Relation.LEFT, "B"))


def test_satisfaction_unknown_category_raises():
    pred = labels([[0, 1]], 3)
    triplets = TripletSet((SpatialTriplet("A", Relation.LEFT, "ghost"),), ("A", "ghost"))
    with pytest.raises(UnknownCategoryError):
        constraint_satisfaction(pred, ROSTER, triplets)


def loop_satisfied(pred, roster, triplet):
    """One triplet on the H x W grid: the object's one-hot mean with no
    epsilon, outside_band's tie rule, and inside / pixels >= the threshold."""
    subject = pred.labels == roster.index(triplet.subject)
    obj = pred.labels == roster.index(triplet.object)
    pixels = int(subject.sum())
    if pixels == 0:
        return True
    row = triplet.relation.axis == "row"
    coords = np.indices(pred.shape)[0 if row else 1]
    mass = int(obj.sum())
    mean = int(coords[obj].sum()) / mass if mass else 0.0
    outside = outside_band(pred.shape[0 if row else 1], triplet.relation, mean)[coords] > 0
    inside = int((subject & ~outside).sum())
    return inside / pixels >= SATISFACTION_THRESHOLD


def test_satisfied_flags_equal_per_triplet_loop():
    # A's 20 pixels lie left of B's column until some move right of it. With
    # one moved the share is exactly 0.95, satisfied by the >= tie; with two
    # it is 0.9.
    triplet = SpatialTriplet("A", Relation.LEFT, "B")
    for moved, expected in ((1, True), (2, False)):
        arr = np.array([[1, 1, 1, 1, 2, 0]] * 5)
        arr[:moved, 0], arr[:moved, 5] = 0, 1
        pred = labels(arr, 3)
        assert satisfied_flags(pred, ROSTER, [triplet]).tolist() == [expected]
        assert loop_satisfied(pred, ROSTER, triplet) is expected

    rng = np.random.default_rng(31)
    for _ in range(100):
        maps = int(rng.integers(2, 7))
        height, width = (int(v) for v in rng.integers(1, 12, size=2))
        if rng.random() < 0.4:
            # 2x2 blocks put many object means on an exact row or column: ties.
            blocks = rng.integers(0, maps, size=((height + 1) // 2, (width + 1) // 2))
            arr = blocks.repeat(2, axis=0).repeat(2, axis=1)[:height, :width]
        else:
            arr = rng.integers(0, maps, size=(height, width))
        if rng.random() < 0.3:
            arr[arr == int(rng.integers(1, maps))] = 0  # an absent subject and object
        pred = labels(arr, maps)
        # A roster may name more categories than the label map holds.
        roster = tuple(f"k{c}" for c in range(maps + int(rng.integers(0, 2))))
        keep = 0.0 if rng.random() < 0.1 else 0.5  # an empty triplet list now and then
        triplets = [
            SpatialTriplet(s, relation, o)
            for s in roster
            for o in roster
            if s != o
            for relation in Relation
            if rng.random() < keep
        ]
        flags = satisfied_flags(pred, roster, triplets)
        assert flags.dtype == bool and flags.shape == (len(triplets),)
        expected = [loop_satisfied(pred, roster, t) for t in triplets]
        assert flags.tolist() == expected
        assert [triplet_satisfied(pred, roster, t) for t in triplets] == expected
        satisfaction = constraint_satisfaction(pred, roster, TripletSet(tuple(triplets), roster))
        assert satisfaction == (sum(expected) / len(expected) if expected else 1.0)


def test_satisfaction_threshold_is_not_a_parameter():
    pred = labels([[1, 2]], 3)
    triplet = SpatialTriplet("A", Relation.LEFT, "B")
    scene = generate_scene(SceneSpec(height=8, width=8, placements=(Placement("a", 1, 1, 4, 4),)))
    calls = (
        lambda: satisfied_flags(pred, ROSTER, [triplet], threshold=0.5),
        lambda: triplet_satisfied(pred, ROSTER, triplet, threshold=0.5),
        lambda: constraint_satisfaction(pred, ROSTER, tset(triplet), threshold=0.5),
        lambda: evaluate_scene(scene.gt_labels, scene, threshold=0.5),
    )
    for call in calls:
        with pytest.raises(TypeError, match="threshold"):
            call()


# --------------------------------------------------------------------------
# compare_runs


def test_compare_identical_runs_all_zero():
    base = [report("s0", 0.5), report("s1", 0.7, categories=3)]
    deltas = compare_runs(base, base, "categories")
    assert all(d.delta == 0.0 for d in deltas)


def test_compare_two_scene_hand_deltas():
    base = [report("s0", 0.50, categories=2), report("s1", 0.40, categories=3)]
    refined = [report("s0", 0.60, categories=2), report("s1", 0.45, categories=3)]
    deltas = {d.bucket: d for d in compare_runs(base, refined, "categories")}
    assert deltas["2"].delta == pytest.approx(0.10)
    assert deltas["3"].delta == pytest.approx(0.05)
    assert deltas["2"].scenes == 1


def test_compare_buckets_without_scenes_are_absent():
    base = [report("s0", 0.5, categories=2)]
    refined = [report("s0", 0.6, categories=2)]
    buckets = [d.bucket for d in compare_runs(base, refined, "categories")]
    assert buckets == ["2"]


def test_compare_mismatched_scene_sets():
    base = [report("s0", 0.5)]
    refined = [report("s1", 0.5)]
    with pytest.raises(SceneSetMismatchError):
        compare_runs(base, refined, "categories")


@pytest.mark.parametrize("group_by", ["ratio", "constraints"])
def test_compare_groups_by_category_count_only(group_by):
    base, refined = [report("s0", 0.5)], [report("s0", 0.6)]
    with pytest.raises(FormatError, match=f"unknown grouping '{group_by}'"):
        compare_runs(base, refined, group_by)


def test_bucket_csv(tmp_path):
    base = [report("s0", 0.5), report("s1", 0.25)]
    refined = [report("s0", 0.75), report("s1", 0.5)]
    path = tmp_path / "buckets.csv"
    write_bucket_csv(path, compare_runs(base, refined, "categories"))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bucket,scenes,baseline_miou,refined_miou,delta"
    assert lines[1] == "2,2,0.375,0.625,0.25"


# --------------------------------------------------------------------------
# evaluate_scene


def test_evaluate_scene_on_ground_truth():
    spec = SceneSpec(
        height=8,
        width=8,
        placements=(Placement("a", 1, 1, 4, 4), Placement("b", 5, 5, 7, 7)),
    )
    scene = generate_scene(spec)
    result = evaluate_scene(scene.gt_labels, scene, name="toy")
    assert result.miou == 1.0
    assert result.macc == 1.0
    assert result.constraint_satisfaction == 1.0
    assert result.category_count == 2
    assert result.constraint_count == len(scene.gt_triplets)
    assert result.scene == "toy"


# --------------------------------------------------------------------------
# confusion-matrix metrics against per-class loops


def loop_ious(pred, gt, n):
    out = {}
    for c in range(n):
        in_pred, in_gt = pred.labels == c, gt.labels == c
        union = int((in_pred | in_gt).sum())
        if union:
            out[c] = float((in_pred & in_gt).sum()) / union
    return out


def loop_macc(pred, gt, n):
    recalls = []
    for c in range(n):
        in_gt = gt.labels == c
        support = int(in_gt.sum())
        if support:
            recalls.append(float(((pred.labels == c) & in_gt).sum()) / support)
    return sum(recalls) / len(recalls) if recalls else 0.0


def test_metrics_bit_equal_to_per_class_loops():
    rng = np.random.default_rng(23)
    for case in range(200):
        maps = int(rng.integers(1, 7))  # C = 1 included
        height, width = (int(v) for v in rng.integers(1, 9, size=2))
        gt_arr = rng.integers(0, maps, size=(height, width))
        pred_arr = rng.integers(0, maps, size=(height, width))
        if maps > 1 and case % 2:
            # Take one class out of both maps.
            absent = int(rng.integers(0, maps))
            gt_arr[gt_arr == absent] = (absent + 1) % maps
            pred_arr[pred_arr == absent] = (absent + 1) % maps
        gt, pred = labels(gt_arr, maps), labels(pred_arr, maps)
        # Fewer, as many, or more categories than the maps declare.
        n = int(rng.integers(1, maps + 2))
        ious = loop_ious(pred, gt, n)
        assert iou_per_class(pred, gt, n) == ious
        assert miou(pred, gt, n) == (sum(ious.values()) / len(ious) if ious else 0.0)
        assert macc(pred, gt, n) == loop_macc(pred, gt, n)

        roster = ("background",) + tuple(f"k{c}" for c in range(1, maps))
        scene = Scene(
            spec=None,
            gt_labels=gt,
            categories=roster,
            init_probs={},
            gt_triplets=TripletSet((), roster),
        )
        result = evaluate_scene(pred, scene)
        scene_ious = loop_ious(pred, gt, maps)
        assert result.category_count == len({int(v) for v in np.unique(gt_arr)} - {0})
        assert result.miou == sum(scene_ious.values()) / len(scene_ious)
        assert result.macc == loop_macc(pred, gt, maps)
        assert result.per_class_iou == {roster[c]: v for c, v in scene_ious.items()}
