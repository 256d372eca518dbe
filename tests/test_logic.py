from __future__ import annotations

import math

import numpy as np
import pytest

from relfine.errors import FormatError, UnknownCategoryError
from relfine.grid import ProbabilityMap, make_probability_map
from relfine.logic import (
    LOG_CLAMP,
    compile_constraints,
    compiled_spatial_loss,
    encode_triplets,
    fuzzy_implication,
    logit_gradient_from_terms,
    spatial_loss,
)
from relfine.relations import Relation, SpatialTriplet, TripletSet
from relfine.state import SegmentationState
from reference_kernels import PseudoMask, constraint_loss, constraint_weight, prob_map, pseudo_mask

EPSILON_EXACT = 1e-300  # small enough to act as zero


def mask_of(values, relation=Relation.RIGHT, mean=0.0, anchor="x"):
    return PseudoMask(anchor=anchor, relation=relation, mask=np.asarray(values, dtype=float), mean_coord=mean)


# --------------------------------------------------------------------------
# pseudo_mask


def test_pseudo_mask_right_hand_example():
    anchor = make_probability_map(1, 4, [1, 1, 0, 0])
    pm = pseudo_mask(anchor, Relation.RIGHT, EPSILON_EXACT)
    assert pm.mean_coord == pytest.approx(0.5)
    assert pm.mask.tolist() == [[0.0, 1.0, 1.0, 1.0]]


def test_pseudo_mask_left_mirror():
    anchor = make_probability_map(1, 4, [1, 1, 0, 0])
    pm = pseudo_mask(anchor, Relation.LEFT, EPSILON_EXACT)
    assert pm.mask.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_pseudo_mask_uniform_anchor_splits_at_center():
    anchor = make_probability_map(3, 5, [1.0] * 15)
    pm = pseudo_mask(anchor, Relation.RIGHT, EPSILON_EXACT)
    expected = [[1.0 if j >= 2 else 0.0 for j in range(5)] for _ in range(3)]
    assert pm.mask.tolist() == expected


def test_pseudo_mask_vertical_relations():
    anchor = make_probability_map(4, 1, [1, 0, 0, 0])
    below = pseudo_mask(anchor, Relation.BELOW, EPSILON_EXACT)
    above = pseudo_mask(anchor, Relation.ABOVE, EPSILON_EXACT)
    assert below.mask.tolist() == [[1.0], [1.0], [1.0], [1.0]]  # rows >= 0
    assert above.mask.tolist() == [[1.0], [0.0], [0.0], [0.0]]  # rows <= 0


def test_pseudo_mask_boundary_pixel_in_both_sides():
    # Mean lands exactly on column 1: that column belongs to left and right.
    anchor = make_probability_map(1, 3, [0, 1, 0])
    right = pseudo_mask(anchor, Relation.RIGHT, EPSILON_EXACT)
    left = pseudo_mask(anchor, Relation.LEFT, EPSILON_EXACT)
    assert right.mask[0, 1] == 1.0 and left.mask[0, 1] == 1.0
    assert (right.mask + left.mask >= 1.0).all()


def test_pseudo_mask_empty_anchor():
    anchor = make_probability_map(2, 3, [0.0] * 6)
    pm = pseudo_mask(anchor, Relation.RIGHT, EPSILON_EXACT)
    assert pm.mean_coord == 0.0
    assert pm.mask.all()


# --------------------------------------------------------------------------
# fuzzy_implication


def test_fuzzy_implication_endpoints():
    assert fuzzy_implication(1.0, 0.0) == 0.0
    for q in (0.0, 0.5, 1.0):
        assert fuzzy_implication(0.0, q) == 1.0


def test_fuzzy_implication_half_half():
    assert fuzzy_implication(0.5, 0.5) == pytest.approx(0.75)


def test_fuzzy_implication_range_and_monotonicity():
    grid = np.linspace(0, 1, 21)
    for p in grid:
        values = fuzzy_implication(p, grid)
        assert ((0.0 <= values) & (values <= 1.0)).all()
        assert (np.diff(values) >= 0).all()  # increasing in q
    for q in grid:
        values = fuzzy_implication(grid, q)
        assert (np.diff(values) <= 0).all()  # decreasing in p


# --------------------------------------------------------------------------
# constraint_loss


def test_constraint_loss_zero_subject():
    subject = make_probability_map(2, 2, [0.0] * 4)
    loss, grad = constraint_loss(subject, mask_of([[0, 0], [0, 0]]))
    assert loss == 0.0
    assert grad.tolist() == [[1.0, 1.0], [1.0, 1.0]]  # slope of -log(1 - M) at M=0


def test_constraint_loss_hand_example():
    subject = make_probability_map(1, 2, [0.5, 0.5])
    loss, grad = constraint_loss(subject, mask_of([[0, 1]]))
    assert loss == pytest.approx(-math.log(0.5))
    assert grad.tolist() == [[2.0, 0.0]]


def test_constraint_loss_clamp():
    subject = make_probability_map(1, 1, [1.0])
    loss, grad = constraint_loss(subject, mask_of([[0]]))
    assert loss == pytest.approx(-math.log(LOG_CLAMP))
    assert loss == pytest.approx(16.118, abs=5e-3)
    assert grad[0, 0] == 0.0  # clamped pixel carries no gradient


def test_constraint_loss_shape_mismatch():
    subject = make_probability_map(1, 2, [0.5, 0.5])
    with pytest.raises(FormatError, match="shape"):
        constraint_loss(subject, mask_of([[0, 1, 1]]))


def test_constraint_loss_gradient_matches_finite_differences():
    # Independent check of the closed-form map gradient.
    rng = np.random.default_rng(2)
    values = rng.random((3, 4)) * 0.9
    mask = (rng.random((3, 4)) > 0.5).astype(float)
    pm = mask_of(mask)
    _, grad = constraint_loss(ProbabilityMap(values), pm)
    h = 1e-6
    for i in range(3):
        for j in range(4):
            up, down = values.copy(), values.copy()
            up[i, j] += h
            down[i, j] -= h
            fd = (
                constraint_loss(ProbabilityMap(up), pm)[0]
                - constraint_loss(ProbabilityMap(down), pm)[0]
            ) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_constraint_loss_zero_iff_no_mass_outside():
    subject = make_probability_map(1, 3, [0.0, 0.7, 0.3])
    loss, _ = constraint_loss(subject, mask_of([[0, 1, 1]]))
    assert loss == 0.0
    loss, _ = constraint_loss(subject, mask_of([[1, 0, 1]]))
    assert loss > 0.0


def test_constraint_loss_monotone_outside_constant_inside():
    pm = mask_of([[1, 0]])  # column 0 allowed, column 1 forbidden
    base, _ = constraint_loss(make_probability_map(1, 2, [0.3, 0.4]), pm)
    for bump in (0.1, 0.3, 0.5):
        raised, _ = constraint_loss(make_probability_map(1, 2, [0.3, 0.4 + bump]), pm)
        assert raised > base
    inside, _ = constraint_loss(make_probability_map(1, 2, [0.9, 0.4]), pm)
    assert inside == base  # allowed-region mass never charges


# --------------------------------------------------------------------------
# constraint_weight


def test_constraint_weight_confident_anchor():
    # Hand formula: sigma(10*(1-0.7)) = 1/(1+e^-3).
    sigma_one = 1.0 / (1.0 + math.exp(-3.0))
    anchor = make_probability_map(2, 2, [1.0] * 4)
    expected = 4 * sigma_one / (4 * sigma_one + 1e-6)
    assert constraint_weight(anchor) == pytest.approx(expected, rel=1e-12)
    assert constraint_weight(anchor) == pytest.approx(1.0, abs=1e-6)


def test_constraint_weight_zero_anchor():
    assert constraint_weight(make_probability_map(2, 2, [0.0] * 4)) == 0.0


def test_constraint_weight_hand_example():
    sigma_one = 1.0 / (1.0 + math.exp(-3.0))
    sigma_zero = 1.0 / (1.0 + math.exp(7.0))
    expected = sigma_one / (sigma_one + sigma_zero + 1e-6)
    weight = constraint_weight(make_probability_map(1, 2, [1.0, 0.0]))
    assert weight == pytest.approx(expected, rel=1e-12)
    assert weight == pytest.approx(0.99904, abs=5e-6)


def test_constraint_weight_constant_maps_ignore_grid_size():
    # Invariance holds up to the epsilon guard, whose share shrinks with the
    # pixel count; 1e-4 covers the worst case here (n=2, value 0.2).
    for value in (0.2, 0.5, 0.9):
        small = constraint_weight(make_probability_map(1, 2, [value] * 2))
        large = constraint_weight(make_probability_map(8, 8, [value] * 64))
        assert small == pytest.approx(large, abs=1e-4)


def test_compiled_weight_gate_neither_overflows_nor_goes_invalid_at_0_and_1():
    # On probabilities in [0, 1] the gate's exponent lies in [-3, 7].
    logits = np.array([[[0.0, -1e3]], [[-1e3, 0.0]]])
    state = SegmentationState.from_logits(("a", "b"), logits)
    assert state.probs.tolist() == [[[1.0, 0.0]], [[0.0, 1.0]]]
    triplets = [SpatialTriplet("a", Relation.LEFT, "b"), SpatialTriplet("b", Relation.RIGHT, "a")]
    with np.errstate(over="raise", invalid="raise"):
        compiled = compile_constraints(state, *encode_triplets(state.categories, triplets))
    assert compiled.weights.tolist() == [constraint_weight(prob_map(state, name)) for name in ("b", "a")]


# --------------------------------------------------------------------------
# spatial_loss


def _two_category_state(cat_values, person_values):
    maps = np.stack([np.asarray(cat_values, float), np.asarray(person_values, float)])
    logits = np.log(np.clip(maps, 1e-7, 1.0))
    return SegmentationState.from_logits(("cat", "person"), logits)


def test_spatial_loss_empty_set():
    state = _two_category_state([[0.5, 0.5]], [[0.5, 0.5]])
    total, terms = spatial_loss(state, TripletSet((), ("cat", "person")))
    assert total == 0.0 and len(terms) == 0 and terms.losses.shape == (0,)


def test_spatial_loss_zero_subject():
    # All-zero subject map is unreachable through softmax; verify via the
    # constraint term directly on the compiled mask instead.
    state = _two_category_state([[0.5, 0.5, 0.0, 0.0]], [[0.5, 0.5, 1.0, 1.0]])
    triplets = TripletSet((SpatialTriplet("cat", Relation.RIGHT, "person"),), ("cat", "person"))
    compiled = compile_constraints(state, *encode_triplets(state.categories, triplets))
    zeros = make_probability_map(1, 4, [0.0] * 4)
    loss, _ = constraint_loss(zeros, mask_of([1.0 - compiled.cols[compiled.keys[0]]]))
    assert loss == 0.0


def test_spatial_loss_composition_hand_example():
    # Subject mass 0.5 at one pixel outside the region; weight from the
    # object's map computed by the weight oracle independently.
    state = _two_category_state([[0.5, 0.5, 0.0, 0.0]], [[0.5, 0.5, 1.0, 1.0]])
    triplets = TripletSet((SpatialTriplet("cat", Relation.RIGHT, "person"),), ("cat", "person"))
    total, terms = spatial_loss(state, triplets)
    person = prob_map(state, "person")
    expected_weight = constraint_weight(person)
    pm = pseudo_mask(person, Relation.RIGHT)
    expected_loss, _ = constraint_loss(prob_map(state, "cat"), pm)
    assert len(terms) == 1
    assert terms.weights[0] == pytest.approx(expected_weight)
    assert terms.losses[0] == pytest.approx(expected_loss)
    assert total == pytest.approx(expected_weight * expected_loss)


def test_spatial_loss_unknown_category():
    state = _two_category_state([[1.0]], [[0.0]])
    triplets = [SpatialTriplet("dog", Relation.LEFT, "cat")]
    with pytest.raises(UnknownCategoryError):
        spatial_loss(state, triplets)


def test_detachment_small_anchor_perturbation_leaves_loss_unchanged():
    # Perturb the anchor map too little to move any pixel across the mean:
    # the recomputed mask is identical, so the loss is exactly unchanged.
    state = _two_category_state(
        [[0.3, 0.4, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25]],
        [[0.7, 0.6, 0.8, 0.9], [0.75, 0.75, 0.75, 0.75]],
    )
    triplets = TripletSet((SpatialTriplet("cat", Relation.RIGHT, "person"),), ("cat", "person"))
    total, _ = spatial_loss(state, triplets)

    bumped = state.logits.copy()
    bumped[1] += 1e-9  # anchor logits only
    # Renormalize subject row so the subject map stays bit-identical.
    nudged = SegmentationState.from_logits(state.categories, bumped)
    pm0 = pseudo_mask(prob_map(state, "person"), Relation.RIGHT)
    pm1 = pseudo_mask(prob_map(nudged, "person"), Relation.RIGHT)
    assert pm0.mask.tolist() == pm1.mask.tolist()


# --------------------------------------------------------------------------
# logit gradient


def _random_state(rng, categories, height, width):
    logits = rng.normal(0.0, 1.0, (len(categories), height, width))
    return SegmentationState.from_logits(tuple(categories), logits)


def test_logit_gradient_no_constraints_is_zero():
    state = _two_category_state([[0.5, 0.5]], [[0.5, 0.5]])
    _, terms = spatial_loss(state, TripletSet((), ("cat", "person")))
    grad = logit_gradient_from_terms(state, terms)
    assert not grad.any()


def test_a_repeated_triplet_counts_twice():
    # A plain list may repeat a triplet. Each copy is a term of its own, so
    # its weight enters the gradient twice rather than once.
    state = _random_state(np.random.default_rng(5), ("a", "b", "c"), 5, 6)
    t = SpatialTriplet("a", Relation.RIGHT, "b")
    once_total, once = spatial_loss(state, [t])
    twice_total, twice = spatial_loss(state, [t, t])
    assert once.losses[0] > 0.0
    assert twice.losses.tolist() == [once.losses[0]] * 2
    assert twice_total == 2 * once_total
    assert np.array_equal(logit_gradient_from_terms(state, twice), 2 * logit_gradient_from_terms(state, once))


def test_logit_gradient_single_pixel_matches_finite_differences():
    # One pixel, two categories: the compiled mask at a single pixel is 1
    # (coordinate 0 >= mean), which zeroes the loss; use a vertical relation
    # with a handcrafted mask instead via a 1x2 grid.
    state = _two_category_state([[0.6, 0.4]], [[0.4, 0.6]])
    triplets = TripletSet((SpatialTriplet("cat", Relation.RIGHT, "person"),), ("cat", "person"))
    compiled = compile_constraints(state, *encode_triplets(state.categories, triplets))
    analytic = logit_gradient_from_terms(state, compiled_spatial_loss(state, compiled)[1])

    h = 1e-4
    fd = np.zeros_like(state.logits)
    for c in range(2):
        for j in range(2):
            for sign in (1, -1):
                z = state.logits.copy()
                z[c, 0, j] += sign * h
                probe = state.with_logits(z)
                loss, _ = compiled_spatial_loss(probe, compiled)
                fd[c, 0, j] += sign * loss
    fd /= 2 * h
    assert np.abs(analytic - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)


def test_logit_gradient_random_instances_match_finite_differences():
    rng = np.random.default_rng(31)
    relations = list(Relation)
    for _ in range(10):
        categories = tuple(f"c{i}" for i in range(rng.integers(2, 5)))
        height, width = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        state = _random_state(rng, categories, height, width)
        keys = set()
        while len(keys) < 2:
            s, o = rng.choice(len(categories), size=2, replace=False)
            keys.add((categories[s], relations[rng.integers(0, 4)], categories[o]))
        triplets = TripletSet(tuple(SpatialTriplet(*k) for k in sorted(keys)), categories)
        compiled = compile_constraints(state, *encode_triplets(state.categories, triplets))
        analytic = logit_gradient_from_terms(state, compiled_spatial_loss(state, compiled)[1])

        h = 1e-4
        fd = np.zeros_like(state.logits)
        flat = fd.reshape(-1)
        base = state.logits.reshape(-1).copy()
        for i in range(base.size):
            for sign in (1, -1):
                z = base.copy()
                z[i] += sign * h
                probe = state.with_logits(z.reshape(state.logits.shape))
                loss, _ = compiled_spatial_loss(probe, compiled)
                flat[i] += sign * loss
        fd /= 2 * h
        scale = max(float(np.abs(fd).max()), 1e-12)
        assert float(np.abs(analytic - fd).max()) / scale < 1e-4


def test_logit_gradient_orthogonal_to_ones_at_uniform_probs():
    # Softmax Jacobian rows sum to zero, so the per-pixel gradient sums to
    # zero across categories (true at any probs; uniform is the stated case).
    state = SegmentationState.from_logits(("a", "b", "c"), np.zeros((3, 2, 2)))
    triplets = TripletSet(
        (SpatialTriplet("a", Relation.RIGHT, "b"), SpatialTriplet("b", Relation.ABOVE, "c")),
        ("a", "b", "c"),
    )
    grad = logit_gradient_from_terms(state, spatial_loss(state, triplets)[1])
    assert np.abs(grad.sum(axis=0)).max() < 1e-12


def test_total_invariant_to_per_pixel_logit_shift():
    rng = np.random.default_rng(37)
    state = _random_state(rng, ("a", "b", "c"), 4, 4)
    triplets = TripletSet(
        (SpatialTriplet("a", Relation.LEFT, "b"), SpatialTriplet("c", Relation.BELOW, "a")),
        ("a", "b", "c"),
    )
    total, _ = spatial_loss(state, triplets)
    shift = rng.normal(0.0, 3.0, (1, 4, 4))
    shifted_total, _ = spatial_loss(state.with_logits(state.logits + shift), triplets)
    assert shifted_total == pytest.approx(total, abs=1e-9)


# --------------------------------------------------------------------------
# separable kernel against the per-triplet reference


def _dense_reference(state, triplets):
    """Total and logit gradient built term by term from H x W pseudo masks."""
    total = 0.0
    g = np.zeros_like(state.probs)
    for t in triplets:
        anchor = prob_map(state, t.object)
        weight = constraint_weight(anchor)
        loss, grad = constraint_loss(prob_map(state, t.subject), pseudo_mask(anchor, t.relation))
        total += weight * loss
        g[state.categories.index(t.subject)] += weight * grad
    dot = (g * state.probs).sum(axis=0, keepdims=True)
    return total, state.probs * (g - dot)


def test_separable_kernel_matches_dense_reference():
    rng = np.random.default_rng(41)
    relations = list(Relation)
    for instance in range(300):
        n = int(rng.integers(2, 6))
        categories = tuple(f"c{i}" for i in range(n))
        height, width = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        logits = rng.normal(0.0, 2.0, (n, height, width))
        # Push some pixels to probability ~1 so the log clamp saturates there.
        saturated = rng.random((height, width)) < 0.2
        logits[rng.integers(0, n), saturated] += 40.0
        state = SegmentationState.from_logits(categories, logits)
        keys = {
            (categories[s], relations[r], categories[o])
            for s, r, o in zip(rng.integers(0, n, 8), rng.integers(0, 4, 8), rng.integers(0, n, 8))
            if s != o
        }
        triplets = [SpatialTriplet(*k) for k in sorted(keys)]

        compiled = compile_constraints(state, *encode_triplets(state.categories, triplets))
        total, terms = compiled_spatial_loss(state, compiled)
        for i, t in enumerate(triplets):
            anchor = prob_map(state, t.object)
            pm = pseudo_mask(anchor, t.relation)
            rows = t.relation.axis == "row"
            band = pm.mask[:, 0] if rows else pm.mask[0, :]
            key = compiled.keys[i]
            assert np.array_equal(compiled.rows[key] if rows else compiled.cols[key], 1.0 - band)
            assert not (compiled.cols[key] if rows else compiled.rows[key]).any()
            assert compiled.weights[i] == constraint_weight(anchor)
            ref_loss, _ = constraint_loss(prob_map(state, t.subject), pm)
            assert abs(terms.losses[i] - ref_loss) <= 1e-12 * abs(ref_loss)

        grad = logit_gradient_from_terms(state, terms)
        ref_total, ref_grad = _dense_reference(state, triplets)
        assert abs(total - ref_total) <= 1e-12 * abs(ref_total)
        scale = max(float(np.abs(ref_grad).max()), 1e-300)
        assert float(np.abs(grad - ref_grad).max()) <= 1e-12 * scale

