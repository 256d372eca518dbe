from __future__ import annotations

import importlib
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from relfine.errors import FormatError
from relfine.grid import make_probability_map
from relfine.logic import compile_constraints, encode_triplets, spatial_loss
from relfine.refine import (
    ADAM_EPS,
    ADAM_LEARNING_RATE,
    STEPS,
    AdamState,
    RefineConfig,
    RefineTrace,
    adam_step,
    fidelity_loss,
    objective,
    refine,
)
from relfine.relations import TripletSet
from relfine.scenes import Placement, SceneSpec, generate_scene, random_grid_spec
from relfine.state import SegmentationState, argmax_labels, init_state

# The regression-pinned fixture scene: everything downstream of this seed is
# frozen, so golden values below change only when the algorithm does.
FIXTURE_SEED = 42


def fixture_scene():
    return generate_scene(random_grid_spec(FIXTURE_SEED, n_categories=2, noise_sigma=0.15, confusion_strength=0.5))


# --------------------------------------------------------------------------
# state


def test_init_state_round_trips_normalized_maps():
    maps = {
        "a": make_probability_map(1, 2, [0.3, 0.8]),
        "b": make_probability_map(1, 2, [0.7, 0.2]),
    }
    state = init_state(maps)
    assert state.probs[0, 0].tolist() == pytest.approx([0.3, 0.8], abs=1e-6)
    assert state.probs[1, 0].tolist() == pytest.approx([0.7, 0.2], abs=1e-6)


def test_init_state_symmetric_pixel():
    maps = {
        "a": make_probability_map(1, 1, [0.5]),
        "b": make_probability_map(1, 1, [0.5]),
    }
    state = init_state(maps)
    assert state.probs[:, 0, 0].tolist() == pytest.approx([0.5, 0.5])


def test_init_state_rejects_mismatched_shapes():
    maps = {
        "a": make_probability_map(1, 2, [0.5, 0.5]),
        "b": make_probability_map(2, 1, [0.5, 0.5]),
    }
    with pytest.raises(FormatError, match="disagree on shape"):
        init_state(maps)


def test_init_state_clamps_zeros():
    maps = {
        "a": make_probability_map(1, 1, [0.0]),
        "b": make_probability_map(1, 1, [1.0]),
    }
    state = init_state(maps)
    assert state.probs[0, 0, 0] > 0.0
    assert state.probs.sum(axis=0) == pytest.approx(1.0)


def test_argmax_labels_examples_and_tie_break():
    state = init_state({
        "a": make_probability_map(1, 1, [0.8]),
        "b": make_probability_map(1, 1, [0.2]),
    })
    assert argmax_labels(state).labels.tolist() == [[0]]
    state = init_state({
        "a": make_probability_map(1, 1, [0.5]),
        "b": make_probability_map(1, 1, [0.5]),
    })
    assert argmax_labels(state).labels.tolist() == [[0]]  # tie -> lowest index
    state = init_state({
        "a": make_probability_map(1, 1, [0.1]),
        "b": make_probability_map(1, 1, [0.3]),
        "c": make_probability_map(1, 1, [0.6]),
    })
    assert argmax_labels(state).labels.tolist() == [[2]]


def test_argmax_invariant_to_positive_scaling():
    rng = np.random.default_rng(4)
    base = rng.random((3, 4, 5)) * 0.85 + 0.05
    scale = rng.random((4, 5)) * 0.9 + 0.1
    plain = init_state({f"c{i}": make_probability_map(4, 5, base[i].ravel()) for i in range(3)})
    scaled_values = base * scale
    scaled = init_state({f"c{i}": make_probability_map(4, 5, scaled_values[i].ravel()) for i in range(3)})
    assert argmax_labels(plain).labels.tolist() == argmax_labels(scaled).labels.tolist()


# --------------------------------------------------------------------------
# fidelity


def test_fidelity_at_target_equals_entropy():
    maps = {
        "a": make_probability_map(1, 2, [0.3, 0.5]),
        "b": make_probability_map(1, 2, [0.7, 0.5]),
    }
    state = init_state(maps)
    loss, grad = fidelity_loss(state, state.probs)
    entropy = -(state.probs * np.log(state.probs)).sum()
    assert loss == pytest.approx(entropy, rel=1e-12)
    assert np.abs(grad).max() < 1e-12


def test_fidelity_hand_example():
    state = init_state({
        "a": make_probability_map(1, 1, [0.9]),
        "b": make_probability_map(1, 1, [0.1]),
    })
    targets = np.array([[[0.5]], [[0.5]]])
    loss, grad = fidelity_loss(state, targets)
    assert loss == pytest.approx(-0.5 * math.log(0.9) - 0.5 * math.log(0.1), rel=1e-6)
    assert loss == pytest.approx(1.2040, abs=2e-4)
    assert grad[:, 0, 0].tolist() == pytest.approx([0.4, -0.4], abs=1e-6)


# --------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_keeps_params():
    params = np.array([1.0, -2.0, 3.0])
    moments = AdamState.zeros_like(params)
    for t in range(1, 6):
        params, moments = adam_step(params, np.zeros(3), moments, t)
    assert params.tolist() == [1.0, -2.0, 3.0]


def test_adam_first_step_is_learning_rate_sized():
    # Hand evaluation of the bias-corrected first step: m_hat = g,
    # v_hat = g^2, update = -lr * g / (|g| + eps) ~ -lr * sign(g).
    for g in (0.5, -3.0, 1e-3):
        params = np.array([0.0])
        updated, _ = adam_step(params, np.array([g]), AdamState.zeros_like(params), 1)
        expected = -ADAM_LEARNING_RATE * g / (abs(g) + ADAM_EPS)
        assert updated[0] == pytest.approx(expected, rel=1e-12)
        assert updated[0] == pytest.approx(-math.copysign(ADAM_LEARNING_RATE, g), rel=1e-4)


def test_adam_moments_decay_after_gradients_cease():
    params = np.array([0.0])
    moments = AdamState.zeros_like(params)
    params, moments = adam_step(params, np.array([1.0]), moments, 1)
    m1, v1 = abs(moments.m[0]), abs(moments.v[0])
    for t in range(2, 12):
        params, moments = adam_step(params, np.array([0.0]), moments, t)
    assert abs(moments.m[0]) < m1
    assert abs(moments.v[0]) < v1
    assert abs(moments.m[0]) == pytest.approx(m1 * 0.9**10, rel=1e-9)


def test_adam_rejects_bad_step_index():
    params = np.zeros(1)
    with pytest.raises(FormatError):
        adam_step(params, params, AdamState.zeros_like(params), 0)


# --------------------------------------------------------------------------
# refine


def test_refine_initial_weights_are_the_initial_gate_weights():
    scene = fixture_scene()
    expected = compile_constraints(init_state(scene.init_probs), *encode_triplets(scene.categories, scene.gt_triplets)).weights
    for cfg in (RefineConfig(alpha=0.0), RefineConfig(alpha=0.1)):
        _, trace = refine(scene.init_probs, scene.gt_triplets, cfg)
        assert trace.initial_weights.shape == (len(scene.gt_triplets),)
        assert trace.initial_weights.tobytes() == expected.tobytes()
    _, empty = refine(scene.init_probs, TripletSet((), scene.categories))
    assert empty.initial_weights.shape == (0,)


def test_refine_alpha_zero_matches_baseline_and_ignores_triplets():
    scene = fixture_scene()
    cfg = RefineConfig(alpha=0.0)
    with_gt, trace = refine(scene.init_probs, scene.gt_triplets, cfg)
    without, _ = refine(scene.init_probs, TripletSet((), scene.categories), cfg)
    assert np.array_equal(with_gt.probs, without.probs)
    # Spatial loss is still recorded on the trace.
    assert all(trace.spatial > 0)
    # Fidelity starts at its own minimum, so the baseline never moves.
    expected = init_state(scene.init_probs)
    assert np.array_equal(with_gt.probs, expected.probs)


def test_refine_alpha_zero_stops_at_adam_fixed_point():
    scene = fixture_scene()
    cfg = RefineConfig(alpha=0.0)
    state, trace = refine(scene.init_probs, scene.gt_triplets, cfg)
    # The trace holds the one step that ran: the losses of the initial state.
    assert [row["step"] for row in trace.to_list()] == [1]
    initial = init_state(scene.init_probs)
    compiled = compile_constraints(initial, *encode_triplets(scene.categories, scene.gt_triplets))
    expected = objective(initial, initial.probs.copy(), compiled, cfg.alpha)[:3]
    assert (trace.fidelity[0], trace.spatial[0], trace.total[0]) == expected
    assert np.array_equal(state.logits, initial.logits)


def test_refine_trace_columns_and_report_layout():
    scene = fixture_scene()
    triplets = scene.gt_triplets
    _, trace = refine(scene.init_probs, triplets)
    assert trace.initial_weights.shape == (len(triplets),)
    assert [c.shape for c in (trace.fidelity, trace.spatial, trace.total)] == [(STEPS,)] * 3
    rows = trace.to_list()
    assert [list(row) for row in rows] == [["step", "fidelity", "spatial", "total"]] * STEPS
    assert all(type(rows[-1][name]) is float for name in ("fidelity", "spatial", "total"))
    _, empty = refine(scene.init_probs, TripletSet((), scene.categories))
    assert empty.initial_weights.shape == (0,)
    assert [c.shape for c in (empty.fidelity, empty.spatial, empty.total)] == [(1,)] * 3


def test_refine_trace_holds_no_triplet_keys():
    scene = fixture_scene()
    _, trace = refine(scene.init_probs, scene.gt_triplets)
    assert [f.name for f in fields(RefineTrace)] == [
        "fidelity", "spatial", "total", "initial_weights", "final_weights", "final_losses",
    ]
    assert not hasattr(trace, "keys")


def _count_adam_steps(monkeypatch) -> list[int]:
    # relfine rebinds the attribute `relfine.refine` to the function, so the
    # module is taken from the import system.
    module = importlib.import_module("relfine.refine")
    calls: list[int] = []

    def counting(params, grads, moments, t):
        calls.append(t)
        return adam_step(params, grads, moments, t)

    monkeypatch.setattr(module, "adam_step", counting)
    return calls


def test_refine_empty_triplets_never_call_adam(monkeypatch):
    scene = fixture_scene()
    calls = _count_adam_steps(monkeypatch)
    state, trace = refine(scene.init_probs, TripletSet((), scene.categories), RefineConfig(alpha=0.1))
    assert calls == []
    assert len(trace) == 1
    assert np.array_equal(state.logits, init_state(scene.init_probs).logits)


def test_refine_with_triplets_runs_every_adam_step(monkeypatch):
    scene = fixture_scene()
    calls = _count_adam_steps(monkeypatch)
    refine(scene.init_probs, scene.gt_triplets, RefineConfig(alpha=0.1))
    assert calls == list(range(1, STEPS + 1))


def test_refine_trace_length_and_simplex():
    scene = fixture_scene()
    state, trace = refine(scene.init_probs, scene.gt_triplets)
    assert len(trace) == STEPS
    sums = state.probs.sum(axis=0)
    assert np.abs(sums - 1.0).max() < 1e-6


def test_refine_deterministic_bit_identical():
    scene = fixture_scene()
    a_state, a_trace = refine(scene.init_probs, scene.gt_triplets)
    b_state, b_trace = refine(scene.init_probs, scene.gt_triplets)
    assert np.array_equal(a_state.logits, b_state.logits)
    assert np.array_equal(a_state.probs, b_state.probs)
    assert a_trace.to_list() == b_trace.to_list()


def test_refine_spatial_loss_strictly_decreases_early():
    scene = fixture_scene()
    _, trace = refine(scene.init_probs, scene.gt_triplets)
    spatial = trace.spatial[:5].tolist()
    assert all(b < a for a, b in zip(spatial, spatial[1:]))


def test_refine_final_total_below_initial_total():
    for seed in (FIXTURE_SEED, 7, 19):
        scene = generate_scene(random_grid_spec(seed, n_categories=3, noise_sigma=0.15, confusion_strength=0.5))
        cfg = RefineConfig()
        state, trace = refine(scene.init_probs, scene.gt_triplets, cfg)
        targets = init_state(scene.init_probs).probs
        compiled = compile_constraints(state, *encode_triplets(scene.categories, scene.gt_triplets))
        final_total = objective(state, targets, compiled, cfg.alpha)[2]
        assert final_total < trace.total[0]


def test_refine_descends_exactly_the_objective_gradient(monkeypatch):
    # Every gradient refine hands to Adam is objective's own, bit for bit,
    # at the logits Adam is about to update and freshly compiled constraints.
    scene = fixture_scene()
    cfg = RefineConfig(alpha=0.1)
    records = []

    def recording_adam_step(params, grads, *args):
        records.append((params.copy(), grads.copy()))
        return adam_step(params, grads, *args)

    monkeypatch.setattr(importlib.import_module("relfine.refine"), "adam_step", recording_adam_step)
    refine(scene.init_probs, scene.gt_triplets, cfg)
    assert len(records) == STEPS

    targets = init_state(scene.init_probs).probs
    for params, grads in records:
        state = SegmentationState.from_logits(scene.categories, params)
        compiled = compile_constraints(state, *encode_triplets(scene.categories, scene.gt_triplets))
        assert np.array_equal(objective(state, targets, compiled, cfg.alpha)[4], grads)


def test_refine_memory_does_not_grow_with_the_triplet_count():
    # 255 one-pixel categories on a 16x16 grid have 121,920 ground-truth
    # triplets. A step's arrays are (C, H, W) maps and band tables of 4C rows
    # per axis, so the peak stays far below what (C, T) and (T, H) arrays
    # take here (about 314 MiB traced).
    placements = tuple(Placement(f"p{i:03d}", i // 16, i % 16, i // 16 + 1, i % 16 + 1) for i in range(255))
    scene = generate_scene(SceneSpec(16, 16, placements, noise_sigma=0.1))
    assert len(scene.gt_triplets) == 121_920
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        refine(scene.init_probs, scene.gt_triplets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_refine_weights_recomputed_each_step(monkeypatch):
    # One compile of the initial maps and one of each state a step produced.
    # relfine rebinds the attribute `relfine.refine` to the function, so the
    # module is taken from the import system.
    scene = fixture_scene()
    first_weights: list[float] = []

    def recording(*args):
        compiled = compile_constraints(*args)
        first_weights.append(float(compiled.weights[0]))
        return compiled

    monkeypatch.setattr(importlib.import_module("relfine.refine"), "compile_constraints", recording)
    _, trace = refine(scene.init_probs, scene.gt_triplets)
    assert len(first_weights) == len(trace) + 1 == STEPS + 1
    assert len(set(first_weights)) > 1
    first_weights.clear()
    _, trace = refine(scene.init_probs, scene.gt_triplets, RefineConfig(alpha=0.0))
    assert len(first_weights) == len(trace) == 1


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
def test_refine_trace_final_terms_are_the_final_states(alpha):
    scene = fixture_scene()
    state, trace = refine(scene.init_probs, scene.gt_triplets, RefineConfig(alpha=alpha))
    _, terms = spatial_loss(state, scene.gt_triplets)
    assert len(trace.final_weights) == len(scene.gt_triplets) > 0
    assert np.array_equal(trace.final_weights, terms.weights)
    assert np.array_equal(trace.final_losses, terms.losses)

    _, trace = refine(scene.init_probs, TripletSet((), scene.categories), RefineConfig(alpha=alpha))
    assert trace.final_weights.shape == trace.final_losses.shape == (0,)


def test_refine_fixture_scene_reproduces_golden_miou():
    # Regression pin: recorded from this implementation on the seed-42
    # fixture; exact equality guards against silent numeric drift.
    from relfine.evaluate import miou

    scene = fixture_scene()
    state, _ = refine(scene.init_probs, scene.gt_triplets)
    value = miou(argmax_labels(state), scene.gt_labels, len(scene.categories))
    assert value == 0.7080482241772564


@pytest.mark.parametrize("alpha", [0.1, 1.0])
def test_refine_does_not_depend_on_the_order_of_the_triplets(alpha):
    # The spatial total sums fixed (C, 4C) cells, so a shuffled set refines to
    # the same bits, and its flags and initial weights follow the shuffle.
    from relfine.evaluate import satisfied_flags

    rng = np.random.default_rng(7)
    for seed in range(1000, 1030):
        scene = generate_scene(random_grid_spec(seed, n_categories=2 + seed % 7, height=64, width=64))
        order = rng.permutation(len(scene.gt_triplets))
        shuffled = TripletSet([scene.gt_triplets.triplets[k] for k in order], scene.categories)
        state, trace = refine(scene.init_probs, scene.gt_triplets, RefineConfig(alpha=alpha))
        state_shuffled, trace_shuffled = refine(scene.init_probs, shuffled, RefineConfig(alpha=alpha))
        labels = argmax_labels(state)
        assert np.array_equal(state.probs, state_shuffled.probs), seed
        assert np.array_equal(labels.labels, argmax_labels(state_shuffled).labels), seed
        assert trace.to_list() == trace_shuffled.to_list(), seed
        assert np.array_equal(trace.initial_weights[order], trace_shuffled.initial_weights), seed
        assert np.array_equal(trace.final_weights[order], trace_shuffled.final_weights), seed
        assert np.array_equal(trace.final_losses[order], trace_shuffled.final_losses), seed
        flags = satisfied_flags(labels, scene.categories, scene.gt_triplets)
        assert np.array_equal(flags[order], satisfied_flags(labels, scene.categories, shuffled)), seed
