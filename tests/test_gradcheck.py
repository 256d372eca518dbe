from __future__ import annotations

import importlib

import numpy as np
import pytest

from relfine import gradcheck
from relfine.errors import FormatError
from relfine.gradcheck import (
    DEFAULT_SIZES,
    DEFAULT_TOLERANCE,
    _random_instance,
    check_instance,
    finite_difference_gradient,
    run_gradcheck,
)
from relfine.logic import LOG_CLAMP
from relfine.relations import Relation, SpatialTriplet, TripletSet
from relfine.state import SegmentationState


def test_finite_difference_on_quadratic():
    # Independent sanity check of the FD harness itself.
    coeffs = np.array([[1.0, -2.0], [3.0, 0.5]])

    def objective(x):
        return float((coeffs * x * x).sum())

    point = np.array([[0.3, -1.2], [2.0, 0.7]])
    grad = finite_difference_gradient(objective, point)
    assert np.allclose(grad, 2 * coeffs * point, atol=1e-6)


def test_default_run_passes():
    results = run_gradcheck(seed=0, instances=8)
    assert all(r.passed for r in results)
    assert max(r.max_rel_error for r in results) < 1e-6


def test_corrupted_gradient_is_caught():
    results = run_gradcheck(seed=0, instances=4, corrupt=True)
    assert all(not r.passed for r in results)


def test_degenerate_single_pixel_grid():
    results = run_gradcheck(seed=3, sizes=[(1, 1)], instances=3)
    assert all(r.passed for r in results)


def test_check_instance_on_handmade_case():
    state = SegmentationState.from_logits(
        ("a", "b"), np.array([[[0.4, -0.2]], [[-0.1, 0.3]]])
    )
    targets = np.array([[[0.7, 0.2]], [[0.3, 0.8]]])
    triplets = TripletSet(
        (SpatialTriplet("a", Relation.RIGHT, "b"), SpatialTriplet("b", Relation.LEFT, "a")),
        ("a", "b"),
    )
    error = check_instance(state, targets, triplets)
    assert error < 1e-6


def test_sizes_are_capped_at_32_by_32_pixels(monkeypatch):
    # The cap is on the instance's grid; the check itself is stubbed out, as a
    # real one at 32x32 takes about a second.
    monkeypatch.setattr(gradcheck, "check_instance", lambda *args, **kwargs: 0.0)
    assert gradcheck.MAX_GRADCHECK_PIXELS == 32 * 32
    (result,) = run_gradcheck(sizes=[(32, 32)], instances=1)
    assert (result.height, result.width) == (32, 32) and result.passed
    for size in ((33, 32), (1, 1025)):
        with pytest.raises(FormatError, match=rf"^sizes must be .* at most 1024 pixels, got {size[0]}x{size[1]}$"):
            run_gradcheck(sizes=[size], instances=1)


def test_finite_difference_probes_form_no_spatial_gradient(monkeypatch):
    # Only the analytic side of each instance forms the spatial gradient;
    # the probes of the total evaluate the losses alone.
    refine = importlib.import_module("relfine.refine")
    calls = []
    kernel = refine.logit_gradient_from_terms
    monkeypatch.setattr(refine, "logit_gradient_from_terms", lambda *args: calls.append(1) or kernel(*args))
    results = run_gradcheck(seed=0, instances=5)
    assert all(r.passed for r in results)
    assert len(calls) == 5


def _band_instances() -> list[tuple[SegmentationState, np.ndarray, TripletSet]]:
    """The 20 instances `run_gradcheck(seed=0)` draws. At its default sizes
    every constraint has a nonempty band."""
    rng = np.random.default_rng(0)
    instances = []
    for index in range(20):
        height, width = DEFAULT_SIZES[index % len(DEFAULT_SIZES)]
        n_categories, n_constraints = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        instances.append(_random_instance(rng, height, width, n_categories, n_constraints))
    return instances


def _patch_spatial_gradient(monkeypatch, kernel) -> None:
    # `relfine.refine` is the function the package re-exports, so the module
    # is fetched by name to patch the one `objective` calls.
    monkeypatch.setattr(importlib.import_module("relfine.refine"), "logit_gradient_from_terms", kernel)


def test_gradcheck_fails_a_spatial_gradient_off_by_a_thousandth(monkeypatch):
    instances = _band_instances()

    def errors() -> list[float]:
        return [check_instance(state, targets, triplets, alpha=1.0) for state, targets, triplets in instances]

    assert max(errors()) < DEFAULT_TOLERANCE
    kernel = importlib.import_module("relfine.refine").logit_gradient_from_terms
    _patch_spatial_gradient(monkeypatch, lambda state, terms: 1.001 * kernel(state, terms))
    assert min(errors()) >= DEFAULT_TOLERANCE


def _gradient_without_the_clamp_branch(state, terms):
    """`logit_gradient_from_terms` less `g[inner == LOG_CLAMP] = 0.0`: where
    the clamp saturates, the loss is flat, yet this keeps 1/LOG_CLAMP's slope."""
    pairs = len(terms.rows)
    weights = np.bincount(terms.subjects * pairs + terms.keys, terms.weights, len(state.probs) * pairs)
    weights = weights.reshape(-1, pairs)
    inner = np.maximum(1.0 - state.probs, LOG_CLAMP)
    g = ((weights @ terms.rows)[:, :, None] + (weights @ terms.cols)[:, None, :]) / inner
    dot = (g * state.probs).sum(axis=0, keepdims=True)
    return state.probs * (g - dot)


def test_gradcheck_fails_a_kernel_without_the_clamp_branch(monkeypatch):
    # Logits x20 saturate the softmax, so many pixels sit at the clamp.
    instances = [(state.with_logits(20 * state.logits), targets, triplets)
                 for state, targets, triplets in _band_instances()]
    assert sum(int((1.0 - state.probs <= LOG_CLAMP).sum()) for state, _, _ in instances) > 0

    def errors() -> list[float]:
        return [check_instance(state, targets, triplets, alpha=0.1) for state, targets, triplets in instances]

    assert max(errors()) < DEFAULT_TOLERANCE
    _patch_spatial_gradient(monkeypatch, _gradient_without_the_clamp_branch)
    assert max(errors()) >= DEFAULT_TOLERANCE
