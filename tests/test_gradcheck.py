from __future__ import annotations

import importlib

import numpy as np
import pytest

from relfine.errors import FormatError
from relfine.gradcheck import (
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seed": -1}, "seed must be nonnegative, got -1"),
        ({"instances": 0}, "instances must be at least 1, got 0"),
        ({"instances": -3}, "instances must be at least 1, got -3"),
        ({"tolerance": float("inf")}, "tolerance must be a finite number"),
        ({"tolerance": 0}, "tolerance must be positive, got 0"),
    ],
)
def test_run_gradcheck_rejects_bad_arguments(kwargs, message):
    with pytest.raises(FormatError, match=message):
        run_gradcheck(**kwargs)


def test_degenerate_single_pixel_grid():
    # At 1x1 every band is empty, so only the fidelity gradient is checked.
    rng = np.random.default_rng(3)
    for _ in range(3):
        n_categories, n_constraints = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        assert check_instance(*_random_instance(rng, 1, 1, n_categories, n_constraints)) < 1e-6


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


def _patch_spatial_gradient(monkeypatch, kernel) -> None:
    # `relfine.refine` is the function the package re-exports, so the module
    # is fetched by name to patch the one `objective` calls.
    monkeypatch.setattr(importlib.import_module("relfine.refine"), "logit_gradient_from_terms", kernel)


def test_gradcheck_fails_a_spatial_gradient_off_by_a_thousandth(monkeypatch):
    assert all(r.passed for r in run_gradcheck(seed=0, instances=20, alpha=1.0))
    kernel = importlib.import_module("relfine.refine").logit_gradient_from_terms
    _patch_spatial_gradient(monkeypatch, lambda state, terms: 1.001 * kernel(state, terms))
    assert not any(r.passed for r in run_gradcheck(seed=0, instances=20, alpha=1.0))


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
    _patch_spatial_gradient(monkeypatch, _gradient_without_the_clamp_branch)
    results = run_gradcheck(seed=0, instances=20, alpha=0.1)
    # The odd instances are saturated, and only they tell the two kernels apart.
    assert [r.clamped > 0 for r in results] == [r.instance % 2 == 1 for r in results]
    assert any(not r.passed for r in results)
    assert all(r.passed for r in results if r.clamped == 0)
