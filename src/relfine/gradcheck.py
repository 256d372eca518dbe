"""Finite-difference verification of the analytic logit gradients.

Each random instance draws logits, soft targets, and a handful of
constraints, then compares the analytic gradient of `refine.objective`, the
one that `refine` descends, against central differences of the total that
its loss half, `refine._losses`, forms. The half-plane masks and constraint
weights are compiled once at the evaluation point and held fixed on both
sides of the comparison, matching their treat-as-constant semantics.

The instances cycle through SIZES, where every constraint's band is
nonempty, so each checks a spatial gradient. Every odd instance has its
logits scaled x20, which drives some pixels' 1 - p to LOG_CLAMP, so the
check also covers the clamp's flat branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .errors import FormatError, require_int, require_real
from .logic import LOG_CLAMP, compile_constraints, encode_triplets
from .refine import _losses, objective
from .relations import Relation, SpatialTriplet, TripletSet
from .state import SegmentationState

SIZES: tuple[tuple[int, int], ...] = ((2, 3), (4, 4), (5, 7), (8, 8))
DEFAULT_TOLERANCE = 1e-4
FD_STEP = 1e-4


def finite_difference_gradient(objective: Callable[[np.ndarray], float], point: np.ndarray) -> np.ndarray:
    """Central differences of a scalar objective, one coordinate at a time."""
    grad = np.zeros_like(point)
    flat = grad.reshape(-1)
    base = point.copy().reshape(-1)
    for i in range(base.size):
        saved = base[i]
        base[i] = saved + FD_STEP
        upper = objective(base.reshape(point.shape))
        base[i] = saved - FD_STEP
        lower = objective(base.reshape(point.shape))
        base[i] = saved
        flat[i] = (upper - lower) / (2.0 * FD_STEP)
    return grad


@dataclass(frozen=True)
class GradCheckResult:
    instance: int
    height: int
    width: int
    n_categories: int
    n_constraints: int
    #: Pixels where some category's 1 - p sits at LOG_CLAMP.
    clamped: int
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _random_instance(
    rng: np.random.Generator,
    height: int,
    width: int,
    n_categories: int,
    n_constraints: int,
) -> tuple[SegmentationState, np.ndarray, TripletSet]:
    roster = tuple(f"c{i}" for i in range(n_categories))
    logits = rng.normal(0.0, 1.0, (n_categories, height, width))
    state = SegmentationState.from_logits(roster, logits)

    targets = rng.random((n_categories, height, width))
    targets = targets / targets.sum(axis=0, keepdims=True)

    candidates = [
        (s, r, o)
        for s, o in product(roster, roster)
        if s != o
        for r in Relation
    ]
    picks = rng.choice(len(candidates), size=min(n_constraints, len(candidates)), replace=False)
    triplets = TripletSet(
        tuple(SpatialTriplet(*candidates[int(p)]) for p in sorted(picks)), roster
    )
    return state, targets, triplets


def check_instance(
    state: SegmentationState,
    targets: np.ndarray,
    triplets: TripletSet,
    alpha: float = 0.1,
    corrupt: bool = False,
) -> float:
    """Max-norm relative error between analytic and finite-difference gradients.

    `corrupt` perturbs one analytic component, a negative control that must
    make the check fail.
    """
    compiled = compile_constraints(state, *encode_triplets(state.categories, triplets))

    def total(logits: np.ndarray) -> float:
        return _losses(state.with_logits(logits), targets, compiled, alpha)[2]

    analytic = objective(state, targets, compiled, alpha)[4]
    if corrupt:
        analytic.flat[0] += 1e-2

    numeric = finite_difference_gradient(total, state.logits)
    scale = max(float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max()) / scale


def run_gradcheck(
    seed: int = 0,
    instances: int = 20,
    alpha: float = 0.1,
    tolerance: float = DEFAULT_TOLERANCE,
    corrupt: bool = False,
) -> list[GradCheckResult]:
    """Randomized gradient checks across SIZES and category counts.

    Raises FormatError, naming the argument, for a negative seed, fewer than
    one instance, an alpha that is negative or not finite, or a tolerance
    that is not finite and positive; and, naming the instance, when an
    objective or its gradient overflows, as a too-large alpha makes it.
    """
    if require_int(seed, "seed") < 0:
        raise FormatError(f"seed must be nonnegative, got {seed}")
    if require_int(instances, "instances") < 1:
        raise FormatError(f"instances must be at least 1, got {instances}")
    if require_real(alpha, "alpha") < 0:
        raise FormatError(f"alpha must be nonnegative, got {alpha}")
    if require_real(tolerance, "tolerance") <= 0:
        raise FormatError(f"tolerance must be positive, got {tolerance}")
    rng = np.random.default_rng(seed)
    results = []
    for instance in range(instances):
        height, width = SIZES[instance % len(SIZES)]
        n_categories = int(rng.integers(2, 5))
        n_constraints = int(rng.integers(2, 5))
        state, targets, triplets = _random_instance(rng, height, width, n_categories, n_constraints)
        if instance % 2:
            state = state.with_logits(20 * state.logits)
        try:
            with np.errstate(over="raise", invalid="raise"):
                error = check_instance(state, targets, triplets, alpha, corrupt=corrupt)
        except FloatingPointError as exc:
            raise FormatError(f"gradcheck instance {instance}: {exc}; lower --alpha") from None
        results.append(
            GradCheckResult(
                instance=instance,
                height=height,
                width=width,
                n_categories=n_categories,
                n_constraints=n_constraints,
                clamped=int((1.0 - state.probs <= LOG_CLAMP).sum()),
                max_rel_error=error,
                tolerance=tolerance,
            )
        )
    return results
