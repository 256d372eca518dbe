"""Test-time refinement of segmentation logits under spatial constraints.

The objective is fidelity + alpha * spatial: a cross-entropy anchor to the
initial maps plus the weighted fuzzy-logic constraint loss. `objective` is
its one definition, with its analytic logit gradient: `refine` descends it
and `relfine gradcheck` checks it. Adam runs `STEPS` steps over the logits,
every quantity recomputed from the current maps at each step, until it reaches
an exact fixed point: a step whose gradient and both moments are all zero
leaves the logits unchanged, so every later step would repeat it, and the
loop stops there. The trace holds the steps that ran and the per-constraint
weights and losses of the state `refine` returns, so no caller compiles it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import FormatError, check_fields
from .grid import ProbabilityMap
from .logic import (ConstraintTerms, compile_constraints, compiled_spatial_loss, encode_triplets,
                    logit_gradient_from_terms)
from .relations import TripletSet
from .state import SegmentationState, init_state


#: Steps one refine runs, unless it reaches a fixed point first.
STEPS = 15

#: Adam's step size, decay rates and denominator guard; the last three are the
#: defaults of Kingma & Ba (2015). The objective's scale reaches Adam only
#: through ADAM_EPS.
ADAM_LEARNING_RATE = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class RefineConfig:
    alpha: float = 0.1

    def __post_init__(self) -> None:
        check_fields(self)
        if self.alpha < 0:
            raise FormatError(f"alpha must be nonnegative, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class AdamState:
    """First and second moment accumulators."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> AdamState:
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    moments: AdamState,
    t: int,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; t counts from 1. Pure: returns new arrays."""
    if t < 1:
        raise FormatError(f"Adam step index counts from 1, got {t}")
    if params.shape != grads.shape:
        raise FormatError(f"params shape {params.shape} != grads shape {grads.shape}")
    # Fresh m, v, step and denominator arrays, updated in place; each
    # operation and its operands are the textbook formula's, so the bits are too.
    m = np.multiply(ADAM_BETA1, moments.m)
    step = np.multiply(1.0 - ADAM_BETA1, grads)
    m += step
    v = np.square(grads)
    v *= 1.0 - ADAM_BETA2
    v += np.multiply(ADAM_BETA2, moments.v, out=step)
    denom = np.divide(v, 1.0 - ADAM_BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    step *= ADAM_LEARNING_RATE
    step /= denom
    return np.subtract(params, step, out=step), AdamState(m=m, v=v)


def fidelity_loss(
    state: SegmentationState,
    init_probs: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Pixelwise cross-entropy to the initial maps, with its logit gradient.

    The gradient is p - q per pixel, exact for targets that sum to one. Using
    this form (rather than the general p*sum(q) - q) matters: at p == q it is
    exactly zero, so Adam cannot amplify normalization roundoff into drift
    and the alpha=0 run stays bit-identical to its initial state.
    """
    q = np.asarray(init_probs, dtype=np.float64)
    if q.shape != state.probs.shape:
        raise FormatError(f"target shape {q.shape} != state shape {state.probs.shape}")
    return float(-(q * state.log_probs).sum()), state.probs - q


@dataclass(frozen=True, eq=False)
class RefineTrace:
    """Losses at the start of each step that ran, before its update, as (n,)
    columns, and in the set's order the (T,) gate weights of the initial and
    the returned state and the returned state's (T,) constraint losses."""

    fidelity: np.ndarray
    spatial: np.ndarray
    total: np.ndarray
    initial_weights: np.ndarray
    final_weights: np.ndarray
    final_losses: np.ndarray

    def __len__(self) -> int:
        return len(self.total)

    def to_list(self) -> list[dict]:
        """One dict of losses per step, counted from 1."""
        columns = zip(self.fidelity.tolist(), self.spatial.tolist(), self.total.tolist())
        return [
            {"step": step, "fidelity": fid, "spatial": spa, "total": total}
            for step, (fid, spa, total) in enumerate(columns, start=1)
        ]


def _losses(
    state: SegmentationState,
    targets: np.ndarray,
    compiled: ConstraintTerms,
    alpha: float,
) -> tuple[float, float, float, ConstraintTerms, np.ndarray]:
    """`objective` without the spatial gradient: probes of its total need none."""
    fid, grad = fidelity_loss(state, targets)
    spa, terms = compiled_spatial_loss(state, compiled)
    total = fid + alpha * spa
    if not math.isfinite(total):  # Python floats overflow to inf without raising
        raise FloatingPointError(f"objective {total}")
    return fid, spa, total, terms, grad


def objective(
    state: SegmentationState,
    targets: np.ndarray,
    compiled: ConstraintTerms,
    alpha: float,
) -> tuple[float, float, float, ConstraintTerms, np.ndarray]:
    """The objective fidelity + alpha * spatial and its logit gradient.

    Returns (fidelity, spatial, total, terms, grad). `compiled` holds the
    masks and weights, constants of the gradient (a mask is piecewise
    constant; a weight, smooth in its object's map, is a stop-gradient), so
    the caller compiles them. Raises FloatingPointError when the total is
    not finite, before any gradient is formed; at alpha=0 the spatial
    gradient is never formed.
    """
    fid, spa, total, terms, grad = _losses(state, targets, compiled, alpha)
    if alpha != 0.0:
        grad = grad + alpha * logit_gradient_from_terms(state, terms)
    return fid, spa, total, terms, grad


def refine(
    init_probs: Mapping[str, ProbabilityMap],
    triplets: TripletSet,
    cfg: RefineConfig | None = None,
) -> tuple[SegmentationState, RefineTrace]:
    """Run the optimization loop and return the final state plus its trace.

    Triplets are encoded once; each step ends by compiling bands and weights
    against the state it produced, which gives the trace's final terms. A step
    whose gradient and Adam moments are all exactly zero is a fixed point of
    the update: its trace row is the last, its terms are the final ones, and
    the loop stops before calling `adam_step`. With alpha=0 that happens at
    step 1, since the fidelity gradient p - q starts at exactly zero, so the
    run reproduces the unconstrained baseline for the cost of one row; its
    spatial loss is recorded but never touches the update. An empty triplet set
    stops at step 1 at any alpha. Deterministic: same inputs and config give
    bit-identical traces and states. Raises FormatError when a step's
    arithmetic overflows or its objective is not finite, which an alpha too
    large for float64 brings about.
    """
    cfg = cfg or RefineConfig()

    state = init_state(init_probs)
    targets = state.probs.copy()
    moments = AdamState.zeros_like(state.logits)
    encoded = encode_triplets(state.categories, triplets)
    compiled = compile_constraints(state, *encoded)  # step 1's, and the trace's initial weights
    initial_weights = compiled.weights
    rows: list[tuple[float, float, float]] = []

    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, STEPS + 1):
                fid_loss, spa_loss, total, terms, grad = objective(state, targets, compiled, cfg.alpha)
                rows.append((fid_loss, spa_loss, total))
                if not (grad.any() or moments.m.any() or moments.v.any()):
                    break
                logits, moments = adam_step(state.logits, grad, moments, step)
                state = state.with_logits(logits)
                compiled = compile_constraints(state, *encoded)
            else:  # no fixed point: the last step's terms describe the state before it
                _, terms = compiled_spatial_loss(state, compiled)
    except FloatingPointError as exc:
        raise FormatError(f"refinement diverged at step {step}: {exc}; lower alpha") from None

    fidelity, spatial, total = (np.array([row[k] for row in rows], dtype=np.float64) for k in range(3))
    return state, RefineTrace(fidelity, spatial, total, initial_weights, terms.weights, terms.losses)
