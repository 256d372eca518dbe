"""The array calibration stages against the per-object reference stages.

relfine's stages gather over (C, C, 4) tables of a set's code arrays;
`reference_kernels` keeps the per-object stages they replaced. On random
cases built like `test_triplet_checks.random_case` (background, mixed
stages, empty sets), both give the same triplets in the same order with the
same stages, the same audit and the same contradiction pairs. Validation is
also handed sets that are not closed under reversal, straight from the
case, and must ask exactly the distinct statements the reference asks, in
the order it first asks them.
"""

from __future__ import annotations

import numpy as np
from reference_kernels import (
    reference_augment,
    reference_calibrate,
    reference_detect,
    reference_resolve,
    reference_validate,
)
from test_triplet_checks import random_case

from relfine.relations import (
    BACKGROUND,
    TripletSet,
    augment_bidirectional,
    calibrate,
    detect_contradictions,
    resolve_contradictions,
    validate_polar,
)

CASES = 1200


class RecordingOracle:
    """Forwards every question to `oracle` and records it."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.asked: list[tuple] = []

    def holds(self, *question):
        self.asked.append(question)
        return self.oracle.holds(*question)

    def choose(self, *question):
        self.asked.append(question)
        return self.oracle.choose(*question)


def _validated_alike(triplets: TripletSet, oracle) -> TripletSet:
    """validate_polar on `triplets`, checked against the reference: the same
    triplets, and exactly the reference's distinct questions in the order
    it first asks them."""
    got, want = RecordingOracle(oracle), RecordingOracle(oracle)
    validated = validate_polar(triplets, got)
    assert list(validated) == reference_validate(list(triplets), want)
    assert got.asked == list(dict.fromkeys(want.asked))
    return validated


def test_array_stages_match_the_per_object_stages():
    rng = np.random.default_rng(31)
    seen = dict.fromkeys(("empty", "background", "mixed stages", "open set", "contradictions", "resolution drops"), 0)
    for _ in range(CASES):
        initial, oracle = random_case(rng)
        items = list(initial)
        work = TripletSet([t for t in items if BACKGROUND not in (t.subject, t.object)], initial.categories)

        augmented = augment_bidirectional(work)
        assert list(augmented) == reference_augment(list(work))
        validated = _validated_alike(augmented, oracle)
        _validated_alike(initial, oracle)
        pairs = detect_contradictions(validated)
        assert [(p.first, p.second, p.kind) for p in pairs] == [
            (validated.triplets[i], validated.triplets[j], kind) for i, j, kind in reference_detect(list(validated))
        ]
        got, want = RecordingOracle(oracle), RecordingOracle(oracle)
        resolved = resolve_contradictions(validated, pairs, got)
        assert list(resolved) == reference_resolve(list(validated), reference_detect(list(validated)), want)
        assert got.asked == want.asked

        result = calibrate(initial, oracle)
        triplets, audit, reference_pairs = reference_calibrate(items, oracle)
        assert list(result.triplets) == triplets
        assert result.audit.to_dict() == audit
        assert [(p.first, p.second, p.kind) for p in pairs] == reference_pairs

        seen["empty"] += not items
        seen["background"] += audit["background_dropped"] > 0
        seen["mixed stages"] += len({t.stage for t in items}) > 1
        seen["open set"] += len(augment_bidirectional(initial)) > len(initial)
        seen["contradictions"] += audit["contradiction_pairs"] > 0
        seen["resolution drops"] += audit["resolution_dropped"] > 0
    assert all(count > 0 for count in seen.values()), seen
